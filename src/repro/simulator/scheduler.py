"""Job scheduling substrate.

Wintermute's job operators (Section V-C) consume job metadata — job id,
user, node list — from the resource manager.  The paper's system queries
SLURM; this module provides the synthetic equivalent: a job table with
node allocations, FCFS placement onto free nodes, and the
``running at timestamp`` queries the persyst plugin performs at each
computation interval.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class Job:
    """One batch job: an application run on a set of nodes."""

    job_id: str
    app_name: str
    node_paths: tuple
    start_ts: int
    end_ts: int
    user: str = "hpcuser"

    def __post_init__(self) -> None:
        if self.start_ts >= self.end_ts:
            raise ConfigError(
                f"job {self.job_id}: start {self.start_ts} >= end {self.end_ts}"
            )
        if not self.node_paths:
            raise ConfigError(f"job {self.job_id}: empty node list")

    def is_running(self, ts: int) -> bool:
        """Whether the job occupies its nodes at ``ts`` (half-open end)."""
        return self.start_ts <= ts < self.end_ts

    @property
    def n_nodes(self) -> int:
        """Number of allocated nodes."""
        return len(self.node_paths)


class JobScheduler:
    """Job table with allocation queries.

    Jobs can be placed explicitly (:meth:`add_job`, fixed node list) or
    through FCFS allocation (:meth:`submit`, which picks the first nodes
    free for the job's whole time range).  ``job_on_node`` goes through a
    per-node index; ``revision`` counts the jobs added.
    """

    def __init__(self, node_paths: Sequence[str]) -> None:
        self.node_paths = list(node_paths)
        self._node_set = set(self.node_paths)
        self._jobs: Dict[str, Job] = {}
        # node path -> jobs touching it, kept sorted by start time.
        self._by_node: Dict[str, List[Job]] = {p: [] for p in self.node_paths}
        self._ids = itertools.count(1000)
        #: Bumped by every added job, so a reader can tell the table moved.
        self.revision = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def add_job(self, job: Job) -> Job:
        """Register a job with a fixed allocation.

        Rejects unknown nodes and time overlaps with existing jobs on
        any requested node.
        """
        for path in job.node_paths:
            if path not in self._node_set:
                raise ConfigError(f"job {job.job_id}: unknown node {path}")
            for other in self._by_node[path]:
                if job.start_ts < other.end_ts and other.start_ts < job.end_ts:
                    raise ConfigError(
                        f"job {job.job_id} overlaps {other.job_id} on {path}"
                    )
        if job.job_id in self._jobs:
            raise ConfigError(f"duplicate job id {job.job_id}")
        self._jobs[job.job_id] = job
        self.revision += 1
        for path in job.node_paths:
            bucket = self._by_node[path]
            bucket.append(job)
            bucket.sort(key=lambda j: j.start_ts)
        return job

    def submit(
        self,
        app_name: str,
        n_nodes: int,
        start_ts: int,
        end_ts: int,
        user: str = "hpcuser",
        job_id: Optional[str] = None,
    ) -> Job:
        """FCFS-allocate ``n_nodes`` free for the whole time range."""
        free = [
            p
            for p in self.node_paths
            if all(
                not (start_ts < j.end_ts and j.start_ts < end_ts)
                for j in self._by_node[p]
            )
        ]
        if len(free) < n_nodes:
            raise ConfigError(
                f"cannot allocate {n_nodes} nodes for [{start_ts}, {end_ts}): "
                f"only {len(free)} free"
            )
        jid = job_id if job_id is not None else f"job{next(self._ids)}"
        job = Job(jid, app_name, tuple(free[:n_nodes]), start_ts, end_ts, user)
        return self.add_job(job)

    def submit_earliest(
        self,
        app_name: str,
        n_nodes: int,
        duration_ns: int,
        not_before_ts: int = 0,
        user: str = "hpcuser",
        job_id: Optional[str] = None,
    ) -> Job:
        """Place a job at the earliest start with ``n_nodes`` free.

        A simple backfilling submit: starting from ``not_before_ts``, the
        start time advances to each already-scheduled job end until a
        window with enough free nodes for the full duration is found.
        """
        candidates = sorted(
            {not_before_ts}
            | {
                j.end_ts
                for j in self._jobs.values()
                if j.end_ts > not_before_ts
            }
        )
        last_error: Optional[ConfigError] = None
        for start_ts in candidates:
            try:
                return self.submit(
                    app_name,
                    n_nodes,
                    start_ts,
                    start_ts + duration_ns,
                    user=user,
                    job_id=job_id,
                )
            except ConfigError as exc:
                last_error = exc
        raise ConfigError(
            f"no feasible start found for {n_nodes} nodes x "
            f"{duration_ns} ns: {last_error}"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        """Look up a job by id."""
        return self._jobs.get(job_id)

    def all_jobs(self) -> List[Job]:
        """Every registered job, in insertion order."""
        return list(self._jobs.values())

    def running_jobs(self, ts: int) -> List[Job]:
        """Jobs occupying nodes at ``ts`` — the query the persyst plugin
        issues each computation interval."""
        return [j for j in self._jobs.values() if j.is_running(ts)]

    def job_on_node(self, node_path: str, ts: int) -> Optional[Job]:
        """The job (if any) running on ``node_path`` at ``ts``."""
        bucket = self._by_node.get(node_path)
        if not bucket:
            return None
        for job in bucket:
            if job.start_ts > ts:
                return None
            if job.is_running(ts):
                return job
        return None

    def utilization(self, ts: int) -> float:
        """Fraction of nodes occupied at ``ts``."""
        busy = sum(j.n_nodes for j in self.running_jobs(ts))
        return busy / max(1, len(self.node_paths))
