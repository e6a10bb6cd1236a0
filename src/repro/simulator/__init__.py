"""Synthetic HPC cluster substrate.

The paper's experiments ran on CooLMUC-3 (148 Knights Landing nodes, 64
cores each).  This package provides the closest synthetic equivalent: a
configurable cluster topology, one power/thermal/performance state for
all nodes (advanced at once per timestamp) with manufacturing variability
and plantable anomalies, phase-structured workload generators for the
CORAL-2 applications used in the paper, and a job scheduler supplying the
job table the persyst case study queries.

All components share a :class:`~repro.simulator.clock.SimClock`, so a
whole experiment is a deterministic function of its seed.
"""

from repro.simulator.clock import SimClock, PeriodicTask, TaskScheduler
from repro.simulator.cluster import ClusterSpec, ClusterTopology
from repro.simulator.node import NodePowerParams, PowerModel
from repro.simulator.workload import (
    AppProfile,
    IdleProfile,
    HplProfile,
    KripkeProfile,
    AmgProfile,
    NekboneProfile,
    LammpsProfile,
    profile_by_name,
    APP_PROFILES,
)
from repro.simulator.scheduler import Job, JobScheduler
from repro.simulator.engine import ClusterSimulator
from repro.simulator.facility import CoolingParams, CoolingSystem, FacilityPlugin

__all__ = [
    "SimClock",
    "PeriodicTask",
    "TaskScheduler",
    "ClusterSpec",
    "ClusterTopology",
    "NodePowerParams",
    "PowerModel",
    "AppProfile",
    "IdleProfile",
    "HplProfile",
    "KripkeProfile",
    "AmgProfile",
    "NekboneProfile",
    "LammpsProfile",
    "profile_by_name",
    "APP_PROFILES",
    "Job",
    "JobScheduler",
    "ClusterSimulator",
    "CoolingParams",
    "CoolingSystem",
    "FacilityPlugin",
]
