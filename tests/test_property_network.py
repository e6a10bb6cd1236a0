"""Property tests for out-of-order delivery accounting.

A jittery link can reorder messages in flight.  When the jitter spread
exceeds the Collect Agent's drain interval, late arrivals reach the
agent *after* newer readings were already committed, and both sinks
drop them: the sensor cache counts them in ``stale_drops`` and the
storage backend silently skips out-of-order inserts to preserve the
sorted timestamp invariant.

The properties pin that accounting down exactly: replaying the observed
arrival order through a running-max filter must predict (a) the cache's
``stale_drops`` counter and (b) the storage series contents, for every
seed/cadence/jitter combination.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timeutil import NS_PER_MS, NS_PER_SEC
from repro.dcdb import Broker, CollectAgent
from repro.dcdb.network import NetworkConditions
from repro.simulator.clock import TaskScheduler
from tests.hosts import one

TOPIC = "/r0/c0/n0/power"
HORIZON = 10**18


def _run_jittery_session(seed, n_msgs, gap_ms, jitter_ms):
    """Publish ``n_msgs`` readings over a jittery link into an agent.

    Returns ``(agent, arrivals)`` where ``arrivals`` is the exact
    (timestamp, value) sequence in broker *arrival* order — the order
    the agent's ingest queue saw.
    """
    scheduler = TaskScheduler()
    broker = Broker()
    agent = CollectAgent(
        "agent", broker, scheduler, drain_interval_ns=NS_PER_MS
    )
    arrivals = []
    broker.subscribe_batch(TOPIC, lambda batch: arrivals.extend(
        (batch.timestamp, v) for v in batch.values.tolist()))
    link = NetworkConditions(
        broker,
        scheduler,
        latency_ns=(jitter_ms + 1) * NS_PER_MS,
        jitter_ns=jitter_ms * NS_PER_MS,
        seed=seed,
    )
    for i in range(n_msgs):
        scheduler.run_until(i * gap_ms * NS_PER_MS)
        link.publish_batch(one(TOPIC, float(i), scheduler.clock.now))
    # Let everything land and drain (latency is bounded by jitter+1 ms).
    scheduler.run_until(n_msgs * gap_ms * NS_PER_MS + NS_PER_SEC)
    agent.flush()
    assert len(arrivals) == n_msgs  # the link never loses, only delays
    return agent, arrivals


def _running_max_filter(arrivals):
    """Split an arrival sequence into (accepted, late_count).

    Mirrors the sink semantics: a reading is accepted iff its timestamp
    is >= the newest timestamp accepted so far (ties allowed), else it
    is a late out-of-order delivery.
    """
    newest = None
    accepted = []
    late = 0
    for ts, value in arrivals:
        if newest is not None and ts < newest:
            late += 1
            continue
        accepted.append((ts, value))
        newest = ts
    return accepted, late


class TestLateArrivalAccounting:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_msgs=st.integers(5, 60),
        gap_ms=st.integers(1, 8),
        jitter_ms=st.integers(3, 20),
    )
    def test_stale_drops_and_storage_match_running_max(
        self, seed, n_msgs, gap_ms, jitter_ms
    ):
        # Jitter (3..20 ms) always exceeds the 1 ms drain interval, so
        # reordered messages straddle drain boundaries.
        agent, arrivals = _run_jittery_session(
            seed, n_msgs, gap_ms, jitter_ms
        )
        accepted, late = _running_max_filter(arrivals)

        cache = agent.caches[TOPIC]
        assert cache.stale_drops == late

        ts_arr, val_arr = agent.storage.query(TOPIC, 0, HORIZON)
        assert list(ts_arr) == [ts for ts, _ in accepted]
        assert list(val_arr) == [value for _, value in accepted]
        # Storage order is the arrival-order subsequence that survived
        # the running-max filter, hence non-decreasing by construction.
        assert sorted(ts_arr) == list(ts_arr)

        view = cache.view_absolute(0, HORIZON)
        assert list(view.timestamps()) == [ts for ts, _ in accepted]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_msgs=st.integers(5, 60),
        gap_ms=st.integers(1, 8),
        latency_ms=st.integers(0, 50),
    )
    def test_constant_latency_link_is_lossless_and_ordered(
        self, seed, n_msgs, gap_ms, latency_ms
    ):
        # With jitter=0 the link is FIFO: no reordering, no stale drops,
        # every reading committed — the invariant the store-and-forward
        # zero-loss guarantee rests on.
        scheduler = TaskScheduler()
        broker = Broker()
        agent = CollectAgent(
            "agent", broker, scheduler, drain_interval_ns=NS_PER_MS
        )
        link = NetworkConditions(
            broker,
            scheduler,
            latency_ns=latency_ms * NS_PER_MS,
            seed=seed,
        )
        for i in range(n_msgs):
            scheduler.run_until(i * gap_ms * NS_PER_MS)
            link.publish_batch(one(TOPIC, float(i), scheduler.clock.now))
        scheduler.run_until(n_msgs * gap_ms * NS_PER_MS + NS_PER_SEC)
        agent.flush()

        cache = agent.caches[TOPIC]
        assert cache.stale_drops == 0
        ts_arr, val_arr = agent.storage.query(TOPIC, 0, HORIZON)
        assert len(ts_arr) == n_msgs
        assert list(val_arr) == [float(i) for i in range(n_msgs)]
        assert sorted(ts_arr) == list(ts_arr)
