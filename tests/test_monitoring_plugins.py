"""The sampling contract of every monitoring plugin: ``sample(ts)`` is
one fresh float64 array aligned with ``sensors()``, equal bit for bit to
what the per-sensor samplers produced, one value at a time.

The references below are those per-sensor samplers, kept here frozen:
each yields the values of one pass in sensor order, from its own copy
of the plugin's state (its own simulator, cooling loop or counters).
"""

import numpy as np
import pytest

from repro.common.timeutil import NS_PER_MS, NS_PER_SEC
from repro.dcdb.plugins import (
    OpaPlugin,
    PerfeventPlugin,
    ProcfsPlugin,
    SysfsPlugin,
    TesterMonitoringPlugin,
)
from repro.simulator import ClusterSimulator, ClusterSpec, CoolingSystem, FacilityPlugin
from repro.simulator.engine import CPU_COUNTERS
from repro.simulator.scheduler import Job

#: Ascending: the simulator refuses to sample backwards.  A job runs on
#: the sampled node from 2 s to 20 s, so the values move.
TIMESTAMPS = [
    0, NS_PER_SEC, 2 * NS_PER_SEC, 7 * NS_PER_SEC + 250 * NS_PER_MS,
    19 * NS_PER_SEC, 30 * NS_PER_SEC,
]

#: The node plugins' tables: (plugin name, (sensor, unit, is_delta)...).
NODE_TABLES = {
    SysfsPlugin: ("sysfs", (
        ("power", "W", False),
        ("temp", "C", False),
        ("energy", "J", True),
        ("freq", "Hz", False),
    )),
    ProcfsPlugin: ("procfs", (
        ("idle-time", "s", True),
        ("memfree", "B", False),
    )),
    OpaPlugin: ("opa", (
        ("xmit-bytes", "B", True),
        ("rcv-bytes", "B", True),
    )),
}


def simulator() -> ClusterSimulator:
    sim = ClusterSimulator(ClusterSpec.small(nodes=2, cpus=3), seed=11)
    sim.scheduler.add_job(
        Job("j1", "hpl", (sim.node_paths[0],), 2 * NS_PER_SEC, 20 * NS_PER_SEC)
    )
    return sim


# ----------------------------------------------------------------------
# The per-sensor samplers, frozen
# ----------------------------------------------------------------------


def counter_reference(n_sensors):
    counters = [0] * n_sensors

    def one_pass(ts):
        for i in range(n_sensors):
            counters[i] += 1
            yield float(counters[i])

    return one_pass


def perfevent_reference(sim, node, counters):
    def one_pass(ts):
        per_counter = {
            name: sim.read_cpu_counters(node, name, ts) for name in counters
        }
        for cpu in range(sim.spec.cpus_per_node):
            for counter in counters:
                yield float(per_counter[counter][cpu])

    return one_pass


def node_reference(sim, node, table):
    def one_pass(ts):
        for name, _, _ in table:
            yield sim.read_node(node, name, ts)

    return one_pass


def facility_reference(cooling):
    def one_pass(ts):
        cooling.update(ts)
        yield cooling.inlet_temp_c
        yield cooling.setpoint_c
        yield cooling.chiller_power_w
        yield cooling.it_power_w

    return one_pass


def counter_case():
    plugin = TesterMonitoringPlugin("/r0/c0/n0", n_sensors=7)
    return plugin, counter_reference(7)


def perfevent_case(counters=CPU_COUNTERS):
    def case():
        sim, ref = simulator(), simulator()
        node = sim.node_paths[0]
        plugin = PerfeventPlugin(sim, node, counters=counters)
        return plugin, perfevent_reference(ref, node, counters)

    return case


def node_case(cls):
    def case():
        sim, ref = simulator(), simulator()
        node = sim.node_paths[0]
        return cls(sim, node), node_reference(ref, node, NODE_TABLES[cls][1])

    return case


def facility_case():
    plugin = FacilityPlugin(CoolingSystem(simulator()))
    return plugin, facility_reference(CoolingSystem(simulator()))


CASES = {
    "tester": counter_case,
    "perfevent": perfevent_case(),
    # Not CPU_COUNTERS order: the binding order is the option's.
    "perfevent-subset": perfevent_case(["instructions", "cpu-cycles"]),
    "sysfs": node_case(SysfsPlugin),
    "procfs": node_case(ProcfsPlugin),
    "opa": node_case(OpaPlugin),
    "facility": facility_case,
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]()


class TestSampleContract:
    def test_sensors_is_one_fixed_tuple(self, case):
        plugin, _ = case
        sensors = plugin.sensors()
        assert isinstance(sensors, tuple) and sensors == plugin.sensors()
        assert len({s.topic for s in sensors}) == len(sensors)

    def test_a_pass_is_float64_aligned_with_sensors(self, case):
        plugin, _ = case
        n = len(plugin.sensors())
        for ts in TIMESTAMPS:
            values = plugin.sample(ts)
            assert isinstance(values, np.ndarray)
            assert values.dtype == np.float64 and values.shape == (n,)

    def test_a_pass_equals_the_per_sensor_sampler_bit_for_bit(self, case):
        plugin, reference = case
        for ts in TIMESTAMPS:
            expected = np.array(list(reference(ts)), dtype=np.float64)
            got = plugin.sample(ts)
            assert got.tobytes() == expected.tobytes(), ts

    def test_consecutive_passes_share_no_memory(self, case):
        plugin, _ = case
        first = plugin.sample(TIMESTAMPS[2])
        kept = first.copy()
        second = plugin.sample(TIMESTAMPS[3])
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()


@pytest.mark.parametrize("cls", list(NODE_TABLES), ids=lambda c: c.__name__)
def test_node_plugin_tables(cls):
    name, table = NODE_TABLES[cls]
    sim = simulator()
    node = sim.node_paths[1]
    plugin = cls(sim, node, interval_ns=250 * NS_PER_MS)
    assert plugin.name == name and plugin.interval_ns == 250 * NS_PER_MS
    assert [(s.topic, s.unit, s.is_delta, s.publish) for s in plugin.sensors()] == [
        (f"{node}/{sensor}", unit, is_delta, True)
        for sensor, unit, is_delta in table
    ]
    assert cls.SENSOR_UNITS == {sensor: unit for sensor, unit, _ in table}
    assert list(cls.SENSOR_UNITS) == [sensor for sensor, _, _ in table]
