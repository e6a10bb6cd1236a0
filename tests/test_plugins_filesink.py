"""Tests for the filesink (CSV export) plugin."""

import csv

import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.operator import OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from repro.plugins.filesink import FileSinkOperator
from tests.hosts import RecordingHost


class Host(RecordingHost):
    capacity = 32


def make_op(tmp_path, **params):
    cfg = OperatorConfig(
        name="sink",
        params={"directory": str(tmp_path / "out"), **params},
    )
    return FileSinkOperator(cfg)


def make_unit():
    return Unit(
        name="/r0/n0",
        level=0,
        inputs=["/r0/n0/power", "/r0/n0/temp"],
        outputs=[Sensor("/r0/n0/rows", is_operator_output=True)],
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFileSink:
    def test_writes_header_and_rows(self, tmp_path):
        host = Host()
        op = make_op(tmp_path, flush_every=1)
        op.bind(host, QueryEngine(host))
        op.start()
        unit = make_unit()
        for i in range(3):
            ts = i * NS_PER_SEC
            host.push("/r0/n0/power", ts, 100.0 + i)
            host.push("/r0/n0/temp", ts, 40.0 + i)
            out = op.compute_unit(unit, ts)
        assert out == {"rows": 3.0}
        rows = read_rows(tmp_path / "out" / "r0_n0.csv")
        assert rows[0] == ["timestamp", "r0_n0_power", "r0_n0_temp"]
        assert rows[1] == ["0.0", "100.0", "40.0"]
        assert rows[3] == ["2.0", "102.0", "42.0"]

    def test_timestamp_units(self, tmp_path):
        host = Host()
        host.push("/r0/n0/power", 2 * NS_PER_SEC, 1.0)
        host.push("/r0/n0/temp", 2 * NS_PER_SEC, 2.0)
        op = make_op(tmp_path, timestamp_unit="ms", flush_every=1)
        op.bind(host, QueryEngine(host))
        op.start()
        op.compute_unit(make_unit(), 2 * NS_PER_SEC)
        rows = read_rows(tmp_path / "out" / "r0_n0.csv")
        assert rows[1][0] == "2000.0"

    def test_missing_input_leaves_blank(self, tmp_path):
        host = Host()
        host.push("/r0/n0/power", 0, 5.0)  # temp never produced
        op = make_op(tmp_path, flush_every=1)
        op.bind(host, QueryEngine(host))
        op.start()
        op.compute_unit(make_unit(), 0)
        rows = read_rows(tmp_path / "out" / "r0_n0.csv")
        assert rows[1] == ["0.0", "5.0", ""]

    def test_flush_cadence(self, tmp_path):
        host = Host()
        op = make_op(tmp_path, flush_every=100)
        op.bind(host, QueryEngine(host))
        op.start()
        unit = make_unit()
        host.push("/r0/n0/power", 0, 1.0)
        host.push("/r0/n0/temp", 0, 2.0)
        op.compute_unit(unit, 0)
        # Not yet flushed: only the header is guaranteed on disk.
        op.stop()  # stop() flushes
        rows = read_rows(tmp_path / "out" / "r0_n0.csv")
        assert len(rows) == 2
        op.close()

    def test_appends_across_restarts(self, tmp_path):
        host = Host()
        host.push("/r0/n0/power", 0, 1.0)
        host.push("/r0/n0/temp", 0, 2.0)
        for _ in range(2):
            op = make_op(tmp_path, flush_every=1)
            op.bind(host, QueryEngine(host))
            op.start()
            op.compute_unit(make_unit(), 0)
            op.stop()
            op.close()
        rows = read_rows(tmp_path / "out" / "r0_n0.csv")
        assert len(rows) == 3  # one header + two data rows

    @pytest.mark.parametrize(
        "params",
        [
            {},
            {"directory": "/tmp/x", "flush_every": 0},
            {"directory": "/tmp/x", "timestamp_unit": "minutes"},
        ],
    )
    def test_validation(self, params):
        with pytest.raises(ConfigError):
            FileSinkOperator(OperatorConfig(name="s", params=params))

    def test_registered(self):
        from repro.core.registry import available_plugins

        assert "filesink" in available_plugins()
