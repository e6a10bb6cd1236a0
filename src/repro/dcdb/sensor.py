"""Sensors and sensor readings.

In DCDB a *sensor* is an atomic monitoring entity (power, temperature, a
CPU performance counter, ...) producing *readings*, each a numerical value
with a nanosecond timestamp.  Operator outputs are ordinary sensors too,
which is what makes analysis pipelines possible (Section IV-d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.common.topics import normalize_topic, sensor_name


class SensorReading(NamedTuple):
    """A single timestamped sample.

    Attributes:
        timestamp: nanosecond epoch of the sample.
        value: the sampled value.  DCDB stores integers; we use float64
            throughout so derived metrics (CPI, ratios) are first-class.
    """

    timestamp: int
    value: float


@dataclass
class Sensor:
    """Metadata describing one monitored quantity.

    Attributes:
        topic: full slash-separated key, e.g. ``/r0/c1/s2/power``.
        unit: free-form measurement unit label (``W``, ``C``, ``#``).
        is_delta: whether readings are monotonic counters whose consumers
            want per-interval differences (e.g. ``cpu-cycles``).
        publish: whether the owning component forwards readings over MQTT
            (operator outputs may be cache-only when ``False``).
        is_operator_output: marks sensors produced by Wintermute operators
            rather than sampled from hardware.
    """

    topic: str
    unit: str = ""
    is_delta: bool = False
    publish: bool = True
    is_operator_output: bool = False

    def __post_init__(self) -> None:
        self.topic = normalize_topic(self.topic)
        # Memoized: .name sits on the per-reading output path of every
        # operator pass, and re-splitting the topic there dominates the
        # batched pipeline's fixed costs at scale.
        self._name = sensor_name(self.topic)

    @property
    def name(self) -> str:
        """The sensor's own name (last topic segment)."""
        return self._name

    def __hash__(self) -> int:
        return hash(self.topic)


class SensorColumns:
    """One pass's readings as two parallel columns: a tuple of
    :class:`Sensor` and their float64 values, in emission order.

    What an operator pass and a sampling pass hand a host's
    ``store_readings_batch``; iterating yields ``(sensor, value)``
    pairs, for the hosts that store one reading at a time.
    """

    __slots__ = ("sensors", "values")

    def __init__(self, sensors: tuple, values) -> None:
        self.sensors = sensors
        self.values = np.asarray(values, dtype=np.float64)

    @classmethod
    def of(cls, readings) -> "SensorColumns":
        """``readings`` as columns (``(sensor, value)`` pairs are split)."""
        if isinstance(readings, cls):
            return readings
        pairs = readings if isinstance(readings, (list, tuple)) else list(readings)
        if not pairs:
            return cls((), ())
        sensors, values = zip(*pairs)
        return cls(sensors, values)

    def __len__(self) -> int:
        return len(self.sensors)

    def __iter__(self):
        return zip(self.sensors, self.values.tolist())


@dataclass
class SensorSpec:
    """A declarative request for a sensor used in plugin configuration.

    Monitoring plugins declare the sensors they will produce with specs;
    the Pusher turns each spec into a concrete :class:`Sensor` bound to
    the component the plugin instance monitors.
    """

    name: str
    unit: str = ""
    is_delta: bool = False
    publish: bool = True
    params: dict = field(default_factory=dict)

    def bind(self, component_topic: str) -> Sensor:
        """Create the concrete sensor under ``component_topic``."""
        base = component_topic.rstrip("/")
        return Sensor(
            topic=f"{base}/{self.name}",
            unit=self.unit,
            is_delta=self.is_delta,
            publish=self.publish,
        )
