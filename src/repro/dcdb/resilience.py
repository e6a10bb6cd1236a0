"""Retry pacing for the Pusher's store-and-forward path.

Production ODA deployments live or die on surviving management-network
outages: a Pusher whose link to the Collect Agent is down must buffer
readings locally and re-publish them on reconnect, not lose them.  The
buffer is a :class:`~repro.dcdb.mqtt.PassQueue`; this module provides
the pacing of the re-publishes, :class:`ExponentialBackoff` —
deterministic, seeded retry delays with multiplicative growth and
uniform jitter, so a thousand Pushers reconnecting after the same
outage do not stampede the broker in lockstep.  A plain data structure:
locking is the owner's responsibility (the Pusher guards its spill
state through the ``hooks.make_lock`` sanitizer seam).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError


class ExponentialBackoff:
    """Deterministic retry pacing: exponential growth plus jitter.

    Args:
        base_ns: first retry delay.
        max_ns: delay ceiling (growth saturates here).
        factor: multiplicative growth per attempt.
        jitter: uniform relative jitter (0.2 = +/- 20%) applied to every
            delay so reconnecting producers desynchronize.
        seed: deterministic randomness for the jitter samples.
    """

    def __init__(
        self,
        base_ns: int,
        max_ns: int,
        factor: float = 2.0,
        jitter: float = 0.2,
        seed: int = 0,
    ):
        if base_ns <= 0 or max_ns < base_ns:
            raise ConfigError(
                f"backoff needs 0 < base_ns <= max_ns, "
                f"got base={base_ns} max={max_ns}"
            )
        if factor < 1.0:
            raise ConfigError(f"backoff factor must be >= 1: {factor}")
        if not (0.0 <= jitter < 1.0):
            raise ConfigError(f"backoff jitter must be in [0, 1): {jitter}")
        self.base_ns = int(base_ns)
        self.max_ns = int(max_ns)
        self.factor = float(factor)
        self.jitter = float(jitter)
        self._rng = np.random.default_rng(seed)
        self._current = float(base_ns)
        self.attempts = 0

    def next_delay(self) -> int:
        """The next retry delay; each call grows the subsequent one."""
        delay = min(self._current, float(self.max_ns))
        self._current = min(self._current * self.factor, float(self.max_ns))
        self.attempts += 1
        if self.jitter:
            delay *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return max(1, int(delay))

    def reset(self) -> None:
        """Back to the base delay (call after a successful reconnect)."""
        self._current = float(self.base_ns)
        self.attempts = 0
