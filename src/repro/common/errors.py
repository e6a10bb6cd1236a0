"""Exception hierarchy for the Wintermute reproduction.

Every exception raised by this library derives from :class:`ReproError`,
so callers embedding the framework (e.g. a Pusher main loop) can catch a
single base class at component boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TopicError(ReproError):
    """An invalid sensor topic string (empty segments, bad characters)."""


class ConfigError(ReproError):
    """A malformed configuration block for a plugin, operator or host.

    When raised by validation that inspects a whole block before giving
    up (the configurator, the static analyzer), ``diagnostics`` carries
    every individual finding as a list of
    :class:`repro.analysis.diagnostics.Diagnostic` records, so callers
    can report all problems of a block at once rather than one per
    attempt.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class LinkDownError(ReproError):
    """A publish was refused because the network link is down.

    Raised by :class:`repro.dcdb.network.NetworkConditions` while a
    scheduled outage or partition covers the destination: the message is
    *refused* back to the producer (which may buffer and retry), never
    silently dropped.  ``until_ns`` carries the end of the refusing
    down-window when known; ``refused`` carries the readings that were
    not delivered, as a :class:`~repro.dcdb.mqtt.ReadingBatch` (for
    ``publish_batch``, the refused subset), when known.
    """

    def __init__(self, message: str, until_ns=None, refused=None):
        super().__init__(message)
        self.until_ns = until_ns
        self.refused = refused


class QueryError(ReproError):
    """A Query Engine request that cannot be satisfied.

    Raised for unknown sensors, inverted time ranges, or queries issued
    before the engine has been wired to a data source.
    """


class PluginError(ReproError):
    """A plugin failed to load, start, stop or compute."""


class UnitResolutionError(ReproError):
    """A pattern unit could not be resolved against the sensor tree.

    Per Section III-B of the paper, a unit whose pattern expressions match
    no tree node "cannot be built"; this error carries which expression
    failed and for which unit name.
    """


class StorageError(ReproError):
    """The storage backend rejected an insert or a range query."""
