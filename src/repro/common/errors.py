"""Exception hierarchy for the Chimera reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause while still
being able to distinguish failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ScheduleError(ReproError):
    """A pipeline schedule could not be constructed.

    Raised for structurally impossible requests, e.g. an odd number of stages
    for a bidirectional Chimera schedule, or ``N`` not divisible as required
    by a concatenation strategy.
    """


class ValidationError(ReproError):
    """A constructed schedule violates a structural invariant.

    Raised by :mod:`repro.schedules.validate` when a schedule has missing
    operations, duplicated work, cyclic dependencies, or conflicting worker
    occupancy.
    """


class CommunicationError(ReproError):
    """The in-process communication backend detected a protocol violation.

    Examples: receiving on a tag that was never sent within a deadlock-free
    window, mismatched collective group membership, or double-waiting a
    non-blocking handle.
    """


class DeadlockError(CommunicationError):
    """The cooperative executor made no progress over a full round.

    Carries a human-readable report of each worker's blocked operation so
    schedule bugs are diagnosable from the exception message alone.
    """


class KernelConvergenceError(ReproError):
    """The array kernel's fixed-point relaxation failed to converge.

    The contended fast path iterates [longest-path sweep -> per-channel
    FIFO serialization] until transfer queueing delays (and blocking
    collective release times) are exactly stable. The iteration cap is a
    safety net; hitting it means the relaxation has not settled, and the
    kernel refuses to return times that are not self-consistent. The
    message names the sweep cap, the schedule size and how many queueing
    delays and collective starts the last sweep still changed.
    """


class MemoryModelError(ReproError):
    """The memory model was asked for an inconsistent accounting.

    For example querying activation liveness for an operation kind it does
    not track, or a device capacity below a single micro-batch footprint.
    """


class ConfigurationError(ReproError):
    """An experiment/machine/workload configuration is invalid.

    E.g. a worker count that does not factor into (W, D), or a micro-batch
    size that does not divide the mini-batch.
    """


class ServiceOverloadError(ReproError):
    """The planner service refused a request due to backpressure.

    ``repro serve`` admits at most a bounded number of in-flight plan
    requests; beyond that it sheds load immediately (HTTP 503) instead of
    queueing unboundedly. Carries the configured capacity so clients can
    size their retry/backoff policy.
    """


class UnknownOptionError(ConfigurationError):
    """A schedule builder received an option it does not understand.

    Raised by :func:`repro.schedules.registry.build_schedule` *before* the
    builder runs, naming the scheme and the offending key — so a typo like
    ``max_inflight`` or an option meant for another scheme fails loudly
    instead of being swallowed by ``**options`` or blowing up as a bare
    ``TypeError`` deep inside a builder.
    """
