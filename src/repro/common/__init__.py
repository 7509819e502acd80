"""Shared primitives: exceptions, the GiB unit, and small utilities.

These are deliberately dependency-free so every other subpackage can import
them without cycles.
"""

from repro.common.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.common.errors": (
            "ReproError",
            "ScheduleError",
            "ValidationError",
            "CommunicationError",
            "DeadlockError",
            "MemoryModelError",
            "ConfigurationError",
        ),
        "repro.common.units": ("GIB",),
    },
)
