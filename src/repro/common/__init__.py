"""Shared primitives: exceptions, the GiB unit, and small utilities.

These are deliberately dependency-free so every other subpackage can import
them without cycles.
"""

from repro.common.errors import (
    ReproError,
    ScheduleError,
    ValidationError,
    CommunicationError,
    DeadlockError,
    MemoryModelError,
    ConfigurationError,
)
from repro.common.units import GIB

__all__ = [
    "ReproError",
    "ScheduleError",
    "ValidationError",
    "CommunicationError",
    "DeadlockError",
    "MemoryModelError",
    "ConfigurationError",
    "GIB",
]
