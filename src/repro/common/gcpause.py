"""Pause CPython's cyclic garbage collector around artifact builds.

Schedules, dependency graphs and array kernels are large, immutable,
acyclic and long-lived. Building or unpickling one allocates hundreds of
thousands of container objects, which trips the collector's allocation
thresholds over and over; each full (generation-2) collection then
rescans every object the artifact caches already hold and frees almost
nothing. :func:`collector_paused` runs a build with the collector off.

The collector is process-wide state, so the pause is too: a lock-guarded
depth counter lets pauses nest and overlap across threads, and only the
outermost exit turns the collector back on — and only if it was on when
the first pause began. Reference counting keeps freeing acyclic garbage
during a pause; only cycle detection waits.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_depth = 0
_reenable = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector disabled (reentrant).

    The collector is re-enabled when the outermost active pause exits,
    whether its block returns or raises, provided it was enabled when
    that pause began.
    """
    global _depth, _reenable
    with _lock:
        if _depth == 0:
            _reenable = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _reenable:
                gc.enable()
