"""Host-speed sampling: turns wall times into reference-host seconds.

On a shared 2-core Xeon KVM guest the benchmark's host runs the same
code at speeds that drift by 2-3x within minutes and swing by 2x within
a second, with no steal time reported, so neither wall time nor CPU time
of a run measures the code alone. So while a workload runs, a
``SIGALRM`` timer interrupts the main thread every :data:`PERIOD_S` and
runs one short slice of a fixed, library-independent kernel. An op's
time is its wall time minus the slices that ran inside it, scaled by the
kernel's speed:

    reference seconds = own seconds * kernel speed / reference speed

The reference speeds in :data:`KINDS` are definitions, not
measurements of any host: a reference-host second is a second on a host
that runs the kernel at exactly that speed. They were set near the
fastest speed the guest above reached, so reference seconds there read
at most wall seconds; ``compare`` only uses ratios, in which they cancel.
Every record keeps the raw times too.

A slice's speed is its steps over its *thread CPU time*, not its wall
time. While a slice runs, the main thread can lose the interpreter lock
to a client thread, or its core to another process; CPU time leaves both
waits out. The yardstick then reads how fast this core executes, not
how busy the workload keeps the process, so a change that makes the
workload use more CPU does not also slow the yardstick and hide itself.

Two kernels, because the host's slowdowns do not hit all code alike.
``python`` is the loop ``repro.bench.perfsuite.calibration_score`` times
(list indexing, compare, add); planning and serving wall times follow it
(log-log slope 0.9-1.1 over 10 runs). ``numpy`` is a chain of small
matmuls shaped like the training model's; training step times follow it
(slope 0.92) but only half follow the Python loop (slope 0.54-0.67).
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

#: Timer period of the sampler; a slice costs 2-5% of it.
PERIOD_S = 0.02

_SRC = [(i * 7919) % 1000 for i in range(1000)]
_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((24, 32))
_W1 = _RNG.standard_normal((32, 128))
_W2 = _RNG.standard_normal((128, 32))


def _python_slice(steps: int) -> None:
    end = [0.0] * 1000
    for i in range(steps):
        j = i % 1000
        t = end[_SRC[j]] + 1.5
        if t > end[j]:
            end[j] = t


def _numpy_slice(steps: int) -> None:
    x = _X
    for _ in range(steps):
        h = np.maximum(x @ _W1, 0.0)
        x = (h @ _W2) * 0.01 + _X
        x = x - x.mean(axis=1, keepdims=True)


#: kind -> (kernel, steps per slice of about 0.5 ms, reference steps/s).
KINDS = {
    "python": (_python_slice, 5_000, 15e6),
    "numpy": (_numpy_slice, 10, 50e3),
}


class Sampler:
    """Kernel slices run from ``SIGALRM`` in the main thread.

    Signal handlers run between bytecodes of the main thread, also while
    it waits on a lock or a socket, so the slices interleave with
    whatever the main thread does and sample the host while it does it.
    """

    def __init__(self, kind: str = "python") -> None:
        self.use(kind)

    def use(self, kind: str) -> None:
        """Switch kernels; the counters restart."""
        self.kernel, self.slice_steps, self.reference = KINDS[kind]
        self.steps = 0
        #: Wall seconds the slices took (removed from op times).
        self.seconds = 0.0
        #: Thread CPU seconds the slices took (their speed's base).
        self.cpu_seconds = 0.0

    def _tick(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        self.kernel(self.slice_steps)
        self.cpu_seconds += time.thread_time() - cpu
        self.seconds += time.perf_counter() - start
        self.steps += self.slice_steps

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(
        self, steps: int | None = None, cpu_seconds: float | None = None
    ) -> float:
        """Wall-to-reference factor for slices (default: all so far)."""
        if steps is None:
            if not self.steps:
                self._tick(None, None)
            steps, cpu_seconds = self.steps, self.cpu_seconds
        return steps / cpu_seconds / self.reference

    @contextmanager
    def timing(self):
        """Time a block: yields a dict filled with ``raw_s`` and ``ref_s``.

        ``raw_s`` is the block's wall time without the slices inside it;
        ``ref_s`` scales it by the kernel speed inside the block, or over
        the whole run when no slice landed inside.
        """
        out: dict[str, float] = {}
        steps, seconds, cpu = self.steps, self.seconds, self.cpu_seconds
        start = time.perf_counter()
        yield out
        wall = time.perf_counter() - start
        d_steps = self.steps - steps
        out["raw_s"] = wall - (self.seconds - seconds)
        scale = self.scale(d_steps, self.cpu_seconds - cpu) if d_steps else self.scale()
        out["ref_s"] = out["raw_s"] * scale
