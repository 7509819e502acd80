"""Planner-as-a-service: the ``repro serve`` HTTP/JSON layer.

:mod:`repro.serve.service` is the transport-free core — JSON payload
validation into :class:`~repro.perf.planner.PlanRequest`, bounded-
concurrency admission (backpressure via
:class:`~repro.common.errors.ServiceOverloadError`), per-request timing,
and service counters, with optional multiprocess planning
(``workers=``, via :class:`~repro.perf.workers.PlannerWorkerPool`) and
dynamic request coalescing (``coalesce_ms=``, via
:mod:`repro.serve.coalesce`). :mod:`repro.serve.http` wraps it in a
stdlib :class:`http.server.ThreadingHTTPServer` with graceful shutdown.
Both are dependency-free beyond the standard library, like the rest of
the repo.
"""

from repro.common.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.service": ("PlannerService", "ServiceStats"),
        "repro.serve.coalesce": ("RequestCoalescer", "CoalesceStats"),
        "repro.serve.http": ("PlannerHTTPServer", "serve_forever"),
    },
)
