"""The ``repro serve`` service layer: validation, backpressure, HTTP.

The transport-free :class:`~repro.serve.service.PlannerService` carries
most of the behaviour (and most of the tests); one class drives the real
:class:`~repro.serve.http.PlannerHTTPServer` over a loopback socket to
pin the status-code mapping, the JSON shapes on the wire, and graceful
shutdown.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.common.errors import ConfigurationError, ServiceOverloadError
from repro.perf.planner import PlanRequest, plan_configurations
from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48
from repro.serve import PlannerHTTPServer, PlannerService
from repro.serve.service import parse_plan_request

GOOD = {
    "machine": "piz-daint",
    "workload": "bert-48",
    "num_workers": 4,
    "mini_batch": 16,
    "schemes": ["chimera", "dapple"],
}


class TestParseValidation:
    def test_good_payload_round_trips(self):
        req = parse_plan_request(GOOD)
        assert req.machine is PIZ_DAINT
        assert req.workload is BERT48
        assert req.schemes == ("chimera", "dapple")
        assert req.min_depth == 2 and req.max_micro_batch == 512
        assert req == PlanRequest(
            machine=PIZ_DAINT,
            workload=BERT48,
            num_workers=4,
            mini_batch=16,
            schemes=("chimera", "dapple"),
        )

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ([1, 2], "must be a JSON object"),
            ({**GOOD, "frobnicate": 1}, "unknown request field(s) ['frobnicate']"),
            ({k: v for k, v in GOOD.items() if k != "machine"},
             "missing required field 'machine'"),
            ({**GOOD, "machine": "cray-1"}, "available machines"),
            ({**GOOD, "workload": "llama"}, "available workloads"),
            ({**GOOD, "num_workers": "four"}, "'num_workers' must be an integer"),
            ({**GOOD, "num_workers": True}, "'num_workers' must be an integer"),
            ({**GOOD, "memory_budget_bytes": "2GiB"}, "'memory_budget_bytes'"),
            ({**GOOD, "schemes": "chimera"}, "'schemes' must be a list"),
            ({**GOOD, "schemes": [1]}, "'schemes' must be a list"),
            # Removed transform aliases are unknown fields; the 400 body
            # lists the accepted ones, ``pipeline`` among them.
            ({**GOOD, "lowered": True}, "'pipeline'"),
            ({**GOOD, "recompute": "yes"}, "'recompute' must be a boolean"),
            ({**GOOD, "top_k": 1.5}, "'top_k' must be an integer"),
            # NaN passes a ``<= 0`` check; both budgets must be positive.
            ({**GOOD, "memory_budget_bytes": float("nan")},
             "'memory_budget_bytes' must be a positive"),
            ({**GOOD, "memory_budget_bytes": 0}, "'memory_budget_bytes'"),
            ({**GOOD, "host_memory_budget_bytes": float("nan")},
             "'host_memory_budget_bytes' must be a positive"),
            ({**GOOD, "host_memory_budget_bytes": -1.0},
             "'host_memory_budget_bytes'"),
        ],
    )
    def test_rejections_name_the_problem(self, payload, fragment):
        with pytest.raises(ConfigurationError, match=None) as exc:
            parse_plan_request(payload)
        assert fragment in str(exc.value)


class TestPlannerService:
    def test_plan_matches_library_call(self):
        service = PlannerService()
        response = service.plan(GOOD)
        assert response["ok"] is True
        assert response["elapsed_s"] > 0
        reference = plan_configurations(
            PIZ_DAINT, BERT48, num_workers=4, mini_batch=16,
            schemes=("chimera", "dapple"),
        )
        assert len(response["entries"]) == len(reference)
        top, want = response["entries"][0], reference[0]
        assert top["label"] == want.label()
        assert top["throughput"] == want.throughput
        assert top["iteration_time"] == want.iteration_time

    def test_plan_failure_is_a_200_level_result_not_an_exception(self):
        service = PlannerService()
        response = service.plan({**GOOD, "num_workers": 1})
        assert response["ok"] is False
        assert "at least two workers" in response["error"]

    def test_batch_preserves_order_and_isolates_errors(self):
        service = PlannerService()
        response = service.plan_batch([GOOD, {**GOOD, "num_workers": 1}, GOOD])
        oks = [r["ok"] for r in response["results"]]
        assert oks == [True, False, True]
        assert response["results"][0] == response["results"][2]

    def test_nan_budget_rejected_not_ignored(self):
        """A NaN budget used to plan as if there were none."""
        service = PlannerService()
        payload = json.loads(
            json.dumps(GOOD)[:-1] + ', "memory_budget_bytes": NaN}'
        )
        with pytest.raises(ConfigurationError, match="'memory_budget_bytes'"):
            service.plan(payload)
        assert service.stats().rejected_invalid == 1

    def test_non_array_batch_rejected(self):
        service = PlannerService()
        with pytest.raises(ConfigurationError, match="JSON array"):
            service.plan_batch(GOOD)
        assert service.stats().rejected_invalid == 1

    def test_max_batch_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.serve.service.MAX_BATCH", 2)
        service = PlannerService()
        with pytest.raises(ConfigurationError, match="max_batch=2"):
            service.plan_batch([GOOD] * 3)
        assert service.stats().rejected_invalid == 1

    def test_backpressure_sheds_load(self):
        """With the single admission slot held, the next call is shed with
        ServiceOverloadError instead of queueing."""
        service = PlannerService(max_inflight=1)
        assert service._slots.acquire(blocking=False)  # occupy the slot
        try:
            with pytest.raises(ServiceOverloadError, match="at capacity"):
                service.plan(GOOD)
        finally:
            service._slots.release()
        assert service.stats().rejected_overload == 1
        # The slot was not leaked: the next request goes through.
        assert service.plan(GOOD)["ok"] is True

    def test_invalid_payload_does_not_consume_a_slot(self):
        service = PlannerService(max_inflight=1)
        with pytest.raises(ConfigurationError):
            service.plan({**GOOD, "machine": "cray-1"})
        assert service.plan(GOOD)["ok"] is True
        stats = service.stats()
        assert stats.rejected_invalid == 1 and stats.rejected_overload == 0

    def test_malformed_hammer_leaves_no_inflight(self):
        """Admission-slot leak regression: a burst of malformed bodies
        (rejected at every stage of validation) must leave the in-flight
        gauge at zero and every slot free for a real request."""
        service = PlannerService(max_inflight=2)
        malformed = [
            GOOD,  # not wrapped in a list: "must be a JSON array"
            [{**GOOD, "machine": "cray-1"}],
            [{**GOOD, "frobnicate": 1}],
            ["not an object"],
            [{k: v for k, v in GOOD.items() if k != "workload"}],
        ]
        for _ in range(10):
            for payload in malformed:
                with pytest.raises(ConfigurationError):
                    service.plan_batch(payload)
        assert service.stats_json()["inflight"] == 0
        # Both slots are free, not leaked one-per-failure.
        assert service._slots.acquire(blocking=False)
        assert service._slots.acquire(blocking=False)
        assert not service._slots.acquire(blocking=False)
        service._slots.release()
        service._slots.release()
        assert service.plan(GOOD)["ok"] is True

    def test_planner_crash_releases_slot_and_gauge(self, monkeypatch):
        """Even an unexpected exception *inside* planning (after the slot
        is held) returns the slot and the gauge on the way out."""
        service = PlannerService(max_inflight=1)

        def boom(requests, max_workers, pool):
            assert service.stats_json()["inflight"] == 1  # gauge is live
            raise RuntimeError("planner crashed mid-batch")

        monkeypatch.setattr("repro.serve.service.plan_many", boom)
        with pytest.raises(RuntimeError, match="mid-batch"):
            service.plan_batch([GOOD])
        assert service.stats_json()["inflight"] == 0
        monkeypatch.undo()
        # The single slot survived the crash: a real request still runs.
        assert service.plan(GOOD)["ok"] is True
        assert service.stats_json()["inflight"] == 0

    def test_stats_counters_and_cache_block(self):
        service = PlannerService()
        service.plan(GOOD)
        service.plan_batch([GOOD, {**GOOD, "num_workers": 1}])
        stats = service.stats_json()
        assert stats["requests"] == 3
        assert stats["batches"] == 2
        assert stats["plan_errors"] == 1
        assert stats["busy_seconds"] > 0
        assert 0.0 <= stats["schedule_cache"]["hit_rate"] <= 1.0
        assert stats["disk_cache"]["entries"] >= 0
        json.dumps(stats)  # wire-ready

    def test_ctor_validation(self):
        with pytest.raises(ConfigurationError, match="max_inflight"):
            PlannerService(max_inflight=0)


@pytest.fixture(scope="class")
def http_server():
    server = PlannerHTTPServer(("127.0.0.1", 0), PlannerService())
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
        assert not thread.is_alive()


def _post(url: str, body: bytes, headers: dict | None = None):
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json", **(headers or {})}
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _read_response(sock: socket.socket) -> bytes:
    """Read one whole response off a keep-alive socket; return its head."""
    data = b""
    while True:
        chunk = sock.recv(1 << 20)
        assert chunk, "server closed the connection mid-response"
        data += chunk
        head, sep, body = data.partition(b"\r\n\r\n")
        if sep and len(body) >= _content_length(head):
            return head


def _content_length(head: bytes) -> int:
    return int(re.search(rb"\r\nContent-Length: (\d+)", head)[1])


class TestHTTP:
    def test_healthz(self, http_server):
        assert _get(f"{http_server}/healthz") == (200, {"ok": True})

    @pytest.mark.parametrize(
        "request_bytes, status, body",
        [
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 200, {"ok": True}),
            (
                b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n",
                404,
                {"ok": False, "error": "no route /nope"},
            ),
        ],
        ids=["healthz", "404"],
    )
    def test_keepalive_response_arrives_whole(
        self, http_server, request_bytes, status, body
    ):
        """Nagle/delayed-ACK regression: on a reused connection, the
        first ``recv`` after the second request holds the complete
        response (head plus ``Content-Length`` body bytes). A server that
        writes the head and the body separately with Nagle on hands back
        only the head; the body waits for the client's delayed ACK."""
        url = urllib.parse.urlsplit(http_server)
        with socket.create_connection((url.hostname, url.port), timeout=60) as sock:
            sock.sendall(request_bytes)
            _read_response(sock)
            sock.sendall(request_bytes)
            head, sep, rest = sock.recv(1 << 20).partition(b"\r\n\r\n")
        assert sep, head
        assert head.startswith(f"HTTP/1.1 {status} ".encode()), head
        assert len(rest) == _content_length(head)
        assert json.loads(rest) == body

    def test_plan_endpoint(self, http_server):
        status, body = _post(
            f"{http_server}/plan", json.dumps(GOOD).encode()
        )
        assert status == 200 and body["ok"] is True
        assert body["entries"][0]["throughput"] > 0

    def test_plan_many_endpoint(self, http_server):
        status, body = _post(
            f"{http_server}/plan_many",
            json.dumps([GOOD, {**GOOD, "num_workers": 1}]).encode(),
        )
        assert status == 200
        assert [r["ok"] for r in body["results"]] == [True, False]

    def test_validation_maps_to_400(self, http_server):
        status, body = _post(
            f"{http_server}/plan",
            json.dumps({**GOOD, "machine": "cray-1"}).encode(),
        )
        assert status == 400
        assert "available machines" in body["error"]

    def test_nan_budget_maps_to_400(self, http_server):
        body = json.dumps(GOOD)[:-1] + ', "memory_budget_bytes": NaN}'
        status, body = _post(f"{http_server}/plan", body.encode())
        assert status == 400
        assert "memory_budget_bytes" in body["error"]

    def test_bad_json_maps_to_400(self, http_server):
        status, body = _post(f"{http_server}/plan", b"{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_unknown_route_404(self, http_server):
        assert _get(f"{http_server}/nope")[0] == 404
        assert _post(f"{http_server}/nope", b"{}")[0] == 404

    def test_oversized_body_maps_to_413(self, http_server):
        from repro.serve.http import MAX_BODY_BYTES

        status, body = _post(
            f"{http_server}/plan",
            b"{}",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        assert status == 413

    def test_stats_endpoint(self, http_server):
        status, body = _get(f"{http_server}/stats")
        assert status == 200
        assert body["requests"] >= 1
        assert body["inflight"] == 0
        assert "schedule_cache" in body

    def test_malformed_hammer_keeps_inflight_zero(self, http_server):
        """Wire-level slot-leak regression: hammer /plan and /plan_many
        with malformed bodies, then confirm the admission gauge reads
        zero and the server still plans."""
        for _ in range(5):
            assert _post(f"{http_server}/plan", b"{not json")[0] == 400
            assert _post(
                f"{http_server}/plan",
                json.dumps({**GOOD, "machine": "cray-1"}).encode(),
            )[0] == 400
            assert _post(
                f"{http_server}/plan_many", json.dumps(GOOD).encode()
            )[0] == 400
        status, body = _get(f"{http_server}/stats")
        assert status == 200 and body["inflight"] == 0
        assert _post(f"{http_server}/plan", json.dumps(GOOD).encode())[0] == 200

    def test_overload_maps_to_503(self):
        # A dedicated single-slot server whose slot we hold ourselves.
        server = PlannerHTTPServer(
            ("127.0.0.1", 0), PlannerService(max_inflight=1)
        )
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            assert server.service._slots.acquire(blocking=False)
            host, p = server.server_address[:2]
            status, body = _post(
                f"http://{host}:{p}/plan", json.dumps(GOOD).encode()
            )
            assert status == 503
            assert "retry with backoff" in body["error"]
        finally:
            server.service._slots.release()
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()


@contextlib.contextmanager
def _serving(server: PlannerHTTPServer):
    """Run ``server``'s accept loop for the block; the caller closes it."""
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield
    finally:
        server.shutdown()
        thread.join(timeout=10)


class TestShedAfterClose:
    """A closed service sheds every new call with 503, in process and
    with a worker pool (whose stopped pool would otherwise surface as a
    500 ``WorkerCrashError``)."""

    @pytest.mark.parametrize("workers", [0, 1], ids=["in-process", "workers=1"])
    def test_closed_service_sheds_plan_and_plan_many(self, workers):
        service = PlannerService(workers=workers)
        service.close()
        with pytest.raises(ServiceOverloadError, match="draining"):
            service.plan(GOOD)
        with pytest.raises(ServiceOverloadError, match="draining"):
            service.plan_batch([GOOD])
        server = PlannerHTTPServer(("127.0.0.1", 0), service)
        host, port = server.server_address[:2]
        try:
            with _serving(server):
                for route, body in (("plan", GOOD), ("plan_many", [GOOD])):
                    status, reply = _post(
                        f"http://{host}:{port}/{route}", json.dumps(body).encode()
                    )
                    assert status == 503, reply
                    assert "draining" in reply["error"]
        finally:
            server.server_close()
        stats = service.stats()
        assert stats.rejected_overload == 4
        assert stats.requests == 0 and stats.inflight == 0


class TestListenBacklog:
    def test_connection_burst_before_accept_loop(self):
        """32 clients connect before the accept loop runs: every one
        connects, and once serving starts every one is answered. With
        ``socketserver``'s default backlog of 5 the overflow connections
        time out or are reset."""
        server = PlannerHTTPServer(("127.0.0.1", 0), PlannerService())
        address = server.server_address[:2]
        with contextlib.ExitStack() as stack:
            stack.callback(server.server_close)
            socks = [
                stack.enter_context(socket.create_connection(address, timeout=3))
                for _ in range(32)
            ]
            with _serving(server):
                for sock in socks:
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                for sock in socks:
                    assert _read_response(sock).startswith(b"HTTP/1.1 200 ")
                for sock in socks:
                    sock.close()


def _burst(service: PlannerService, payloads: list) -> list:
    """Fire one thread per payload at ``service.plan``; returns results
    (response dicts or the raised exception, index-aligned)."""
    results: list = [None] * len(payloads)
    barrier = threading.Barrier(len(payloads))

    def client(i: int) -> None:
        barrier.wait()
        try:
            results[i] = service.plan(payloads[i])
        except BaseException as err:  # noqa: BLE001 - asserted by callers
            results[i] = err

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(len(payloads))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


class TestCoalescing:
    def test_burst_merges_into_fewer_dispatches(self):
        """The acceptance criterion: K concurrent single /plan calls run
        in < K plan_many dispatches, every caller gets its own result."""
        with PlannerService(coalesce_ms=80.0) as service:
            payloads = [dict(GOOD, top_k=1 + i % 3) for i in range(6)]
            results = _burst(service, payloads)
            assert all(isinstance(r, dict) and r["ok"] for r in results)
            # Fan-out respects per-request identity, not batch position.
            for payload, result in zip(payloads, results):
                assert len(result["entries"]) == payload["top_k"]
            stats = service.stats_json()
            co = stats["coalesce"]
            assert co["batches"] < len(payloads)
            assert co["coalesced_requests"] > 0
            assert co["enqueued"] == co["dispatched"] == len(payloads)
            assert co["queue_depth"] == 0
            assert stats["inflight"] == 0

    def test_invalid_payload_rejected_before_the_queue(self):
        with PlannerService(coalesce_ms=50.0) as service:
            with pytest.raises(ConfigurationError, match="available machines"):
                service.plan({**GOOD, "machine": "cray-1"})
            stats = service.stats_json()
            assert stats["rejected_invalid"] == 1
            assert stats["coalesce"]["enqueued"] == 0

    def test_coalesced_plan_errors_fan_out_per_request(self):
        with PlannerService(coalesce_ms=80.0) as service:
            payloads = [GOOD, {**GOOD, "num_workers": 1}, GOOD]
            results = _burst(service, payloads)
            assert [r["ok"] for r in results] == [True, False, True]
            assert "at least two workers" in results[1]["error"]
            assert service.stats_json()["plan_errors"] == 1

    def test_close_drains_queued_requests(self):
        """A window far longer than the test: close() must dispatch the
        queued burst immediately (drain = finish, not cancel) rather than
        waiting out the window or dropping futures."""
        service = PlannerService(coalesce_ms=60_000.0)
        results: list = []
        started = threading.Event()

        def client() -> None:
            started.set()
            results.append(service.plan(GOOD))

        thread = threading.Thread(target=client)
        thread.start()
        started.wait(timeout=10)
        # Wait until the request is actually queued in the coalescer.
        deadline = time.monotonic() + 10
        while service._coalescer.stats().queue_depth == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        service.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results and results[0]["ok"]
        assert service.stats_json()["inflight"] == 0
        with pytest.raises(ServiceOverloadError, match="draining"):
            service.plan(GOOD)

    def test_stats_grow_uptime_and_batch_percentiles(self):
        service = PlannerService()
        service.plan(GOOD)
        stats = service.stats_json()
        assert stats["uptime_s"] > 0
        assert stats["batch_p99_ms"] >= stats["batch_p50_ms"] > 0
        # busy_seconds measures demand, not duty cycle: bounded by
        # uptime only when batches never overlap (as here).
        assert stats["busy_seconds"] <= stats["uptime_s"]
        json.dumps(stats)
        service.close()

    def test_ctor_validation(self):
        with pytest.raises(ConfigurationError, match="workers"):
            PlannerService(workers=-1)
        with pytest.raises(ConfigurationError, match="coalesce_ms"):
            PlannerService(coalesce_ms=-0.5)


class TestMultiprocessService:
    """One worker process end to end through the service layer."""

    @pytest.fixture(scope="class")
    def mp_service(self):
        with PlannerService(workers=1, coalesce_ms=50.0) as service:
            yield service

    def test_pooled_plan_matches_in_process(self, mp_service):
        response = mp_service.plan(GOOD)
        assert response["ok"] is True
        reference = plan_configurations(
            PIZ_DAINT, BERT48, num_workers=4, mini_batch=16,
            schemes=("chimera", "dapple"),
        )
        assert len(response["entries"]) == len(reference)
        top, want = response["entries"][0], reference[0]
        assert top["throughput"] == want.throughput
        assert top["iteration_time"] == want.iteration_time

    def test_workers_stats_block(self, mp_service):
        mp_service.plan_batch([GOOD])
        stats = mp_service.stats_json()
        wp = stats["workers"]
        assert wp["configured"] == 1
        assert wp["alive"] == 1
        assert len(wp["pids"]) == 1
        assert wp["pending"] == 0
        assert wp["completed"] >= 1

    def test_plan_errors_cross_the_process_boundary(self, mp_service):
        response = mp_service.plan_batch([{**GOOD, "num_workers": 1}])
        [result] = response["results"]
        assert result["ok"] is False
        assert "at least two workers" in result["error"]


class TestGracefulDrainUnderLoad:
    def test_close_with_requests_queued_and_in_flight(self):
        """The satellite scenario: requests queued in the coalescer AND
        in flight in the worker pool when close() lands. Every future
        resolves, the pool joins (no orphan processes), inflight ends 0."""
        service = PlannerService(workers=1, coalesce_ms=150.0)
        pool_pids = service._pool.pids()
        payloads = [dict(GOOD, top_k=1 + i % 4) for i in range(5)]
        results: list = [None] * len(payloads)
        launched = threading.Barrier(len(payloads) + 1)

        def client(i: int) -> None:
            launched.wait()
            results[i] = service.plan(payloads[i])

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(payloads))
        ]
        for t in threads:
            t.start()
        launched.wait()
        # Close while the burst is still inside the coalescing window —
        # exactly what the SIGTERM handler does via serve_forever.
        deadline = time.monotonic() + 10
        while service._coalescer.stats().queue_depth == 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        service.close()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert all(isinstance(r, dict) and r["ok"] for r in results)
        stats = service.stats_json()
        assert stats["inflight"] == 0
        assert stats["coalesce"]["queue_depth"] == 0
        assert stats["workers"]["alive"] == 0
        assert stats["workers"]["pending"] == 0
        for pid in pool_pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_close_under_keepalive_churn(self):
        """Stress for the idle-connection tracking: more keep-alive
        clients than cores hammer ``/healthz`` with a tiny switch
        interval, then stop sending but hold their connections open while
        the server drains. ``server_close()`` must return (a connection
        left waiting unseen would hold its join forever), and every
        response a client got is whole."""
        server = PlannerHTTPServer(("127.0.0.1", 0), PlannerService())
        host, port = server.server_address[:2]
        accept = threading.Thread(target=server.serve_forever)
        accept.start()
        stop, release = threading.Event(), threading.Event()
        answered = [0] * 8
        bad: list = []

        def client(i: int) -> None:
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                while not stop.is_set():
                    conn.request("GET", "/healthz")
                    reply = conn.getresponse()
                    body = reply.read()
                    if (reply.status, body) != (200, b'{"ok": true}'):
                        bad.append((reply.status, body))
                    answered[i] += 1
                release.wait(timeout=60)  # idle, connection held open
            except (OSError, http.client.HTTPException):
                pass  # closed at a request boundary by the drain
            finally:
                conn.close()

        clients = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in clients:
                t.start()
            time.sleep(0.3)
            stop.set()
            server.shutdown()
            accept.join(timeout=30)
            closer = threading.Thread(target=server.server_close)
            closer.start()
            closer.join(timeout=30)
            assert not closer.is_alive(), "server_close() hung on a connection"
        finally:
            sys.setswitchinterval(interval)
            release.set()
            for t in clients:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in clients)
        assert not bad and any(answered)

    def test_sigterm_drains_real_server_with_pool(self):
        """End to end over a socket: ``repro serve --workers 1
        --coalesce-ms 100`` gets a concurrent burst, SIGTERM lands while
        it is in flight, every client still receives its full response,
        and the server exits 0 with no orphaned worker process."""
        with _spawn_serve("--workers", "1", "--coalesce-ms", "100") as (proc, base):
            responses: list = [None] * 4

            def client(i: int) -> None:
                responses[i] = _post(
                    f"{base}/plan", json.dumps(dict(GOOD, top_k=1 + i)).encode()
                )

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            time.sleep(0.03)  # inside the 100 ms coalescing window
            proc.send_signal(signal.SIGTERM)
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            for i, (status, body) in enumerate(responses):
                assert status == 200, body
                assert body["ok"] is True
                assert len(body["entries"]) == 1 + i
            assert proc.wait(timeout=120) == 0
            assert "drained, bye" in proc.stdout.read()

    def test_sigterm_drains_with_an_idle_keepalive_connection(self):
        """A client that keeps its connection open after one ``/plan``
        must not hold the drain: the server ends the idle connection and
        exits 0. A request in flight on another keep-alive connection
        when SIGTERM lands still gets its whole response."""
        with _spawn_serve("--coalesce-ms", "100") as (proc, base):
            url = urllib.parse.urlsplit(base)
            idle = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
            busy = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
            try:
                idle.request("POST", "/plan", json.dumps(GOOD))
                response = idle.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["ok"] is True
                busy.request("GET", "/healthz")
                busy.getresponse().read()  # a keep-alive connection too
                answer: list = []

                def in_flight() -> None:
                    busy.request("POST", "/plan", json.dumps(dict(GOOD, top_k=2)))
                    reply = busy.getresponse()
                    answer.append((reply.status, json.loads(reply.read())))

                thread = threading.Thread(target=in_flight)
                thread.start()
                time.sleep(0.03)  # inside the 100 ms coalescing window
                proc.send_signal(signal.SIGTERM)
                thread.join(timeout=120)
                assert not thread.is_alive()
                assert proc.wait(timeout=60) == 0
                assert "drained, bye" in proc.stdout.read()
                [(status, body)] = answer
                assert status == 200 and len(body["entries"]) == 2
                assert idle.sock.recv(1) == b""  # the server closed it
            finally:
                idle.close()
                busy.close()


@contextlib.contextmanager
def _spawn_serve(*flags: str):
    """``python -m repro serve --port 0 FLAGS`` as a child; yields the
    process and its base URL once ``/healthz`` answers, and kills it on
    exit if it is still running."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    with subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", *flags,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=repo,
    ) as proc:
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            base = banner.strip().rsplit(" ", 1)[-1]
            deadline = time.monotonic() + 60
            while True:
                try:
                    if _get(f"{base}/healthz") == (200, {"ok": True}):
                        break
                except OSError:
                    pass
                assert time.monotonic() < deadline, "server never came up"
                time.sleep(0.1)
            yield proc, base
        finally:
            if proc.poll() is None:
                proc.kill()
