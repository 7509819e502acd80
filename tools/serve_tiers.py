#!/usr/bin/env python
"""Measure ``repro serve`` tiers: client counts against server settings.

Each window starts a fresh ``repro serve`` child (its own empty schedule
cache directory), warms it with the ``serve_hot`` hot set (every payload
once), then runs ``C`` closed-loop keep-alive client threads for the
window and stops the server with SIGTERM. Within each round the settings
run in alternating order (forward in even rounds, reversed in odd ones)
so a drift of the host does not favour one setting. One line per window:

    clients  setting  round  ok/s  503s  conn_errors  other  p50_ms

(``other`` counts answers that were neither 200 nor 503.)

``--cold`` replaces the hot windows with a cold burst: the six
plan-stream requests, one thread each, sent at once to a fresh server
with an empty cache, and the wall until the last one is answered.

The payloads come from ``benchmarks/e2e/streams.py`` (imported, never
modified). Standard library only; not run by CI. From the repository
root:

    python tools/serve_tiers.py --clients 2,8,32 \\
        --setting default --setting coalesce_ms=5 --seconds 10 --rounds 3
    python tools/serve_tiers.py --cold --setting default \\
        --setting coalesce_ms=5 --rounds 3

A setting is ``default`` or a comma list of ``coalesce_ms=M`` and
``workers=N``, the ``repro serve`` flags ``--coalesce-ms`` and
``--workers``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))

import streams  # noqa: E402

#: ``repro serve`` flag of each setting key.
FLAGS = {"coalesce_ms": "--coalesce-ms", "workers": "--workers"}


def serve_flags(setting: str) -> list[str]:
    """``repro serve`` flags of one setting (``default`` has none)."""
    if setting == "default":
        return []
    flags = []
    for item in setting.split(","):
        key, sep, value = item.partition("=")
        if not sep or key.strip() not in FLAGS:
            raise SystemExit(f"bad setting item {item!r}; keys: {sorted(FLAGS)}")
        flags += [FLAGS[key.strip()], value.strip()]
    return flags


class Server:
    """A ``repro serve`` child with its own cache directory."""

    def __init__(self, setting: str):
        self.cache = tempfile.TemporaryDirectory(prefix="serve-tiers-")
        env = dict(
            os.environ,
            PYTHONUNBUFFERED="1",
            REPRO_CACHE_DIR=self.cache.name,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
            ),
        )
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.proc = subprocess.Popen(
            cmd + serve_flags(setting),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        self.host, self.port = host, int(port)

    def post(self, body: str) -> int:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=600)
        try:
            conn.request("POST", "/plan", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            return response.status
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then remove the cache directory."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.cache.cleanup()


def hot_window(server: Server, clients: int, seconds: float, seed: int) -> dict:
    """``clients`` closed-loop keep-alive clients for ``seconds``."""
    bodies = [json.dumps(p) for p in streams.hot_payloads()]
    for body in bodies:  # warm-up: fill the memory tier
        server.post(body)
    lock = threading.Lock()
    ok_latencies: list[float] = []
    counts = {"shed": 0, "conn_errors": 0, "other": 0}
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
        stream = streams.client_stream(seed, index)
        headers = {"Content-Type": "application/json"}
        try:
            while time.perf_counter() < deadline:
                start = time.perf_counter()
                try:
                    conn.request("POST", "/plan", bodies[next(stream)], headers)
                    response = conn.getresponse()
                    response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()  # reconnects on the next request
                    status = 0
                latency = time.perf_counter() - start
                with lock:
                    if status == 200:
                        ok_latencies.append(latency)
                    elif status == 503:
                        counts["shed"] += 1
                    elif status == 0:
                        counts["conn_errors"] += 1
                    else:
                        counts["other"] += 1
        finally:
            conn.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    p50 = statistics.median(ok_latencies) if ok_latencies else float("nan")
    return {"ok_per_s": len(ok_latencies) / wall, "p50_ms": p50 * 1e3, **counts}


def cold_burst(server: Server) -> dict:
    """The six plan-stream requests at once; wall until all are answered."""
    statuses: list[int] = []
    lock = threading.Lock()

    def send(body: str) -> None:
        try:
            status = server.post(body)
        except (OSError, http.client.HTTPException):
            status = 0
        with lock:
            statuses.append(status)

    bodies = [json.dumps(p) for p in streams.plan_payloads()]
    start = time.perf_counter()
    threads = [threading.Thread(target=send, args=(b,)) for b in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "wall_s": time.perf_counter() - start,
        "ok": statuses.count(200),
        "shed": statuses.count(503),
        "conn_errors": statuses.count(0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--clients", default="2,8,32", help="comma list")
    parser.add_argument(
        "--setting",
        action="append",
        help="default, or e.g. coalesce_ms=5 or coalesce_ms=5,workers=2 "
        "(repeatable; default: default and coalesce_ms=5)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cold", action="store_true", help="cold burst instead")
    args = parser.parse_args(argv)
    settings = args.setting or ["default", "coalesce_ms=5"]
    for setting in settings:
        serve_flags(setting)  # reject a bad spelling before any window
    client_counts = [1] if args.cold else [int(c) for c in args.clients.split(",")]

    if args.cold:
        print(f"{'setting':24s} {'round':>5s} {'wall_s':>8s} ok 503s conn_errors")
    else:
        print(
            f"{'clients':>7s} {'setting':24s} {'round':>5s} {'ok/s':>8s} "
            f"{'503s':>6s} {'conn_errors':>11s} {'other':>5s} {'p50_ms':>8s}"
        )
    for round_ in range(args.rounds):
        order = settings if round_ % 2 == 0 else settings[::-1]
        for clients in client_counts:
            for setting in order:
                server = Server(setting)
                try:
                    if args.cold:
                        r = cold_burst(server)
                        print(
                            f"{setting:24s} {round_:5d} {r['wall_s']:8.2f} "
                            f"{r['ok']} {r['shed']} {r['conn_errors']}",
                            flush=True,
                        )
                    else:
                        r = hot_window(server, clients, args.seconds, args.seed)
                        print(
                            f"{clients:7d} {setting:24s} {round_:5d} "
                            f"{r['ok_per_s']:8.1f} {r['shed']:6d} "
                            f"{r['conn_errors']:11d} {r['other']:5d} "
                            f"{r['p50_ms']:8.1f}",
                            flush=True,
                        )
                finally:
                    server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
