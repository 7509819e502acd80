"""End-to-end benchmark: planning, ``/plan`` serving and pipeline training.

Runs one seeded workload in fresh child processes, prints every metric by
name with its unit, checks every output, and ends with one JSON line::

    python3 benchmarks/e2e/run.py --workload plan_cold --seed 1 \\
        --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py compare SET_A SET_B

``--trace 1`` makes a separate, fixed-length traced run: it wraps each
layer's public function (see ``tracer.py``) and reports per-layer metrics
instead of the end-to-end ones, plus a Chrome trace. ``BENCHMARK.json``
at the repository root names the metrics, their units and bounds. Each
run writes a record under ``--out`` (default
``benchmarks/e2e/results``); ``compare`` reads two such directories.
Scratch state (private cache directories, server logs) lives in a
temporary directory under ``--out`` and is removed at exit; the
plan_warm population is kept there as ``warm-tier-<key>`` for the next
plan_warm run of the same sources (see :func:`populate`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("plan_cold", "plan_warm", "serve_hot", "train")

#: Fresh processes whose set-up is timed; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Hard cap on one child process (the whole run must end within 180 s).
CHILD_TIMEOUT_S = 150

#: A traced run's op-root spans must cover this share of its timed wall.
MIN_COVERAGE = 0.95


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(work: Path) -> dict:
    """Environment of every child: the checkout's sources, private dirs."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DISABLE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def run_child(args, env: dict, work: Path, *flags: str) -> dict:
    """Run ``workloads.py`` once and return its result record."""
    result = work / f"result-{len(list(work.glob('result-*')))}.json"
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        args.workload,
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--work={work}",
        f"--result={result}",
        *flags,
    ]
    if args.ops is not None:
        cmd.append(f"--ops={args.ops}")
    cmd.append(f"--spawned-at={time.monotonic()!r}")
    # A session of its own, so a timeout also stops the child's server.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        status = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{args.workload} child exceeded {CHILD_TIMEOUT_S} s")
    if status != 0:
        raise RuntimeError(f"{args.workload} child exited with status {status}")
    return json.loads(result.read_text())


def host_facts() -> dict:
    """What the numbers depend on besides the code."""
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
    }


def population_key(args) -> str:
    """What the plan_warm disk tier depends on: sources, inputs, interpreter."""
    import numpy

    h = hashlib.sha256(f"{platform.python_version()} {numpy.__version__}".encode())
    h.update(f"ops={args.ops}".encode())
    files = sorted((ROOT / "src").rglob("*.py"))
    files += [HERE / "streams.py", HERE / "workloads.py"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def populate(args, work: Path) -> None:
    """Give ``work`` the plan_warm precondition: the stream's disk tier.

    A population process plans the stream once, cold, as ``plan_cold``
    does. The tier depends only on :func:`population_key`, so one
    population serves every plan_warm run of a checkout: it is kept under
    ``--out`` and hard-linked into each run's private cache directory.
    The disk tier stores by atomic rename and evicts by unlink, so no run
    can change the kept copy.
    """
    kept = args.out / f"warm-tier-{population_key(args)}"
    if not kept.is_dir():
        stage = Path(tempfile.mkdtemp(prefix="populate-", dir=args.out))
        try:
            run_child(args, child_env(stage), stage, "--populate")
            os.rename(stage, kept)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    shutil.copytree(kept / "cache", work / "cache", copy_function=os.link)
    shutil.copy(kept / "cold_canon.json", work / "cold_canon.json")


def measure(args, work: Path) -> dict:
    """Set-up repeats, the measured child, and the host around them."""
    from repro.bench.perfsuite import calibration_score

    if args.workload == "plan_warm":
        populate(args, work)  # precondition, not set-up
    env = child_env(work)
    calibration = [calibration_score()]
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_child(args, env, work, "--setup-only"))
    flags = [f"--chrome-trace={args.chrome_trace}"] if args.trace else []
    result = run_child(args, env, work, *flags)
    setups.append(result)
    calibration.append(calibration_score())
    result["setup_samples"] = [r["setup_s"] for r in setups]
    result["raw"]["setup_s"] = statistics.median(r["raw"]["setup_s"] for r in setups)
    result["metrics"]["setup_s"] = statistics.median(result["setup_samples"])
    result["calibration_score"] = calibration
    return result


def record_for(args, spec: dict, result: dict) -> dict:
    """The run's record: every metric, checks, host facts."""
    metrics = dict(result["metrics"])
    metrics.update(result["extra"])
    trace = result.get("trace")
    missing: list[str] = []
    if trace is not None:
        metrics.update(trace["metrics"])
        missing = trace["missing"]
    names = [m["name"] for m in spec["per_layer"] if args.trace] + [
        m["name"] for m in spec["end_to_end"]
    ]
    for name in names:
        metrics.setdefault(name, 0.0)
    messages = list(result["messages"])
    if missing:
        messages.append(f"trace self-check: no calls recorded for {missing}")
    if trace is not None and metrics["trace.coverage"] < MIN_COVERAGE:
        messages.append(f"trace covers {metrics['trace.coverage']:.3f} of the window")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": args.ops,
        "correct": result["failed"] == 0 and not messages,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "messages": messages,
        "digest": result["digest"],
        "window_s": result["window_s"],
        "latencies": result["latencies"],
        "setup_samples": result["setup_samples"],
        "raw": result["raw"],
        "steps_per_s": result["steps_per_s"],
        "calibration_score": result["calibration_score"],
        "host": host_facts(),
        "metrics": metrics,
        "layers": trace["table"] if trace is not None else None,
    }


def print_report(record: dict, spec: dict) -> None:
    """Human-readable lines (the JSON result line follows them)."""
    print(
        f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['attempted']} ops in {record['window_s']:.2f} s, "
        f"{record['failed']} failed, digest {record['digest'][:16]}"
    )
    for message in record["messages"]:
        print(f"  FAILED: {message}")
    group = "per_layer" if record["trace"] else "end_to_end"
    for m in spec[group]:
        print(f"  {m['name']:<52} {record['metrics'][m['name']]:>14.6g} {m['unit']}")
    if record["layers"]:
        print(f"  {'layer':<46} {'calls':>8} {'self_s':>9} {'total_s':>9}")
        for name, row in record["layers"].items():
            print(
                f"  {name:<46} {row['calls']:>8} "
                f"{row['self_s']:>9.4f} {row['total_s']:>9.4f}"
            )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:], spec)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", type=Path, default=HERE / "results")
    parser.add_argument(
        "--ops", type=int, help="run exactly this many ops (smoke tests)"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1 or (args.ops is not None and args.ops < 1):
        parser.error("--seconds and --ops must be positive")

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    args.chrome_trace = args.out / f"{stem}.trace.json"
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=args.out))
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = record_for(args, spec, result)
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print_report(record, spec)
    group = "per_layer" if args.trace else "end_to_end"
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in spec[group]
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
