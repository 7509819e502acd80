"""``run.py compare SET_A SET_B``: two sets of run records, side by side.

A set is a directory of records written by ``run.py --out DIR``. For
every workload x end-to-end metric the report gives each set's median
and quartiles, the relative difference of B from A, and a verdict
against the metric's bound in ``BENCHMARK.json``:

* ``ok``: B is within the bound of A;
* ``REGRESSED``: B is worse than A by more than the bound;
* ``better``: B is better than A by more than the bound;
* ``unresolved``: a set's quartile spread exceeds the bound, and not
  every run of B beats every run of A.

It also checks that every output digest agrees across all runs of one
workload and seed, that every ``.calls`` count agrees across all traced
runs of one workload, seed and length, and reports the tracing overhead
(traced over untraced ``ops_per_s``) and the host's calibration scores.
The exit status is 1 when anything regressed or disagreed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_set(directory: str) -> list[dict]:
    """Every run record in ``directory`` (Chrome traces skipped)."""
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        records.append(json.loads(path.read_text()))
    if not records:
        raise SystemExit(f"compare: no run records in {directory}")
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and relative difference (B - A) / A of the medians."""
    qa, qb = quartiles(a), quartiles(b)
    rel = (qb[1] - qa[1]) / qa[1]
    worse = rel if better == "lower" else -rel
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if better == "lower":
        b_wins = max(b) < min(a)
    else:
        b_wins = min(b) > max(a)
    if spread > bound and not b_wins:
        return "unresolved", rel
    if worse > bound:
        return "REGRESSED", rel
    if -worse > bound:
        return "better", rel
    return "ok", rel


def _consistency(records: list[dict]) -> list[str]:
    """Digest and ``.calls`` disagreements across every run given."""
    problems = []
    digests: dict[tuple, set] = {}
    for r in records:
        digests.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"{workload} seed {seed}: {len(seen)} distinct output digests")
    calls: dict[tuple, set] = {}
    for r in records:
        if not r["trace"]:
            continue
        key = (r["workload"], r["seed"], r["seconds"], r["ops"])
        counts = tuple(sorted((k, v) for k, v in r["metrics"].items() if k.endswith(".calls")))
        calls.setdefault(key, set()).add(counts)
    for (workload, seed, _, _), seen in sorted(calls.items()):
        if len(seen) > 1:
            problems.append(f"{workload} seed {seed}: .calls counts differ between traced runs")
    return problems


def main(argv: list[str], spec: dict) -> int:
    """Print the comparison of two record directories."""
    if len(argv) != 2:
        raise SystemExit("usage: run.py compare SET_A SET_B")
    sets = [load_set(d) for d in argv]
    failed = False
    workloads = sorted({r["workload"] for s in sets for r in s if not r["trace"]})
    print(
        f"{'workload':<10} {'metric':<12} {'A median [q1, q3]':>36} "
        f"{'B median [q1, q3]':>36} {'B vs A':>8} {'bound':>6}  verdict"
    )
    for workload in workloads:
        runs = [[r for r in s if r["workload"] == workload and not r["trace"]] for s in sets]
        if not all(runs):
            print(f"{workload:<10} (missing from one set)")
            failed = True
            continue
        for m in spec["end_to_end"]:
            a, b = ([r["metrics"][m["name"]] for r in rs] for rs in runs)
            word, rel = verdict(a, b, m["better"], m["bound"])
            failed |= word == "REGRESSED"
            cells = []
            for values in (a, b):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(
                f"{workload:<10} {m['name']:<12} {cells[0]:>36} {cells[1]:>36} "
                f"{rel:>+8.1%} {m['bound']:>6.1%}  {word}"
            )
    for label, records in zip("AB", sets):
        for workload in sorted({r["workload"] for r in records}):
            plain = [r["metrics"]["ops_per_s"] for r in records
                     if r["workload"] == workload and not r["trace"]]
            traced = [r["metrics"]["trace.ops_per_s"] for r in records
                      if r["workload"] == workload and r["trace"]]
            if plain and traced:
                ratio = statistics.median(traced) / statistics.median(plain)
                print(f"set {label} {workload}: traced/untraced ops_per_s = {ratio:.3f}")
        scores = [s for r in records for s in r["calibration_score"]]
        print(
            f"set {label}: calibration score {min(scores):.3g}-{max(scores):.3g} "
            f"steps/s over {len(records)} runs on {records[0]['host']['cpu_count']} cpus"
        )
    for problem in _consistency(sets[0] + sets[1]):
        print(f"MISMATCH: {problem}")
        failed = True
    return 1 if failed else 0
