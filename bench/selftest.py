"""Self-test of the benchmark: every workload at smoke size, untraced and twice traced.

    python3 bench/selftest.py

Run from the root of a source checkout; takes about a minute.  Checks that
each run exits 0 with a correct result line; that the result line carries
exactly the metrics BENCHMARK.json declares, each with its declared unit
and a finite value; that every name uses only letters, digits, ``_``, ``.``
and ``-``; that the deterministic counters repeat exactly across the two
traced runs of one seed; and that simulated bench time is the same traced
and untraced.  Exits 1 and lists the problems otherwise.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 3
# Metrics that depend only on the seed, never on timing.
DETERMINISTIC_UNITS = {"count", "frac", "dB"}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((BENCH / "out" / f"{workload}-s{SEED}-smoke-t{trace}.json").read_text())
    return line, results


def check_line(line: dict, spec: list[dict]) -> list[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if line.get("correct") is not True or line.get("failed") != 0 or line.get("attempted", 0) < 1:
        problems.append(f"not correct: {line.get('correct')}, failed {line.get('failed')}")
    want = {m["name"]: m["unit"] for m in spec}
    got = line.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, entry in got.items():
        if not NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if set(entry) != {"value", "unit"} or entry.get("unit") != want.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {want.get(name)!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        if not NAME.match(w["name"]):
            problems.append(f"bad workload name {w['name']!r}")
    for w in (w["name"] for w in spec["workloads"]):
        untraced, plain = run(w, 0)
        traced = [run(w, 1) for _ in range(2)]
        problems += [f"{w} trace 0: {p}" for p in check_line(untraced, spec["end_to_end"])]
        for line, _ in traced:
            problems += [f"{w} trace 1: {p}" for p in check_line(line, spec["per_layer"])]
        (a, _), (b, _) = traced
        for name, entry in a["metrics"].items():
            if entry["unit"] in DETERMINISTIC_UNITS and entry != b["metrics"].get(name):
                problems.append(f"{w}: {name} differs between traced runs: "
                                f"{entry['value']} vs {b['metrics'].get(name)}")
        sims = [r["figures"].get("sim_bench_s") for r in (plain, traced[0][1], traced[1][1])]
        if len({json.dumps(s) for s in sims}) != 1:
            problems.append(f"{w}: sim_bench_s differs traced vs untraced: {sims}")
        print(f"{w}: checked", flush=True)
    for p in problems:
        print(f"FAILED {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
