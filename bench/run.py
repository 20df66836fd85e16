"""mzmesh benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {bringup,measure,compile} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from
``src/`` and the compile workload's oracle from ``tests/oracles.py``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  The lines before it print the workload's own figures by name with
units.  A results file (machine, figures, metrics) goes to ``bench/out/``,
and a traced run also writes its spans there.  The exit code is 0 only when
every correctness check passed; 2 means the checkout is incomplete.

End-to-end times are in reference units (see ``pace.py``): an operation's
wall time over the time of a fixed kernel sampled beside it, which keeps
what the code costs on a machine whose speed changes from second to second.
Raw wall times are printed and recorded beside them.

``--smoke`` shrinks every workload (one set-up, one chip or pass, N <= 16,
four matchings) for ``bench/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
# Times the benchmark's imports in a fresh interpreter; argv holds sys.path.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                "import probe, workloads; print(time.perf_counter() - t)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("bringup", "measure", "compile"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    return ap.parse_args(argv)


def machine() -> dict:
    """What the figures depend on besides the code."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def fresh_import_s() -> float:
    """Import time of the benchmark and the package in a new interpreter."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]
    return float(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                                check=True).stdout)


def declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mzmesh" / "__init__.py").is_file():
        print(f"error: no mzmesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    load_before = os.getloadavg()

    import pace
    import probe
    import workloads
    from mzmesh import calibration

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = probe.Probe(spans=bool(args.trace))
    span_cost = tracer.span_cost_s() if args.trace else 0.0
    tracer.install()
    try:
        # Traced and untraced runs are paced alike; span durations leave the
        # samples out, so the trace overhead compares like with like.
        pacer = pace.Pacer()
        import_walls, import_costs, setup_spans = [], [], []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            # the import runs in a child process, so it is bracketed by
            # samples rather than paced, which would load the other core
            before = pace.reference_s()
            import_walls.append(fresh_import_s())
            after = pace.reference_s()
            import_costs.append(import_walls[-1] * (1.0 / before + 1.0 / after) / 2.0)
            with pacer:
                start = time.perf_counter()
                wl.setup()
                setup_spans.append((start, time.perf_counter()))
        setup_walls = [pacer.busy(*span) for span in setup_spans]
        setup_costs = [pacer.cost(*span) for span in setup_spans]
        setup_s = pace.NOMINAL_REF_S * (
            statistics.median(import_costs) + statistics.median(setup_costs))

        spans, kinds, labels, failures = [], [], [], []
        with pacer:
            loop_start = time.perf_counter()
            k = 0
            while True:
                tracer.op = k
                labels.append(wl.label(k))
                try:
                    span, kind, failure = wl.step(k)
                except Exception:  # an operation that raises counts as failed
                    span, kind, failure = None, "error", traceback.format_exc(limit=3)
                tracer.op = probe.SETUP_OP
                spans.append(span)
                kinds.append(kind)
                if failure:
                    failures.append(f"{labels[-1]}: {failure}")
                k += 1
                if k == wl.round_len:
                    # over the first round only, so fidelity does not depend
                    # on how many rounds the machine's speed allowed
                    try:
                        fid_mean, fid_min = wl.fidelities()
                    except Exception:  # no output to score: the round failed
                        fid_mean = fid_min = math.nan
                # runs end on a round boundary, after at least one round
                if k % wl.round_len == 0 and (
                        args.smoke or time.perf_counter() - loop_start >= args.seconds):
                    break
            loop_s = time.perf_counter() - loop_start
    finally:
        tracer.uninstall()

    ok = [(span, kind) for span, kind in zip(spans, kinds) if span is not None]
    ok_walls = [pacer.busy(*span) for span, _ in ok]
    costs = [pacer.cost(*span) for span, _ in ok]
    op_mean_ref = statistics.mean(costs) if costs else math.nan
    run_issues = []
    try:
        run_issues = wl.run_checks()
        figures = wl.report(ok_walls, [kind for _, kind in ok])
    except Exception:
        run_issues.append(traceback.format_exc(limit=3))
        figures = {}
    sim_first = sum(v for op, v in tracer.sim_s.items() if 0 <= op < wl.round_len)
    if wl.name != "compile":
        figures["sim_bench_s"] = (sim_first / wl.round_len, "s")
    figures["fail_frac"] = (len(failures) / len(spans), "frac")
    figures["setup_s.samples"] = (float(len(setup_walls)), "count")
    figures["setup_wall_s"] = (statistics.median(import_walls) + statistics.median(setup_walls), "s")

    ops_per_s = len(ok_walls) / sum(ok_walls) if ok_walls else math.nan
    figures["ops_per_s"] = (ops_per_s, "1/s")
    figures["op_p50_ms"] = (1e3 * statistics.median(ok_walls) if ok_walls else math.nan, "ms")
    if args.trace:
        metrics = probe.layer_metrics(tracer, pacer.busy, ok_walls, wl.round_len, setup_walls,
                                      statistics.median(import_walls),
                                      calibration.NM_MAX_EVALS)
        loop_spans = sum(1 for op in tracer.ops if op >= 0)
        metrics["trace.overhead_pct"] = (100.0 * loop_spans * span_cost / sum(ok_walls), "%")
        metrics["trace.op_mean_ref"] = (op_mean_ref, "ref")
        run_issues += probe.check_nesting(tracer)
        run_issues += trace_invariants(wl, tracer, metrics)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ref": (statistics.median(costs) if costs else math.nan, "ref"),
            "op_mean_ref": (op_mean_ref, "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "fidelity_mean": (fid_mean, "frac"),
            "fidelity_min": (fid_min, "frac"),
        }

    want = declared(args.trace)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        run_issues.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
                          f" or units {[n for n in got if n in want and got[n] != want[n]]}")
    bad = [n for n, (v, _) in metrics.items() if not probe.finite(v)]
    if bad:
        run_issues.append(f"non-finite metrics: {bad}")

    correct = not failures and not run_issues
    results = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "correct": correct,
        "attempted": len(spans), "failed": len(failures),
        "failures": failures[:20], "run_issues": run_issues,
        "loop_s": loop_s, "setup_walls_s": setup_walls, "import_walls_s": import_walls,
        "setup_costs_ref": setup_costs, "import_costs_ref": import_costs,
        "op_walls_s": ok_walls, "op_costs_ref": costs,
        "ref_samples_s": pacer.ref, "ref_sample_at_s": [t - loop_start for t in pacer.at],
        "op_spans_s": [(a - loop_start, b - loop_start) for (a, b), _ in ok],
        "figures": {n: {"value": v, "unit": u} for n, (v, u) in figures.items()},
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "machine": {**machine(), "loadavg_before": load_before,
                    "loadavg_after": os.getloadavg()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-s{args.seed}{'-smoke' if args.smoke else ''}"
    untraced = OUT / f"{stem}-t0.json"
    if args.trace:
        tracer.write_spans(OUT / f"{stem}.spans.csv", labels)
        base = json.loads(untraced.read_text())["metrics"] if untraced.exists() else {}
        if "op_mean_ref" in base:
            results["trace_rate_vs_untraced"] = base["op_mean_ref"]["value"] / op_mean_ref
    (OUT / f"{stem}-t{args.trace}.json").write_text(json.dumps(results, indent=1) + "\n")

    for issue in failures[:10] + run_issues:
        print(f"FAILED {issue}", file=sys.stderr)
    for name, (value, unit) in figures.items():
        print(f"{wl.name}.{name} = {value:.6g} {unit}")
    if "trace_rate_vs_untraced" in results:
        print(f"{wl.name}.trace_rate_vs_untraced = {results['trace_rate_vs_untraced']:.4f}")
    print(json.dumps({
        "correct": correct, "attempted": len(spans), "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def trace_invariants(wl, tracer, metrics) -> list[str]:
    """Child-span counts that must add up to their parents' on this workload."""
    first = {i for i, op in enumerate(tracer.ops) if 0 <= op < wl.round_len}
    count = {}
    for i in first:
        count[tracer.name[i]] = count.get(tracer.name[i], 0) + 1

    def expect(name, value):
        got = count.get(name, 0)
        return [] if got == value else [f"{name}: {got} spans per round, expected {value}"]

    issues = []
    if wl.name == "bringup":
        n_nodes = 28 - int(metrics["calibration.node_failures"][0])
        pairs = sum(len(wl.circuits[c].matching) for c in ("1", "2", "3", "4"))
        issues += expect("runner.run_chip", 1) + expect("calibration.full_mesh", 1)
        issues += expect("calibration.mzi", n_nodes) + expect("runner.run_circuit", 4)
        issues += expect("metrology.phase_sweep", pairs) + expect("metrology.reconstruct", 4)
    elif wl.name == "measure":
        from mzmesh.compiler import ALL_TO_ALL_CIRCUITS

        pairs = sum(len(wl.circuits[c].matching) for c in ALL_TO_ALL_CIRCUITS)
        issues += expect("metrology.phase_sweep", pairs)
        issues += expect("metrology.reconstruct", wl.round_len)
        issues += expect("emulator.set_frame", 2 * wl.round_len)
        issues += expect("calibration.mzi", 0)
    else:
        issues += expect("compiler.reconstruct", len(wl.decomps))
        issues += expect("compiler.route", len(wl.matchings))
        issues += expect("compiler.upgrade", len(wl.matchings))
        issues += expect("emulator.read", 0)
    return issues


if __name__ == "__main__":
    sys.exit(main())
