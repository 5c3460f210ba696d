"""conecut benchmark: one workload per invocation, result JSON on the last line.

    python3 perfbench/run.py --workload verify-float --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics (set-up time,
time per pass, peak memory); ``--trace 1`` alternates untraced and
traced passes and reports per-layer counts and self times per pass plus
the tracing overhead.  A run starts no pass it expects to end after
``--seconds``, but makes at least one pass (two when traced).  Every pass
runs the same operations, and ``attempted`` and ``failed`` are one
pass's counts; passes that disagree make the run incorrect.  The
per-suite and per-invocation figures are printed on the lines above the result and
written, with every pass, to ``.perfbench_results/``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

from cli_launcher import peak_rss_kb
from refclock import SPAWN_REFERENCE_S, Reference, pin_to_one_cpu, spawn_reference

ROOT = Path(__file__).resolve().parent.parent
# A traced run needs one untraced and one traced pass.
MIN_PASSES = {0: 1, 1: 2}
SETUP_PROBE_EVERY_S = 5.0
IMPORT_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["verify-float", "verify-exact", "cli-session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args, env) -> float:
    """Launch this workload's process; it stops just before its first
    timed operation and reports the CPU seconds it used up to there.
    They are rescaled by cold-start references taken before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    before = spawn_reference(ROOT, env)
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        out, _ = proc.communicate(timeout=120)
    after = spawn_reference(ROOT, env)
    word, _, cpu = out.strip().partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return float(cpu) * SPAWN_REFERENCE_S * 2.0 / (before + after)


def probe_import(module: str, env) -> float:
    """Time `import <module>` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        out, _ = proc.communicate(timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"importing {module} failed")
    return float(out)


def measure(args, wl, env, reference, tracer):
    """Passes until the next one would end after --seconds (at least
    MIN_PASSES); a traced run alternates untraced and traced passes.
    Returns the passes and the set-up probes."""
    setup = []
    passes = []  # (traced, PassResult)
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append((traced, wl.run_pass(reference, tracer if traced else None)))
        if tracer is None:
            # The speed of a CPU steps every few seconds, so set-up is
            # sampled between passes across the whole run.
            for _ in range(1 + int(passes[-1][1].wall // SETUP_PROBE_EVERY_S)):
                setup.append(probe_setup(args, env))
        expected_end = (perf_counter() - start) * (len(passes) + 1) / len(passes)
        if len(passes) >= MIN_PASSES[args.trace] and expected_end > args.seconds:
            return passes, setup


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "conecut" / "__init__.py").is_file():
        print(f"no conecut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import PER_LAYER, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.setup_only:
        print(f"ready {process_time()!r}", flush=True)
        return 0
    pin_to_one_cpu()
    env = workloads.child_env(ROOT)
    tracer = Tracer() if args.trace else None
    # The in-process reference runs only beside in-process work; CLI
    # invocations are rescaled by cold starts instead (see refclock).
    reference = Reference(ROOT / ".perfbench_tmp") if wl.IN_PROCESS else None
    try:
        passes, setup = measure(args, wl, env, reference, tracer)
    finally:
        if reference is not None:
            reference.close()

    plain = [r for t, r in passes if not t]
    results = [r for _, r in passes]
    scaled = [r.scaled for r in plain]
    detail = {f"{k}_s": statistics.median([r.timings[k] for r in plain]) for k in plain[0].timings}
    detail["raw_wall_s"] = statistics.median([r.wall for r in plain])
    detail["raw_cpu_s"] = statistics.median([r.cpu for r in plain])
    if args.workload == "cli-session":
        detail["cli_p50_s"] = statistics.median([statistics.median(r.each) for r in plain])
        detail["cli_tail_s"] = statistics.median([workloads.tail(r.each) for r in plain])

    if tracer is None:
        # In-process work peaks in this process; CLI invocations each
        # report their own peak (see cli_launcher).
        peak_kb = peak_rss_kb() if wl.IN_PROCESS else wl.peak_rss_kb
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    else:
        traced = [r.scaled for t, r in passes if t]
        values = tracer.layer_metrics(len(traced))
        values["cli.import_s"] = (statistics.median([probe_import("conecut.cli", env) for _ in range(IMPORT_PROBES)]), "s")
        values["cli.numpy_import_s"] = (statistics.median([probe_import("numpy", env) for _ in range(IMPORT_PROBES)]), "s")
        overhead = statistics.median(traced) - statistics.median(scaled)
        values["trace.overhead_s"] = (overhead, "s")
        values["trace.overhead_pct"] = (100.0 * overhead / statistics.median(scaled), "%")
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in PER_LAYER}

    problems = [p for r in results for p in r.problems]
    # Every pass runs the same operations, so the counts are one pass's,
    # whatever the number of passes that fit in the run.
    counts = sorted({(r.attempted, r.failed) for r in results})
    if len(counts) > 1:
        problems.append(f"passes disagree on (attempted, failed): {counts}")
    result = {
        "correct": not problems,
        "attempted": results[0].attempted,
        "failed": results[0].failed,
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "result": result, "detail": detail, "setup_probes": setup,
        "passes": [{"traced": t, "wall": r.wall, "cpu": r.cpu, "scaled": r.scaled, "attempted": r.attempted, "failed": r.failed,
                    "timings": r.timings, "each": r.each} for t, r in passes],
        "problems": problems[:50],
        "edges": tracer.snapshot()["edges"] if tracer else {},
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    for name, value in detail.items():
        print(f"{name} {value!r} s")
    print(f"passes {len(passes)} pass_s {scaled!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
