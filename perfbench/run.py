"""admmtune benchmark: one workload, fresh processes, checked outputs, metrics.

Run from the repository root::

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 55 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``estimate`` and ``zoo``,
the two that ``BENCHMARK.json`` declares, and ``grid``, which is run by hand
only.  Each run starts ``SETUP_SAMPLES - 1`` set-up-only processes
and one measuring process, all fresh interpreters with the BLAS thread
count pinned to ``BLAS_THREADS``.  The measuring process repeats passes of
the workload for ``--seconds`` seconds and checks every solve.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics declared in ``BENCHMARK.json``; with
``--trace 1`` they are the declared per-layer metrics of the traced passes,
plus the tracing overhead against untraced passes of the same run.  Human-readable lines above it give each
metric with its unit and sample count, the environment, and ``error_rate``.
Spans of a traced run are written to ``perfbench/out/``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BLAS_THREADS = 1
SETUP_SAMPLES = 5
WORKLOADS = ("grid", "estimate", "zoo")

# worker time limits, so that a hung 55-second run still ends within 180 s:
# (SETUP_SAMPLES - 1) * SETUP_TIMEOUT_S + --seconds + PASS_TIMEOUT_S
SETUP_TIMEOUT_S = 15
PASS_TIMEOUT_S = 45


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _parse(argv):
    parser = argparse.ArgumentParser(description="admmtune benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a few cheap solves, one pass, one set-up sample")
    return parser.parse_args(argv)


def _worker(args, extra, timeout):
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker exceeded {timeout} s: {' '.join(cmd)}") from err
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def declared(root):
    """Metric units declared in BENCHMARK.json, as (end-to-end, per-layer) dicts."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer"))


def _percentile(values, q):
    """Nearest-rank percentile: always one of the measured values."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def _fastest(passes, key):
    """Each label's fastest value over the passes in which it succeeded.

    The host's speed changes in phases of seconds that slow every solve
    together, so a median over passes measures the share of slow phases in
    the run; a unit's fastest repetition measures the program.
    """
    best = {}
    for p in passes:
        for label, value in p[key].items():
            best[label] = min(value, best.get(label, value))
    return best


def end_to_end(setups, report):
    """End-to-end metrics as {name: (value, sample description)}.

    Timings come from passes with at least one successful solve; when every
    solve failed, only ``setup_s`` and ``peak_rss_mib`` are left.
    """
    out = {"setup_s": (statistics.median(setups), f"median of {len(setups)} fresh processes")}
    passes = [p for p in report["passes"] if not p["traced"] and p["units_s"]]
    if passes:
        units = _fastest(passes, "units_s")
        wall = sum(units.values())
        sweeps = statistics.median_low(p["sweeps"] for p in passes)
        n = f"sum of {len(units)} timed units, each the fastest of {len(passes)} passes"
        out.update({
            "wall_s": (wall, n),
            "sweeps_total": (sweeps, f"median of {len(passes)} passes"),
            "sweeps_per_s": (sweeps / wall, "sweeps_total / wall_s"),
        })
        # a pass's solves differ in size by orders of magnitude, so the
        # percentiles are taken over the solves, each at its fastest
        per_solve = list(_fastest(passes, "latencies_ms").values())
        if per_solve:
            per_solve_n = f"{len(per_solve)} solves, each the fastest of {len(passes)} passes"
            out["solve_ms_p50"] = (_percentile(per_solve, 50), per_solve_n)
            out["solve_ms_p90"] = (_percentile(per_solve, 90), per_solve_n)
    out["peak_rss_mib"] = (report["peak_rss_mib"], "max RSS of the measuring process")
    return out


def per_layer(report):
    """Per-layer metrics: medians over traced passes, set-up split, overhead."""
    traced = [p for p in report["passes"] if p["traced"]]
    plain = [p for p in report["passes"] if not p["traced"]]
    out = {}
    for name, first in traced[0]["layers"].items():
        # counts stay whole numbers
        median = statistics.median_low if isinstance(first, int) else statistics.median
        out[name] = (median(p["layers"][name] for p in traced),
                     f"median of {len(traced)} traced passes")
    setup = report["setup_layers"]
    one = "traced set-up"
    out["setup.import_s"] = (report["import_s"], one)
    out["setup.generate_s"] = (setup["problems.generate_s"], one)
    out["setup.oracle_s"] = (setup["problems.oracle_s"], one)
    out["setup.oracle_sweeps"] = (setup["problems.oracle_sweeps"], one)
    out["setup.solve_s"] = (setup["engine.solve_s"], one)
    wall_traced = sum(_fastest(traced, "units_s").values())
    wall_plain = sum(_fastest(plain, "units_s").values())
    if wall_plain > 0:  # 0 when every plain solve failed
        out["trace.overhead_pct"] = (100.0 * (wall_traced / wall_plain - 1.0),
                                     f"fastest units of {len(traced)} traced vs "
                                     f"{len(plain)} plain passes")
    return out


def result(report, setups, trace, units):
    """Print the human-readable lines; return the JSON result object."""
    attempted = sum(p["attempted"] for p in report["passes"])
    failed = sum(p["failed"] for p in report["passes"])
    metrics = per_layer(report) if trace else end_to_end(setups, report)
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in report["env"].items()))
    shown = {name: unit for name, unit in units.items() if name in metrics}
    for name, unit in shown.items():
        value, samples = metrics[name]
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {samples}")
    print(f"  {'error_rate':<28} {failed / attempted:>14.6g} {'1':<6} "
          f"{failed} failed of {attempted} solves")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in shown.items()},
    }


def main(argv=None):
    args = _parse(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "admmtune", "__init__.py")):
        print(f"perfbench: no admmtune sources under {src}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            samples = 1 if args.smoke else SETUP_SAMPLES
            for _ in range(samples - 1):
                setups.append(_worker(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
        report = _worker(args, [], args.seconds + PASS_TIMEOUT_S)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(json.dumps(result(report, setups, args.trace, declared(root)[args.trace])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
