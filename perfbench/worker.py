"""One workload process: cold set-up, then timed passes, then a JSON report.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
pinned in its environment, so ``setup_s`` includes the cold import.  It
prints one JSON object on its last line of standard output.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _paths():
    """The admmtune sources and the output directory, both beside this file."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(here), "src"), os.path.join(here, "out")


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = int(getter())
                break
    return found


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = _parse(argv)
    src, out = _paths()
    sys.path.insert(0, src)
    import admmtune
    import workloads  # noqa: F401  (the cold import of numpy, scipy and admmtune)

    t_import = time.perf_counter() - T_START
    if os.path.dirname(admmtune.__file__) != os.path.join(src, "admmtune"):
        raise SystemExit(f"admmtune was imported from {admmtune.__file__}, not from {src}")
    out_dir = os.path.join(out, f"work-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        report = _run(args, out, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report["import_s"] = t_import
    print(json.dumps(report))
    return 0


def _run(args, out, out_dir):
    import workloads
    from spans import Tracer

    workload = workloads.make(args.workload, workloads.load_snapshot(), out_dir, args.smoke)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    state = workload.setup()
    setup_s = time.perf_counter() - T_START
    report = {"setup_s": setup_s}
    if tracer:
        report["setup_layers"] = tracer.close_pass()
        tracer.uninstall()
    if args.setup_only:
        return report

    rng = random.Random(args.seed)
    passes = []
    lengths = []
    t_run = time.perf_counter()
    while True:
        # a traced run alternates plain and traced passes, for the overhead
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        t_pass = time.perf_counter()
        result = workload.run_pass(rng, state)
        lengths.append(time.perf_counter() - t_pass)
        entry = result.entry(traced)
        if traced:
            entry["layers"] = tracer.close_pass(result.counts)
            tracer.uninstall()
        passes.append(entry)
        workloads.report_errors(result.errors)
        # stop before a pass that would likely end after the run length
        enough = not tracer or any(p["traced"] for p in passes)
        if enough and time.perf_counter() - t_run + statistics.median(lengths) > args.seconds:
            break

    if tracer:
        tracer.save(os.path.join(out, f"spans-{args.workload}-seed{args.seed}.npz"))
    report["passes"] = passes
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = environment()
    return report


if __name__ == "__main__":
    sys.exit(main())
