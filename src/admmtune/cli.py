"""Benchmark command line: run solvers, sweep step sizes, export tables.

Subcommands
-----------
run            one problem, one or more step-size plans, one CSV per plan
grid           fixed-step sweep over a log-spaced grid, iterations per point
contradiction  report that no single step size matches both fixed-point views
generate       write a problem instance as JSON

CSV files are written atomically (temp file then rename) with the header
``k,gamma,residue,objective,infeasibility`` and shortest round-trip float
formatting, so identical options yield byte-identical files.  JSON
summaries carry ``"schema": 1`` and the wall times.

Exit codes: 0 success, 2 usage errors, 3 when ``--strict`` is set and some
run failed to converge, 4 when a solve fails numerically (a non-finite
iterate, a stalled reference run, an estimated step size of 0 or inf, or a
quartic whose every root is refused), with one ``admmtune: ...`` line on
stderr.  When the reader of stdout closes early, as ``| head -1`` does, the
exit code is 141 (128 + SIGPIPE, what a shell reports for a writer that a
closed pipe ends): the command stops at the first write that finds the pipe
closed, so the files it would write after that are missing, and it prints
no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import problems, tuner
from .engine import TerminationRule, solve

__all__ = ["main"]

_PROG = "admmtune"


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_csv(rows):
    return "".join(["k,gamma,residue,objective,infeasibility\n"]
                   + [f"{k},{gamma!r},{residue!r},{objective!r},{infeasibility!r}\n"
                      for k, gamma, residue, objective, infeasibility in rows])


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _tag(args):
    return f"{args.kind}_{args.profile}_seed{args.seed}"


def _write_report(args, name, **fields):
    """Write ``fields`` under the report header as ``<tag>_<name>.json``; return its path."""
    header = {"schema": 1, "command": args.command, "kind": args.kind,
              "profile": args.profile, "seed": args.seed}
    path = os.path.join(args.out, f"{_tag(args)}_{name}.json")
    _atomic_write(path, _json_text({**header, **fields}))
    return path


# plan names whose step size needs the reference solution pair
_ORACLE_PLANS = ("oracle", "pair", "asym-primal", "asym-dual")


def _parse_plan(token):
    """Split a plan token into its name and its numeric argument (1 when absent)."""
    name, _, arg = token.partition(":")
    if name not in ("fixed", "estimated") + _ORACLE_PLANS:
        raise ValueError(
            f"unknown plan {token!r}; use fixed[:gamma], estimated[:gamma0], "
            "oracle, pair[:beta], asym-primal[:beta], or asym-dual[:beta]"
        )
    if name == "oracle" and arg:
        raise ValueError(f"plan {token!r}: oracle takes no argument")
    try:
        return name, float(arg) if arg else 1.0
    except ValueError as err:
        raise ValueError(f"plan {token!r}: {err}") from None


def _realize_plan(token, name, value, instance, init_vec, args):
    """Map one parsed plan token to (plan, init, slug); oracle-backed tokens solve first."""
    try:
        if name == "fixed":
            return tuner.StepSizePlan.fixed(value), init_vec, f"fixed-{value:g}"
        if name == "estimated":
            plan = tuner.StepSizePlan.estimated(value, freeze_after=args.freeze_after)
            return plan, init_vec, f"estimated-{value:g}"
        oracle = problems.compute_oracle(instance)
        if name == "oracle":
            gamma = tuner.gamma_general(oracle.ax, oracle.lam, init_vec)
            return tuner.StepSizePlan.fixed(gamma), init_vec, "oracle"
        # the one-sided starts are the matched start with the other side zero
        ax = np.zeros_like(oracle.ax) if name == "asym-dual" else oracle.ax
        lam = np.zeros_like(oracle.lam) if name == "asym-primal" else oracle.lam
        pair = tuner.optimal_pair(ax, lam, value)
        return tuner.StepSizePlan.fixed(pair.gamma), pair.zeta0, f"{name}-{value:g}"
    except ValueError as err:
        raise ValueError(f"plan {token!r}: {err}") from None


def _rule(args):
    """The command's TerminationRule; a non-finite tol, which JSON cannot write, is a usage error."""
    if not math.isfinite(args.tol):
        raise ValueError(f"tol must be finite, got {args.tol}")
    return TerminationRule(tol=args.tol, max_iter=args.max_iter)


def _cmd_run(args):
    tag = _tag(args)
    plans = args.plans
    rule = _rule(args)
    parsed = [_parse_plan(token) for token in plans]

    instance = problems.generate(args.kind, profile=args.profile, seed=args.seed)
    init_vec = None if args.init == "zero" else instance.structure_start()

    # a zero-start fixed:1 plan is the first stretch of the oracle's reference
    # run: it is solved once, and the reference run resumes where it stopped
    unit_fixed = [name == "fixed" and value == 1.0 for name, value in parsed]
    shared = None
    if init_vec is None and any(name in _ORACLE_PLANS for name, _ in parsed) and any(unit_fixed):
        shared = solve(instance.spec, tuner.StepSizePlan.fixed(1.0), init=None, rule=rule)
        problems.compute_oracle(instance, prefix=shared)
    # every plan is checked before the first CSV is written
    realized = [_realize_plan(token, name, value, instance, init_vec, args)
                for token, (name, value) in zip(plans, parsed)]

    os.makedirs(args.out, exist_ok=True)
    summary_runs = []
    all_converged = True
    seen_slugs = {}
    for token, unit, (plan, init, slug) in zip(plans, unit_fixed, realized):
        count = seen_slugs.get(slug, 0)
        seen_slugs[slug] = count + 1
        if count:
            slug = f"{slug}-{count + 1}"
        if shared is not None and unit:
            record = shared
        else:
            record = solve(instance.spec, plan, init=init, rule=rule)
        csv_name = f"{tag}_{slug}.csv"
        _atomic_write(os.path.join(args.out, csv_name), _run_csv(record.rows))
        all_converged &= record.converged
        summary_runs.append({
            "plan": record.plan,
            "token": token,
            "csv": csv_name,
            "iterations": record.iterations,
            "iterations_to_tol": record.iterations_to_tol,
            "converged": record.converged,
            "final_gamma": record.final_gamma,
            "final_residue": record.rows[-1][2] if record.rows else None,
            "wall_time_s": record.wall_time,
        })
        status = "converged" if record.converged else "hit max_iter"
        print(f"{tag} {token}: {status}, iterations={record.iterations}, "
              f"final_gamma={record.final_gamma:.6g}, csv={csv_name}")

    path = _write_report(args, "summary", dims=dict(instance.dims), params=instance.params,
                         tol=rule.tol, max_iter=rule.max_iter, init=args.init,
                         runs=summary_runs)
    print(f"summary: {path}")
    if args.strict and not all_converged:
        return 3
    return 0


def _cmd_grid(args):
    tag = _tag(args)
    gamma_min, gamma_max, points = args.gamma_min, args.gamma_max, args.points
    rule = _rule(args)
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    if not (math.isfinite(gamma_min) and math.isfinite(gamma_max)):
        raise ValueError(f"gamma-min and gamma-max must be finite, got {gamma_min} and {gamma_max}")
    if not 0.0 < gamma_min <= gamma_max:
        raise ValueError(f"need 0 < gamma-min <= gamma-max, got {gamma_min} and {gamma_max}")

    instance = problems.generate(args.kind, profile=args.profile, seed=args.seed)
    gammas = [float(g) for g in np.geomspace(gamma_min, gamma_max, points)]
    # a step size the plan rejects is a usage error, raised before any solve
    plans = [tuner.StepSizePlan.fixed(g) for g in gammas]
    # iterations to tolerance per point, None where the run hit max_iter or
    # failed; a failing point does not stop the sweep
    iterations = []
    for gamma, plan in zip(gammas, plans):
        try:
            record = solve(instance.spec, plan, init=None, rule=rule, columns=False)
            iterations.append(record.iterations_to_tol)
        except (ArithmeticError, ValueError) as err:
            print(f"{_PROG}: grid point gamma={gamma!r} failed: {err}", file=sys.stderr)
            iterations.append(None)
    converged = [i for i, iters in enumerate(iterations) if iters is not None]
    # the fewest sweeps, the smallest step size among ties; None when no
    # point converged
    best = min(converged, key=iterations.__getitem__, default=None)
    best_gamma = None if best is None else gammas[best]
    best_iterations = None if best is None else iterations[best]
    # the best point on either end of the grid hints that it should be widened
    boundary_hit = points > 1 and best in (0, points - 1)

    os.makedirs(args.out, exist_ok=True)
    lines = ["gamma,iterations_to_tol,converged"]
    for gamma, iters in zip(gammas, iterations):
        lines.append(f"{gamma!r},{'' if iters is None else iters},{str(iters is not None).lower()}")
    _atomic_write(os.path.join(args.out, f"{tag}_grid.csv"), "\n".join(lines) + "\n")

    _write_report(args, "grid", dims=dict(instance.dims), tol=rule.tol, max_iter=rule.max_iter,
                  points=points, gamma_min=gamma_min, gamma_max=gamma_max,
                  best_gamma=best_gamma, best_iterations=best_iterations,
                  boundary_hit=boundary_hit, converged_points=len(converged))
    best_text = ("best_gamma=none iterations=none" if best is None
                 else f"best_gamma={best_gamma:.6g} iterations={best_iterations}")
    print(f"{tag} grid: {best_text} boundary_hit={boundary_hit} csv={tag}_grid.csv")
    if args.strict and None in iterations:
        return 3
    return 0


def _cmd_contradiction(args):
    instance = problems.generate(args.kind, profile=args.profile, seed=args.seed)
    oracle = problems.compute_oracle(instance)
    report = tuner.contradiction_demo(oracle.ax, oracle.lam)
    print(report.as_text())

    os.makedirs(args.out, exist_ok=True)
    # the report's JSON never carried the start's norm
    fields = dataclasses.asdict(report)
    del fields["zeta0_norm"]
    print(f"report: {_write_report(args, 'contradiction', **fields)}")
    return 0


def _cmd_generate(args):
    tag = _tag(args)
    description = problems.generate_data(args.kind, profile=args.profile, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{tag}_instance.json")
    _atomic_write(path, _json_text(description))
    print(f"instance: {path}")
    return 0


def _add_common(parser):
    parser.add_argument("--kind", required=True, choices=problems.KINDS, help="problem family")
    parser.add_argument("--profile", default="desk", choices=("desk", "paper"),
                        help="size profile (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    parser.add_argument("--out", default=".", help="output directory (default %(default)s)")


def _add_rule(parser, tol, strict_help):
    parser.add_argument("--tol", type=float, default=tol,
                        help="residue tolerance (default %(default)s)")
    parser.add_argument("--max-iter", type=int, default=TerminationRule.max_iter,
                        help="sweep limit (default %(default)s)")
    parser.add_argument("--strict", action="store_true", help=strict_help)


@functools.cache
def _build_parser():
    """The ``admmtune`` parser and its subcommand parsers by name, built once per process.

    Parsing leaves a parser as it was, so one serves every call.
    """
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="benchmark a splitting solver under different step-size plans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one problem under one or more plans")
    _add_common(p_run)
    p_run.add_argument("--plan", dest="plans", action="append", required=True, metavar="TOKEN",
                       help="fixed[:gamma], estimated[:gamma0], oracle, pair[:beta], "
                            "asym-primal[:beta], asym-dual[:beta]; repeatable")
    _add_rule(p_run, 1e-6, "exit 3 if any run fails to converge")
    p_run.add_argument("--init", default="zero", choices=("zero", "structure"),
                       help="start vector (default %(default)s)")
    p_run.add_argument("--freeze-after", type=int,
                       help="estimated plans: stop updating after this many sweeps")

    p_grid = sub.add_parser("grid", help="sweep fixed step sizes over a log grid")
    _add_common(p_grid)
    p_grid.add_argument("--gamma-min", type=float, default=1e-3,
                        help="grid lower end (default %(default)s)")
    p_grid.add_argument("--gamma-max", type=float, default=1e3,
                        help="grid upper end (default %(default)s)")
    p_grid.add_argument("--points", type=int, default=50, help="grid size (default %(default)s)")
    _add_rule(p_grid, 1e-4, "exit 3 unless every grid point converges")

    p_con = sub.add_parser("contradiction",
                           help="show that no single gamma matches both fixed-point views")
    _add_common(p_con)

    p_gen = sub.add_parser("generate", help="write a problem instance as JSON")
    _add_common(p_gen)
    return parser, sub.choices


_COMMANDS = {
    "run": _cmd_run,
    "grid": _cmd_grid,
    "contradiction": _cmd_contradiction,
    "generate": _cmd_generate,
}


def _dispatch(argv):
    try:
        args = _build_parser()[0].parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as err:
        print(f"{_PROG}: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:
        print(f"{_PROG}: {err}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        # flushed here, a reader that closed early is caught below, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: what stdout still buffers goes to
        # devnull, so that the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        # 128 + SIGPIPE, the status a shell reports for a writer a closed pipe ends
        return 141


if __name__ == "__main__":
    sys.exit(main())
