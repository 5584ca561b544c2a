"""Benchmark command line: run solvers, sweep step sizes, export tables.

Subcommands
-----------
run            one problem, one or more step-size plans, one CSV per plan
grid           fixed-step sweep over a log-spaced grid, iterations per point
contradiction  report that no single step size matches both fixed-point views
generate       write a problem instance as JSON

Every option can also come from an INI config file (``--config``); explicit
flags win over the file, which wins over built-in defaults.  Options shared
by all subcommands may live in a ``[common]`` section, subcommand-specific
ones in ``[run]``, ``[grid]``, ``[contradiction]``, or ``[generate]``.  A
key is an option's long flag without ``--`` (``plans`` for ``--plan``); a key
that no option of its section takes is a configuration error::

    [common]
    kind = lasso
    profile = desk
    seed = 0
    out = results

    [run]
    plans = fixed:2.0, estimated, oracle
    tol = 1e-6

CSV files are written atomically (temp file then rename) with the header
``k,gamma,residue,objective,infeasibility`` and shortest round-trip float
formatting, so identical configurations yield byte-identical files.  JSON
summaries carry ``"schema": 1`` and the wall times.

Exit codes: 0 success, 2 configuration or usage error, 3 when ``--strict``
is set and some run failed to converge.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import problems, tuner
from .engine import TerminationRule, contradiction_demo, solve

__all__ = ["main", "GridSearchResult"]

_PROG = "admmtune"


class ConfigError(Exception):
    """Bad configuration file or option value; maps to exit code 2."""


@dataclass
class GridSearchResult:
    """Outcome of a fixed-step sweep over a gamma grid.

    ``iterations`` holds iterations-to-tolerance per grid point, None where
    the run hit ``max_iter`` first.  ``boundary_hit`` is True when the best
    point sits on either end of the grid, a hint that the grid should be
    widened.
    """

    gammas: list
    iterations: list
    converged: list
    tol: float
    max_iter: int
    best_gamma: float
    best_iterations: int
    boundary_hit: bool


def _parse_bool(raw):
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_plans(raw):
    tokens = [tok.strip() for tok in str(raw).split(",")]
    return [tok for tok in tokens if tok]


class _Options:
    """Flag values layered over config file values over defaults."""

    def __init__(self, args, config, section, config_path):
        self._args = args
        self._cfg = config
        self._section = section
        self._path = config_path

    def get(self, name, cast, default=None, required=False):
        value = getattr(self._args, name.replace("-", "_"), None)
        if value is not None:
            return value
        if self._cfg is not None:
            for section in (self._section, "common"):
                if self._cfg.has_option(section, name):
                    raw = self._cfg.get(section, name)
                    try:
                        return cast(raw)
                    except (ValueError, TypeError) as err:
                        raise ConfigError(
                            f"{self._path}: [{section}] {name} = {raw!r}: {err}"
                        ) from None
        if required and default is None:
            raise ConfigError(f"option '{name}' is required (flag or config)")
        return default


def _load_config(path, keys):
    """Read an INI file whose sections and keys must all be in ``keys``.

    ``keys`` maps each subcommand to the config keys its options take; a
    ``[common]`` (or ``[DEFAULT]``) key is valid if any subcommand takes it.
    """
    if path is None:
        return None
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser()
    try:
        cfg.read(path)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from None
    common = set().union(*keys.values())
    keys = {**keys, "common": common, cfg.default_section: common}
    defaults = set(cfg.defaults())
    for section in [cfg.default_section] + cfg.sections():
        if section not in keys:
            raise ConfigError(f"{path}: unknown section [{section}]")
        # every section also lists the [DEFAULT] keys, checked on their own
        names = defaults if section == cfg.default_section else set(cfg.options(section)) - defaults
        unknown = sorted(names - keys[section])
        if unknown:
            raise ConfigError(f"{path}: [{section}] unknown key {unknown[0]!r}; "
                              f"known keys: {', '.join(sorted(keys[section]))}")
    return cfg


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
    lines = ["k,gamma,residue,objective,infeasibility"]
    for k, gamma, residue, objective, infeasibility in rows:
        lines.append(f"{k},{gamma!r},{residue!r},{objective!r},{infeasibility!r}")
    return "\n".join(lines) + "\n"


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _instance_tag(kind, profile, seed):
    return f"{kind}_{profile}_seed{seed}"


def _resolve_common(opts):
    kind = opts.get("kind", str, required=True)
    if kind not in problems.KINDS:
        raise ConfigError(f"unknown kind {kind!r}; known kinds: {', '.join(problems.KINDS)}")
    profile = opts.get("profile", str, "desk")
    if profile not in ("desk", "paper"):
        raise ConfigError(f"unknown profile {profile!r}; use 'desk' or 'paper'")
    seed = opts.get("seed", int, 0)
    out = opts.get("out", str, ".")
    return kind, profile, seed, out


def _realize_plan(token, instance, init_vec, opts):
    """Map one plan token to (plan, init, slug); oracle-backed tokens solve first."""
    name, _, arg = token.partition(":")
    try:
        if name == "fixed":
            gamma = float(arg) if arg else 1.0
            return tuner.StepSizePlan.fixed(gamma), init_vec, f"fixed-{gamma:g}"
        if name == "estimated":
            gamma0 = float(arg) if arg else 1.0
            threshold = opts.get("update-threshold", float, 0.0)
            freeze = opts.get("freeze-after", int, None)
            plan = tuner.StepSizePlan.estimated(gamma0, threshold, freeze)
            return plan, init_vec, f"estimated-{gamma0:g}"
        if name == "oracle":
            oracle = problems.compute_oracle(instance)
            plan = tuner.StepSizePlan.oracle(oracle.ax, oracle.lam, init_vec)
            return plan, init_vec, "oracle"
        if name == "pair":
            beta = float(arg) if arg else 1.0
            oracle = problems.compute_oracle(instance)
            pair = tuner.optimal_pair(oracle.ax, oracle.lam, beta)
            return tuner.StepSizePlan.fixed(pair.gamma), pair.zeta0, f"pair-{beta:g}"
        if name in ("asym-primal", "asym-dual"):
            beta = float(arg) if arg else 1.0
            oracle = problems.compute_oracle(instance)
            side = "primal" if name.endswith("primal") else "dual"
            vector = oracle.ax if side == "primal" else oracle.lam
            pair = tuner.asymptotic_pair(side, vector, beta)
            return tuner.StepSizePlan.fixed(pair.gamma), pair.zeta0, f"{name}-{beta:g}"
    except ValueError as err:
        raise ConfigError(f"plan {token!r}: {err}") from None
    raise ConfigError(
        f"unknown plan {token!r}; use fixed[:gamma], estimated[:gamma0], "
        "oracle, pair[:beta], asym-primal[:beta], or asym-dual[:beta]"
    )


def _resolve_init(opts, instance):
    mode = opts.get("init", str, "zero")
    if mode == "zero":
        return None, mode
    if mode == "structure":
        return instance.structure_start(), mode
    raise ConfigError(f"unknown init {mode!r}; use 'zero' or 'structure'")


def _cmd_run(args, config, config_path):
    opts = _Options(args, config, "run", config_path)
    kind, profile, seed, out = _resolve_common(opts)
    plans = opts.get("plans", _parse_plans, None)
    if not plans:
        raise ConfigError("at least one plan is required (--plan or config 'plans')")
    tol = opts.get("tol", float, 1e-6)
    max_iter = opts.get("max-iter", int, 10_000)
    theta = opts.get("theta", float, 0.5)
    strict = opts.get("strict", _parse_bool, False)
    try:
        rule = TerminationRule(tol=tol, max_iter=max_iter, theta=theta)
    except ValueError as err:
        raise ConfigError(str(err)) from None

    instance = problems.generate(kind, profile=profile, seed=seed)
    init_vec, init_mode = _resolve_init(opts, instance)
    os.makedirs(out, exist_ok=True)
    tag = _instance_tag(kind, profile, seed)

    summary_runs = []
    all_converged = True
    seen_slugs = {}
    for token in plans:
        plan, init, slug = _realize_plan(token, instance, init_vec, opts)
        count = seen_slugs.get(slug, 0)
        seen_slugs[slug] = count + 1
        if count:
            slug = f"{slug}-{count + 1}"
        record = solve(instance.spec, plan, init=init, rule=rule)
        record.kind, record.seed, record.dims = kind, seed, dict(instance.dims)
        csv_name = f"{tag}_{slug}.csv"
        _atomic_write(os.path.join(out, csv_name), _run_csv(record.rows))
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

    summary = {
        "schema": 1,
        "command": "run",
        "kind": kind,
        "profile": profile,
        "seed": seed,
        "dims": dict(instance.dims),
        "params": instance.params,
        "tol": tol,
        "max_iter": max_iter,
        "theta": theta,
        "init": init_mode,
        "runs": summary_runs,
    }
    summary_name = f"{tag}_summary.json"
    _atomic_write(os.path.join(out, summary_name), _json_text(summary))
    print(f"summary: {os.path.join(out, summary_name)}")
    if strict and not all_converged:
        return 3
    return 0


def _cmd_grid(args, config, config_path):
    opts = _Options(args, config, "grid", config_path)
    kind, profile, seed, out = _resolve_common(opts)
    gamma_min = opts.get("gamma-min", float, 1e-3)
    gamma_max = opts.get("gamma-max", float, 1e3)
    points = opts.get("points", int, 50)
    tol = opts.get("tol", float, 1e-4)
    max_iter = opts.get("max-iter", int, 10_000)
    theta = opts.get("theta", float, 0.5)
    strict = opts.get("strict", _parse_bool, False)
    if points < 1:
        raise ConfigError(f"points must be at least 1, got {points}")
    if not (math.isfinite(gamma_min) and math.isfinite(gamma_max)):
        raise ConfigError(f"gamma-min and gamma-max must be finite, got {gamma_min} and {gamma_max}")
    if not 0.0 < gamma_min <= gamma_max:
        raise ConfigError(f"need 0 < gamma-min <= gamma-max, got {gamma_min} and {gamma_max}")
    try:
        rule = TerminationRule(tol=tol, max_iter=max_iter, theta=theta)
    except ValueError as err:
        raise ConfigError(str(err)) from None

    instance = problems.generate(kind, profile=profile, seed=seed)
    gammas = [float(g) for g in np.geomspace(gamma_min, gamma_max, points)]
    records = [solve(instance.spec, tuner.StepSizePlan.fixed(g), init=None, rule=rule)
               for g in gammas]

    iterations = [rec.iterations_to_tol for rec in records]
    converged = [rec.converged for rec in records]
    best_idx = min(
        range(len(gammas)),
        key=lambda i: (iterations[i] if iterations[i] is not None else float("inf"), i),
    )
    result = GridSearchResult(
        gammas=gammas,
        iterations=iterations,
        converged=converged,
        tol=tol,
        max_iter=max_iter,
        best_gamma=gammas[best_idx],
        best_iterations=iterations[best_idx],
        boundary_hit=len(gammas) > 1 and best_idx in (0, len(gammas) - 1),
    )

    os.makedirs(out, exist_ok=True)
    tag = _instance_tag(kind, profile, seed)
    lines = ["gamma,iterations_to_tol,converged"]
    for gamma, iters, ok in zip(gammas, iterations, converged):
        iters_text = "" if iters is None else str(iters)
        lines.append(f"{gamma!r},{iters_text},{str(ok).lower()}")
    _atomic_write(os.path.join(out, f"{tag}_grid.csv"), "\n".join(lines) + "\n")

    payload = {
        "schema": 1,
        "command": "grid",
        "kind": kind,
        "profile": profile,
        "seed": seed,
        "dims": dict(instance.dims),
        "tol": tol,
        "max_iter": max_iter,
        "theta": theta,
        "points": points,
        "gamma_min": gamma_min,
        "gamma_max": gamma_max,
        "best_gamma": result.best_gamma,
        "best_iterations": result.best_iterations,
        "boundary_hit": result.boundary_hit,
        "converged_points": sum(converged),
    }
    _atomic_write(os.path.join(out, f"{tag}_grid.json"), _json_text(payload))
    best_text = "none" if result.best_iterations is None else str(result.best_iterations)
    print(f"{tag} grid: best_gamma={result.best_gamma:.6g} iterations={best_text} "
          f"boundary_hit={result.boundary_hit} csv={tag}_grid.csv")
    if strict and not all(converged):
        return 3
    return 0


def _cmd_contradiction(args, config, config_path):
    opts = _Options(args, config, "contradiction", config_path)
    kind, profile, seed, out = _resolve_common(opts)
    instance = problems.generate(kind, profile=profile, seed=seed)
    oracle = problems.compute_oracle(instance)
    report = contradiction_demo(instance.spec, None, ax_star=oracle.ax, lambda_star=oracle.lam)
    print(report.as_text())

    os.makedirs(out, exist_ok=True)
    tag = _instance_tag(kind, profile, seed)
    payload = {
        "schema": 1,
        "command": "contradiction",
        "kind": kind,
        "profile": profile,
        "seed": seed,
        "gamma_dagger_primal": report.gamma_dagger_primal,
        "gamma_dagger_dual": report.gamma_dagger_dual,
        "daggers_agree": report.daggers_agree,
        "contradiction": report.contradiction,
        "alpha_star": report.alpha_star,
        "gamma_star": report.gamma_star,
        "ax_norm": report.ax_norm,
        "lam_norm": report.lam_norm,
        "inner": report.inner,
    }
    path = os.path.join(out, f"{tag}_contradiction.json")
    _atomic_write(path, _json_text(payload))
    print(f"report: {path}")
    return 0


def _cmd_generate(args, config, config_path):
    opts = _Options(args, config, "generate", config_path)
    kind, profile, seed, out = _resolve_common(opts)
    description = problems.generate_data(kind, profile=profile, seed=seed)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{_instance_tag(kind, profile, seed)}_instance.json")
    _atomic_write(path, _json_text(description))
    print(f"instance: {path}")
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("--kind", help=f"problem family: {', '.join(problems.KINDS)}")
    parser.add_argument("--profile", help="size profile: desk or paper (default desk)")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--out", help="output directory (default .)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="benchmark a splitting solver under different step-size plans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one problem under one or more plans")
    _add_common(p_run)
    p_run.add_argument("--plan", dest="plans", action="append", metavar="TOKEN",
                       help="fixed[:gamma], estimated[:gamma0], oracle, pair[:beta], "
                            "asym-primal[:beta], asym-dual[:beta]; repeatable")
    p_run.add_argument("--tol", type=float, help="residue tolerance (default 1e-6)")
    p_run.add_argument("--max-iter", type=int, help="sweep limit (default 10000)")
    p_run.add_argument("--theta", type=float, help="averaging weight in (0,1) (default 0.5)")
    p_run.add_argument("--init", help="start vector: zero or structure (default zero)")
    p_run.add_argument("--update-threshold", type=float,
                       help="estimated plans: relative change needed to adopt a new gamma")
    p_run.add_argument("--freeze-after", type=int,
                       help="estimated plans: stop updating after this many sweeps")
    p_run.add_argument("--strict", action="store_const", const=True,
                       help="exit 3 if any run fails to converge")

    p_grid = sub.add_parser("grid", help="sweep fixed step sizes over a log grid")
    _add_common(p_grid)
    p_grid.add_argument("--gamma-min", type=float, help="grid lower end (default 1e-3)")
    p_grid.add_argument("--gamma-max", type=float, help="grid upper end (default 1e3)")
    p_grid.add_argument("--points", type=int, help="grid size (default 50)")
    p_grid.add_argument("--tol", type=float, help="residue tolerance (default 1e-4)")
    p_grid.add_argument("--max-iter", type=int, help="sweep limit (default 10000)")
    p_grid.add_argument("--theta", type=float, help="averaging weight (default 0.5)")
    p_grid.add_argument("--strict", action="store_const", const=True,
                        help="exit 3 unless every grid point converges")

    p_con = sub.add_parser("contradiction",
                           help="show that no single gamma matches both fixed-point views")
    _add_common(p_con)

    p_gen = sub.add_parser("generate", help="write a problem instance as JSON")
    _add_common(p_gen)

    # the config key _Options.get reads for an option: its dest with '-' for '_'
    keys = {name: {action.dest.replace("_", "-") for action in p._actions
                   if action.dest not in ("help", "config")}
            for name, p in sub.choices.items()}
    return parser, keys


_COMMANDS = {
    "run": _cmd_run,
    "grid": _cmd_grid,
    "contradiction": _cmd_contradiction,
    "generate": _cmd_generate,
}


def main(argv=None) -> int:
    parser, keys = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(args.config, keys)
        return _COMMANDS[args.command](args, config, args.config)
    except ConfigError as err:
        print(f"{_PROG}: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"{_PROG}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
