"""The benchmark's workloads: what one pass runs and how its outputs are checked.

Each workload has a ``setup`` (instances, the reference runs its checks
need, and a first cold solve) and a ``run_pass`` that generates fresh
instances outside the timed region, times its solves one caller at a time,
and checks every outcome.  A solve that raises, or whose outcome breaks its
check, counts as failed.

The library is reached only through public calls, looked up on their
modules at call time so that a :class:`spans.Tracer` can wrap them:
``problems.generate``, ``problems.compute_oracle``, ``engine.solve``,
``tuner.StepSizePlan``, ``tuner.gamma_zero_init`` and ``cli.main``.

The pass seed only shuffles the order in which the pinned instances and
step sizes run.  Instance seeds stay at the acceptance seeds, because the
snapshot checks and the 5% step-size bound hold for those instances.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from admmtune import cli, engine, problems, tuner

# the acceptance seeds of tests/conftest.py
ACCEPT_SEEDS = {"lp": 0, "qp": 0, "lad": 18, "huber": 0, "bp": 10, "lasso": 4, "tv": 8, "sics": 0}

GRID_KINDS = ("lasso", "tv")
# 7 points keep the two max_iter ends of each kind and fit ~5 passes in 30 s
GRID_GAMMAS = tuple(float(g) for g in np.geomspace(1e-3, 1e3, 7))
GRID_RULE = engine.TerminationRule(tol=1e-4, max_iter=10_000)

ESTIMATE_CASES = {
    # working set (A = 8 MB, 2 MB per factor) larger than a 4 MiB L2
    "lasso_mid": {"kind": "lasso", "dims": {"m": 500, "n": 2000}, "seed": 0},
    "lp": {"kind": "lp", "profile": "desk", "seed": ACCEPT_SEEDS["lp"]},
    "tv": {"kind": "tv", "profile": "desk", "seed": ACCEPT_SEEDS["tv"]},
}
ESTIMATE_RULE = engine.TerminationRule(tol=1e-6, max_iter=100_000)
# criterion 7 of tests/test_acceptance.py, as it stands
ESTIMATE_GAMMA_REL = 0.05

ZOO_PLANS = ("fixed", "estimated", "oracle", "pair")
ZOO_TOL = 1e-6
CSV_HEADER = ["k", "gamma", "residue", "objective", "infeasibility"]

SNAPSHOT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshot.json")


def load_snapshot(path=SNAPSHOT_PATH):
    with open(path) as fh:
        return json.load(fh)


@dataclass
class PassResult:
    """Outcome of one pass: timed units, sweeps, per-solve latency and checks.

    The timed units of a pass (solves, or ``cli.main`` calls) together make
    up its timed region; each is keyed by a label that is the same in every
    pass, so that run.py can take each unit's fastest time over the passes.
    """

    units_s: dict = field(default_factory=dict)  # unit label -> s
    sweeps: int = 0
    latencies_ms: dict = field(default_factory=dict)  # solve label -> ms
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def record(self, label, seconds, sweeps):
        """A solve that is its own timed unit."""
        self.units_s[label] = seconds
        self.latencies_ms[label] = 1e3 * seconds
        self.sweeps += sweeps

    def fail(self, what):
        self.failed += 1
        self.errors.append(what)

    def entry(self, traced):
        """The pass as the worker reports it (failures go to stderr instead)."""
        return {"traced": traced, "units_s": self.units_s, "sweeps": self.sweeps,
                "latencies_ms": self.latencies_ms, "attempted": self.attempted,
                "failed": self.failed}


def _raised(result, label):
    result.fail(f"{label}: raised\n{traceback.format_exc()}")


class Grid:
    """Fixed-step log grid on desk lasso and tv, zero start, tol 1e-4."""

    def __init__(self, snapshot, smoke=False):
        snap = snapshot["grid"]
        if snap["gammas"] != list(GRID_GAMMAS):
            raise ValueError("grid snapshot was pinned for other step sizes")
        # smoke: the two cheapest points
        picks = (3, 4) if smoke else range(len(GRID_GAMMAS))
        self.points = [(kind, i) for kind in GRID_KINDS for i in picks]
        self.expected = {kind: snap[kind] for kind in GRID_KINDS}

    def setup(self):
        for kind in GRID_KINDS:
            inst = problems.generate(kind, profile="desk", seed=ACCEPT_SEEDS[kind])
            engine.solve(inst.spec, tuner.StepSizePlan.fixed(1.0), init=None, rule=GRID_RULE)

    def run_pass(self, rng, state):
        instances = {kind: problems.generate(kind, profile="desk", seed=ACCEPT_SEEDS[kind])
                     for kind in GRID_KINDS}
        order = list(self.points)
        rng.shuffle(order)
        result = PassResult()
        for kind, i in order:
            gamma = GRID_GAMMAS[i]
            label = f"grid {kind} gamma={gamma!r}"
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                rec = engine.solve(instances[kind].spec, tuner.StepSizePlan.fixed(gamma),
                                   init=None, rule=GRID_RULE)
            except Exception:
                _raised(result, label)
                continue
            result.record(label, time.perf_counter() - t0, rec.iterations)
            got = [rec.iterations_to_tol, rec.converged]
            if got != self.expected[kind][i]:
                result.fail(f"{label}: got {got}, snapshot {self.expected[kind][i]}")
        return result


class Estimate:
    """Successive step-size estimation to tol 1e-6 on three instances."""

    def __init__(self, smoke=False):
        self.cases = ["tv"] if smoke else list(ESTIMATE_CASES)

    @staticmethod
    def _generate(case):
        spec = dict(ESTIMATE_CASES[case])
        return problems.generate(spec.pop("kind"), **spec)

    def setup(self):
        # the reference runs are gamma = 1 solves from the zero start, so
        # they are also each instance's first cold solve
        gamma_star = {}
        for case in self.cases:
            oracle = problems.compute_oracle(self._generate(case))
            gamma_star[case] = tuner.gamma_zero_init(oracle.ax, oracle.lam)
        return gamma_star

    def run_pass(self, rng, gamma_star):
        # a fresh instance per solve: the factorization cache keys on exact
        # gamma, so a reused instance would replay the estimated sequence
        instances = {case: self._generate(case) for case in self.cases}
        order = list(self.cases)
        rng.shuffle(order)
        result = PassResult()
        for case in order:
            label = f"estimate {case}"
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                rec = engine.solve(instances.pop(case).spec, tuner.StepSizePlan.estimated(),
                                   init=None, rule=ESTIMATE_RULE)
            except Exception:
                _raised(result, label)
                continue
            result.record(label, time.perf_counter() - t0, rec.iterations)
            residue = rec.rows[-1][2] if rec.rows else float("inf")
            rel = abs(rec.final_gamma - gamma_star[case]) / gamma_star[case]
            if not (rec.converged and residue <= ESTIMATE_RULE.tol and rel <= ESTIMATE_GAMMA_REL):
                result.fail(f"{label}: converged={rec.converged} residue={residue:.3e} "
                            f"final_gamma={rec.final_gamma!r} gamma*={gamma_star[case]!r}")
        return result


class Zoo:
    """``admmtune run`` in-process over the eight desk kinds, four plans each."""

    def __init__(self, snapshot, out_dir, smoke=False):
        self.kinds = ["qp", "lad"] if smoke else list(ACCEPT_SEEDS)
        self.expected = snapshot["zoo"]
        self.out_dir = out_dir

    def setup(self):
        rule = engine.TerminationRule(tol=ZOO_TOL)
        for kind in self.kinds:
            inst = problems.generate(kind, profile="desk", seed=ACCEPT_SEEDS[kind])
            engine.solve(inst.spec, tuner.StepSizePlan.fixed(1.0), init=None, rule=rule)

    def _check_kind(self, kind, tag, plans, result):
        """Check one ``run`` call's summary and CSVs; return bytes written."""
        summary_path = os.path.join(self.out_dir, f"{tag}_summary.json")
        with open(summary_path) as fh:
            runs = {run["token"]: run for run in json.load(fh)["runs"]}
        written = os.path.getsize(summary_path)
        for plan in plans:
            label = f"zoo {kind} {plan}"
            run = runs.get(plan)
            if run is None:
                result.fail(f"{label}: missing from summary")
                continue
            result.sweeps += run["iterations"]
            result.latencies_ms[label] = 1e3 * run["wall_time_s"]
            csv_path = os.path.join(self.out_dir, run["csv"])
            written += os.path.getsize(csv_path)
            with open(csv_path, newline="") as fh:
                rows = list(csv.reader(fh))
            got = [run["iterations_to_tol"], run["converged"]]
            if got != self.expected[kind][plan]:
                result.fail(f"{label}: got {got}, snapshot {self.expected[kind][plan]}")
            elif rows[:1] != [CSV_HEADER] or len(rows) - 1 != run["iterations"]:
                result.fail(f"{label}: {run['csv']} has {len(rows) - 1} rows for "
                            f"{run['iterations']} sweeps or a wrong header")
        return written

    def run_pass(self, rng, state):
        kinds = list(self.kinds)
        rng.shuffle(kinds)
        result = PassResult()
        written = 0
        for kind in kinds:
            plans = list(ZOO_PLANS)
            rng.shuffle(plans)
            seed = ACCEPT_SEEDS[kind]
            argv = ["run", "--kind", kind, "--profile", "desk", "--seed", str(seed),
                    "--tol", repr(ZOO_TOL), "--out", self.out_dir]
            for plan in plans:
                argv += ["--plan", plan]
            result.attempted += len(plans)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    outcome = f"exited {cli.main(argv)}"
            except Exception:
                outcome = f"raised\n{traceback.format_exc()}"
            dt = time.perf_counter() - t0
            if outcome != "exited 0":
                for plan in plans:
                    result.fail(f"zoo {kind} {plan}: admmtune run {outcome}")
                continue
            result.units_s[f"zoo {kind}"] = dt
            try:
                written += self._check_kind(kind, f"{kind}_desk_seed{seed}", plans, result)
            except (OSError, ValueError, KeyError):
                _raised(result, f"zoo {kind} outputs")
            finally:
                # a missing write must not be masked by the previous pass's files
                shutil.rmtree(self.out_dir)
                os.makedirs(self.out_dir)
        result.counts["cli.bytes_written"] = written
        return result


def make(name, snapshot, out_dir, smoke=False):
    if name == "grid":
        return Grid(snapshot, smoke)
    if name == "estimate":
        return Estimate(smoke)
    if name == "zoo":
        return Zoo(snapshot, out_dir, smoke)
    raise ValueError(f"unknown workload {name!r}")


def report_errors(errors, limit=5):
    for line in errors[:limit]:
        print(line, file=sys.stderr)
    if len(errors) > limit:
        print(f"... {len(errors) - limit} more failures", file=sys.stderr)