"""Spans recorded around the calls into each admmtune layer, from outside.

A :class:`Tracer` patches the module attributes through which the library
and the benchmark call into each layer (``cli.main``, ``engine.solve``,
``cli.solve``, ``problems.solve``, ``problems.generate``,
``problems.compute_oracle``, ``tuner.estimate_step``,
``quartic.solve_quartic``) and, on every instance that ``generate`` returns,
the instance's ``spec.prox_f``, ``spec.prox_g`` and ``spec.objective``.  No
file under ``src/`` changes.  Each span is (name, start, end, parent, solve
id); spans stay in memory until :meth:`Tracer.save` writes them out.

Layer names follow the modules: ``engine``, ``prox``, ``problems``,
``tuner``, ``quartic`` and ``cli``.
"""

from __future__ import annotations

import time

import numpy as np

SPAN_NAMES = (
    "engine.solve",
    "prox.x",
    "prox.x_new_gamma",
    "prox.z",
    "problems.objective",
    "problems.generate",
    "problems.oracle",
    "tuner.estimate",
    "quartic.solve",
    "cli.main",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# spans whose time is charged to the layer that encloses them directly
_SOLVE_CHILDREN = ("prox.x", "prox.x_new_gamma", "prox.z", "problems.objective", "tuner.estimate")
_CLI_CHILDREN = ("problems.generate", "problems.oracle", "engine.solve")

SPAN_DTYPE = np.dtype([("name", "i1"), ("start", "f8"), ("end", "f8"),
                       ("parent", "i8"), ("solve", "i8")])


class Tracer:
    """Records nested spans while installed; aggregates them per pass."""

    def __init__(self):
        self._name, self._start, self._end = [], [], []
        self._parent, self._solve = [], []
        self._stack = []
        self._solve_id = -1
        self._next_solve = 0
        self.counts = {}
        self.passes = []  # closed passes as SPAN_DTYPE arrays
        self._patched = []

    # -- recording -----------------------------------------------------

    def _open(self, name):
        idx = len(self._name)
        self._name.append(_ID[name])
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._solve.append(self._solve_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_solve(self, fn):
        def solve(*args, **kwargs):
            outer = self._solve_id
            self._solve_id = self._next_solve
            self._next_solve += 1
            idx = self._open("engine.solve")
            try:
                record = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._solve_id = outer
            self._count("engine.sweeps", record.iterations)
            return record
        return solve

    def _wrap_prox_f(self, fn):
        seen = set()

        def prox_f(w, gamma):
            fresh = gamma not in seen
            if fresh:
                seen.add(gamma)
            idx = self._open("prox.x_new_gamma" if fresh else "prox.x")
            try:
                return fn(w, gamma)
            finally:
                self._close(idx)
        return prox_f

    def _wrap_estimate(self, fn):
        def estimate_step(state, plan, *args, **kwargs):
            idx = self._open("tuner.estimate")
            try:
                new = fn(state, plan, *args, **kwargs)
            finally:
                self._close(idx)
            if new != state.gamma:
                self._count("tuner.gamma_changes")
            return new
        return estimate_step

    def _wrap_oracle(self, fn):
        def compute_oracle(instance, *args, **kwargs):
            cached = instance.oracle is not None and not kwargs.get("refresh", False)
            idx = self._open("problems.oracle")
            try:
                oracle = fn(instance, *args, **kwargs)
            finally:
                self._close(idx)
            if not cached:
                self._count("problems.oracle_sweeps", oracle.iterations)
            return oracle
        return compute_oracle

    def instrument(self, instance):
        """Wrap the instance's proximal maps and objective in place."""
        spec = instance.spec
        spec.prox_f = self._wrap_prox_f(spec.prox_f)
        spec.prox_g = self.wrap("prox.z", spec.prox_g)
        if spec.objective is not None:
            spec.objective = self.wrap("problems.objective", spec.objective)
        return instance

    def _wrap_generate(self, fn):
        traced = self.wrap("problems.generate", fn)

        def generate(*args, **kwargs):
            return self.instrument(traced(*args, **kwargs))
        return generate

    # -- installation --------------------------------------------------

    def install(self):
        """Patch the library's layer boundaries; undo with :meth:`uninstall`."""
        from admmtune import cli, engine, problems, quartic, tuner

        solve = self._wrap_solve(engine.solve)
        patches = [
            (cli, "main", self.wrap("cli.main", cli.main)),
            (engine, "solve", solve),
            (cli, "solve", solve),
            (problems, "solve", solve),
            (problems, "generate", self._wrap_generate(problems.generate)),
            (problems, "compute_oracle", self._wrap_oracle(problems.compute_oracle)),
            (tuner, "estimate_step", self._wrap_estimate(tuner.estimate_step)),
            (quartic, "solve_quartic", self.wrap("quartic.solve", quartic.solve_quartic)),
        ]
        for module, attr, wrapper in patches:
            self._patched.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- per-pass aggregation ------------------------------------------

    def close_pass(self, extra_counts=None):
        """Freeze the spans recorded since the last call and aggregate them."""
        spans = np.empty(len(self._name), dtype=SPAN_DTYPE)
        spans["name"] = self._name
        spans["start"] = self._start
        spans["end"] = self._end
        spans["parent"] = self._parent
        spans["solve"] = self._solve
        counts = dict(self.counts)
        counts.update(extra_counts or {})
        self._name, self._start, self._end = [], [], []
        self._parent, self._solve = [], []
        self.counts = {}
        self.passes.append(spans)
        return layer_metrics(spans, counts)

    def save(self, path):
        """Write every closed pass's spans to ``path`` (numpy .npz)."""
        np.savez_compressed(path, names=np.array(SPAN_NAMES),
                            **{f"pass{i}": s for i, s in enumerate(self.passes)})


def self_times(spans, name, children):
    """Total and self time of spans ``name``: duration minus direct children."""
    dur = spans["end"] - spans["start"]
    is_parent = spans["name"] == _ID[name]
    total = float(dur[is_parent].sum())
    child_ids = [_ID[c] for c in children]
    direct = np.isin(spans["name"], child_ids) & (spans["parent"] >= 0)
    direct &= spans["name"][np.maximum(spans["parent"], 0)] == _ID[name]
    return total, total - float(dur[direct].sum())


def layer_metrics(spans, counts):
    """Per-layer numbers for one pass, from its spans and boundary counts."""
    dur = spans["end"] - spans["start"]

    def calls(name):
        return int(np.count_nonzero(spans["name"] == _ID[name]))

    def secs(name):
        return float(dur[spans["name"] == _ID[name]].sum())

    x_calls = calls("prox.x") + calls("prox.x_new_gamma")
    reuse_calls = calls("prox.x")
    solve_s, engine_self = self_times(spans, "engine.solve", _SOLVE_CHILDREN)
    cli_s, cli_self = self_times(spans, "cli.main", _CLI_CHILDREN)
    sweeps = counts.get("engine.sweeps", 0)
    est_calls = calls("tuner.estimate")
    changes = counts.get("tuner.gamma_changes", 0)
    return {
        "prox.x_calls": x_calls,
        "prox.x_s": secs("prox.x") + secs("prox.x_new_gamma"),
        "prox.x_reuse_us_per_call": 1e6 * secs("prox.x") / reuse_calls if reuse_calls else 0.0,
        "prox.x_new_gamma_calls": calls("prox.x_new_gamma"),
        "prox.x_new_gamma_s": secs("prox.x_new_gamma"),
        "prox.z_calls": calls("prox.z"),
        "prox.z_s": secs("prox.z"),
        "engine.solve_calls": calls("engine.solve"),
        "engine.sweeps": sweeps,
        "engine.solve_s": solve_s,
        "engine.self_s": engine_self,
        "engine.self_us_per_sweep": 1e6 * engine_self / sweeps if sweeps else 0.0,
        "problems.objective_calls": calls("problems.objective"),
        "problems.objective_s": secs("problems.objective"),
        "problems.generate_calls": calls("problems.generate"),
        "problems.generate_s": secs("problems.generate"),
        "problems.oracle_s": secs("problems.oracle"),
        "problems.oracle_sweeps": counts.get("problems.oracle_sweeps", 0),
        "tuner.estimate_calls": est_calls,
        "tuner.estimate_s": secs("tuner.estimate"),
        "tuner.gamma_changes": changes,
        # base: tuner.estimate_calls; 0 when no estimate ran
        "tuner.adopt_ratio": changes / est_calls if est_calls else 0.0,
        "quartic.solve_calls": calls("quartic.solve"),
        "quartic.solve_s": secs("quartic.solve"),
        "cli.main_calls": calls("cli.main"),
        "cli.main_s": cli_s,
        "cli.self_s": cli_self,
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "trace.spans": int(spans.size),
    }
