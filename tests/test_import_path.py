"""The package's public names, README's quick start, and its import path:
the package, the whole zoo and every catalog entry run on numpy alone.

The import-path program runs in a fresh interpreter with
``sys.modules["scipy"] = None``, so any import of scipy or of one of its
submodules raises there.  A fresh interpreter is needed because the test
session itself may have loaded scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import admmtune
from admmtune import engine, problems, prox, quartic, tuner

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PROGRAM = """
import sys

sys.modules["scipy"] = None

import numpy as np

import admmtune
import admmtune.cli
from admmtune import KINDS, PROX_KINDS, StepSizePlan, TerminationRule, catalog_prox, generate, solve

for kind in KINDS:
    rec = solve(generate(kind, profile="desk", seed=0).spec, StepSizePlan.estimated(),
                rule=TerminationRule(tol=1e-300, max_iter=5))
    assert rec.iterations == 5, (kind, rec.iterations)

rng = np.random.default_rng(0)
P = rng.normal(size=(5, 5))
entries = {
    "l1": dict(dim=4),
    "nonneg": dict(dim=4),
    "box": dict(dim=4, lower=-1.0, upper=1.0),
    "affine_set": dict(A=rng.normal(size=(2, 5)), b=rng.normal(size=2)),
    "quad_affine": dict(P=P @ P.T, q=rng.normal(size=5), A=rng.normal(size=(2, 5)), b=rng.normal(size=2)),
    "lstsq": dict(A=rng.normal(size=(3, 5)), b=rng.normal(size=3)),
    "huber": dict(dim=4),
    "tv_quad": dict(n=4),
    "logdet_quad": dict(n=3),
}
assert set(entries) == set(PROX_KINDS)
for kind, params in entries.items():
    h = catalog_prox(kind, **params)
    h(np.ones(h.dim), 1.0)
print(sorted(name for name, module in sys.modules.items()
             if name.split(".")[0] == "scipy" and module is not None))
"""


def test_package_runs_the_zoo_without_importing_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_package_reexports_each_module_list():
    modules = (quartic, prox, engine, tuner, problems)
    names = [name for module in modules for name in module.__all__]
    assert admmtune.__all__ == names + ["__version__"]
    assert len(set(admmtune.__all__)) == len(admmtune.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(admmtune, name) is getattr(module, name), name


def test_readme_modules_section_names_every_public_name():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Modules", 1)[1].split("Removed public names", 1)[0]
    missing = [name for name in admmtune.__all__
               if not name.startswith("__") and f"`{name}`" not in section]
    assert not missing


def _shows(want, got):
    """Whether the word ``got`` reads as ``want``; "0.5019..." is ``got`` rounded to 4 decimals."""
    if not want.endswith("..."):
        return got == want
    shown = want[:-3]
    return round(float(got), len(shown.rpartition(".")[2])) == float(shown)


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # each print line ends in a comment with the line it prints
    promised = [line.rsplit("#", 1)[1].split() for line in block.splitlines()
                if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(printed) == len(promised) == 3
    for got, want in zip(printed, promised):
        assert len(got) == len(want) and all(map(_shows, want, got)), (got, want)
