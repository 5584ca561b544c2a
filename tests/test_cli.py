import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from admmtune import (KINDS, TerminationRule, cli, compute_oracle, generate, problems, prox,
                      quartic, tuner)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    return header, rows


def test_run_writes_csv_and_summary(tmp_path):
    out = tmp_path / "results"
    code = run_cli(["run", "--kind", "qp", "--seed", "1", "--plan", "fixed:2.5",
                    "--out", str(out)])
    assert code == 0
    csv_path = out / "qp_desk_seed1_fixed-2.5.csv"
    header, rows = read_csv(csv_path)
    assert header == "k,gamma,residue,objective,infeasibility"
    assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    assert all(float(row[1]) == 2.5 for row in rows)
    assert float(rows[-1][2]) <= 1e-6

    summary = json.loads((out / "qp_desk_seed1_summary.json").read_text())
    assert summary["schema"] == 1 and summary["command"] == "run"
    assert summary["kind"] == "qp" and summary["seed"] == 1
    assert "theta" not in summary
    (entry,) = summary["runs"]
    assert entry["csv"] == csv_path.name
    assert entry["converged"] is True
    assert entry["final_gamma"] == 2.5
    assert entry["iterations_to_tol"] <= entry["iterations"]


def test_run_output_is_byte_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["run", "--kind", "qp", "--plan", "fixed:1.5",
                        "--out", str(out)]) == 0
        outs.append((out / "qp_desk_seed0_fixed-1.5.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_accepts_every_plan_token(tmp_path):
    out = tmp_path / "plans"
    code = run_cli(["run", "--kind", "qp", "--out", str(out),
                    "--plan", "fixed:1.0",
                    "--plan", "estimated:0.5",
                    "--plan", "oracle",
                    "--plan", "pair:2.0",
                    "--plan", "asym-primal:3.0",
                    "--plan", "asym-dual:3.0"])
    assert code == 0
    summary = json.loads((out / "qp_desk_seed0_summary.json").read_text())
    by_token = {entry["token"]: entry for entry in summary["runs"]}
    assert set(by_token) == {"fixed:1.0", "estimated:0.5", "oracle", "pair:2.0",
                             "asym-primal:3.0", "asym-dual:3.0"}
    assert all(entry["converged"] for entry in by_token.values())
    # a matched start plus its matched step size converges in a single sweep
    assert by_token["pair:2.0"]["iterations_to_tol"] == 1
    for entry in by_token.values():
        assert (out / entry["csv"]).is_file()


def test_run_deduplicates_repeated_plan_names(tmp_path):
    out = tmp_path / "dup"
    assert run_cli(["run", "--kind", "qp", "--out", str(out),
                    "--plan", "fixed:1", "--plan", "fixed:1"]) == 0
    assert (out / "qp_desk_seed0_fixed-1.csv").is_file()
    assert (out / "qp_desk_seed0_fixed-1-2.csv").is_file()


def test_run_structure_init(tmp_path):
    out = tmp_path / "warm"
    assert run_cli(["run", "--kind", "lp", "--plan", "fixed:1.0",
                    "--init", "structure", "--out", str(out)]) == 0
    summary = json.loads((out / "lp_desk_seed0_summary.json").read_text())
    assert summary["init"] == "structure"


def test_run_estimated_flags_pass_through(tmp_path):
    out = tmp_path / "est"
    assert run_cli(["run", "--kind", "lasso", "--plan", "estimated:1.0",
                    "--freeze-after", "50", "--out", str(out)]) == 0
    header, rows = read_csv(out / "lasso_desk_seed0_estimated-1.csv")
    gammas = {row[1] for row in rows}
    assert len(gammas) > 1


# a value for every option and the value it parses to, none of them its default
_SAMPLES = {"kind": ("lasso", "lasso"), "profile": ("paper", "paper"), "seed": ("7", 7),
            "out": ("elsewhere", "elsewhere"), "plans": ("pair:2", ["pair:2"]),
            "tol": ("1e-05", 1e-05), "max_iter": ("77", 77), "init": ("structure", "structure"),
            "freeze_after": ("9", 9), "strict": (None, True), "gamma_min": ("0.01", 0.01),
            "gamma_max": ("20", 20.0), "points": ("5", 5)}
# what fills a required option other than the one under test
_REQUIRED = {"kind": ["--kind", "qp"], "plans": ["--plan", "fixed"]}
_OPTIONS = [(command, action) for command, sub in cli._build_parser()[1].items()
            for action in sub._actions if action.dest != "help"]


@pytest.mark.parametrize("command,action", _OPTIONS,
                         ids=[f"{command}-{action.dest.replace('_', '-')}"
                              for command, action in _OPTIONS])
def test_config_key_parses_like_its_flag(command, action):
    """Each long flag of each subcommand takes its sample to the namespace, converted.

    A flag with no sample fails here.  The name dates from the INI layer,
    whose keys were these flags without ``--``.
    """
    raw, want = _SAMPLES[action.dest]
    argv = [command]
    for other in cli._build_parser()[1][command]._actions:
        if other.required and other is not action:
            argv += _REQUIRED[other.dest]
    argv += [action.option_strings[0]] + ([] if raw is None else [raw])
    got = getattr(cli._build_parser()[0].parse_args(argv), action.dest)
    assert (got, type(got)) == (want, type(want))
    assert got != action.default


def test_config_unknown_keys_exit_two(tmp_path, capsys):
    """``--config`` and the flags of removed options exit 2, name the flag and write nothing."""
    out = tmp_path / "never"
    cases = [
        (["grid", "--kind", "qp", "--points", "2"], ["--jobs", "2"]),
        # the solver is the half-averaged map: no flag sets a relaxation weight
        (["run", "--kind", "qp", "--plan", "fixed"], ["--theta", "0.4"]),
        (["grid", "--kind", "qp"], ["--theta", "0.4"]),
        # an estimated plan adopts every new estimate: no flag sets an update threshold
        (["run", "--kind", "qp", "--plan", "estimated"], ["--update-threshold", "0.05"]),
        # every key of the INI file had a flag, which is all that is left
        (["run", "--kind", "qp", "--plan", "fixed"], ["--config", "bench.ini"]),
        (["grid", "--kind", "qp"], ["--config", "bench.ini"]),
    ]
    for argv, removed in cases:
        assert run_cli(argv + ["--out", str(out)] + removed) == 2, removed
        assert removed[0] in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_two(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli(["run", "--plan", "fixed:1", "--out", out]) == 2
    assert "required" in capsys.readouterr().err

    assert run_cli(["run", "--kind", "marsh", "--plan", "fixed:1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "--kind" in err and "'marsh'" in err

    assert run_cli(["run", "--kind", "qp", "--out", out]) == 2
    assert "plan" in capsys.readouterr().err

    assert run_cli(["run", "--kind", "qp", "--plan", "warp:1", "--out", out]) == 2
    assert "unknown plan" in capsys.readouterr().err

    assert run_cli(["run", "--kind", "qp", "--plan", "fixed:-1", "--out", out]) == 2
    capsys.readouterr()

    assert run_cli(["run", "--kind", "qp", "--plan", "fixed:1", "--init", "warm",
                    "--out", out]) == 2
    assert "init" in capsys.readouterr().err

    assert run_cli(["run", "--kind", "qp", "--profile", "huge", "--plan", "fixed:1",
                    "--out", out]) == 2
    assert "profile" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["warp:1", "pair:-1", "fixed:abc", "oracle:abc", "oracle:5"])
def test_bad_plan_token_writes_no_csv(tmp_path, capsys, token):
    out = tmp_path / "partial"
    assert run_cli(["run", "--kind", "qp", "--plan", "fixed", "--plan", token,
                    "--out", str(out)]) == 2
    assert token in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_rejected_oracle_step_writes_no_csv(tmp_path, capsys, monkeypatch):
    # the oracle token's step size is checked with every other plan, before
    # the fixed plan's CSV is written
    monkeypatch.setattr(tuner, "gamma_general", lambda *args: 0.0)
    assert run_cli(["run", "--kind", "qp", "--plan", "fixed", "--plan", "oracle",
                    "--out", str(tmp_path / "partial")]) == 2
    assert "plan 'oracle': gamma0 must be positive" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_strict_flag_turns_nonconvergence_into_exit_three(tmp_path):
    out = str(tmp_path / "strict")
    args = ["run", "--kind", "lasso", "--plan", "fixed:1e-3", "--max-iter", "5",
            "--out", out]
    assert run_cli(args) == 0
    assert run_cli(args + ["--strict"]) == 3
    summary = json.loads((tmp_path / "strict" / "lasso_desk_seed0_summary.json").read_text())
    assert summary["runs"][0]["converged"] is False
    assert summary["runs"][0]["iterations_to_tol"] is None


def _refuse_every_root(coefficients):
    raise ArithmeticError("no positive real root passed validation")


def test_numerical_failures_exit_four(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "failed")
    # tv's iterates overflow at gamma = 1e300
    assert run_cli(["run", "--kind", "tv", "--plan", "fixed:1e300", "--out", out]) == 4
    assert capsys.readouterr().err == "admmtune: non-finite iterate at sweep 3\n"
    # a reference run with no sweep to spend stalls, under run and contradiction
    with monkeypatch.context() as patch:
        patch.setattr(problems, "_ORACLE_RULE", TerminationRule(tol=1e-10, max_iter=0))
        for argv in (["run", "--kind", "qp", "--plan", "oracle"], ["contradiction", "--kind", "qp"]):
            assert run_cli(argv + ["--out", out]) == 4
            assert capsys.readouterr().err == ("admmtune: reference run for kind 'qp' stalled "
                                               "at residue nan after 0 sweeps\n")
    monkeypatch.setattr(quartic, "solve_quartic", _refuse_every_root)
    assert run_cli(["contradiction", "--kind", "qp", "--out", out]) == 4
    assert capsys.readouterr().err == "admmtune: no positive real root passed validation\n"
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("kind, coefficient", [
    ("lp", "e must be finite, got -inf"),
    ("qp", "e must be finite, got -inf"),
    ("tv", "a must be finite, got inf"),
])
def test_overflowing_estimate_exits_four(tmp_path, capsys, kind, coefficient):
    # from gamma0 = 1e300 the estimator's squared norms of the iterates overflow:
    # a numerical failure of the run, not a usage error
    argv = ["run", "--kind", kind, "--plan", "estimated:1e300", "--out", str(tmp_path)]
    assert run_cli(argv) == 4
    assert capsys.readouterr().err.splitlines() == [f"admmtune: coefficient {coefficient}"]
    assert not list(tmp_path.rglob("*.csv"))


def test_numerical_failure_exits_four_without_a_traceback(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "admmtune.cli", "run", "--kind", "tv",
                           "--plan", "fixed:1e300", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (4, "admmtune: non-finite iterate at sweep 3\n")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_141_without_a_traceback(tmp_path, unbuffered):
    # the reader is gone before the first write: unbuffered, that write
    # raises; buffered, the flush at the end of main does
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "admmtune.cli", "generate", "--kind", "qp",
                               "--out", str(tmp_path)],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")
    assert (tmp_path / "qp_desk_seed0_instance.json").is_file()


def test_grid_outputs(tmp_path):
    out = tmp_path / "grid"
    code = run_cli(["grid", "--kind", "qp", "--gamma-min", "0.05", "--gamma-max", "5",
                    "--points", "7", "--tol", "1e-4", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "qp_desk_seed0_grid.csv")
    assert header == "gamma,iterations_to_tol,converged"
    assert len(rows) == 7
    gammas = [float(row[0]) for row in rows]
    assert gammas == sorted(gammas)
    assert gammas[0] == pytest.approx(0.05) and gammas[-1] == pytest.approx(5.0)

    payload = json.loads((out / "qp_desk_seed0_grid.json").read_text())
    assert payload["schema"] == 1 and payload["command"] == "grid"
    assert payload["best_gamma"] in gammas
    best_iters = min(int(row[1]) for row in rows if row[1])
    assert payload["best_iterations"] == best_iters
    assert payload["converged_points"] == sum(row[2] == "true" for row in rows)
    assert isinstance(payload["boundary_hit"], bool)


def test_grid_records_a_failing_point_and_goes_on(tmp_path, capsys):
    # tv's iterates overflow at gamma = 1e150 and 1e300
    out = tmp_path / "tv"
    args = ["grid", "--kind", "tv", "--gamma-min", "1", "--gamma-max", "1e300",
            "--points", "3", "--max-iter", "20", "--out", str(out)]
    assert run_cli(args) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and "gamma=1e+150 failed" in err[0] and "gamma=1e+300 failed" in err[1]
    assert (out / "tv_desk_seed0_grid.csv").read_text().splitlines() == [
        "gamma,iterations_to_tol,converged", "1.0,,false", "1e+150,,false", "1e+300,,false"]
    payload = json.loads((out / "tv_desk_seed0_grid.json").read_text())
    assert payload["converged_points"] == 0 and payload["best_iterations"] is None
    assert payload["best_gamma"] is None and payload["boundary_hit"] is False
    assert run_cli(args + ["--strict"]) == 3

    # a step size the plan rejects still stops the sweep before any solve
    never = tmp_path / "never"
    assert run_cli(["grid", "--kind", "qp", "--gamma-min", "1e-320", "--gamma-max", "1",
                    "--points", "3", "--out", str(never)]) == 2
    assert "finite reciprocal" in capsys.readouterr().err
    assert not never.exists()


def test_grid_validation(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli(["grid", "--kind", "qp", "--points", "0", "--out", out]) == 2
    assert "points" in capsys.readouterr().err
    assert run_cli(["grid", "--kind", "qp", "--gamma-min", "5", "--gamma-max", "1",
                    "--out", out]) == 2
    assert "gamma-min" in capsys.readouterr().err
    assert run_cli(["grid", "--kind", "qp", "--jobs", "0", "--out", out]) == 2
    assert "jobs" in capsys.readouterr().err


def test_grid_strict(tmp_path):
    args = ["grid", "--kind", "lasso", "--gamma-min", "1e-4", "--gamma-max", "1e-3",
            "--points", "2", "--max-iter", "5", "--out", str(tmp_path / "gs")]
    assert run_cli(args) == 0
    assert run_cli(args + ["--strict"]) == 3


def test_grid_without_a_converged_point_reports_no_best(tmp_path, capsys):
    out = tmp_path / "none"
    assert run_cli(["grid", "--kind", "lp", "--points", "3", "--max-iter", "2",
                    "--out", str(out)]) == 0
    payload = json.loads((out / "lp_desk_seed0_grid.json").read_text())
    assert payload["converged_points"] == 0
    assert payload["best_gamma"] is None and payload["best_iterations"] is None
    assert payload["boundary_hit"] is False
    assert "theta" not in payload
    assert capsys.readouterr().out == ("lp_desk_seed0 grid: best_gamma=none iterations=none "
                                       "boundary_hit=False csv=lp_desk_seed0_grid.csv\n")


def test_atomic_write_removes_its_temp_file_when_the_write_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._atomic_write(str(tmp_path / "table.csv"), "k\n")
    assert not list(tmp_path.iterdir())


def test_contradiction_report(tmp_path, capsys):
    out = tmp_path / "con"
    assert run_cli(["contradiction", "--kind", "lp", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "gamma" in text
    payload = json.loads((out / "lp_desk_seed0_contradiction.json").read_text())
    assert payload["schema"] == 1 and payload["command"] == "contradiction"
    assert payload["contradiction"] is True
    assert payload["gamma_star"] > 0
    assert payload["gamma_dagger_primal"] != payload["gamma_dagger_dual"]


def test_generate_writes_instance(tmp_path):
    out = tmp_path / "gen"
    assert run_cli(["generate", "--kind", "bp", "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "bp_desk_seed2_instance.json").read_text())
    assert payload["schema"] == 1 and payload["kind"] == "bp" and payload["seed"] == 2
    fresh = generate("bp", profile="desk", seed=2)
    assert np.allclose(np.asarray(payload["data"]["A"]), fresh.data["A"])


def test_non_finite_step_sizes_exit_two(tmp_path, capsys):
    out = str(tmp_path)
    for plan in ("fixed:inf", "fixed:nan", "estimated:inf", "fixed:1e-320"):
        assert run_cli(["run", "--kind", "qp", "--plan", plan, "--out", out]) == 2
        assert "gamma0 must be positive and finite" in capsys.readouterr().err
    for flag in ("--gamma-min", "--gamma-max"):
        for value in ("inf", "nan"):
            assert run_cli(["grid", "--kind", "qp", flag, value, "--out", out]) == 2
            assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_exits_two_before_writing(tmp_path, capsys, command, tol):
    # the summary JSON would hold Infinity or NaN, which is not JSON
    out = tmp_path / "never"
    argv = [command, "--kind", "qp", "--tol", tol, "--out", str(out)]
    assert run_cli(argv + (["--plan", "fixed"] if command == "run" else [])) == 2
    assert f"tol must be finite, got {tol}" in capsys.readouterr().err
    assert not out.exists()


def _refuse(*args, **kwargs):
    raise AssertionError("a data export must not build a solver")


def test_generate_exports_without_building_a_solver(tmp_path, monkeypatch):
    wants = {kind: json.dumps(generate(kind, profile="desk", seed=2).to_dict(),
                              indent=2, sort_keys=True) + "\n"
             for kind in KINDS}
    monkeypatch.setattr(prox, "eigh", _refuse)
    monkeypatch.setattr(prox, "svd", _refuse)
    monkeypatch.setattr(np.linalg, "svd", _refuse)
    with pytest.raises(AssertionError):
        generate("lasso", profile="desk", seed=2)
    out = tmp_path / "gen"
    for kind in KINDS:
        assert run_cli(["generate", "--kind", kind, "--seed", "2", "--out", str(out)]) == 0
        assert (out / f"{kind}_desk_seed2_instance.json").read_text() == wants[kind]


def _count_x_steps(monkeypatch):
    """Count every x-step of the instances ``run`` generates."""
    calls = []
    real = problems.generate

    def generate_counting(*args, **kwargs):
        inst = real(*args, **kwargs)
        prox_f = inst.spec.prox_f

        def counting(w, g):
            calls.append(g)
            return prox_f(w, g)

        inst.spec.prox_f = counting
        return inst

    monkeypatch.setattr(problems, "generate", generate_counting)
    return calls


def _summary_sweeps(out):
    summary = json.loads((out / "qp_desk_seed0_summary.json").read_text())
    return sum(entry["iterations"] for entry in summary["runs"])


def test_run_shares_the_unit_fixed_sweeps_with_the_reference_run(tmp_path, monkeypatch):
    reference = compute_oracle(generate("qp", profile="desk", seed=0)).iterations
    calls = _count_x_steps(monkeypatch)
    for plans in (["fixed", "oracle"], ["oracle", "fixed"]):
        out = tmp_path / "-".join(plans)
        argv = ["run", "--kind", "qp", "--out", str(out)]
        for plan in plans:
            argv += ["--plan", plan]
        del calls[:]
        assert run_cli(argv) == 0
        # the 88 fixed sweeps also open the 148-sweep reference run
        assert len(calls) == 174 == _summary_sweeps(out) + reference - 88
    # a structured start shares nothing
    out = tmp_path / "structure"
    del calls[:]
    assert run_cli(["run", "--kind", "qp", "--plan", "fixed", "--plan", "oracle",
                    "--init", "structure", "--out", str(out)]) == 0
    assert len(calls) == _summary_sweeps(out) + reference


def test_shared_run_writes_the_bytes_of_separate_runs(tmp_path):
    together, apart = tmp_path / "together", tmp_path / "apart"
    assert run_cli(["run", "--kind", "qp", "--plan", "oracle", "--plan", "fixed",
                    "--out", str(together)]) == 0
    for plan in ("fixed", "oracle"):
        assert run_cli(["run", "--kind", "qp", "--plan", plan, "--out", str(apart)]) == 0
    for name in ("qp_desk_seed0_fixed-1.csv", "qp_desk_seed0_oracle.csv"):
        assert (together / name).read_bytes() == (apart / name).read_bytes(), name


def test_readme_command_line_section_names_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    parser, subparsers = cli._build_parser()
    flags = {option for p in (parser, *subparsers.values()) for action in p._actions
             for option in action.option_strings if option.startswith("--")}
    # every flag is named, and every flag named is one the parser takes
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", section)) == flags
