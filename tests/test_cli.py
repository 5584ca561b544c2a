import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from admmtune import (KINDS, TerminationRule, cli, compute_oracle, engine, generate, problems,
                      prox, tuner)

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
                    "--update-threshold", "0.05", "--freeze-after", "50",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out / "lasso_desk_seed0_estimated-1.csv")
    gammas = {row[1] for row in rows}
    assert len(gammas) > 1


def test_config_file_layering(tmp_path):
    out = tmp_path / "cfg"
    config = tmp_path / "bench.ini"
    config.write_text(
        "[common]\n"
        f"out = {out}\n"
        "kind = qp\n"
        "seed = 3\n"
        "[run]\n"
        "plans = fixed:2.0\n"
        "tol = 1e-5\n"
    )
    assert run_cli(["run", "--config", str(config)]) == 0
    summary = json.loads((out / "qp_desk_seed3_summary.json").read_text())
    assert summary["tol"] == 1e-5

    # explicit flags win over the file
    assert run_cli(["run", "--config", str(config), "--seed", "4"]) == 0
    assert (out / "qp_desk_seed4_summary.json").is_file()


def test_config_default_section_is_the_lowest_layer(tmp_path):
    # [DEFAULT] is read after [common], which is read after [run], whichever
    # sections the file has
    files = {
        "alone": "[DEFAULT]\nkind = qp\nplans = fixed\n",
        "under_common": "[DEFAULT]\nkind = qp\n[common]\nkind = lp\nplans = fixed\n",
        "under_both": "[DEFAULT]\nkind = qp\nseed = 5\n[common]\nkind = lp\n"
                      "[run]\nplans = fixed\nseed = 2\n",
    }
    for name, text in files.items():
        config = tmp_path / f"{name}.ini"
        config.write_text(text)
        out = tmp_path / name
        assert run_cli(["run", "--config", str(config), "--max-iter", "3", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == {
            "alone": ["qp_desk_seed0_fixed-1.csv", "qp_desk_seed0_summary.json"],
            "under_common": ["lp_desk_seed0_fixed-1.csv", "lp_desk_seed0_summary.json"],
            "under_both": ["lp_desk_seed2_fixed-1.csv", "lp_desk_seed2_summary.json"],
        }[name], name


def test_config_values_are_literal(tmp_path):
    # '%' interpolates nothing: the directory is named as written
    config = tmp_path / "bench.ini"
    config.write_text(f"[common]\nkind = qp\nout = {tmp_path}/%(nope)s\n"
                      "[run]\nplans = fixed\nmax-iter = 3\n")
    assert run_cli(["run", "--config", str(config)]) == 0
    assert (tmp_path / "%(nope)s" / "qp_desk_seed0_summary.json").is_file()


# a value for every option, none of them its default
_SAMPLES = {"kind": "lasso", "profile": "paper", "seed": "7", "out": "elsewhere",
            "plans": "pair:2", "tol": "1e-05", "max_iter": "77", "init": "structure",
            "update_threshold": "0.125", "freeze_after": "9",
            "strict": "yes", "gamma_min": "0.01", "gamma_max": "20", "points": "5"}
_OPTIONS = [(command, key, action) for command, sub in cli._build_parser()[1].items()
            for key, action in cli._config_keys(sub).items()]


def _parsed(argv):
    """Parsed options, with config plans under ``plans`` and ``--config`` dropped."""
    args = vars(cli._parse_args(argv))
    del args["config"]
    config_plans = args.pop("config_plans", None)
    if config_plans:
        args["plans"] = config_plans
    return args


@pytest.mark.parametrize("command,key,action", _OPTIONS,
                         ids=[f"{command}-{key}" for command, key, _ in _OPTIONS])
def test_config_key_parses_like_its_flag(tmp_path, command, key, action):
    value = _SAMPLES[action.dest]
    flag = action.option_strings[0]
    config = tmp_path / "bench.ini"
    config.write_text(f"[{command}]\n{key} = {value}\n")
    from_flag = _parsed([command, flag] + ([] if action.nargs == 0 else [value]))
    assert from_flag != _parsed([command])
    assert _parsed([command, "--config", str(config)]) == from_flag


def test_config_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    assert run_cli(["run", "--config", str(missing), "--kind", "qp",
                    "--plan", "fixed:1"]) == 2
    assert "config file not found" in capsys.readouterr().err

    bad_section = tmp_path / "bad_section.ini"
    bad_section.write_text("[mystery]\nkind = qp\n")
    assert run_cli(["run", "--config", str(bad_section), "--kind", "qp",
                    "--plan", "fixed:1"]) == 2
    assert "unknown section" in capsys.readouterr().err

    bad_value = tmp_path / "bad_value.ini"
    bad_value.write_text("[common]\nkind = qp\n[run]\nplans = fixed:1\ntol = banana\n")
    assert run_cli(["run", "--config", str(bad_value)]) == 2
    assert "tol" in capsys.readouterr().err

    bad_strict = tmp_path / "bad_strict.ini"
    bad_strict.write_text("[run]\nkind = qp\nplans = fixed:1\nstrict = maybe\n")
    assert run_cli(["run", "--config", str(bad_strict)]) == 2
    assert "strict" in capsys.readouterr().err

    headless = tmp_path / "headless.ini"
    headless.write_text("kind = qp\n")
    assert run_cli(["run", "--config", str(headless), "--plan", "fixed:1"]) == 2
    assert str(headless) in capsys.readouterr().err


def test_config_unknown_keys_exit_two(tmp_path, capsys):
    out = tmp_path / "never"
    typo = tmp_path / "typo.ini"
    typo.write_text(f"[common]\nkind = qp\nout = {out}\n[run]\nplans = fixed:1\ntolerance = 1e-300\n")
    assert run_cli(["run", "--config", str(typo)]) == 2
    err = capsys.readouterr().err
    assert str(typo) in err and "[run]" in err and "'tolerance'" in err
    assert not out.exists()

    stale = tmp_path / "stale.ini"
    stale.write_text(f"[common]\nkind = qp\nout = {out}\n[grid]\npoints = 2\njobs = 4\n")
    assert run_cli(["grid", "--config", str(stale)]) == 2
    err = capsys.readouterr().err
    assert str(stale) in err and "[grid]" in err and "'jobs'" in err
    assert run_cli(["grid", "--kind", "qp", "--points", "2", "--jobs", "2", "--out", str(out)]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()

    # the solver is the half-averaged map: no flag or key sets a relaxation weight
    for argv, section in ((["run", "--plan", "fixed"], "run"), (["grid"], "common")):
        argv = argv + ["--kind", "qp", "--out", str(out)]
        assert run_cli(argv + ["--theta", "0.4"]) == 2
        assert "--theta" in capsys.readouterr().err
        relaxed = tmp_path / "relaxed.ini"
        relaxed.write_text(f"[{section}]\ntheta = 0.4\n")
        assert run_cli(argv + ["--config", str(relaxed)]) == 2
        err = capsys.readouterr().err
        assert str(relaxed) in err and f"[{section}]" in err and "'theta'" in err
    assert not out.exists()

    # a [common] key is valid when any subcommand takes it, and a key of one
    # subcommand is not valid in another's section
    shared = tmp_path / "shared.ini"
    shared.write_text(f"[common]\nkind = qp\nout = {out}\npoints = 2\n[run]\nplans = fixed:1\n")
    assert run_cli(["run", "--config", str(shared)]) == 0
    misplaced = tmp_path / "misplaced.ini"
    misplaced.write_text("[run]\nkind = qp\nplans = fixed:1\npoints = 2\n")
    assert run_cli(["run", "--config", str(misplaced), "--out", str(out)]) == 2
    assert "'points'" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli(["run", "--plan", "fixed:1", "--out", out]) == 2
    assert "required" in capsys.readouterr().err

    assert run_cli(["run", "--kind", "marsh", "--plan", "fixed:1", "--out", out]) == 2
    assert "unknown kind" in capsys.readouterr().err

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
    monkeypatch.setattr(engine, "solve_quartic", _refuse_every_root)
    assert run_cli(["contradiction", "--kind", "qp", "--out", out]) == 4
    assert capsys.readouterr().err == "admmtune: no positive real root passed validation\n"
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


@pytest.mark.parametrize("value, code", [("off", 0), ("on", 3)])
def test_config_strict_turns_nonconvergence_into_exit_three(tmp_path, value, code):
    config = tmp_path / "strict.ini"
    config.write_text(f"[run]\nkind = lasso\nplans = fixed:1e-3\nmax-iter = 5\n"
                      f"out = {tmp_path / 'strict'}\nstrict = {value}\n")
    assert run_cli(["run", "--config", str(config)]) == code


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
    assert run_cli(["run", "--kind", "qp", "--plan", "estimated", "--update-threshold", "nan",
                    "--out", out]) == 2
    assert "update_threshold" in capsys.readouterr().err
    for flag in ("--gamma-min", "--gamma-max"):
        for value in ("inf", "nan"):
            assert run_cli(["grid", "--kind", "qp", flag, value, "--out", out]) == 2
            assert "must be finite" in capsys.readouterr().err


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
