import json

import numpy as np
import pytest

from admmtune import KINDS, cli, generate, prox


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


def test_strict_flag_turns_nonconvergence_into_exit_three(tmp_path):
    out = str(tmp_path / "strict")
    args = ["run", "--kind", "lasso", "--plan", "fixed:1e-3", "--max-iter", "5",
            "--out", out]
    assert run_cli(args) == 0
    assert run_cli(args + ["--strict"]) == 3
    summary = json.loads((tmp_path / "strict" / "lasso_desk_seed0_summary.json").read_text())
    assert summary["runs"][0]["converged"] is False
    assert summary["runs"][0]["iterations_to_tol"] is None


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
    for plan in ("fixed:inf", "fixed:nan", "estimated:inf"):
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
    monkeypatch.setattr(prox, "cho_factor", _refuse)
    with pytest.raises(AssertionError):
        generate("lasso", profile="desk", seed=2)
    out = tmp_path / "gen"
    for kind in KINDS:
        assert run_cli(["generate", "--kind", kind, "--seed", "2", "--out", str(out)]) == 0
        assert (out / f"{kind}_desk_seed2_instance.json").read_text() == wants[kind]
