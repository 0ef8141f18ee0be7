import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rsheston as rs
import rsheston.cli as cli


@pytest.fixture()
def set1_path(tmp_path):
    return shutil.copy(cli.shipped_config("set1"), tmp_path / "set1.cfg")


@pytest.fixture()
def set2_path(tmp_path):
    return shutil.copy(cli.shipped_config("set2"), tmp_path / "set2.cfg")


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        comment = fh.readline()
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return comment, rows


class TestConfigParsing:
    def test_shipped_configs_load(self):
        for name in ("set1", "set2"):
            cfg = cli.load_config(cli.shipped_config(name))
            assert cfg.params.n_states == 2
            assert cfg.steps_per_year == 250

    def test_parse_error_carries_line_number(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nvariant = smmh_rho\nthis line has no equals\n")
        with pytest.raises(cli.ParseError) as exc:
            cli.load_config(bad)
        assert exc.value.line == 3

    def test_duplicate_key_rejected(self, tmp_path):
        bad = tmp_path / "dup.cfg"
        bad.write_text("[model]\nT = 1\nT = 2\n")
        with pytest.raises(cli.ParseError):
            cli.load_config(bad)

    def test_comments_and_scalar_broadcast(self, tmp_path, set1_path):
        text = set1_path.read_text().replace("r.1 = 0.03\nr.2 = 0.01", "r = 0.02  # flat rate")
        cfg_file = tmp_path / "flat.cfg"
        cfg_file.write_text(text)
        cfg = cli.load_config(cfg_file)
        np.testing.assert_array_equal(cfg.params.r, [0.02, 0.02])

    def test_non_numeric_value_exits_two(self, tmp_path, set1_path, capsys):
        bad = tmp_path / "nan.cfg"
        bad.write_text(set1_path.read_text().replace("delta = 0.3", "delta = abc"))
        with pytest.raises(cli.ParseError, match="delta"):
            cli.load_config(bad)
        assert cli.main(["validate", str(bad)]) == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["q.0.1", "q.a.1"])
    def test_malformed_chain_key_rejected(self, key, tmp_path, set1_path):
        bad = tmp_path / "key.cfg"
        bad.write_text(set1_path.read_text().replace("q.1.1 = -1.0909", f"{key} = 0.0\nq.1.1 = -1.0909"))
        with pytest.raises(cli.ConfigError, match="q.i.j"):
            cli.load_config(bad)

    @pytest.mark.parametrize(
        "key, line",
        [
            ("bogus", "bogus = 1"),
            ("r.3", "r.3 = 9.0"),
            ("r.0", "r.0 = 9.0"),
            ("r.01", "r.01 = 9.0"),
            ("lambda_hat.1", "lambda_hat.1 = 1.7"),
        ],
    )
    def test_unread_model_key_rejected(self, key, line, tmp_path, set1_path, capsys):
        bad = tmp_path / "extra.cfg"
        bad.write_text(set1_path.read_text().replace("d = 1.7", f"d = 1.7\n{line}"))
        with pytest.raises(cli.ConfigError, match=f"'{key}'"):
            cli.load_config(bad)
        assert cli.main(["validate", str(bad)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "anchor, line, key",
        [
            ("state0 = 1", "v00 = 3", "v00"),
            ("seed = 20240211", "sed = 3", "sed"),
            ("steps_per_year = 250", "n_path = 5", "n_path"),
        ],
    )
    def test_misspelt_run_key_rejected(self, anchor, line, key, tmp_path, set1_path, capsys):
        bad = tmp_path / "typo.cfg"
        bad.write_text(set1_path.read_text().replace(anchor, f"{anchor}\n{line}"))
        with pytest.raises(cli.ConfigError, match=f"'{key}'"):
            cli.load_config(bad)
        assert cli.main(["validate", str(bad)]) == 1
        assert key in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, set1_path, capsys):
        bad = tmp_path / "section.cfg"
        bad.write_text(set1_path.read_text() + "\n[smi]\nn_paths = 5\n")
        with pytest.raises(cli.ConfigError, match=r"\[smi\]"):
            cli.load_config(bad)
        assert cli.main(["validate", str(bad)]) == 1
        assert "[smi]" in capsys.readouterr().err

    def test_slope_d_rejected_under_mmh(self, tmp_path, set1_path):
        text = set1_path.read_text().replace("variant = smmh_rho", "variant = mmh").replace("rho = -0.8", "rho = 0.0")
        text = text.replace("d = 1.7", "d = 1.7\nlambda_hat.1 = 1.7\nlambda_hat.2 = 2.21")
        bad = tmp_path / "mmh_d.cfg"
        bad.write_text(text)
        with pytest.raises(cli.ConfigError, match="'d'"):
            cli.load_config(bad)
        good = tmp_path / "mmh.cfg"
        good.write_text(text.replace("d = 1.7\n", ""))
        assert cli.load_config(good).params.variant.value == "mmh"

    def test_scalar_and_per_state_key_conflict(self, tmp_path, set1_path):
        bad = tmp_path / "both.cfg"
        bad.write_text(set1_path.read_text().replace("r.1 = 0.03", "r = 0.5\nr.1 = 0.03"))
        with pytest.raises(cli.ConfigError, match="both as a scalar and per state"):
            cli.load_config(bad)
        assert cli.main(["validate", str(bad)]) == 1


class TestValidateCommand:
    def test_set1_passes(self, set1_path, capsys):
        assert cli.main(["validate", str(set1_path)]) == 0
        out = capsys.readouterr().out
        assert "feller state 1" in out
        assert "overall: pass" in out

    def test_feller_violation_exits_one(self, tmp_path, set1_path, capsys):
        text = set1_path.read_text().replace("chi = 0.35", "chi = 1.0")
        bad = tmp_path / "feller.cfg"
        bad.write_text(text)
        assert cli.main(["validate", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_zero_factor_noise_exits_one(self, tmp_path, set1_path, capsys):
        bad = tmp_path / "chi0.cfg"
        bad.write_text(set1_path.read_text().replace("chi = 0.35", "chi = 0.0"))
        assert cli.main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "factor_noise_positive state 1: 0 < 0 [FAIL]" in out
        assert "excess_slope_bound" not in out
        assert "overall: FAIL" in out

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.cfg"
        bad.write_text("[model\n")
        assert cli.main(["validate", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "nope.cfg")]) == 2

    def test_runs_as_a_module(self, set1_path):
        done = subprocess.run(
            [sys.executable, "-m", "rsheston.cli", "validate", str(set1_path)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert done.returncode == 0, done.stderr
        assert "overall: pass" in done.stdout


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "line, replacement",
        [
            ("v0 = 10.0", "v0 = nan"),
            ("v0 = 10.0", "v0 = 0"),
            ("x0 = 0.02", "x0 = inf"),
            ("x0 = 0.02", "x0 = -0.01"),
            ("state0 = 1", "state0 = 3"),
            ("state0 = 1", "state0 = 0"),
        ],
    )
    def test_bad_initial_value_exits_one(self, line, replacement, tmp_path, set1_path, capsys):
        bad = tmp_path / "initial.cfg"
        bad.write_text(set1_path.read_text().replace(line, replacement))
        key = line.split()[0]
        with pytest.raises(cli.ConfigError, match=key):
            cli.load_config(bad)
        assert cli.main(["solve", str(bad), "--t-grid", "3", "--out", str(tmp_path / "x.csv")]) == 1
        assert f"[initial] {key}" in capsys.readouterr().err

    def test_zero_initial_factor_is_accepted(self, tmp_path, set1_path):
        cfg_file = tmp_path / "x0.cfg"
        cfg_file.write_text(set1_path.read_text().replace("x0 = 0.02", "x0 = 0"))
        assert cli.load_config(cfg_file).x0 == 0.0

    @pytest.mark.parametrize(
        "line, replacement, field",
        [("T = 5.0", "T = inf", "horizon"), ("r.1 = 0.03", "r.1 = nan", "r"), ("nu.2 = 1.3", "nu.2 = inf", "nu")],
    )
    def test_non_finite_model_parameter_exits_one(self, line, replacement, field, tmp_path, set1_path, capsys):
        bad = tmp_path / "model.cfg"
        bad.write_text(set1_path.read_text().replace(line, replacement))
        assert cli.main(["solve", str(bad), "--t-grid", "3", "--out", str(tmp_path / "x.csv")]) == 1
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("validate", []),
            ("solve", ["--t-grid", "3", "--xi-method", "mc"]),
            ("simulate", ["--paths", "20", "--steps-per-year", "10"]),
        ],
        ids=["validate", "solve_mc", "simulate"],
    )
    def test_non_finite_intensity_exits_one(self, command, flags, tmp_path, set1_path, capsys):
        # nan passes the sign and row-sum checks; the sampler would make state 1 absorbing
        text = set1_path.read_text().replace("q.1.1 = -1.0909", "q.1.1 = nan")
        bad = tmp_path / "chain.cfg"
        bad.write_text(text.replace("q.1.2 = 1.0909", "q.1.2 = nan"))
        out = [] if command == "validate" else ["--out", str(tmp_path / "x.csv")]
        assert cli.main([command, str(bad), *flags, *out]) == 1
        assert "must be finite, got nan or inf at [(1, 1), (1, 2)]" in capsys.readouterr().err
        assert list(tmp_path.glob("x*.csv")) == []

    @pytest.mark.parametrize(
        "line, replacement",
        [("seed = 20240211", "seed = -3"), ("n_paths_xi = 10000", "n_paths_xi = 0")],
    )
    @pytest.mark.parametrize("route", [[], ["--xi-method", "mc"]], ids=["ode", "mc"])
    def test_bad_solver_value_exits_one(self, line, replacement, route, tmp_path, set1_path, capsys):
        bad = tmp_path / "solver.cfg"
        bad.write_text(set1_path.read_text().replace(line, replacement))
        key = line.split()[0]
        with pytest.raises(cli.ConfigError, match=key):
            cli.load_config(bad)
        out = tmp_path / "x.csv"
        assert cli.main(["solve", str(bad), "--t-grid", "3", *route, "--out", str(out)]) == 1
        assert f"[solver] {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_negative_seed_flag_is_usage_error(self, command, set1_path, tmp_path, capsys):
        out = tmp_path / "run.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, str(set1_path), "--paths", "2", "--seed", "-3", "--out", str(out)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid_step", ["nan", "inf", "10", "0.0005"])
    def test_bad_grid_step_exits_one(self, grid_step, tmp_path, set1_path, capsys):
        bad = tmp_path / "grid.cfg"
        bad.write_text(set1_path.read_text().replace("[solver]\n", f"[solver]\ngrid_step = {grid_step}\n"))
        out = tmp_path / "x.csv"
        assert cli.main(["solve", str(bad), "--t-grid", "3", "--out", str(out)]) == 1
        assert "key 'grid_step' is not read" in capsys.readouterr().err
        assert not out.exists()


def _mmh_config(tmp_path, set1_path):
    text = set1_path.read_text().replace("variant = smmh_rho", "variant = mmh")
    text = text.replace("rho = -0.8", "rho = 0.0")
    text = text.replace("d = 1.7", "lambda_hat.1 = 1.7\nlambda_hat.2 = 2.21")
    text = text.replace("n_paths_xi = 10000", "n_paths_xi = 150")
    cfg_file = tmp_path / "mmh.cfg"
    cfg_file.write_text(text)
    return cfg_file


def _solve_reference(cfg_path, t_grid: int) -> str:
    """The ``solve`` CSV built row by row from the scalar library calls."""
    cfg = cli.load_config(cfg_path)
    p = cfg.params
    mmh = p.variant is rs.Variant.MMH
    times = np.linspace(0.0, p.horizon, t_grid)
    util = cfg.v0**p.delta / p.delta
    if mmh:
        phi_mmh, _ = rs.value_mmh_table(p, cfg.chain, times, cfg.v0, cfg.x0, cfg.n_paths_xi, cfg.seed)
    else:
        xi = rs.xi_ode(cfg.chain, rs.upsilon_heston(p, rs.d_leverage_fn(p)), times=times)

    def fmt(x):
        return "" if np.isnan(x) else f"{float(x):.17g}"

    lines = [f"# config_sha256={cfg.sha256} seed={cfg.seed}", "t,state,phi,xi,D_or_B,pi_mv,pi_h,pi_total"]
    for k, t in enumerate(times.tolist()):
        for state in range(1, p.n_states + 1):
            if mmh:
                phi, coeff = phi_mmh[k, state - 1], float("nan")
                xi_val = phi / util
            else:
                phi = rs.value_smmh_rho(p, rs.ValueQuery(t=t, v=cfg.v0, x=cfg.x0, state=state), xi)
                coeff, xi_val = rs.D_leverage(p, t), xi.at(t, state)
            sp = rs.optimal_strategy(p, t, state)
            row = [fmt(t), str(state), *map(fmt, (phi, xi_val, coeff, sp.pi_mv, sp.pi_h, sp.pi_total))]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestSolveCommand:
    @pytest.mark.parametrize("name", ["set1", "set2", "mmh"])
    def test_table_matches_row_by_row_reference(self, name, set1_path, set2_path, tmp_path):
        cfg_path = {"set1": set1_path, "set2": set2_path}.get(name) or _mmh_config(tmp_path, set1_path)
        out = tmp_path / "solve.csv"
        assert cli.main(["solve", str(cfg_path), "--t-grid", "11", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == _solve_reference(cfg_path, 11)

    def test_set1_solution_table(self, set1_path, tmp_path, capsys):
        out = tmp_path / "solve.csv"
        assert cli.main(["solve", str(set1_path), "--t-grid", "6", "--out", str(out)]) == 0
        comment, rows = read_csv(out)
        assert comment.startswith("# config_sha256=")
        assert len(rows) == 12
        first = rows[0]
        assert float(first["t"]) == 0.0 and first["state"] == "1"
        assert float(first["phi"]) == pytest.approx(7.4261, abs=0.005)
        # terminal rows: hedging gone, regime expectation back at 1
        for row in rows[-2:]:
            assert float(row["t"]) == 5.0
            assert float(row["pi_h"]) == 0.0
            assert float(row["xi"]) == 1.0
        # 17 significant digits in play
        assert len(first["phi"].replace(".", "").replace("-", "").lstrip("0")) >= 16

    @pytest.mark.parametrize("t_grid", ["0", "-3"])
    def test_empty_time_grid_is_usage_error(self, t_grid, set1_path, tmp_path, capsys):
        out = tmp_path / "solve.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", str(set1_path), "--t-grid", t_grid, "--out", str(out)])
        assert exc.value.code == 2
        assert "--t-grid" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_correlation_zeroes_hedging_column(self, tmp_path, set1_path):
        text = set1_path.read_text().replace("variant = smmh_rho", "variant = smmh")
        text = text.replace("rho = -0.8", "rho = 0.0")
        cfg_file = tmp_path / "norho.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "solve.csv"
        assert cli.main(["solve", str(cfg_file), "--t-grid", "5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(float(r["pi_h"]) == 0.0 for r in rows)

    def test_mc_xi_route(self, set1_path, tmp_path):
        out = tmp_path / "solve_mc.csv"
        code = cli.main(
            ["solve", str(set1_path), "--t-grid", "3", "--out", str(out), "--xi-method", "mc"]
        )
        assert code == 0
        _, rows = read_csv(out)
        ode_out = tmp_path / "solve_ode.csv"
        cli.main(["solve", str(set1_path), "--t-grid", "3", "--out", str(ode_out)])
        _, ode_rows = read_csv(ode_out)
        # the two xi routes agree loosely at 10^4 chain paths
        assert float(rows[0]["phi"]) == pytest.approx(float(ode_rows[0]["phi"]), abs=0.01)

    def test_mmh_partial_mc_route(self, tmp_path, set1_path):
        cfg_file = _mmh_config(tmp_path, set1_path)
        out = tmp_path / "solve_mmh.csv"
        assert cli.main(["solve", str(cfg_file), "--t-grid", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0]["D_or_B"] == ""  # no scalar exponent in the general variant
        assert float(rows[0]["phi"]) == pytest.approx(float(rows[0]["xi"]) * (10**0.3 / 0.3), rel=1e-12)
        assert float(rows[-1]["phi"]) == pytest.approx(10**0.3 / 0.3, rel=1e-9)

    @pytest.mark.parametrize("method", [None, "ode", "mc"], ids=["no_flag", "ode", "mc"])
    def test_xi_method_on_mmh_exits_one(self, method, tmp_path, set1_path, capsys):
        # mmh has no separable xi: a given --xi-method would be ignored, so it is refused
        out = tmp_path / "solve_mmh.csv"
        flag = [] if method is None else ["--xi-method", method]
        argv = ["solve", str(_mmh_config(tmp_path, set1_path)), "--t-grid", "3", *flag, "--out", str(out)]
        assert cli.main(argv) == (0 if method is None else 1)
        assert out.exists() == (method is None)
        if method is not None:
            assert "--xi-method" in capsys.readouterr().err

    def test_failed_assumption_exits_one(self, tmp_path, set1_path, capsys):
        text = set1_path.read_text().replace("delta = 0.3", "delta = 0.999")
        text = text.replace("rho = -0.8", "rho = 0.8")
        bad = tmp_path / "unsolvable.cfg"
        bad.write_text(text)
        assert cli.main(["solve", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        assert "tilted_rate_positive" in capsys.readouterr().err


class TestSimulateCommand:
    def test_small_run_writes_both_csvs(self, set1_path, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = cli.main(
            ["simulate", str(set1_path), "--paths", "300", "--steps-per-year", "50",
             "--out", str(out), "--bins", "10", "--overflow-at", "100"]
        )
        assert code == 0
        comment, rows = read_csv(out)
        assert comment.startswith("# config_sha256=")
        assert rows[0]["n_paths"] == "300"
        assert float(rows[0]["std_err"]) > 0
        # the controlled estimate is never noisier than the conditional one beside it
        assert float(rows[0]["std_err"]) <= float(rows[0]["std_err_conditional"])
        _, hist_rows = read_csv(tmp_path / "sim_hist.csv")
        assert len(hist_rows) == 11  # 10 bins + overflow row
        assert hist_rows[-1]["bin_hi"] == "inf"
        assert sum(int(r["count"]) for r in hist_rows) == 300

    def test_header_records_the_seed_in_effect(self, set1_path, tmp_path):
        out = tmp_path / "sim.csv"
        argv = ["simulate", str(set1_path), "--paths", "20", "--steps-per-year", "10", "--seed", "5"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        for path in (out, tmp_path / "sim_hist.csv"):
            comment, _ = read_csv(path)
            assert comment.rstrip("\n").endswith(" seed=5")

    def test_parser_built_once_keeps_no_state_between_calls(self, set1_path, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        out = tmp_path / "sim.csv"
        argv = ["simulate", str(set1_path), "--paths", "5", "--steps-per-year", "5", "--out", str(out)]
        assert cli.main([*argv, "--seed", "5"]) == 0
        assert read_csv(out)[0].rstrip("\n").endswith(" seed=5")
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", str(set1_path), "--t-grid", "0", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert cli.main(argv) == 0
        seed = cli.load_config(set1_path).seed
        assert read_csv(out)[0].rstrip("\n").endswith(f" seed={seed}")

    @pytest.mark.parametrize(
        "flag, value",
        [("--overflow-at", v) for v in ("nan", "inf", "0", "-5", "abc")]
        + [("--bins", v) for v in ("0", "-2", "2.5")],
    )
    def test_bad_histogram_flag_is_usage_error(self, flag, value, set1_path, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", str(set1_path), "--paths", "5", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_single_path_has_no_stderr(self, set1_path, tmp_path):
        out = tmp_path / "sim1.csv"
        cli.main(["simulate", str(set1_path), "--paths", "1", "--steps-per-year", "20",
                  "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0]["std_err"] == rows[0]["std_err_conditional"] == ""
        assert rows[0]["mean"] == rows[0]["mean_conditional"]

    @pytest.mark.parametrize("flag", ["--paths", "--steps-per-year"])
    def test_zero_count_flag_exits_one(self, flag, set1_path, tmp_path, capsys):
        # a zero must reach SimConfig's check, not fall back to the config default
        argv = ["simulate", str(set1_path), "--paths", "2", "--steps-per-year", "2",
                flag, "0", "--out", str(tmp_path / "sim0.csv")]
        assert cli.main(argv) == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_set2_mean_lands_near_reported_value(self, set2_path, tmp_path):
        out = tmp_path / "sim2.csv"
        cli.main(["simulate", str(set2_path), "--paths", "2000", "--out", str(out)])
        _, rows = read_csv(out)
        mean, err = float(rows[0]["mean"]), float(rows[0]["std_err"])
        assert abs(mean - (-0.0802)) < 3 * err


class TestDiagnoseCommand:
    def test_anchor_checkpoint_z_is_zero(self, set1_path, tmp_path):
        out = tmp_path / "diag.csv"
        code = cli.main(
            ["diagnose", str(set1_path), "--checkpoints", "0", "--paths", "200", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0]["z_score"]) == 0.0

    def test_single_path_has_no_stderr_or_z(self, set1_path, tmp_path):
        out = tmp_path / "diag1.csv"
        argv = ["diagnose", str(set1_path), "--checkpoints", "0,2.5,5", "--paths", "1", "--out", str(out)]
        assert cli.main(argv) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 and all(row["std_err"] == row["z_score"] == "" for row in rows), rows

    def test_header_records_the_seed_in_effect(self, set1_path, tmp_path):
        out = tmp_path / "diag.csv"
        argv = ["diagnose", str(set1_path), "--checkpoints", "0,5", "--paths", "20", "--seed", "9"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        comment, _ = read_csv(out)
        assert comment.rstrip("\n").endswith(" seed=9")

    def test_constant_strategy_flag(self, set1_path, tmp_path):
        out = tmp_path / "diag_const.csv"
        code = cli.main(
            ["diagnose", str(set1_path), "--checkpoints", "0,5", "--strategy", "const:1.0",
             "--paths", "400", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "weight, message", [("nan", "must be finite"), ("inf", "must be finite"), ("1e200", "wealth overflowed")]
    )
    def test_unusable_constant_weight_exits_one(self, weight, message, set1_path, tmp_path, capsys):
        out = tmp_path / "d.csv"
        argv = ["diagnose", str(set1_path), "--checkpoints", "0,5", "--strategy", f"const:{weight}", "--paths", "5"]
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", "0,abc", "nan", "inf", "0,,5"])
    def test_bad_checkpoints_flag_is_usage_error(self, value, set1_path, tmp_path, capsys):
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["diagnose", str(set1_path), "--checkpoints", value, "--paths", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert "--checkpoints" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "7", "0,5.5"])
    def test_checkpoint_outside_the_horizon_exits_one(self, value, set1_path, tmp_path, capsys):
        out = tmp_path / "d.csv"
        argv = ["diagnose", str(set1_path), "--checkpoints", value, "--paths", "5", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "outside [0, T]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["const:abc", "const:"])
    def test_malformed_constant_strategy_exits_one(self, value, set1_path, tmp_path, capsys):
        out = tmp_path / "d.csv"
        argv = ["diagnose", str(set1_path), "--checkpoints", "0,5", "--strategy", value, "--paths", "5"]
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--strategy" in err and "const:<w>" in err
        assert "could not convert" not in err
        assert not out.exists()

    def test_unknown_strategy_exits_one(self, set1_path, tmp_path):
        code = cli.main(
            ["diagnose", str(set1_path), "--strategy", "momentum", "--paths", "10",
             "--out", str(tmp_path / "d.csv")]
        )
        assert code == 1
