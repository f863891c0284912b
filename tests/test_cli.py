"""CLI tests: flag parsing, CSV round trips, sweep determinism, exit codes."""

import csv
import io
import math

import pytest

from lasso_mismatch.cli import (
    CSV_COLUMNS,
    ComputationError,
    SweepSpec,
    UsageError,
    emit_csv,
    main,
    parse_args,
    run_sweep,
)


class TestParseArgs:
    def test_snr_sets_noise_variance(self):
        spec = parse_args(
            "--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 "
            "--lambda-list 1.201 --mode theory".split()
        )
        assert spec.sigma_z2 == pytest.approx(0.2, abs=1e-15)
        assert spec.lambda_grid == (1.201,)
        assert spec.mode == "theory"
        assert spec.xi == 1e-3
        assert spec.seed == 0

    def test_mutual_exclusion(self):
        with pytest.raises(UsageError):
            parse_args(
                "--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --sigma-z2 0.2 "
                "--lambda-list 1".split()
            )

    def test_empty_argv_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args([])

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["--frobnicate", "1"])

    def test_lambda_range(self):
        spec = parse_args(
            "--delta 0.8 --kappa 0.1 --eps2 0.1 --sigma-z2 0.2 "
            "--lambda-min 0.1 --lambda-max 0.5 --lambda-steps 5".split()
        )
        assert spec.lambda_grid == pytest.approx((0.1, 0.2, 0.3, 0.4, 0.5))

    def test_lambda_list_excludes_range(self):
        with pytest.raises(UsageError):
            parse_args(
                "--delta 0.8 --kappa 0.1 --eps2 0.1 --sigma-z2 0.2 "
                "--lambda-list 1 --lambda-min 0.1".split()
            )

    def test_simulate_requires_n_and_trials(self):
        with pytest.raises(UsageError):
            parse_args(
                "--delta 0.8 --kappa 0.1 --eps2 0.1 --sigma-z2 0.2 "
                "--lambda-list 1 --mode simulate".split()
            )

    def test_grid_must_increase(self):
        with pytest.raises(UsageError):
            parse_args(
                "--delta 0.8 --kappa 0.1 --eps2 0.1 --sigma-z2 0.2 "
                "--lambda-list 1,0.5".split()
            )

    def test_nonnumeric_value(self):
        with pytest.raises(UsageError):
            parse_args(
                "--delta abc --kappa 0.1 --eps2 0.1 --sigma-z2 0.2 --lambda-list 1".split()
            )

    def test_reproduce_fig_presets(self):
        spec1 = parse_args(["--reproduce-fig", "1"])
        assert spec1.delta == 0.8 and spec1.eps2 == 0.1
        assert spec1.sigma_z2 == pytest.approx(0.2)
        assert len(spec1.lambda_grid) == 60
        assert spec1.lambda_grid[0] == pytest.approx(0.001)
        assert spec1.lambda_grid[-1] == pytest.approx(5.901)
        spec2 = parse_args(["--reproduce-fig", "2"])
        assert spec2.eps2 == 0.2
        assert len(spec2.lambda_grid) == 15
        assert spec2.lambda_grid[-1] == pytest.approx(2.81)

    def test_reproduce_fig_conflicts(self):
        with pytest.raises(UsageError):
            parse_args(["--reproduce-fig", "1", "--delta", "0.9"])


class TestEmitCsv:
    def test_empty_rows_header_only(self):
        buf = io.StringIO()
        emit_csv([], buf)
        assert buf.getvalue() == ",".join(CSV_COLUMNS) + "\n"

    def test_single_row_two_lines(self):
        buf = io.StringIO()
        row = {c: None for c in CSV_COLUMNS}
        row["lambda"] = 1.201
        emit_csv([row], buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1.201,")

    def test_round_trip_precision(self):
        buf = io.StringIO()
        row = {c: None for c in CSV_COLUMNS}
        row["lambda"] = 1.0 / 3.0
        row["mse_theory"] = 0.0556624302837552
        row["tau_star"] = math.pi
        row["nonconverged_trials"] = 3
        emit_csv([row], buf)
        buf.seek(0)
        parsed = list(csv.DictReader(buf))
        assert len(parsed) == 1
        got = parsed[0]
        for key in ("lambda", "mse_theory", "tau_star"):
            rel = abs(float(got[key]) - row[key]) / abs(row[key])
            assert rel <= 1e-12
        assert got["nonconverged_trials"] == "3"
        assert got["phi_on_theory"] == ""


class TestRunSweep:
    def test_theory_mode_leaves_empirical_empty(self):
        spec = parse_args(
            "--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --lambda-list 1.201".split()
        )
        rows = run_sweep(spec)
        assert len(rows) == 1
        row = rows[0]
        assert row["mse_theory"] is not None
        assert row["mse_emp_mean"] is None
        assert row["nonconverged_trials"] is None

    def test_rows_are_read_only_mappings_of_every_column(self):
        spec = parse_args(
            "--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --lambda-list 1.201".split()
        )
        row = run_sweep(spec)[0]
        assert tuple(row) == CSV_COLUMNS and len(row) == len(CSV_COLUMNS)
        assert row == dict(row) and dict(row)["lambda"] == 1.201
        assert row.get("mse_emp_mean") is None
        with pytest.raises(KeyError):
            row["no_such_column"]
        with pytest.raises(TypeError):
            row["lambda"] = 1.0

    def test_simulate_mode_leaves_theory_empty(self):
        spec = parse_args(
            "--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --lambda-list 1.201 "
            "--mode simulate --n 32 --trials 2 --seed 5".split()
        )
        rows = run_sweep(spec)
        assert rows[0]["mse_theory"] is None
        assert rows[0]["mse_emp_mean"] is not None
        assert rows[0]["nonconverged_trials"] == 0

    def test_both_mode_deterministic_output(self):
        argv = (
            "--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --lambda-list 0.8,1.2 "
            "--mode both --n 32 --trials 3 --seed 11".split()
        )
        out1, out2 = io.StringIO(), io.StringIO()
        emit_csv(run_sweep(parse_args(argv)), out1)
        emit_csv(run_sweep(parse_args(argv)), out2)
        assert out1.getvalue() == out2.getvalue()

    def test_snr_and_sigma_paths_identical(self):
        base = "--delta 0.8 --kappa 0.1 --eps2 0.1 --lambda-list 1.201"
        via_snr = run_sweep(parse_args((base + " --snr 0.5").split()))
        via_sig = run_sweep(parse_args((base + " --sigma-z2 0.2").split()))
        assert via_snr == via_sig

    def test_failure_names_lambda(self, monkeypatch):
        import lasso_mismatch.cli as cli_mod

        def boom(cfg, prior, xi):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cli_mod, "predict_report", boom)
        spec = parse_args(
            "--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --lambda-list 1.201".split()
        )
        with pytest.raises(ComputationError, match="lambda=1.201"):
            run_sweep(spec)

    def test_simulation_failure_names_grid(self, monkeypatch):
        import lasso_mismatch.cli as cli_mod

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run_grid", boom)
        spec = parse_args(
            "--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --lambda-list 0.5,1.201 "
            "--mode simulate --n 32 --trials 2".split()
        )
        with pytest.raises(ComputationError, match=r"lambda=0.5\.\.1.201: synthetic"):
            run_sweep(spec)

    def test_spec_validation_direct(self):
        with pytest.raises(UsageError):
            SweepSpec(
                delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2,
                lambda_grid=(1.0,), xi=1e-3, n=None, trials=None,
                seed=0, mode="both", out=None,
            )

    @pytest.mark.parametrize("field, value", [
        ("xi", math.nan), ("xi", math.inf), ("xi", 0.0),
        ("lambda_grid", (0.5, math.nan, 0.3)), ("lambda_grid", (math.inf,)),
        ("trials", 0), ("n", 4), ("seed", -1),
        ("delta", -1.0), ("kappa", 1.5), ("eps2", 1.5), ("sigma_z2", -0.2),
    ])
    def test_spec_rejects_out_of_range(self, field, value):
        good = dict(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lambda_grid=(0.5, 1.0),
                    xi=1e-3, n=64, trials=2, seed=0, mode="simulate", out=None)
        SweepSpec(**good)
        with pytest.raises(UsageError, match=field.split("_")[-1]):
            SweepSpec(**{**good, field: value})


class TestMainExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_success_is_0(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            f"--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --lambda-list 1.201 "
            f"--mode theory --out {out}".split()
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith(",".join(CSV_COLUMNS))
        assert text.endswith("\n")

    def test_io_error_is_3(self, capsys, tmp_path):
        bad = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(
            f"--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --lambda-list 1.201 "
            f"--out {bad}".split()
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    SIMULATE = ("--delta 0.8 --kappa 0.1 --eps2 0.2 --snr 0.5 --mode simulate "
                "--n 64 --trials 2 --seed 0 --xi 1e-3 --lambda-list 0.5")

    @pytest.mark.parametrize("bad", [
        "--lambda-list nan",
        "--lambda-list inf",
        "--lambda-list 0.5,nan,0.3",
        "--trials 0",
        "--n 4",
        "--seed -1",
        "--xi nan",
        "--xi inf",
        "--kappa 0.01 --n 8",
        "--delta 0.01 --n 8",
    ])
    def test_bad_simulate_input_is_usage_error(self, capsys, bad):
        # each of these used to reach the computation (exit 2), and a
        # non-finite xi even exited 0 with all-zero support rates
        assert main((self.SIMULATE + " " + bad).split()) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert bad.split()[0].lstrip("-").split("-")[0] in err

    THEORY = {"--delta": "0.8", "--kappa": "0.1", "--eps2": "0.1", "--snr": "0.5",
              "--lambda-list": "1.201", "--mode": "theory"}

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "-1"),
        ("--eps2", "1.5"),
        ("--kappa", "1.5"),
        ("--sigma-z2", "-0.2"),
        ("--snr", "-0.5"),
        ("--snr", "0"),
        ("--snr", "1e-320"),
        ("--snr", "inf"),
        ("--snr", "nan"),
    ])
    def test_bad_model_flag_is_usage_error(self, capsys, flag, value):
        # these used to exit 2 as computation errors, --snr 0 raised
        # ZeroDivisionError, and --snr 1e-320 (kappa / snr = inf) was
        # reported against sigma_z2, a flag not given
        flags = dict(self.THEORY)
        if flag == "--sigma-z2":
            del flags["--snr"]
        flags[flag] = value
        assert main([arg for pair in flags.items() for arg in pair]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert flag.lstrip("-").replace("-", "_") in err

    def test_stdout_default(self, capsys):
        code = main(
            "--delta 0.8 --kappa 0.1 --eps2 0.1 --snr 0.5 --lambda-list 1.201".split()
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
