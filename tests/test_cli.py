import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lyaprod
from lyaprod.cli import (CliError, RunConfig, build_parser, cmd_compare,
                         cmd_ratio, cmd_simulate, cmd_theory, comparison_rows,
                         ensemble_from_dict, ensemble_to_dict, main,
                         theory_rows, Z_GATE, COMPARE_HEADER)
from lyaprod import cli, montecarlo, sigma
from lyaprod.ensembles import (ENSEMBLES, FactorStream, StandardGaussian,
                               TruncatedUnitary, chain_rng)
from lyaprod.montecarlo import estimate
from lyaprod.specfun import EULER_GAMMA, PI2_OVER_6
from lyaprod.theory import TheorySpectrum

TRUNC = '{"kind":"truncated_unitary","beta":2,"d":2,"n":2}'
GAUSS_21 = '{"kind":"standard_gaussian","beta":2,"d":1}'


class TestEnsembleRoundTrip:
    CASES = [
        {"kind": "standard_gaussian", "beta": 2, "d": 3},
        {"kind": "general_sigma_gaussian", "beta": 2, "sigma_inv_eigenvalues": [0.25, 1.0]},
        {"kind": "inverse_gaussian", "beta": 1, "d": 2},
        {"kind": "gaussian_inverse_mixture", "beta": 2, "d": 2, "alpha_plus": 0.5},
        {"kind": "rectangular_gaussian", "beta": 2, "d": 2, "shapes": [[0, 0.5], [1, 0.5]]},
        {"kind": "truncated_unitary", "beta": 4, "d": 2, "n": 2},
    ]

    @pytest.mark.parametrize("obj", CASES, ids=lambda o: o["kind"])
    def test_round_trip(self, obj):
        spec = ensemble_from_dict(obj)
        assert ensemble_to_dict(spec) == obj

    def test_unknown_kind_rejected(self):
        with pytest.raises(CliError):
            ensemble_from_dict({"kind": "levy_flight", "beta": 2, "d": 2})
        with pytest.raises(CliError):
            ensemble_from_dict({"beta": 2})

    def test_missing_field_rejected(self):
        with pytest.raises(CliError, match="missing field 'd'"):
            ensemble_from_dict({"kind": "inverse_gaussian", "beta": 2})

    def test_unknown_field_rejected(self):
        with pytest.raises(CliError, match="alpha_plus"):
            ensemble_from_dict({"kind": "standard_gaussian", "beta": 2, "d": 2,
                                "n": 5, "alpha_plus": 0.3})

    def test_wrongly_typed_field_rejected(self):
        with pytest.raises(CliError):
            ensemble_from_dict({"kind": "standard_gaussian", "beta": 2, "d": None})
        with pytest.raises(CliError):
            ensemble_from_dict({"kind": "general_sigma_gaussian", "beta": 2,
                                "sigma_inv_eigenvalues": 3})


class TestIntegerEnsembleFields:
    """Integer fields reject floats, bools and strings instead of truncating them."""

    @pytest.mark.parametrize("field,obj", [
        ("beta", {"kind": "standard_gaussian", "beta": 2.0, "d": 2}),
        ("beta", {"kind": "inverse_gaussian", "beta": True, "d": 2}),
        ("d", {"kind": "standard_gaussian", "beta": 2, "d": 2.7}),
        ("d", {"kind": "gaussian_inverse_mixture", "beta": 2, "d": "2", "alpha_plus": 0.5}),
        ("d", {"kind": "truncated_unitary", "beta": 2, "d": True, "n": 2}),
        ("n", {"kind": "truncated_unitary", "beta": 2, "d": 2, "n": 1.6}),
        ("n", {"kind": "truncated_unitary", "beta": 2, "d": 2, "n": "2"}),
        ("offset", {"kind": "rectangular_gaussian", "beta": 2, "d": 2,
                    "shapes": [[0, 0.5], [1.6, 0.5]]}),
        ("offset", {"kind": "rectangular_gaussian", "beta": 2, "d": 2,
                    "shapes": [[False, 0.5], [1, 0.5]]}),
    ], ids=["beta-float", "beta-bool", "d-float", "d-str", "d-bool", "n-float",
            "n-str", "offset-float", "offset-bool"])
    def test_cli_exits_2(self, field, obj, capsys):
        assert main(["theory", "--ensemble", json.dumps(obj)]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("shapes", [[[0, 0.5, 7]], [0.5], "ab", {"0": 1}],
                             ids=["triple", "bare-number", "string", "object"])
    def test_malformed_shapes_exit_2_naming_the_field(self, shapes, capsys):
        obj = {"kind": "rectangular_gaussian", "beta": 2, "d": 2, "shapes": shapes}
        assert main(["theory", "--ensemble", json.dumps(obj)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "shapes" in err[0]

    @pytest.mark.parametrize("y", [5, "ab", {"a": 1}], ids=["scalar", "string", "object"])
    def test_malformed_sigma_exit_2_naming_the_field(self, y, capsys):
        obj = {"kind": "general_sigma_gaussian", "beta": 1, "sigma_inv_eigenvalues": y}
        assert main(["theory", "--ensemble", json.dumps(obj)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert (len(err) == 1 and err[0].startswith("error:")
                and "sigma_inv_eigenvalues" in err[0])

    def test_too_many_offset_classes_exit_2(self, capsys):
        obj = {"kind": "rectangular_gaussian", "beta": 2, "d": 1,
               "shapes": [[g, 1 / 257] for g in range(257)]}
        assert main(["theory", "--ensemble", json.dumps(obj)]) == 2
        assert "at most 256 offset classes" in capsys.readouterr().err

    def test_numpy_integers_accepted(self):
        spec = ensemble_from_dict({"kind": "truncated_unitary", "beta": np.int64(2),
                                   "d": np.int64(2), "n": np.int64(1)})
        assert (spec.beta, spec.d, spec.n) == (2, 2, 1)
        assert all(type(v) is int for v in (spec.beta, spec.d, spec.n))


class TestShareEnsembleFields:
    """Shares and covariance eigenvalues reject bools, strings and NaN
    instead of converting them."""

    @pytest.mark.parametrize("message,obj", [
        ("alpha_plus must be a number",
         {"kind": "gaussian_inverse_mixture", "beta": 2, "d": 2, "alpha_plus": True}),
        ("alpha_plus must be a number",
         {"kind": "gaussian_inverse_mixture", "beta": 2, "d": 2, "alpha_plus": "0.5"}),
        ("proportion must be a number",
         {"kind": "rectangular_gaussian", "beta": 2, "d": 2, "shapes": [[0, True]]}),
        ("proportion must be a number",
         {"kind": "rectangular_gaussian", "beta": 2, "d": 2, "shapes": [[0, "0.5"], [1, 0.5]]}),
        ("proportions must be positive",
         {"kind": "rectangular_gaussian", "beta": 2, "d": 2,
          "shapes": [[0, float("nan")], [1, 1.0]]}),
        ("eigenvalue of Sigma^{-1} must be a number",
         {"kind": "general_sigma_gaussian", "beta": 1, "sigma_inv_eigenvalues": [True, "2"]}),
        ("eigenvalue of Sigma^{-1} must be a number",
         {"kind": "general_sigma_gaussian", "beta": 2, "sigma_inv_eigenvalues": [1.0, "2"]}),
    ], ids=["alpha_plus-bool", "alpha_plus-str", "proportion-bool", "proportion-str",
            "proportion-nan", "sigma-bool", "sigma-str"])
    def test_cli_exits_2(self, message, obj, capsys):
        assert main(["theory", "--ensemble", json.dumps(obj)]) == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestRegistry:
    """Every registered kind serializes, has a theory row and draws factors."""

    EXAMPLES = {obj["kind"]: obj for obj in TestEnsembleRoundTrip.CASES}

    @pytest.mark.parametrize("cls", list(ENSEMBLES.values()), ids=lambda c: c.kind)
    def test_kind_is_wired_everywhere(self, cls):
        obj = self.EXAMPLES[cls.kind]
        spec = ensemble_from_dict(obj)
        assert type(spec) is cls
        assert json.dumps(ensemble_to_dict(spec)) == json.dumps(obj)
        assert len(theory_rows(spec).mu) >= 1
        assert len(list(FactorStream(spec, chain_rng(60, 0)).factors(3))) == 3


class TestTheoryRows:
    def test_table_covers_every_kind(self):
        assert set(cli._THEORY) == set(ENSEMBLES)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("kind", sorted(ENSEMBLES))
    def test_every_kind_returns_one_spectrum_type(self, kind, beta):
        # one result type for every theory route: a TheorySpectrum covering
        # indices 1..m, m <= d, with a number (never None) for each
        obj = dict(TestRegistry.EXAMPLES[kind], beta=beta)
        th = theory_rows(ensemble_from_dict(obj))
        assert type(th) is TheorySpectrum and th.beta == beta
        assert 1 <= len(th.mu) == len(th.n_sigma2) <= th.d
        assert all(isinstance(v, float) and math.isfinite(v) for v in th.mu + th.n_sigma2)

    def test_truncated_exact_values(self):
        th = theory_rows(ensemble_from_dict(json.loads(TRUNC)))
        assert th.mu == pytest.approx((-5.0 / 12.0, -0.75), abs=1e-13)
        assert th.n_sigma2 == pytest.approx((13.0 / 144.0, 0.3125), abs=1e-13)

    def test_scalar_gaussian(self):
        th = theory_rows(StandardGaussian(2, 1))
        assert (th.mu, th.n_sigma2) == (pytest.approx((-EULER_GAMMA / 2,), abs=1e-14),
                                        pytest.approx((PI2_OVER_6 / 4,), abs=1e-14))

    def test_general_sigma_complex_full_spectrum(self):
        # at beta = 2 every index has a variance, none an empty CSV field
        spec = ensemble_from_dict({"kind": "general_sigma_gaussian", "beta": 2,
                                   "sigma_inv_eigenvalues": [1.0, 0.25]})
        th = theory_rows(spec)
        assert len(th.mu) == 2
        assert th.n_sigma2[0] == pytest.approx(0.19769884385952266, abs=1e-12)
        assert th.n_sigma2[1] == pytest.approx(0.447699, abs=1e-6)

    def test_general_sigma_real_single_row(self):
        spec = ensemble_from_dict({"kind": "general_sigma_gaussian", "beta": 1,
                                   "sigma_inv_eigenvalues": [1.0, 0.25]})
        th = theory_rows(spec)
        assert len(th.mu) == len(th.n_sigma2) == 1 and th.d == 2

    def test_general_sigma_real_runs_quadrature_once(self, monkeypatch):
        calls = []
        original = sigma.j_integrals

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sigma, "j_integrals", counted)
        spec = ensemble_from_dict({"kind": "general_sigma_gaussian", "beta": 4,
                                   "sigma_inv_eigenvalues": [1.0, 0.25]})
        th = theory_rows(spec)
        assert len(calls) == 1
        assert th == sigma.kargin_top(4, spec.sigma_inv_eigenvalues)


class TestCommands:
    def test_simulate_zero_truncation_all_zero(self):
        config = RunConfig(ensemble=TruncatedUnitary(2, 2, 0), N=200, chains=1, seed=5)
        rows, meta = cmd_simulate(config)
        assert all(abs(r["mu_mc"]) <= 1e-12 for r in rows)
        assert meta["redraws"] == 0 and meta["seed"] == 5

    def test_simulate_scalar_gaussian_matches(self):
        config = RunConfig(ensemble=StandardGaussian(2, 1), N=100_000, chains=1, seed=6)
        rows, _ = cmd_simulate(config)
        assert abs(rows[0]["mu_mc"] + EULER_GAMMA / 2) <= 4.0 * rows[0]["se_mu"]

    def test_compare_honest_run_passes_gate(self):
        config = RunConfig(ensemble=TruncatedUnitary(2, 2, 2), N=20_000, chains=2, seed=7)
        rows, meta, status = cmd_compare(config)
        assert status == 0
        assert all(abs(r["z"]) <= Z_GATE for r in rows)
        assert all(math.isfinite(r["z"]) for r in rows)
        assert [r["i"] for r in rows] == [1, 2]

    def test_compare_wrong_theory_trips_gate(self):
        # harness self-test: join a simulation against the wrong dimension's
        # theory and require a loud z-score
        est = estimate(StandardGaussian(2, 2), 2, 20_000, 1, 8)
        wrong = theory_rows(StandardGaussian(2, 3))
        rows = comparison_rows(wrong, est, 2)
        assert any(abs(r["z"]) > Z_GATE for r in rows)

    def test_compare_k_max_beyond_theory_errors(self, monkeypatch):
        spec = ensemble_from_dict({"kind": "general_sigma_gaussian", "beta": 1,
                                   "sigma_inv_eigenvalues": [1.0, 0.25]})
        config = RunConfig(ensemble=spec, N=100, chains=1, seed=9)  # k_max -> d = 2

        def no_estimate(*args, **kwargs):
            raise AssertionError("the coverage check must run before the estimate")

        monkeypatch.setattr(cli, "estimate", no_estimate)
        with pytest.raises(CliError, match="k_max"):
            cmd_compare(config)

    def test_ratio_report(self):
        (row,), meta = cmd_ratio(2, 16, 4, 11)
        assert row["ratio"] >= 1.0
        assert row["min_ratio"] >= 1.0
        assert row["limit"] == 2.0

    def test_ratio_report_holds_python_ints(self):
        rows, meta = cmd_ratio(np.int64(2), np.int64(4), np.int64(2), np.int64(11))
        values = [rows[0][name] for name in ("beta", "d", "samples")] + [meta["seed"]]
        assert values == [2, 4, 2, 11] and all(type(v) is int for v in values)

    def test_ratio_rejects_scalar(self):
        with pytest.raises(CliError):
            cmd_ratio(2, 1, 4, 11)


class TestMainEndToEnd:
    def test_theory_csv_format(self, capsys):
        status = main(["theory", "--ensemble", TRUNC])
        out = capsys.readouterr().out
        assert status == 0
        lines = out.split("\n")
        assert lines[0] == "i,mu,n_sigma2"
        assert lines[1].startswith("1,-0.416666666666667,")
        assert out.endswith("\n")

    def test_compare_csv_schema(self, tmp_path):
        out = tmp_path / "cmp.csv"
        status = main(["compare", "--ensemble", TRUNC, "--N", "5000",
                       "--chains", "2", "--seed", "3", "--out", str(out)])
        assert status == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(COMPARE_HEADER)
        assert lines[0] == "i,mu_theory,n_sigma2_theory,mu_mc,se_mu,n_sigma2_mc,z"
        assert len(lines) == 3
        assert "\r" not in text

    def test_config_round_trip_bit_identical(self, tmp_path):
        cfg = tmp_path / "run.json"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        status = main(["compare", "--ensemble", TRUNC, "--N", "4000", "--chains", "2",
                       "--seed", "17", "--dump-config", str(cfg), "--out", str(out1)])
        assert status == 0
        status = main(["compare", "--config", str(cfg), "--out", str(out2)])
        assert status == 0
        assert out1.read_bytes() == out2.read_bytes()
        saved = json.loads(cfg.read_text())
        assert saved["seed"] == 17 and saved["N"] == 4000

    def test_csv_and_json_agree_to_15_digits(self, tmp_path):
        csv_out = tmp_path / "x.csv"
        json_out = tmp_path / "x.json"
        args = ["simulate", "--ensemble", GAUSS_21, "--N", "3000", "--seed", "23"]
        assert main(args + ["--format", "csv", "--out", str(csv_out)]) == 0
        assert main(args + ["--format", "json", "--out", str(json_out)]) == 0
        csv_lines = csv_out.read_text().strip().split("\n")
        header = csv_lines[0].split(",")
        csv_row = dict(zip(header, csv_lines[1].split(",")))
        doc = json.loads(json_out.read_text())
        assert set(doc) == {"config", "rows", "meta"}
        assert set(doc["meta"]) >= {"seed", "wall_ms", "redraws", "version"}
        for key, text in csv_row.items():
            json_val = doc["rows"][0][key]
            assert text == format(float(json_val), ".15g") or text == str(json_val)

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_meta_reports_steps_per_s(self, command, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main([command, "--ensemble", TRUNC, "--N", "500", "--chains", "3",
                     "--seed", "31", "--format", "json", "--out", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert set(meta) >= {"seed", "wall_ms", "redraws", "version", "steps_per_s"}
        assert meta["steps_per_s"] > 0
        assert math.isclose(meta["steps_per_s"], 3 * 500 / (meta["wall_ms"] * 1e-3))
        log = capsys.readouterr().err
        assert f"steps_per_s={meta['steps_per_s']:.0f}" in log

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"ensemble": json.loads(GAUSS_21),
                                   "N": 1000, "seed": 1}))
        out1 = tmp_path / "o1.csv"
        out2 = tmp_path / "o2.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--seed", "2",
                     "--out", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()

    def test_threads_do_not_change_output(self, tmp_path, monkeypatch):
        # the chains of a run are stepped together in one process; stepping
        # them one at a time must write the same bytes
        out_together = tmp_path / "together.csv"
        out_alone = tmp_path / "alone.csv"
        base = ["simulate", "--ensemble", TRUNC, "--N", "2000", "--chains", "4",
                "--seed", "29"]
        assert main(base + ["--out", str(out_together)]) == 0
        run_chain = montecarlo.run_chain

        def one_at_a_time(spec, k_max, N, rngs, **kwargs):
            alone = [run_chain(spec, k_max, N, [rng], **kwargs) for rng in rngs]
            return np.concatenate(alone)

        monkeypatch.setattr(montecarlo, "run_chain", one_at_a_time)
        assert main(base + ["--out", str(out_alone)]) == 0
        assert out_together.read_bytes() == out_alone.read_bytes()

    def test_bad_ensemble_exits_2(self, capsys):
        assert main(["theory", "--ensemble", '{"kind":"nope"}']) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_ensemble_field_exits_2(self, capsys):
        extra = '{"kind":"standard_gaussian","beta":2,"d":2,"n":5,"alpha_plus":0.3}'
        assert main(["theory", "--ensemble", extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha_plus" in err

    @pytest.mark.parametrize("spec", [
        '{"kind":"general_sigma_gaussian","beta":1,"sigma_inv_eigenvalues":[1.0,0.25]}',
        '{"kind":"truncated_unitary","beta":2,"d":3,"n":1}',
    ], ids=["general-sigma", "truncated-n-below-d"])
    def test_theory_meta_reports_wall_time(self, spec, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["theory", "--ensemble", spec, "--format", "json",
                     "--out", str(out)]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert set(meta) == {"seed", "wall_ms", "redraws", "version"}
        assert meta["wall_ms"] > 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["theory", "--ensemble", GAUSS_21, "--out"],
        ["theory", "--ensemble", GAUSS_21, "--dump-config"],
        ["ratio", "--d", "4", "--samples", "1", "--out"],
    ], ids=["theory-out", "theory-dump-config", "ratio-out"])
    def test_unwritable_output_exits_2(self, argv, tmp_path, capsys):
        # exit 1 is compare's regression signal; a bad path must not look like one
        assert main(argv + [str(tmp_path / "missing" / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    @pytest.mark.parametrize("target", [("missing", "x"), ()], ids=["missing-dir", "a-dir"])
    def test_unwritable_output_fails_before_the_run(self, command, target, tmp_path,
                                                    monkeypatch, capsys):
        def no_estimate(*args, **kwargs):
            raise AssertionError("an unwritable --out must fail before the estimate")

        monkeypatch.setattr(cli, "estimate", no_estimate)
        out = tmp_path.joinpath(*target)
        assert main([command, "--ensemble", GAUSS_21, "--N", "400000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and "Traceback" not in err
        assert not any(tmp_path.iterdir())  # nothing created before the run

    def test_repeated_sigma_eigenvalue_theory_exits_2(self, capsys):
        repeated = ('{"kind":"general_sigma_gaussian","beta":%d,'
                    '"sigma_inv_eigenvalues":[1.0,1.0]}')
        assert main(["theory", "--ensemble", repeated % 2]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        # real and quaternion entries take the quadrature route, which
        # needs no distinct eigenvalues
        for beta in (1, 4):
            assert main(["theory", "--ensemble", repeated % beta]) == 0

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_compare_constant_increments_exit_2(self, beta, capsys):
        # n = 0 truncated unitaries are unitary: mu = 0 and N sigma^2 = 0
        # exactly, and the Monte Carlo sees rounding noise alone, whose z
        # grows like sqrt(N); a zero theory variance has no z-score
        spec = '{"kind":"truncated_unitary","beta":%d,"d":3,"n":0}' % beta
        assert main(["compare", "--ensemble", spec, "--N", "2000", "--chains", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: n_sigma2 theory at index 1 is 0")
        assert main(["theory", "--ensemble", spec]) == 0

    @pytest.mark.parametrize("beta", [1, 4])
    def test_general_sigma_smallest_double_eigenvalue(self, beta, tmp_path, capsys):
        # sum 1/y_i overflows; the quadrature gives the y_1 -> 0 limit (see
        # tests/test_sigma.py), and a run whose entries overflow exits 2
        spec = ('{"kind":"general_sigma_gaussian","beta":%d,'
                '"sigma_inv_eigenvalues":[5e-324,1.0]}' % beta)
        out = tmp_path / "theory.json"
        assert main(["theory", "--ensemble", spec, "--format", "json",
                     "--out", str(out)]) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["mu"] == sigma.kargin_mu1(beta, (5e-324, 1.0))
        capsys.readouterr()
        assert main(["compare", "--ensemble", spec, "--N", "100", "--k-max", "1"]) == 2
        assert capsys.readouterr().err == "error: non-finite increment at step 1\n"

    def test_general_sigma_complex_wide_spectrum(self, tmp_path):
        # powers of y up to y^2 = 1e600 overflow a double; L is built on
        # y / y_max, so every row is finite (see tests/test_sigma.py)
        spec = ('{"kind":"general_sigma_gaussian","beta":2,'
                '"sigma_inv_eigenvalues":[1.0,1e200,1e300]}')
        out = tmp_path / "theory.json"
        assert main(["theory", "--ensemble", spec, "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["i"] for row in rows] == [1, 2, 3]
        assert all(math.isfinite(row["mu"]) and math.isfinite(row["n_sigma2"]) for row in rows)

    @pytest.mark.parametrize("command", ["theory", "compare"])
    @pytest.mark.parametrize("beta", [1, 4])
    def test_general_sigma_quadrature_failure_exits_2(self, command, beta, capsys):
        spec = ('{"kind":"general_sigma_gaussian","beta":%d,'
                '"sigma_inv_eigenvalues":[1e300,1e300]}' % beta)
        extra = ["--N", "100", "--k-max", "1"] if command == "compare" else []
        assert main([command, "--ensemble", spec] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the general-covariance quadrature failed")
        assert err.count("\n") == 1

    def test_compare_single_step_exits_2(self, capsys):
        assert main(["compare", "--ensemble", GAUSS_21, "--N", "1"]) == 2
        assert "two increments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [command, "--ensemble", '{"kind":"standard_gaussian","beta":2,"d":2}', "--N", n,
         "--chains", "4", "--k-max", "2"]
        for n in ("100000000000000000", "1000000000000000000")
        for command in ("simulate", "compare")
    ] + [["ratio", "--d", "300000000", "--samples", "1"]],
        ids=[f"{error}-{command}" for error in ("memory-error", "size-overflow")
             for command in ("simulate", "compare")] + ["memory-error-ratio"])
    def test_run_beyond_address_space_exits_2(self, argv, capsys):
        # 2 x 4 x N float64 increments: 5.55 EiB for the first N, which numpy
        # fails to allocate, and a byte count past the int64 range for the
        # second, which numpy rejects with a ValueError.  The ratio run's
        # d x d complex Gaussian takes 1.25 EiB, which numpy fails to
        # allocate.  All lie beyond the x86-64 address space, so every host
        # refuses them.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unallocatable_chains_fail_before_their_generators(self, monkeypatch, capsys):
        # 2 x 10 x 1e18 float64 increments exceed numpy's largest array on
        # any host; the run must refuse them before building a Generator per
        # chain, which would not end
        calls = []

        def counting_chain_rng(master_seed, chain_index):
            calls.append(chain_index)
            if len(calls) > 1000:
                raise AssertionError("a Generator per chain before the allocation")
            return chain_rng(master_seed, chain_index)

        monkeypatch.setattr(montecarlo, "chain_rng", counting_chain_rng)
        assert main(["simulate", "--ensemble", '{"kind":"standard_gaussian","beta":2,"d":2}',
                     "--N", "10", "--chains", str(10**18)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_failed_step_exits_2(self, command, monkeypatch, capsys):
        # a singular or non-finite step must not look like a failed comparison
        def fail(*args):
            raise ArithmeticError("non-finite increment at step 3")

        monkeypatch.setattr(cli, "estimate", fail)
        assert main([command, "--ensemble", GAUSS_21, "--N", "10"]) == 2
        assert capsys.readouterr().err == "error: non-finite increment at step 3\n"

    def test_threads_flag_and_field_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--ensemble", GAUSS_21, "--threads", "2"])
        assert exc.value.code == 2
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"ensemble": json.loads(GAUSS_21), "threads": 2}))
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_general_sigma_quaternion_compare_errors_with_explanation(self, capsys):
        spec = ('{"kind":"general_sigma_gaussian","beta":4,'
                '"sigma_inv_eigenvalues":[1.0,0.25]}')
        status = main(["compare", "--ensemble", spec, "--N", "100"])
        assert status == 2
        err = capsys.readouterr().err
        assert "k_max" in err

    def test_ratio_cli(self, capsys):
        assert main(["ratio", "--beta", "2", "--d", "12", "--samples", "3",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("beta,d,samples,ratio,min_ratio,limit")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--ensemble", GAUSS_21, "--N", "10", "--seed", "-1"],
        ["compare", "--ensemble", GAUSS_21, "--N", "10", "--seed", "-1"],
        ["ratio", "--d", "4", "--samples", "0"],
        ["ratio", "--d", "4", "--beta", "3"],
        ["ratio", "--d", "4", "--seed", "-5"],
        ["ratio", "--d", "1"],
    ], ids=["simulate-seed", "compare-seed", "ratio-samples", "ratio-beta", "ratio-seed",
            "ratio-d"])
    def test_bad_run_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("text,argv", [
        (None, ["--ensemble", "{bad"]),
        (None, ["--config", "missing.json"]),
        ('{"ensemble": ', ["--config", "c.json"]),
        ("[1, 2]", ["--config", "c.json"]),
    ], ids=["malformed-ensemble", "missing-config", "malformed-config", "list-config"])
    def test_unreadable_input_exits_2(self, text, argv, tmp_path, monkeypatch, capsys):
        # exit 1 is compare's regression signal; a typo must not look like one
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "c.json").write_text(text)
        assert main(["compare", "--N", "10"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_k_max_exits_2(self):
        assert main(["simulate", "--ensemble", GAUSS_21, "--k-max", "5",
                     "--N", "10"]) == 2


def _same_object(text, config, rows, meta):
    """Whether ``text`` parses to the object of the indented layout of
    ``(config, rows, meta)``.  The parsed objects are compared by repr, so
    key order and int against float count, and NaN equals NaN."""
    indented = json.dumps({"config": config, "rows": rows, "meta": meta},
                          indent=2, default=float)
    return repr(json.loads(text)) == repr(json.loads(indented))


class TestJsonOutput:
    """--format json writes each document on one line; it parses to the
    object of the indented layout it replaced."""

    @pytest.fixture
    def documents(self, monkeypatch):
        """The (config, rows, meta) of every render_json call."""
        seen = []
        render = cli.render_json
        monkeypatch.setattr(cli, "render_json", lambda *doc: seen.append(doc) or render(*doc))
        return seen

    @pytest.mark.parametrize("argv", [
        ["theory", "--ensemble", TRUNC],
        ["simulate", "--ensemble", GAUSS_21, "--N", "300", "--seed", "5"],
        ["compare", "--ensemble", TRUNC, "--N", "500", "--chains", "2", "--seed", "5"],
        ["ratio", "--d", "4", "--samples", "2"],
    ], ids=["theory", "simulate", "compare", "ratio"])
    def test_one_line_same_object(self, argv, documents, capsys):
        assert main(argv + ["--format", "json"]) in (0, 1)
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        (doc,) = documents
        assert _same_object(out, *doc)

    def test_numpy_and_nan_values(self):
        config = RunConfig(ensemble=StandardGaussian(2, 2)).to_dict()
        rows = [{"i": np.int64(1), "mu": np.float64(0.1), "n_sigma2": math.nan},
                {"i": 2, "mu": np.float64(math.nan), "n_sigma2": np.float32(0.5)}]
        meta = {"seed": np.int64(3), "wall_ms": np.float64(1.25), "redraws": 0,
                "version": lyaprod.__version__, "steps_per_s": math.inf}
        text = cli.render_json(config, rows, meta)
        assert text.endswith("\n") and text.count("\n") == 1
        assert _same_object(text, config, rows, meta)

    def test_dump_config_stays_indented(self, documents, tmp_path):
        dump = tmp_path / "c.json"
        assert main(["theory", "--ensemble", TRUNC, "--format", "json",
                     "--dump-config", str(dump), "--out", str(tmp_path / "x.json")]) == 0
        ((run, _, _),) = documents
        assert dump.read_bytes() == (json.dumps(run, indent=2) + "\n").encode()


class TestRunConfigValidation:
    def test_defaults(self):
        cfg = RunConfig(ensemble=StandardGaussian(2, 3))
        assert cfg.k_max == 3
        assert cfg.output_format == "csv"

    def test_rejects_unknown_fields(self):
        with pytest.raises(CliError):
            RunConfig.from_dict({"ensemble": json.loads(GAUSS_21), "walltime": 3})

    @pytest.mark.parametrize("field,value", [("N", "100"), ("seed", "abc"),
                                             ("N", 100.7), ("chains", True),
                                             ("k_max", 1.0)])
    def test_rejects_non_integer_numbers(self, field, value, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"ensemble": json.loads(GAUSS_21), field: value}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_rejects_bad_format(self):
        with pytest.raises(CliError):
            RunConfig(ensemble=StandardGaussian(2, 1), output_format="yaml")

    def test_numpy_integers_accepted(self):
        # the integer rule of estimate, chain_rng and the ensemble fields
        cfg = RunConfig(ensemble=StandardGaussian(2, 2), N=np.int64(10),
                        chains=np.int64(2), seed=np.int64(3), k_max=np.int64(1))
        values = (cfg.N, cfg.chains, cfg.seed, cfg.k_max)
        assert values == (10, 2, 3, 1)
        assert all(type(v) is int for v in values)
        assert json.loads(json.dumps(cfg.to_dict()))["N"] == 10


class TestInProcessReuse:
    """main may run many times in one process on one cached parser."""

    def test_calls_share_the_parser_and_nothing_else(self, tmp_path, capsys):
        gauss_22 = '{"kind":"standard_gaussian","beta":2,"d":2}'
        first = ["compare", "--ensemble", gauss_22, "--N", "300", "--seed", "7",
                 "--k-max", "1", "--format", "json",
                 "--dump-config", str(tmp_path / "c1.json"), "--out", str(tmp_path / "a.json")]
        assert main(first) == 0
        assert main(["theory", "--ensemble", gauss_22,
                     "--dump-config", str(tmp_path / "c2.json")]) == 0
        assert main(["ratio", "--d", "4", "--samples", "1"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--ensemble", gauss_22, "--no-such-flag"])
        assert exc.value.code == 2
        repeat = first[:-1] + [str(tmp_path / "b.json")]
        assert main(repeat) == 0
        capsys.readouterr()

        dumped = json.loads((tmp_path / "c2.json").read_text())
        defaults = RunConfig(ensemble=StandardGaussian(2, 2)).to_dict()
        assert dumped == defaults
        assert (dumped["seed"], dumped["k_max"], dumped["output_format"]) == (1, 2, "csv")
        rows = [json.loads((tmp_path / name).read_text())["rows"] for name in ("a.json", "b.json")]
        assert rows[0] == rows[1] and len(rows[0]) == 1
        assert build_parser() is build_parser()

    def test_parser_is_built_on_first_main_not_at_import(self):
        src = str(Path(lyaprod.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import os, lyaprod.cli as c\n"
                "print(c.build_parser.cache_info().currsize)\n"
                "c.main(['theory', '--ensemble', %r, '--out', os.devnull])\n"
                "c.main(['theory', '--ensemble', %r, '--out', os.devnull])\n"
                "info = c.build_parser.cache_info()\n"
                "print(info.currsize, info.misses)" % (GAUSS_21, GAUSS_21))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.split("\n")[:2] == ["0", "1 1"]
