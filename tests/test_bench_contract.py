"""The benchmark's per-layer tracer (bench/layers.py) wraps lyaprod functions
by module and name; these tests keep those names resolving and their spans
recorded."""

import importlib
import json
from pathlib import Path

import pytest

import lyaprod.cli
from lyaprod.ensembles import (ENSEMBLES, FactorStream, GaussianInverseMixture,
                               GeneralSigmaGaussian, InverseGaussian, RectangularGaussian,
                               StandardGaussian, TruncatedUnitary, chain_rng)
from lyaprod.theory import RectangularSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"
RECT = {"kind": "rectangular_gaussian", "beta": 2, "d": 2, "shapes": [[0, 0.5], [1, 0.5]]}


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers")


def test_wrapped_names_resolve(layers):
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in layers.WRAPPED
               if not hasattr(module, attr)]
    assert missing == []


def test_tracer_records_every_layer(layers, capsys):
    with layers.Tracer() as tracer:
        lyaprod.cli.main(["compare", "--ensemble", json.dumps(RECT), "--N", "300",
                          "--chains", "2", "--seed", "1"])
        for beta in (2, 1):
            spec = {"kind": "general_sigma_gaussian", "beta": beta,
                    "sigma_inv_eigenvalues": [0.5, 2.0]}
            assert lyaprod.cli.main(["theory", "--ensemble", json.dumps(spec)]) == 0
    capsys.readouterr()
    spans = tracer.take()
    names = {s.name for s in spans}
    assert {"montecarlo.estimate", "cli.theory_rows", "theory.closed_form",
            "sigma.spectrum_complex", "sigma.j_integrals"} <= names
    assert [s.tag for s in spans if s.name == "montecarlo.run_chain"] == [300]
    assert "montecarlo.reduce_ms" in layers.span_metrics(spans)


#: One spec of every ensemble kind, by kind.
SPECS = {spec.kind: spec for spec in (
    StandardGaussian(2, 2), GeneralSigmaGaussian(1, (0.5, 2.0)), InverseGaussian(4, 2),
    GaussianInverseMixture(2, 2, 0.5),
    RectangularGaussian(2, 2, RectangularSpec(((0, 0.5), (1, 0.5)))), TruncatedUnitary(4, 2, 1))}


def test_draw_alone_runs_every_kind_and_stability(layers):
    # draw_alone builds FactorStream(spec, rng) itself, for compare and
    # stability operations alike
    ops = [{"op": "compare", "ensemble": lyaprod.cli.ensemble_to_dict(spec), "N": 300,
            "chains": 2, "k_max": 1, "seed": 1} for spec in SPECS.values()]
    ops.append({"op": "stability", "spec": StandardGaussian(2, 2), "N": 300, "reps": 2,
                "seed": 1})
    for op in ops:
        us_per_factor, redraws = layers.draw_alone([op])
        # nothing is redrawn; bench/layers.py reads FactorStream.redraws
        # until a benchmark change drops the read
        assert us_per_factor > 0 and redraws == 0, op


def test_compare_meta_keeps_redraws(tmp_path, capsys):
    # nothing is redrawn, but bench/worker.py reads meta["redraws"] of a
    # compare run until a benchmark change drops the read
    out = tmp_path / "compare.json"
    inverse = {"kind": "inverse_gaussian", "beta": 2, "d": 2}
    assert lyaprod.cli.main(["compare", "--ensemble", json.dumps(inverse), "--N", "300",
                             "--chains", "2", "--seed", "1", "--format", "json",
                             "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["redraws"] == 0
    assert " redraws=0 " in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(ENSEMBLES))
def test_factor_stream_yields_n_factors(kind):
    # draw_alone times sampling through FactorStream.factors for every kind
    spec = SPECS[kind]
    width = 2 * spec.width if spec.beta == 4 else spec.width
    factors = list(FactorStream(spec, chain_rng(1, 0)).factors(7))
    assert len(factors) == 7
    assert all(f.shape == (width, width) for f in factors)
