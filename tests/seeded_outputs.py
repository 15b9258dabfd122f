"""Seeded outputs of lyaprod, the record behind test_seeded_outputs.py.

Rewrite the record from the current code with

    PYTHONPATH=src python tests/seeded_outputs.py

The record, tests/data/seeded_outputs.json, holds one line per output, so
the diff of a commit that rewrites it names exactly the outputs it moved.
Each output is stored as the sha256 of its float64 bytes (complex arrays as
their real and imaginary parts) and as its values to 12 significant digits.
The record also notes the host it was made on: numpy's version, the machine
and the CPU features numpy dispatches on.  np.log and LAPACK round
differently across builds and CPUs, so the test asserts the digits on any
host and the hashes only on a host like the recording one.

The outputs cover every ensemble kind at beta = 1, 2 and 4: run_chain with
one and three chains, on runs whose last block has one step and on runs
that have no such block; product_chain; FactorStream.blocks; every field of
estimate; stability_exponents; and the rows of the JSON documents of
theory, simulate and compare (meta, with its wall time, is left out).
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path
from unittest import mock

import numpy as np

from lyaprod import ensembles
from lyaprod.cli import ensemble_to_dict, main, theory_rows
from lyaprod.ensembles import (FactorStream, GaussianInverseMixture, GeneralSigmaGaussian,
                               InverseGaussian, RectangularGaussian, StandardGaussian,
                               TruncatedUnitary, _step_types, chain_rng)
from lyaprod.montecarlo import estimate, product_chain, run_chain, stability_exponents
from lyaprod.sigma import SigmaSpec
from lyaprod.theory import RectangularSpec

DATA = Path(__file__).resolve().parent / "data" / "seeded_outputs.json"

SEED = 7

#: Leading exponents of every run.
K = 2

#: Every kind at beta = 1, 2 and 4.  At beta = 4 every column holds 8 or
#: more float64, and so do the truncated columns (5 rows) at beta = 2: numpy
#: sums 8 or more float64 pairwise when the sum is the innermost loop.
SPECS = [spec for beta in (1, 2, 4) for spec in (
    StandardGaussian(beta, 2),
    GeneralSigmaGaussian(beta, SigmaSpec((0.5, 2.0))),
    InverseGaussian(beta, 2),
    GaussianInverseMixture(beta, 2, 0.4),
    RectangularGaussian(beta, 2, RectangularSpec(((0, 0.5), (1, 0.5)))),
    TruncatedUnitary(beta, 2, 3),
)]

#: Gaussian columns of 8 and 10 float64 at beta = 1 and 2.
WIDE_SPECS = [StandardGaussian(1, 8), StandardGaussian(2, 5)]

#: run_chain runs (chains, N) in blocks of 4 steps: N = 9 ends on a block of
#: one step, N = 10 on a block of two.
CHAIN_RUNS = [(1, 9), (3, 9), (3, 10)]

#: estimate, simulate and compare runs (chains, N) in blocks of BLOCK = 256
#: steps: N = 257 ends on a block of one step.
ESTIMATE_RUNS = [(1, 257), (3, 300)]

ESTIMATE_FIELDS = ("mu_hat", "se_mu", "n_sigma2_hat", "partial_sum_mu", "partial_sum_n_sigma2")


def host():
    """numpy's version, the machine and the CPU features numpy dispatches on
    (none where numpy keeps no such table: the hashes are then not
    asserted)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_features": sorted(name for name, on in features.items() if on)}


def entry(x):
    """The sha256 of the float64 bytes of ``x`` and its values to 12
    significant digits."""
    a = np.ascontiguousarray(x)
    a = a.view(np.float64) if np.iscomplexobj(a) else a.astype(np.float64)
    return {"sha256": hashlib.sha256(a.tobytes()).hexdigest(),
            "values": [float(f"{v:.12g}") for v in a.ravel().tolist()]}


def rngs(chains):
    return [chain_rng(SEED, c) for c in range(chains)]


def json_rows(command, spec, *flags):
    """The rows of the JSON document that ``lyaprod <command>`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main([command, "--ensemble", json.dumps(ensemble_to_dict(spec)), "--format", "json",
              "--seed", str(SEED), *flags])
    return [v for row in json.loads(out.getvalue())["rows"] for v in row.values()]


def spec_outputs(spec, wide):
    """(name, array) of every seeded output of ``spec``."""
    with mock.patch.object(ensembles, "BLOCK", 4):
        for chains, n in CHAIN_RUNS:
            yield f"run_chain/C{chains}-N{n}-block4", run_chain(spec, K, n, rngs(chains))
        yield "product_chain/C2-N9-block4", product_chain(spec, K, 9, rngs(2))
    if not wide:
        with mock.patch.object(ensembles, "BLOCK", 2):
            yield "blocks/N3-block2", np.concatenate(list(
                FactorStream(spec, chain_rng(SEED, 0)).blocks(_step_types(spec, 3))))
    for chains, n in ESTIMATE_RUNS:
        est = estimate(spec, K, n, chains, SEED)
        for field in ESTIMATE_FIELDS:
            yield f"estimate/C{chains}-N{n}/{field}", getattr(est, field)
    if not wide and spec.width == spec.d:
        yield "stability_exponents/N20", stability_exponents(spec, 20, chain_rng(SEED, 0))
    yield "theory", json_rows("theory", spec)
    chains, n = ESTIMATE_RUNS[0]
    yield f"simulate/C{chains}-N{n}", json_rows(
        "simulate", spec, "--N", str(n), "--chains", str(chains), "--k-max", str(K))
    chains, n = ESTIMATE_RUNS[1]
    k = min(K, len(theory_rows(spec).mu))
    yield f"compare/C{chains}-N{n}", json_rows(
        "compare", spec, "--N", str(n), "--chains", str(chains), "--k-max", str(k))


def compute():
    """Every seeded output, by name, as its record entry."""
    outputs = {}
    for specs, wide in ((SPECS, False), (WIDE_SPECS, True)):
        for spec in specs:
            label = f"{spec.kind}-beta{spec.beta}-d{spec.d}"
            for name, x in spec_outputs(spec, wide):
                outputs[f"{label}/{name}"] = entry(x)
    return outputs


def write(outputs):
    """The record, one line per output."""
    lines = [f"  {json.dumps(name)}: {json.dumps(e)}" for name, e in outputs.items()]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text('{\n"host": ' + json.dumps(host()) + ',\n"outputs": {\n'
                    + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    write(compute())
