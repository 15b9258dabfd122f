"""Command-line front end: theory tables, simulations, comparisons, ratio runs.

Subcommands
-----------
theory        closed-form (i, mu_i, N sigma_i^2) rows for an ensemble
simulate      Monte Carlo estimates for an ensemble
compare       theory vs simulation with z-scores; exit status 1 when any
              |z| > 5 (regression signal)
ratio         largest-singular-value / largest-eigenvalue-modulus experiment

A run is described by a JSON config (see RunConfig); command-line flags
override config-file fields.  All randomness flows from one 64-bit master
seed; chain c uses numpy's SeedSequence(seed, spawn_key=(c,)).
"""

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .ensembles import ENSEMBLES, chain_rng
from .montecarlo import estimate, spectral_ratio_samples
from .sigma import (DistinctnessError, QuadratureError, SigmaSpec, kargin_top,
                    sigma_spectrum_complex)
from .theory import (RectangularSpec, _check_int,
                     gaussian_spectrum, mixture_spectrum, rectangular_spectrum,
                     truncated_unitary_spectrum)

__all__ = ["RunConfig", "main", "cmd_theory", "cmd_simulate", "cmd_compare", "cmd_ratio"]

Z_GATE = 5.0

COMPARE_HEADER = ("i", "mu_theory", "n_sigma2_theory", "mu_mc", "se_mu", "n_sigma2_mc", "z")
THEORY_HEADER = ("i", "mu", "n_sigma2")
SIMULATE_HEADER = ("i", "mu_mc", "se_mu", "n_sigma2_mc",
                   "partial_sum_mu", "partial_sum_n_sigma2")
RATIO_HEADER = ("beta", "d", "samples", "ratio", "min_ratio", "limit")


class CliError(ValueError):
    """Configuration or capability error; maps to exit status 2."""


# ---------------------------------------------------------------------------
# Ensemble (de)serialization
# ---------------------------------------------------------------------------

def ensemble_from_dict(obj):
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise CliError("ensemble JSON must be an object with a 'kind' field")
    try:
        cls = ENSEMBLES[kind]
    except (TypeError, KeyError):
        raise CliError(f"unknown ensemble kind {kind!r}")
    names = [f.name for f in fields(cls)]
    unknown = set(obj) - {"kind", *names}
    if unknown:
        raise CliError(f"unknown fields of ensemble '{kind}': {sorted(unknown)}")
    try:
        return cls(**{name: obj[name] for name in names})
    except KeyError as exc:
        raise CliError(f"ensemble '{kind}' is missing field {exc}")
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc))


def _to_json(value):
    if isinstance(value, SigmaSpec):
        return list(value.y)
    if isinstance(value, RectangularSpec):
        return [list(pair) for pair in value.shapes]
    return value


def ensemble_to_dict(spec):
    return {"kind": spec.kind,
            **{f.name: _to_json(getattr(spec, f.name)) for f in fields(spec)}}


@dataclass
class RunConfig:
    ensemble: object
    N: int = 100_000
    chains: int = 1
    k_max: int | None = None
    seed: int = 1
    output_format: str = "csv"

    def __post_init__(self):
        for name in ("N", "chains", "seed") + (("k_max",) if self.k_max is not None else ()):
            try:
                setattr(self, name, _check_int(name, getattr(self, name)))
            except ValueError as exc:
                raise CliError(str(exc))
        if self.N < 1 or self.chains < 1:
            raise CliError("N and chains must be positive")
        if self.seed < 0:
            raise CliError(f"seed must be >= 0, got {self.seed}")
        if self.k_max is None:
            self.k_max = self.ensemble.d
        if not 1 <= self.k_max <= self.ensemble.d:
            raise CliError(f"k_max must lie in [1, {self.ensemble.d}]")
        if self.output_format not in ("csv", "json"):
            raise CliError("output_format must be 'csv' or 'json'")

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["ensemble"] = ensemble_to_dict(self.ensemble)
        return out

    @classmethod
    def from_dict(cls, obj):
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise CliError(f"unknown config fields: {sorted(unknown)}")
        if "ensemble" not in obj:
            raise CliError("config requires an 'ensemble' field")
        kwargs = dict(obj)
        kwargs["ensemble"] = ensemble_from_dict(obj["ensemble"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Theory dispatch
# ---------------------------------------------------------------------------

def theory_rows(spec):
    """The TheorySpectrum of ``spec``, over the indices 1..m its theory covers."""
    try:
        spectrum = _THEORY[spec.kind]
    except KeyError:
        raise CliError(f"no closed form registered for {spec!r}")
    return spectrum(spec)


def _general_sigma_spectrum(spec):
    # Real and quaternion entries: the unitary-group integral behind L has no
    # orthogonal/symplectic analogue, so only mu_1 is known (contour route).
    y = spec.sigma_inv_eigenvalues
    try:
        return sigma_spectrum_complex(y) if spec.beta == 2 else kargin_top(spec.beta, y)
    except DistinctnessError as exc:
        raise CliError(f"the beta=2 general-covariance formulas need distinct "
                       f"Sigma^-1 eigenvalues: {exc}")
    except QuadratureError as exc:
        raise CliError(f"the general-covariance quadrature failed: {exc}")


#: The spectrum of each ensemble kind.  The entries look the closed forms up
#: among this module's globals at call time, so a wrapper set on those names
#: (bench/layers.py sets one) sees every call theory_rows makes.
_THEORY = {
    "standard_gaussian": lambda s: gaussian_spectrum(s.beta, s.d),
    "inverse_gaussian": lambda s: mixture_spectrum(s.beta, s.d, 0.0),
    "gaussian_inverse_mixture": lambda s: mixture_spectrum(s.beta, s.d, s.alpha_plus),
    "rectangular_gaussian": lambda s: rectangular_spectrum(s.beta, s.d, s.shapes),
    "truncated_unitary": lambda s: truncated_unitary_spectrum(s.beta, s.d, s.n),
    "general_sigma_gaussian": _general_sigma_spectrum,
}


# ---------------------------------------------------------------------------
# Commands (each returns rows + metadata; rendering is separate)
# ---------------------------------------------------------------------------

def cmd_theory(config):
    t0 = time.perf_counter()
    th = theory_rows(config.ensemble)
    wall_ms = (time.perf_counter() - t0) * 1e3
    rows = [dict(zip(THEORY_HEADER, r)) for r in zip(range(1, th.d + 1), th.mu, th.n_sigma2)]
    return rows, _meta(config.seed, wall_ms)


def _run_estimate(config):
    """The estimate of a run and its wall time in ms; a CliError if the run
    cannot be carried out (no memory, a singular or non-finite step)."""
    t0 = time.perf_counter()
    try:
        est = estimate(config.ensemble, config.k_max, config.N, config.chains, config.seed)
    except (ArithmeticError, MemoryError, ValueError) as exc:
        # numpy raises ValueError for an array larger than the address space
        raise CliError(str(exc)) from None
    wall_ms = (time.perf_counter() - t0) * 1e3
    return est, wall_ms


def cmd_simulate(config):
    est, wall_ms = _run_estimate(config)
    rows = [
        dict(zip(SIMULATE_HEADER,
                 (i + 1, est.mu_hat[i], est.se_mu[i], est.n_sigma2_hat[i],
                  est.partial_sum_mu[i], est.partial_sum_n_sigma2[i])))
        for i in range(config.k_max)
    ]
    return rows, _meta(config.seed, wall_ms, config.chains * config.N)


def _covered(th, k_max):
    """A CliError unless the spectrum ``th`` covers indices 1..k_max, none
    with a zero variance: constant increments leave the Monte Carlo only
    rounding noise, so a z-score would grow like sqrt(N)."""
    m = len(th.mu)
    if k_max > m:
        raise CliError(
            f"theory covers only indices {list(range(1, m + 1))} for this ensemble; "
            f"rerun with k_max <= {m} (missing {list(range(m + 1, k_max + 1))})")
    if 0 in th.n_sigma2[:k_max]:
        raise CliError(f"n_sigma2 theory at index {th.n_sigma2.index(0) + 1} is 0: the "
                       "increments are constant, so there is no z-score to gate")


def comparison_rows(th, est, k_max):
    """Join the spectrum ``th``, which covers indices 1..k_max (_covered),
    with an McEstimate; z = (mu_mc - mu_theory) / se."""
    rows = []
    for i, mu_t, ns2_t in zip(range(1, k_max + 1), th.mu, th.n_sigma2):
        mu_mc = float(est.mu_hat[i - 1])
        se = float(est.se_mu[i - 1])
        if not se > 0.0:
            raise CliError(
                f"se_mu at index {i} is {se!r}: a standard error needs at least "
                "two increments per index (raise N or chains)")
        z = (mu_mc - mu_t) / se
        if not math.isfinite(z):
            raise CliError(f"non-finite z-score at index {i}")
        rows.append(dict(zip(COMPARE_HEADER,
                             (i, mu_t, ns2_t, mu_mc, se,
                              float(est.n_sigma2_hat[i - 1]), z))))
    return rows


def cmd_compare(config):
    th = theory_rows(config.ensemble)
    _covered(th, config.k_max)  # fail before the estimate, not after it
    est, wall_ms = _run_estimate(config)
    rows = comparison_rows(th, est, config.k_max)
    status = 1 if any(abs(r["z"]) > Z_GATE for r in rows) else 0
    return rows, _meta(config.seed, wall_ms, config.chains * config.N), status


def cmd_ratio(beta, d, samples, seed):
    """One row of the ratio experiment on chain_rng(seed, 0); numpy integers come back as ints."""
    t0 = time.perf_counter()
    try:
        ratios = spectral_ratio_samples(beta, d, samples, chain_rng(seed, 0))
    except ValueError as exc:
        raise CliError(str(exc))
    wall_ms = (time.perf_counter() - t0) * 1e3
    rows = [dict(zip(RATIO_HEADER, (int(beta), int(d), int(samples), float(ratios.mean()),
                                    float(ratios.min()), 2.0)))]
    return rows, _meta(int(seed), wall_ms)


def _meta(seed, wall_ms, steps=None):
    """Run metadata of every command; with ``steps``, the chain-steps (chains
    x N) of an estimate, also steps_per_s.  redraws is always 0 (no draw is
    ever skipped); the benchmark's worker (bench/worker.py) still reads it."""
    meta = {"seed": seed, "wall_ms": wall_ms, "redraws": 0, "version": __version__}
    if steps is not None:
        meta["steps_per_s"] = steps / (wall_ms * 1e-3)
    return meta


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".15g")


def render_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    return "\n".join(lines) + "\n"


def render_json(config_dict, rows, meta):
    doc = {"config": config_dict, "rows": rows, "meta": meta}
    return json.dumps(doc, indent=2, default=float) + "\n"


def _emit(text, out_path):
    """Write ``text`` to ``out_path``, or to stdout without one.  A path that
    cannot be written is a CliError: exit 1 is compare's regression signal."""
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The ``lyaprod`` argument parser, built once per process on the first
    call (not at import: building it costs more than a closed-form theory
    call) and returned by every later call.  Nobody mutates it after it is
    built, and ``parse_args`` returns a fresh Namespace each time, so nothing
    carries from one parse to the next."""
    parser = argparse.ArgumentParser(
        prog="lyaprod",
        description="Lyapunov exponents and variances of random matrix products")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--ensemble", help="ensemble JSON, e.g. "
                       '\'{"kind":"standard_gaussian","beta":2,"d":2}\'')
        p.add_argument("--N", type=int, help="steps per chain")
        p.add_argument("--chains", type=int, help="number of chains")
        p.add_argument("--k-max", dest="k_max", type=int,
                       help="number of leading exponents (default: d)")
        p.add_argument("--seed", type=int, help="64-bit master seed")
        p.add_argument("--format", dest="output_format", choices=("csv", "json"))
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--dump-config", dest="dump_config",
                       help="write the resolved run config JSON to this path")

    for name in ("theory", "simulate", "compare"):
        add_run_flags(sub.add_parser(name))

    ratio = sub.add_parser("ratio")
    ratio.add_argument("--beta", type=int, default=2)
    ratio.add_argument("--d", type=int, default=500)
    ratio.add_argument("--samples", type=int, default=20)
    ratio.add_argument("--seed", type=int, default=1)
    ratio.add_argument("--format", dest="output_format", choices=("csv", "json"),
                       default="csv")
    ratio.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _resolve_config(args):
    obj = {}
    if args.config:
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
            raise CliError(f"cannot read config {args.config}: {exc}")
        if not isinstance(obj, dict):
            raise CliError(f"config {args.config} must hold a JSON object")
    if args.ensemble:
        try:
            obj["ensemble"] = json.loads(args.ensemble)
        except json.JSONDecodeError as exc:
            raise CliError(f"--ensemble is not valid JSON: {exc}")
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if f.name != "ensemble" and value is not None:
            obj[f.name] = value
    return RunConfig.from_dict(obj)


def _check_writable(path):
    """Fail before any command runs if ``path`` cannot be an output file: its
    directory must exist and the path must not be a directory.  Nothing is
    created or truncated here; ``_emit`` still guards the open itself."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise CliError(f"cannot write {path}: no directory {parent}")
    if os.path.isdir(path):
        raise CliError(f"cannot write {path}: it is a directory")


def main(argv=None):
    """Run one ``lyaprod`` command line (``sys.argv[1:]`` by default) and
    return its exit status: 0, 1 for a failed compare gate, 2 for an error
    (a command line that argparse rejects raises ``SystemExit(2)``).  An
    error, a simulate or compare run that cannot be carried out included,
    prints one ``error:`` line to stderr and no traceback.

    ``main`` may be called any number of times in one process; the calls
    share the parser of ``build_parser`` and nothing else, so no flag of one
    call leaks into the next.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_writable(args.out)
        status = 0
        if args.command == "ratio":
            run = {"beta": args.beta, "d": args.d, "samples": args.samples, "seed": args.seed}
            rows, meta = cmd_ratio(**run)
            header, output_format = RATIO_HEADER, args.output_format
        else:
            config = _resolve_config(args)
            run, output_format = config.to_dict(), config.output_format
            if args.dump_config:
                _emit(json.dumps(run, indent=2) + "\n", args.dump_config)
            if args.command == "theory":
                rows, meta = cmd_theory(config)
                header = THEORY_HEADER
            elif args.command == "simulate":
                rows, meta = cmd_simulate(config)
                header = SIMULATE_HEADER
            else:
                rows, meta, status = cmd_compare(config)
                header = COMPARE_HEADER
            if args.command != "theory":
                print(f"{args.command}: N={config.N} chains={config.chains} seed={config.seed} "
                      f"redraws={meta['redraws']} wall={meta['wall_ms']:.0f}ms "
                      f"steps_per_s={meta['steps_per_s']:.0f}", file=sys.stderr)

        if output_format == "json":
            _emit(render_json(run, rows, meta), args.out)
        else:
            _emit(render_csv(header, rows), args.out)
        return status
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
