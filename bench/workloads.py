"""The five benchmark workloads, generated from the benchmark seed.

A workload is a list of operations. Each operation is a plain dict that the
worker turns into one call of the program (``lyaprod compare``, ``lyaprod
theory`` or ``stability_exponents``); keys the worker does not read
(``mp_check``, ``known_fault``) steer only the checks. The same seed gives
the same operations.
"""

import math

import numpy as np

#: Chains and steps per chain of every compare-iid and compare-mixed case.
#: 4 x 2000 increments keep the N sigma^2 gate of 0.15 at five and a half
#: standard errors for the heaviest-tailed increments (beta = 1, one degree
#: of freedom, excess kurtosis 4), so no seed trips it by chance.
CHAINS = 4
STEPS = 2000
#: One chain: with two, --threads auto runs them on two threads whose d = 10
#: QR calls overlap, and run time then varied by +-12% from process to
#: process on a shared 2-CPU machine, against +-3% for one chain.
LONG_CHAINS = 1
#: 40 000 steps: a round is short enough for several rounds in one run, and
#: the stored increments still set the worker's peak memory.
LONG_STEPS = 40_000
STABILITY_STEPS = 500
STABILITY_REPS = 40
#: The beta = 2, d = 3 stability group fails on every seed: N * gap = 125
#: exceeds the ~36 that an eigensolver on the explicit product can resolve.
#: It keeps the seed of criterion 6 so that it does not depend on --seed.
KNOWN_FAULT_SEED = 20_250_105
KNOWN_FAULT = ("stability_exponents loses the middle exponents of d >= 3 "
               "products once N * gap exceeds about 36 (ROADMAP item 5)")

#: General-covariance grid of theory-sweep: Sigma^{-1} eigenvalues drawn
#: log-uniformly from [Y_LOW, Y_HIGH] with pairwise relative gaps of at least
#: Y_GAP, SPECS_PER_D spectra for each d in SWEEP_DIMS.
Y_LOW, Y_HIGH, Y_GAP = 0.2, 5.0, 0.05
SWEEP_DIMS = range(2, 11)
SPECS_PER_D = 3
#: Rows checked against mpmath quadrature, besides y = (1, 1/4) at beta 1, 4.
MP_ROWS_BETA_NOT_2 = 3
MP_ROWS_BETA_2 = 1
QUARTER = (1.0, 0.25)


def _seed(rng):
    return int(rng.integers(1, 2**32))


def dim(ensemble):
    return ensemble["d"] if "d" in ensemble else len(ensemble["sigma_inv_eigenvalues"])


def compare_op(ensemble, N, chains, seed):
    """Compare the top d exponents (k_max = d)."""
    return {"op": "compare", "ensemble": ensemble, "N": N, "chains": chains,
            "k_max": dim(ensemble), "seed": seed}


def theory_op(ensemble):
    return {"op": "theory", "ensemble": ensemble}


def stability_op(beta, d, seed, known_fault=None):
    op = {"op": "stability", "beta": beta, "d": d, "N": STABILITY_STEPS,
          "reps": STABILITY_REPS, "seed": seed}
    if known_fault:
        op["known_fault"] = known_fault
    return op


def general_sigma(beta, y):
    return {"kind": "general_sigma_gaussian", "beta": beta,
            "sigma_inv_eigenvalues": [float(v) for v in y]}


def distinct_y(rng, d):
    while True:
        y = np.sort(np.exp(rng.uniform(math.log(Y_LOW), math.log(Y_HIGH), d)))
        if np.all((y[1:] - y[:-1]) / y[1:] >= Y_GAP):
            return tuple(float(v) for v in y)


def compare_iid(rng):
    ensembles = [{"kind": "standard_gaussian", "beta": b, "d": d}
                 for b in (1, 2, 4) for d in (1, 2, 3)]
    ensembles += [{"kind": "truncated_unitary", "beta": b, "d": 2, "n": 2} for b in (1, 2, 4)]
    ensembles.append(general_sigma(2, QUARTER))
    return [compare_op(e, STEPS, CHAINS, _seed(rng)) for e in ensembles]


def compare_mixed(rng):
    ensembles = [{"kind": "inverse_gaussian", "beta": b, "d": d}
                 for b in (1, 2, 4) for d in (2, 3)]
    ensembles.append({"kind": "gaussian_inverse_mixture", "beta": 2, "d": 2,
                      "alpha_plus": 0.5})
    ensembles.append({"kind": "rectangular_gaussian", "beta": 2, "d": 2,
                      "shapes": [[0, 0.5], [1, 0.5]]})
    return [compare_op(e, STEPS, CHAINS, _seed(rng)) for e in ensembles]


def compare_long(rng):
    return [compare_op({"kind": "standard_gaussian", "beta": 2, "d": 10},
                       LONG_STEPS, LONG_CHAINS, _seed(rng))]


def theory_sweep(rng):
    ops = []
    for d in SWEEP_DIMS:
        for _ in range(SPECS_PER_D):
            y = distinct_y(rng, d)
            ops += [theory_op(general_sigma(b, y)) for b in (1, 2, 4)]
    picks = rng.permutation([i for i, op in enumerate(ops) if op["ensemble"]["beta"] != 2])
    for i in picks[:MP_ROWS_BETA_NOT_2]:
        ops[i]["mp_check"] = True
    picks = rng.permutation([i for i, op in enumerate(ops) if op["ensemble"]["beta"] == 2])
    for i in picks[:MP_ROWS_BETA_2]:
        ops[i]["mp_check"] = True
    for b in (1, 2, 4):
        op = theory_op(general_sigma(b, QUARTER))
        op["mp_check"] = b != 2
        ops.append(op)

    for b in (1, 2, 4):
        ops.append(theory_op({"kind": "standard_gaussian", "beta": b,
                              "d": int(rng.integers(1, 11))}))
        ops.append(theory_op({"kind": "inverse_gaussian", "beta": b,
                              "d": int(rng.integers(1, 7))}))
        ops.append(theory_op({"kind": "gaussian_inverse_mixture", "beta": b,
                              "d": int(rng.integers(1, 7)),
                              "alpha_plus": float(rng.uniform(0.1, 0.9))}))
        offsets = sorted(int(g) for g in rng.choice(4, size=2, replace=False))
        share = float(rng.uniform(0.2, 0.8))
        ops.append(theory_op({"kind": "rectangular_gaussian", "beta": b,
                              "d": int(rng.integers(1, 7)),
                              "shapes": [[offsets[0], share], [offsets[1], 1.0 - share]]}))
        d = int(rng.integers(1, 6))
        ops.append(theory_op({"kind": "truncated_unitary", "beta": b, "d": d,
                              "n": d + int(rng.integers(0, 4))}))
    return ops


def stability(rng):
    ops = [stability_op(b, 2, _seed(rng)) for b in (1, 2, 4)]
    ops.append(stability_op(2, 3, KNOWN_FAULT_SEED, known_fault=KNOWN_FAULT))
    return ops


_BUILDERS = {"compare-iid": compare_iid, "compare-mixed": compare_mixed,
             "compare-long": compare_long, "theory-sweep": theory_sweep,
             "stability": stability}
WORKLOADS = tuple(_BUILDERS)


def build(workload, seed):
    """Operations of one round of ``workload``; the same seed gives the same list."""
    return _BUILDERS[workload](np.random.default_rng(seed))
