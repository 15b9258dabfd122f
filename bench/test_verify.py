"""Self-test of the benchmark's references and checks.

    python3 -m pytest bench/test_verify.py

The references must reproduce exact values, and every check must accept a
right output and reject a wrong one: an exponent 6 standard errors off, a
variance 20% off, J1 or J2 off by 1e-6, a route disagreement of 1e-6, ...
The host-speed rescaling of calibrate.py must follow the program, not the host.
"""

import math

import numpy as np
import pytest

import calibrate
import verify
import workloads

EULER = 0.5772156649015329


def harmonic(n):
    return math.fsum(1.0 / s for s in range(1, n + 1))


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def test_truncated_unitary_fractions():
    mu, var = verify.truncated_unitary(2, 2, 2)
    assert abs(mu[0] + 5 / 12) < 1e-14
    assert abs(mu[0] + mu[1] + 7 / 6) < 1e-14
    assert abs(var[0] - 13 / 144) < 1e-14
    assert abs(var[0] + var[1] - 29 / 72) < 1e-14


def test_gaussian_scalar_and_inverse_reversal():
    mu, var = verify.gaussian(2, 1)
    assert abs(mu[0] + EULER / 2) < 1e-15 and abs(var[0] - math.pi**2 / 24) < 1e-15
    mu_g, var_g = verify.gaussian(1, 3)
    mu_i, var_i = verify.mixture(1, 3, 0.0)
    assert mu_i == [-m for m in reversed(mu_g)] and var_i == list(reversed(var_g))


@pytest.mark.parametrize("beta,d", [(1, 2), (2, 3), (4, 2), (1, 6)])
def test_quadrature_matches_residue_sums(beta, d):
    """y = 1^d, m = beta d / 2: -J1 = H_{m-1}, -J2 = sum_{s=2}^{m-1} (2/s) H_{s-1}."""
    m = beta * d // 2
    j1, j2 = verify.j_pair(beta, [1.0] * d)
    assert abs(j1 + harmonic(m - 1)) < 1e-12
    assert abs(j2 + math.fsum(2.0 / s * harmonic(s - 1) for s in range(2, m))) < 1e-12


def test_quarter_identities():
    mu1, var1 = verify.top_exponent(2, [1.0, 0.25])
    assert abs(var1 - verify.QUARTER_VAR1) < 1e-12
    # cofactor expansion at y = (1/4, 1): mu_1 = (4/3) ln 2 + psi(1)/2
    assert abs(mu1 - (4.0 / 3.0 * math.log(2.0) - EULER / 2)) < 1e-12


def test_trace_identity_in_one_dimension():
    assert abs(verify.trace_identity([3.0]) - verify.top_exponent(2, [3.0])[0]) < 1e-12


def test_workloads_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert workloads.build(name, 5) != workloads.build(name, 6)
    known = [op for op in workloads.build("stability", 5) if op.get("known_fault")]
    assert known == [op for op in workloads.build("stability", 6) if op.get("known_fault")]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

COMPARE_OP = workloads.compare_op({"kind": "standard_gaussian", "beta": 2, "d": 2},
                                  2000, 4, 1)


def compare_output(op, ref, z=(0.8, -1.1), var_scale=1.03):
    n = op["N"] * op["chains"]
    rows = []
    for i, (mu, var, zi) in enumerate(zip(ref["mu"], ref["var"], z), start=1):
        se = math.sqrt(var * var_scale / n)
        mu_mc = mu + zi * math.sqrt(var / n)
        rows.append({"i": i, "mu_theory": mu, "n_sigma2_theory": var, "mu_mc": mu_mc,
                     "se_mu": se, "n_sigma2_mc": var * var_scale, "z": (mu_mc - mu) / se})
    return {"status": 0, "rows": rows, "redraws": 0}


def test_compare_accepts_right_output():
    ref = verify.reference(COMPARE_OP)
    assert verify.check(COMPARE_OP, compare_output(COMPARE_OP, ref), ref) == []


def test_compare_general_sigma_reference():
    op = workloads.compare_iid(np.random.default_rng(1))[-1]
    ref = verify.reference(op)
    mu1, mu2 = ref["mu"]
    assert abs(mu1 + mu2 - (math.log(2.0) - EULER / 2 + (1 - EULER) / 2)) < 1e-12
    ref_full = dict(ref, var=[ref["var"][0], 0.5])
    out = compare_output(op, ref_full)
    out["rows"][1]["n_sigma2_theory"] = None
    assert verify.check(op, out, ref) == []


def _shift_mu(out):
    out["rows"][0]["mu_mc"] += 6.0 * out["rows"][0]["se_mu"]
    out["rows"][0]["z"] += 6.0


def _scale_var(out):
    out["rows"][1]["n_sigma2_mc"] *= 1.2


def _wrong_theory(out):
    out["rows"][0]["mu_theory"] += 1e-6


def _wrong_z(out):
    out["rows"][1]["z"] += 0.01


def _gate_tripped(out):
    out["status"] = 1


def _missing_row(out):
    out["rows"].pop()


def _raised(out):
    out.clear()
    out["error"] = "ZeroDivisionError: float division by zero"


@pytest.mark.parametrize("mutate", [_shift_mu, _scale_var, _wrong_theory, _wrong_z,
                                    _gate_tripped, _missing_row, _raised])
def test_compare_rejects(mutate):
    ref = verify.reference(COMPARE_OP)
    out = compare_output(COMPARE_OP, ref)
    mutate(out)
    assert verify.check(COMPARE_OP, out, ref)


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def sigma_op(beta, y, mp_check=True):
    op = workloads.theory_op(workloads.general_sigma(beta, y))
    op["mp_check"] = mp_check
    return op


def theory_output(op, ref):
    ens = op["ensemble"]
    if ens["kind"] != "general_sigma_gaussian":
        return {"status": 0, "rows": [{"i": i, "mu": m, "n_sigma2": v} for i, (m, v)
                                      in enumerate(zip(ref["mu"], ref["var"]), start=1)]}
    mu1, var1 = ref["top"]
    rows = [{"i": 1, "mu": mu1, "n_sigma2": var1}]
    out = {"status": 0, "rows": rows}
    if ens["beta"] == 2:
        rows.append({"i": 2, "mu": ref["sum"] - mu1, "n_sigma2": None})
        out["route_mu1"] = mu1
    return out


def test_theory_accepts_right_output():
    for op in (sigma_op(1, workloads.QUARTER), sigma_op(2, workloads.QUARTER),
               sigma_op(4, (0.3, 2.0)),
               workloads.theory_op({"kind": "truncated_unitary", "beta": 4, "d": 3, "n": 4}),
               workloads.theory_op({"kind": "rectangular_gaussian", "beta": 1, "d": 2,
                                    "shapes": [[0, 0.3], [2, 0.7]]})):
        ref = verify.reference(op)
        assert verify.check(op, theory_output(op, ref), ref) == [], op


def test_theory_rejects_j1_and_j2_off_by_1e_6():
    op = sigma_op(1, workloads.QUARTER)
    ref = verify.reference(op)
    j1, j2 = verify.j_pair(1, workloads.QUARTER)
    for dj1, dj2 in ((1e-6, 0.0), (0.0, 1e-6)):
        out = theory_output(op, ref)
        # mu_1 = (-gamma + ln(2/beta) - J1) / 2, N sigma_1^2 = (pi^2/6 - J2 - J1^2) / 4
        out["rows"][0]["mu"] -= 0.5 * dj1
        out["rows"][0]["n_sigma2"] -= 0.25 * (dj2 + (2 * j1 + dj1) * dj1)
        assert verify.check(op, out, ref)


def _route_off(out):
    out["route_mu1"] += 1e-6


def _sum_off(out):
    out["rows"][1]["mu"] += 1e-6


def _quarter_var_off(out):
    out["rows"][0]["n_sigma2"] += 1e-9


def _negative_var(out):
    out["rows"][0]["n_sigma2"] = -1.0


@pytest.mark.parametrize("mutate", [_route_off, _sum_off, _quarter_var_off, _negative_var,
                                    _missing_row, _raised])
def test_theory_rejects_general_sigma(mutate):
    op = sigma_op(2, workloads.QUARTER, mp_check=False)
    ref = verify.reference(op)
    ref_with_top = dict(ref, top=(verify.top_exponent(2, workloads.QUARTER)[0], ref["var1"]))
    out = theory_output(op, ref_with_top)
    assert verify.check(op, out, ref) == []
    mutate(out)
    assert verify.check(op, out, ref)


def test_theory_rejects_closed_form_off_by_1e_9():
    op = workloads.theory_op({"kind": "gaussian_inverse_mixture", "beta": 2, "d": 3,
                              "alpha_plus": 0.3})
    ref = verify.reference(op)
    out = theory_output(op, ref)
    out["rows"][2]["mu"] += 1e-9
    assert verify.check(op, out, ref)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

STABILITY_OP = workloads.stability_op(2, 2, 3)


def stability_output(op, ref, shift_se=0.0):
    rng = np.random.default_rng(0)
    sd = np.sqrt(np.asarray(ref["var"]) / op["N"])
    lam = ref["mu"] + sd * rng.standard_normal((op["reps"], op["d"]))
    lam += shift_se * sd / math.sqrt(op["reps"])
    theta = rng.uniform(-math.pi, math.pi, lam.shape)
    return {"reps": np.stack([lam, theta], axis=-1).tolist()}


def test_stability_accepts_right_output():
    ref = verify.reference(STABILITY_OP)
    assert verify.check(STABILITY_OP, stability_output(STABILITY_OP, ref), ref) == []


def test_stability_rejects_shifted_mean_and_bad_phase():
    ref = verify.reference(STABILITY_OP)
    assert verify.check(STABILITY_OP, stability_output(STABILITY_OP, ref, shift_se=6.0), ref)
    out = stability_output(STABILITY_OP, ref)
    out["reps"][0][1][1] = 4.0
    assert verify.check(STABILITY_OP, out, ref)
    out = stability_output(STABILITY_OP, ref)
    out["reps"].pop()
    assert verify.check(STABILITY_OP, out, ref)


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------

def test_normalise_follows_the_program_not_the_host():
    ref = calibrate.REFERENCE_RATE
    at_reference = (int(ref), 1.0)
    assert calibrate.normalise(2.0, at_reference, at_reference) == pytest.approx(2.0)
    # a host at half speed doubles wall time and halves the rate: no change
    half = (int(ref), 2.0)
    assert calibrate.normalise(4.0, half, half) == pytest.approx(2.0)
    # a program twice as fast halves the normalised time
    assert calibrate.normalise(1.0, half, half) == pytest.approx(0.5)
    assert calibrate.rate((100, 1.0), (300, 1.0)) == pytest.approx(200.0)


def test_measure_runs_whole_units():
    units, seconds = calibrate.measure(0.0)
    assert units == 1 and seconds > 0
