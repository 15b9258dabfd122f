"""Host-speed calibration for the timed metrics.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: the
same fixed loop, timed in 1.5 s windows, took anywhere from 86 to 170 ms
(process CPU time equal to wall time, no steal time reported), and the
drift moves pure-Python code, small LAPACK calls and scipy quadrature
together. Wall time alone then measures the host as much as the program.

So the benchmark times a fixed calibration loop, which does not touch
lyaprod, right before and right after every piece of work it measures, and
rescales the piece's wall time by the host speed those slices saw:

    normalised = wall time * (calibration units per second around it) / REFERENCE_RATE

that is, the wall time the piece would have taken with the host running the
calibration loop at REFERENCE_RATE units per second. A program that gets
twice as fast halves the normalised time, as it halves wall time; a host
that gets twice as slow leaves it unchanged.
"""

import time

import numpy as np

#: Calibration units per second at the reference speed (about the median
#: rate on the 2-vCPU machine described in README.md), so normalised times
#: read close to the wall times of that machine.
REFERENCE_RATE = 4500.0
#: Share of a measured piece's wall time spent on the calibration slice
#: after it; the slice before a piece is the one after the previous piece.
SHARE = 0.15

_A = np.random.default_rng(0).standard_normal((6, 6))


def unit():
    """One calibration unit: interpreted arithmetic and small LAPACK calls,
    the two kinds of work every lyaprod path is made of."""
    s = 0
    for i in range(150):
        s += i * i
    q = _A
    for _ in range(6):
        q, _r = np.linalg.qr(_A @ q)
    return s


def measure(seconds):
    """Run whole units for at least ``seconds`` (one unit at least);
    returns (units, wall seconds)."""
    units = 0
    t0 = time.perf_counter()
    while True:
        unit()
        units += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return units, elapsed


def rate(before, after):
    """Units per second over two slices, each a (units, seconds) pair."""
    return (before[0] + after[0]) / (before[1] + after[1])


def normalise(wall, before, after):
    """``wall`` seconds rescaled to the reference speed, given the slices
    timed right before and right after the piece of work."""
    return wall * rate(before, after) / REFERENCE_RATE
