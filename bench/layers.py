"""Per-layer timings, taken from outside the program.

A ``Tracer`` replaces public functions of lyaprod at the names their callers
look them up by (``lyaprod.cli.estimate``, ``lyaprod.montecarlo.run_chain``,
``lyaprod.sigma.j_integrals``, ...) with wrappers that record one span per
call: layer name, wall start and end, thread CPU time, thread and a size tag
(steps or dimension). Spans stay in memory; ``metrics`` turns them into the
per-layer metrics of BENCHMARK.json.

Factor sampling is not a separate call inside a chain, so it is timed by
drawing the same ``FactorStream`` alone, with the same seed and block size.
The peak traced memory of ``estimate`` is taken in one more call under
``tracemalloc``, apart from the timed rounds, because tracemalloc slows the
per-step loop about fourfold.

A workload that never calls a layer still reports that layer's time metrics:
they come from the fixed probe operations below, and the result names them
in ``probed``. Counts are the workload's own.
"""

import statistics
import threading
import time
import tracemalloc
from collections import namedtuple

import lyaprod.cli
import lyaprod.montecarlo
import lyaprod.sigma
from lyaprod import ensembles

Span = namedtuple("Span", "name t0 t1 cpu thread tag")


def _dim(spec):
    return len(getattr(spec, "y", spec))


#: (module, attribute, layer name, size tag of the call's arguments)
WRAPPED = (
    (lyaprod.cli, "main", "cli.main", None),
    (lyaprod.cli, "theory_rows", "cli.theory_rows", None),
    (lyaprod.cli, "estimate", "montecarlo.estimate", None),
    (lyaprod.cli, "sigma_spectrum_complex", "sigma.spectrum_complex", lambda a: _dim(a[0])),
    (lyaprod.cli, "gaussian_spectrum", "theory.closed_form", None),
    (lyaprod.cli, "mixture_spectrum", "theory.closed_form", None),
    (lyaprod.cli, "rectangular_spectrum", "theory.closed_form", None),
    (lyaprod.cli, "truncated_unitary_spectrum", "theory.closed_form", None),
    (lyaprod.montecarlo, "run_chain", "montecarlo.run_chain", lambda a: a[2]),
    (lyaprod.montecarlo, "stability_exponents", "montecarlo.stability_exponents",
     lambda a: a[1]),
    (lyaprod.sigma, "j_integrals", "sigma.j_integrals", lambda a: _dim(a[1])),
)

_PROBE_Y = {2: [0.5, 2.0],
            5: [0.4, 0.63, 1.0, 1.58, 2.5],
            10: [0.3, 0.39, 0.51, 0.67, 0.87, 1.13, 1.47, 1.91, 2.48, 3.2]}
#: Fixed operations that give a time to every layer a workload does not call.
PROBE_OPS = (
    [{"op": "compare", "ensemble": {"kind": "standard_gaussian", "beta": 2, "d": 2},
      "N": 500, "chains": 2, "k_max": 2, "seed": 1}]
    + [{"op": "theory", "ensemble": {"kind": "general_sigma_gaussian", "beta": b,
                                     "sigma_inv_eigenvalues": y}}
       for b in (1, 2) for y in _PROBE_Y.values()]
    + [{"op": "stability", "beta": 2, "d": 2, "N": 500, "reps": 3, "seed": 1}]
)

DIMS = (2, 5, 10)


class Tracer:
    """Context manager that wraps the functions in WRAPPED while it is open."""

    def __init__(self):
        self.spans = []
        self._saved = []

    def __enter__(self):
        for module, attr, name, tag in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, tag))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, tag):
        spans = self.spans

        def traced(*args, **kwargs):
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(Span(name, t0, time.perf_counter(), time.thread_time() - c0,
                                  threading.get_ident(), tag(args) if tag else None))
        return traced

    def take(self):
        """The spans recorded so far; recording starts afresh."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def _inside(child, parent):
    return (child.thread == parent.thread and parent.t0 <= child.t0
            and child.t1 <= parent.t1)


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total


def _mean_wall(spans):
    return statistics.fmean(s.t1 - s.t0 for s in spans)


def span_metrics(spans):
    """Time metrics of the layers that ``spans`` cover (missing layers are absent)."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    m = {}
    mains = by.get("cli.main")
    rows, estimates = by.get("cli.theory_rows", []), by.get("montecarlo.estimate", [])
    if mains:
        m["cli.overhead_ms"] = 1e3 * statistics.fmean(
            (s.t1 - s.t0) - sum(c.t1 - c.t0 for c in rows + estimates if _inside(c, s))
            for s in mains)
    if rows:
        m["cli.theory_rows_ms"] = 1e3 * _mean_wall(rows)
    for layer in ("j_integrals", "spectrum_complex"):
        for d in DIMS:
            calls = [s for s in by.get(f"sigma.{layer}", []) if s.tag == d]
            if calls:
                m[f"sigma.{layer}_ms.d{d}"] = 1e3 * _mean_wall(calls)
    if "theory.closed_form" in by:
        m["theory.closed_form_us"] = 1e6 * _mean_wall(by["theory.closed_form"])
    chains = by.get("montecarlo.run_chain")
    if chains:
        # thread CPU time: the chains of one estimate share the interpreter lock
        m["chain_cpu_us_per_step"] = 1e6 * sum(s.cpu for s in chains) / sum(s.tag for s in chains)
        m["montecarlo.reduce_ms"] = 1e3 * statistics.fmean(
            (e.t1 - e.t0) - _union_length([(c.t0, c.t1) for c in chains
                                           if e.t0 <= c.t0 and c.t1 <= e.t1])
            for e in estimates)
    stab = by.get("montecarlo.stability_exponents")
    if stab:
        m["montecarlo.stability_us_per_step"] = (
            1e6 * sum(s.t1 - s.t0 for s in stab) / sum(s.tag for s in stab))
    return m


def draw_alone(ops):
    """Thread CPU us per factor and redraws of drawing ``ops``' factor streams alone."""
    cpu = factors = redraws = 0
    for op in ops:
        if op["op"] == "compare":
            spec = lyaprod.cli.ensemble_from_dict(op["ensemble"])
            streams = [(c, op["N"]) for c in range(op["chains"])]
        else:
            spec = op["spec"]
            streams = [(r, op["N"]) for r in range(op["reps"])]
        for index, n in streams:
            # the block size of estimate and stability_exponents (the default)
            stream = ensembles.FactorStream(spec, ensembles.chain_rng(op["seed"], index))
            c0 = time.thread_time()
            for _ in stream.factors(n):
                pass
            cpu += time.thread_time() - c0
            factors += n
            redraws += stream.redraws
    return 1e6 * cpu / factors, redraws


def estimate_peak_mib(op, call_main):
    """tracemalloc peak, in MiB, across the ``estimate`` call of one compare operation."""
    original = lyaprod.cli.estimate
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    lyaprod.cli.estimate = measured
    try:
        call_main(op["argv"])
    finally:
        lyaprod.cli.estimate = original
    return peaks[0] / 2**20


def metrics(ops, probe_ops, spans, rounds, probe_spans, call_main):
    """Every per-layer metric but the import time and the tracing overhead.

    Returns (metrics, names of the metrics taken from the probe operations).
    """
    m = span_metrics(spans)
    probed = set()
    for name, value in span_metrics(probe_spans).items():
        if name not in m:
            m[name] = value
            probed.add(name)
    m["sigma.j_integrals_calls"] = sum(
        1 for s in spans if s.name == "sigma.j_integrals"
        and any(_inside(s, r) for r in spans if r.name == "cli.theory_rows")) / rounds

    def pick(kinds):
        own = [op for op in ops if op["op"] in kinds]
        return bool(own), own or [op for op in probe_ops if op["op"] in kinds]

    factor_own, factor_ops = pick(("compare", "stability"))
    compare_own, compare_ops = pick(("compare",))
    m["ensembles.sample_us_per_factor"], redraws = draw_alone(factor_ops)
    m["ensembles.redraws"] = redraws if factor_own else 0
    chain_sample_us = (m["ensembles.sample_us_per_factor"] if factor_ops == compare_ops
                       else draw_alone(compare_ops)[0])
    m["montecarlo.step_us_per_step"] = m.pop("chain_cpu_us_per_step") - chain_sample_us
    largest = max(compare_ops, key=lambda op: op["N"] * op["chains"] * op["k_max"])
    m["montecarlo.estimate_peak_mib"] = estimate_peak_mib(largest, call_main)
    probed.discard("chain_cpu_us_per_step")
    if not factor_own:
        probed.add("ensembles.sample_us_per_factor")
    if not compare_own:
        probed.update(("montecarlo.step_us_per_step", "montecarlo.estimate_peak_mib"))
    return m, probed
