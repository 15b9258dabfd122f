"""Runs one workload's operations against lyaprod, in one process.

The job arrives as JSON on stdin: ``{"mode", "seconds", "ops"}``. The
worker imports ``lyaprod.cli``, builds the program-side inputs, prints
``ready`` (the parent times set-up up to this line) and then, unless the
mode is ``setup``, pins itself to one CPU, warms up, and runs whole rounds
of the operations one after another, closed loop, until the time is used.
Its last line of output is one JSON object with the round times (rescaled
to the reference host speed, see calibrate.py, and as measured), the
outputs of the first round and peak RSS.

In ``trace`` mode it runs untraced rounds first, then traced rounds with
the program's public functions wrapped (see layers.py), and reports the
per-layer metrics as well.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import lyaprod.cli
from lyaprod import ensembles, montecarlo, sigma

#: Steps per chain of the shortened compare operations that warm up the worker.
WARM_UP_STEPS = 200


def call_main(argv):
    """``lyaprod <argv>`` in this process; returns (exit status, JSON document)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = lyaprod.cli.main(argv)
    return status, json.loads(out.getvalue())


def prepare(op):
    """Program-side inputs of one operation: argv for the CLI, specs otherwise."""
    ready = dict(op)
    if op["op"] == "compare":
        ready["argv"] = ["compare", "--ensemble", json.dumps(op["ensemble"]),
                         "--N", str(op["N"]), "--chains", str(op["chains"]),
                         "--k-max", str(op["k_max"]), "--seed", str(op["seed"]),
                         "--format", "json"]
    elif op["op"] == "theory":
        ready["argv"] = ["theory", "--ensemble", json.dumps(op["ensemble"]), "--format", "json"]
    else:
        ready["spec"] = ensembles.StandardGaussian(op["beta"], op["d"])
    return ready


def execute(op):
    if op["op"] == "compare":
        status, doc = call_main(op["argv"])
        return {"status": status, "rows": doc["rows"], "redraws": doc["meta"]["redraws"]}
    if op["op"] == "theory":
        status, doc = call_main(op["argv"])
        out = {"status": status, "rows": doc["rows"]}
        ens = op["ensemble"]
        if ens["kind"] == "general_sigma_gaussian" and ens["beta"] == 2:
            # the contour route must agree with the determinant route
            out["route_mu1"] = sigma.kargin_mu1(2, ens["sigma_inv_eigenvalues"])
        return out
    reps = [montecarlo.stability_exponents(op["spec"], op["N"],
                                           ensembles.chain_rng(op["seed"], r))
            for r in range(op["reps"])]
    return {"reps": [[list(pair) for pair in rep] for rep in reps]}


def execute_checked(op):
    try:
        return execute(op)
    except Exception as exc:  # a failed operation is reported, the round goes on
        return {"error": f"{type(exc).__name__}: {exc}"}


def warm_up(ops):
    """Run every operation once, shortened and untimed: the first calls pay
    for lazy imports and cold caches that later rounds do not."""
    for op in ops:
        if op["op"] == "compare":
            op = prepare(dict(op, N=min(op["N"], WARM_UP_STEPS)))
        elif op["op"] == "stability":
            op = prepare(dict(op, reps=1))
        execute_checked(op)


def run_rounds(ops, seconds):
    """Whole rounds until ``seconds`` are used.

    Returns (normalised round times, wall round times, outputs, identical).
    Every operation is followed by a calibration slice (calibrate.py), and its
    wall time is rescaled by the host speed of the slices before and after
    it. A round starts only if it is expected to end before half a round past
    the deadline, so a run lasts about ``seconds`` whatever the round length.
    """
    times, walls, first, identical = [], [], None, True
    start = time.perf_counter()
    # the slice before the first operation: as long as one after a 0.1 s operation
    before = calibrate.measure(calibrate.SHARE * 0.1)
    while True:
        outputs, normalised, wall = [], 0.0, 0.0
        r0 = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            outputs.append(execute_checked(op))
            elapsed = time.perf_counter() - t0
            after = calibrate.measure(calibrate.SHARE * elapsed)
            normalised += calibrate.normalise(elapsed, before, after)
            wall += elapsed
            before = after
        times.append(normalised)
        walls.append(wall)
        if first is None:
            first = outputs
        elif outputs != first:
            identical = False
        round_s = time.perf_counter() - r0
        if time.perf_counter() - start + 0.5 * round_s >= seconds:
            return times, walls, first, identical


def main():
    job = json.load(sys.stdin)
    ops = [prepare(op) for op in job["ops"]]
    print("ready", flush=True)
    if job["mode"] == "setup":
        return
    # The program's threads and the calibration slices share one CPU, so the
    # slices see the speed the operations ran at (calibrate.py). Unpinned,
    # the pool threads of a multi-chain compare spread over both CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warm_up(ops)

    if job["mode"] == "run":
        times, walls, first, identical = run_rounds(ops, job["seconds"])
        result = {"rounds": times, "wall_rounds": walls, "outputs": first,
                  "identical": identical,
                  "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    else:
        import layers  # the tracer stays out of set-up and of untraced runs
        times, _, first, identical = run_rounds(ops, job["seconds"] / 4)
        probe_ops = [prepare(op) for op in layers.PROBE_OPS]
        with layers.Tracer() as tracer:
            traced_times, _, traced_first, traced_identical = run_rounds(
                ops, job["seconds"] / 4)
            spans = tracer.take()
            for op in probe_ops:
                execute(op)
            probe_spans = tracer.take()
        metrics, probed = layers.metrics(ops, probe_ops, spans, len(traced_times),
                                         probe_spans, call_main)
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        result = {"rounds": times, "traced_rounds": traced_times, "outputs": first,
                  "identical": identical and traced_identical and traced_first == first,
                  "layers": metrics, "probed": sorted(probed)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
