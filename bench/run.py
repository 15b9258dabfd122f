"""The lyaprod benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. It builds the workload's operations from
the seed (workloads.py), times set-up in fresh processes, runs the workload
in one worker process (worker.py), checks every output against references
computed apart from lyaprod (verify.py) and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones. The full result, with every round time and
every problem found, goes to ``.bench-results/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench-results"
#: Fresh processes whose set-up is timed in one run, before the worker starts.
SETUP_SAMPLES = 5
#: Calibration slice before the first and after every set-up sample, seconds.
SETUP_SLICE_S = 0.15
IMPORT_SAMPLES = 3
#: Seconds after which the workers still running are killed and the run fails.
TIME_LIMIT = 160


class BenchError(RuntimeError):
    pass


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(mode, ops, seconds, deadline):
    """Run worker.py; returns (seconds from start until it was ready, its result).

    The worker is killed if it is still running at ``deadline`` (time.monotonic()).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            env=program_env(), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        proc.stdin.write(json.dumps({"mode": mode, "seconds": seconds, "ops": ops}))
        proc.stdin.close()
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker ({mode}) ended with exit status {proc.returncode}")
    return ready, json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None


def import_seconds():
    """Cumulative import time of lyaprod.sigma in a fresh process (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lyaprod.sigma"],
                          cwd=ROOT, env=program_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "lyaprod.sigma":
            return int(parts[1]) / 1e6
    raise BenchError("lyaprod.sigma missing from the -X importtime report")


def run_workload(workload, seed, seconds, trace):
    ops = workloads.build(workload, seed)
    deadline = time.monotonic() + TIME_LIMIT
    setup, setup_wall = [], []
    before = calibrate.measure(SETUP_SLICE_S)
    for _ in range(0 if trace else SETUP_SAMPLES):
        ready = run_worker("setup", ops, seconds, deadline)[0]
        after = calibrate.measure(SETUP_SLICE_S)
        setup.append(calibrate.normalise(ready, before, after))
        setup_wall.append(ready)
        before = after
    _, result = run_worker("trace" if trace else "run", ops, seconds, deadline)
    result.update(setup_s=setup, setup_wall_s=setup_wall)

    problems = {}
    for index, (op, out) in enumerate(zip(ops, result["outputs"])):
        found = verify.check(op, out, verify.reference(op))
        if found:
            problems[index] = {"op": op, "problems": found}
    unexpected = [i for i, p in problems.items() if not p["op"].get("known_fault")]
    rounds = len(result["rounds"]) + len(result.get("traced_rounds", ()))
    verdict = {
        "correct": result["identical"] and not unexpected,
        "attempted": rounds * len(ops),
        "failed": rounds * len(problems),
    }
    if trace:
        result["layers"]["sigma.import_s"] = statistics.median(
            import_seconds() for _ in range(IMPORT_SAMPLES))
        values = result["layers"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "run_s": statistics.median(result["rounds"]),
                  "peak_rss_mib": result["peak_rss_kib"] / 1024.0}

    if not result["identical"]:
        print("rounds gave different outputs for the same inputs", file=sys.stderr)
    for index, p in problems.items():
        label = "known fault" if p["op"].get("known_fault") else "FAILED"
        print(f"{label}: operation {index} {json.dumps(p['op'])}", file=sys.stderr)
        for line in p["problems"]:
            print(f"  {line}", file=sys.stderr)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  problems=problems, **verdict)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result))
    return verdict, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lyaprod" / "cli.py").is_file():
        print(f"error: no lyaprod sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        verdict, values = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({**verdict, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
