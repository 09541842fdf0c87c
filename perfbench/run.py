"""Benchmark of the equidistants package.

    python3 perfbench/run.py --workload <name|all> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload runs in fresh worker
processes (worker.py) with one BLAS/OpenMP thread.  With --trace 0 the
run times set-up in SETUP_SAMPLES processes, the last of which goes on to
the timed phase, and reports the median as setup_s; the last line of
stdout is one JSON object with the end-to-end metrics.  With --trace 1
one worker runs under spans and the JSON carries the per-layer metrics.
The exit code is non-zero when any op returned a wrong answer or raised,
or when the package cannot be found.  See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
# time a workload's processes may take on top of --seconds before they are
# killed; keeps a 20 s run under 180 s
SLACK_S = 130.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(Exception):
    pass


def worker(args, workload, setup_only, deadline):
    """Start one worker; return (seconds to READY scaled to the reference
    speed, RESULT dict or None)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (workload,
                                                               os.getpid()))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    ready, speed, result = None, None, None
    try:
        for line in proc.stdout:
            if line == "READY\n":
                ready = time.perf_counter() - start
            elif line.startswith("SPEED "):
                speed = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or speed is None or (result is None and not setup_only):
        raise WorkerFailed("worker for %s exited with code %s" % (workload,
                                                                 code))
    return ready * speed, result


def run_workload(args, workload):
    deadline = time.perf_counter() + args.seconds + SLACK_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(worker(args, workload, True, deadline)[0])
    ready, result = worker(args, workload, False, deadline)
    setups.append(ready)
    print("workload %s seed %d seconds %g trace %d" % (
        workload, args.seed, args.seconds, args.trace))
    for line in result.pop("report"):
        print(line)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("setup_s is the median of %d processes, scaled to the "
              "reference speed: %s" % (len(setups),
                                       " ".join("%.4f" % s for s in setups)))
    for name in sorted(metrics):
        print("%s: %.6g %s" % (name, metrics[name]["value"],
                               metrics[name]["unit"]))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "equidistants",
                                       "__init__.py")):
        sys.stderr.write("perfbench: no src/equidistants beside perfbench/\n")
        return 2
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(args, name))
    except WorkerFailed as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 3
    sys.stdout.flush()
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
