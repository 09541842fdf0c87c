"""One workload in one fresh process: set up, say READY, run the timed
phase, and print one RESULT line of JSON.

Started by run.py with the BLAS/OpenMP thread counts set to 1.  With
--setup-only it stops after READY, so run.py can time set-up more than
once per run.  With --trace 1 every op runs twice, once bare and once
under spans, in alternating order; the spans give the per-layer metrics
and the paired latencies the tracing overhead.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)

# The host's speed drifts: a fixed pure-Python loop runs up to 1.7 times
# slower from one second to the next, and runs of one seed spread by 0.2.
# So during the timed phase SIGPROF runs `probe` every PROBE_EVERY_S of CPU
# time, inside the ops too, and end-to-end times are scaled to the speed at
# which `probe` takes PROBE_REF_S.  The raw figures are printed too.
PROBE_REF_S = 0.0005
PROBE_EVERY_S = 0.05
SETUP_PROBES = 40


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its latency limit.

    A BaseException, so the package's own `except Exception` handlers
    cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


class Speed:
    """Probes taken by SIGPROF while it is on; their time is kept apart so
    op latencies can leave it out."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        took = probe()
        self.samples.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


def execute(op, limit, tracer=None, speed=None):
    """Run one op under the latency limit and check it.

    Returns (status, latency, detail); status is ok, wrong, error or
    timeout.  The latency covers the op, not its check or probes."""
    signal.signal(signal.SIGALRM, _alarm)
    probed = speed.spent if speed is not None else 0.0
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start
        if speed is not None:
            latency -= speed.spent - probed
        op.check(result)
        return "ok", latency, ""
    except OpTimeout:
        return "timeout", time.perf_counter() - start, "over %.1f s" % limit
    except CheckFailed as exc:
        return "wrong", latency, str(exc)
    except Exception as exc:  # the op's own failure, reported per op
        return "error", time.perf_counter() - start, repr(exc)[:200]
    finally:
        if tracer is not None and tracer.stack:
            # spans an abort left open end now, so no state carries over
            now = time.perf_counter()
            for idx in tracer.stack:
                tracer.end[idx] = now
            tracer.stack.clear()


def probe():
    """Seconds for a fixed loop of Fraction sums and dict stores."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(250):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[i % 97] = acc
    return time.perf_counter() - start


def tail(latencies):
    """Highest percentile of the ladder with at least ten samples beyond
    it, as (percentile, value), or None."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def machine_facts():
    import equidistants.germ_algebra as ga
    numpy = sys.modules.get("numpy")
    return "nproc=%d python=%s numpy=%s gmpy2=%s" % (
        os.cpu_count(), platform.python_version(),
        getattr(numpy, "__version__", "not loaded"),
        "present" if ga._fastq is not Fraction else "absent")


# Per-layer metrics are "<span>.<field>".  Fields calls, s and self_s are
# read from the spans, s_srcN and the rest from the tracer's counters; all
# are per traced op, except the set-up totals below.
LAYER_METRICS = (
    "cli.main.self_s",
    "geometry_engine.derivative.calls", "geometry_engine.derivative.s",
    "geometry_engine.find_parallel_pairs.s",
    "geometry_engine.find_parallel_pairs.pairs",
    "geometry_engine.trace_equidistant.self_s",
    "geometry_engine.trace_equidistant.branches",
    "geometry_engine.trace_equidistant.samples",
    "geometry_engine.detect_singularities.self_s",
    "geometry_engine.detect_singularities.unresolved",
    "geometry_engine.classify_pair.calls",
    "geometry_engine.classify_pair.self_s",
    "geometry_engine.classify_pair.failed",
    "geometry_engine.taylor_germ_at_pair.s",
    "geometry_engine.write_branches_csv.s",
    "geometry_engine.write_branches_csv.bytes",
    "geometry_engine.write_branches_svg.s",
    "geometry_engine.write_branches_svg.bytes",
    "contact_lab.contact_map.calls", "contact_lab.contact_map.s",
    "contact_lab.lambda_contact_from_pair.s", "contact_lab.pi_tilde_local.s",
    "contact_lab.local_ring_dims.self_s",
    "germ_algebra.local_algebra.calls", "germ_algebra.local_algebra.s",
) + tuple("germ_algebra.local_algebra.s_src%d" % d for d in range(1, 7)) + (
    "germ_algebra.local_algebra.infinite",
    "germ_algebra.ke_quotient_hilbert.calls",
    "germ_algebra.ke_quotient_hilbert.s",
    "germ_algebra.hilbert_prefix.calls", "germ_algebra.hilbert_prefix.s",
    "germ_algebra.ke_codimension.s",
    "germ_algebra.rank0_reduce.s", "germ_algebra.corank.s",
    "normal_forms.stable_singularities.s", "normal_forms.catalogue.s",
    "normal_forms.recognize.calls", "normal_forms.recognize.self_s",
    "normal_forms.recognize.unrecognized",
)
# Seconds spent in these during set-up, where germ_classify calls them.
SETUP_TOTALS = {"germ_algebra.ke_codimension.s",
                "normal_forms.stable_singularities.s",
                "normal_forms.catalogue.s"}


def layer_metrics(tracer, n_ops):
    """Per-layer metrics from the spans of `n_ops` traced ops."""
    per_op, setup = tracer.summary()
    c = tracer.counts
    out = {}
    for metric in LAYER_METRICS:
        span, field = metric.rsplit(".", 1)
        if metric in SETUP_TOTALS:
            out[metric] = {"value": setup.get(span, 0.0), "unit": "s"}
            continue
        calls, total, own = per_op.get(span, (0, 0.0, 0.0))
        value = {"calls": calls, "s": total, "self_s": own}.get(
            field, c.get(metric, 0))
        unit = ("s/op" if field.startswith("s") and field != "samples"
                else "bytes/op" if field == "bytes" else "count/op")
        out[metric] = {"value": value / n_ops, "unit": unit}
    # ratios are 0 when the layer saw nothing to resolve or stabilize
    ann = c.get("geometry_engine.detect_singularities.annotations", 0)
    out["geometry_engine.detect_singularities.resolved_ratio"] = {
        "value": 1.0 - c.get("geometry_engine.detect_singularities."
                             "unresolved", 0) / ann if ann else 0.0,
        "unit": "ratio"}
    calls = per_op.get("germ_algebra.local_algebra", (0,))[0]
    out["germ_algebra.local_algebra.stabilized_ratio"] = {
        "value": c.get("germ_algebra.local_algebra.stabilized", 0) / calls
        if calls else 0.0, "unit": "ratio"}
    return out


def main(argv=None):
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    t_import = time.perf_counter()
    import equidistants  # noqa: F401
    import_s = time.perf_counter() - t_import
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    if tracer is not None:
        tracer.uninstall()
    setup_in_process = time.perf_counter() - t_start
    print("READY", flush=True)
    # run.py scales the set-up time it measured by this factor
    print("SPEED %r" % (PROBE_REF_S / statistics.fmean(
        probe() for _ in range(SETUP_PROBES))), flush=True)
    if args.setup_only:
        shutil.rmtree(args.workdir, ignore_errors=True)
        return 0

    records = []      # (label, status, latency, detail)
    pairs = []        # (bare latency, traced latency) of traced runs
    cycles = 0
    op_id = 0
    speed = Speed()
    if tracer is None:
        speed.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:
        for op in workload.cycle(cycles):
            if tracer is None:
                records.append((op.label,)
                               + execute(op, workload.limit_s, speed=speed))
                continue
            runs = {}
            for traced in ((False, True) if op_id % 2 else (True, False)):
                if traced:
                    tracer.install()
                    tracer.op_id = op_id
                else:
                    tracer.uninstall()
                runs[traced] = execute(op, workload.limit_s, tracer)
            tracer.uninstall()
            tracer.op_id = spans.SETUP_OP
            bad = [r for r in runs.values() if r[0] != "ok"]
            status, _, detail = bad[0] if bad else runs[True]
            records.append((op.label, status, runs[True][1], detail))
            if not bad:
                pairs.append((runs[False][1], runs[True][1]))
            op_id += 1
        cycles += 1
    speed.stop()
    busy = sum(r[2] for r in records)

    n = len(records)
    ok = sum(1 for r in records if r[1] == "ok")
    wrong = [r for r in records if r[1] in ("wrong", "error")]
    failed = [r for r in records if r[1] != "ok"]
    # a failed op counts as missing every latency limit
    lat = [r[2] if r[1] == "ok" else math.inf for r in records]
    report = [
        "machine: " + machine_facts(),
        "loop: closed, one caller, one process; %d cycles, %d ops, "
        "latency limit %.1f s" % (cycles, n, workload.limit_s),
        "set-up in process: %.3f s (import %.3f s)" % (setup_in_process,
                                                        import_s),
        "failed_share: %d/%d = %.4f" % (len(failed), n, len(failed) / n),
    ]
    for label, status, latency, detail in failed:
        report.append("  failed op: %s: %s %s" % (label, status, detail))
    if tracer is None:
        probes = speed.samples
        scale = PROBE_REF_S / statistics.fmean(probes)
        # an aborted op takes the limit in wall time at any host speed
        busy_ref = sum(r[2] if r[1] == "timeout" else r[2] * scale
                       for r in records)
        lat_ref = [v * scale for v in lat]
        t = tail(lat_ref)
        report += [
            "host speed: probe mean %.5f s over %d probes; times are scaled "
            "by %.4f to the reference speed (raw: ops_per_s %.6g 1/s, "
            "op_p50_s %.6g s)" % (PROBE_REF_S / scale, len(probes), scale,
                                  ok / busy, statistics.median(lat)),
            "op_p50_s: %.6f s (printed, not gated)" % statistics.median(
                lat_ref),
            "op_tail_s: p%g over N=%d: %.6f s (printed, not gated)" % (
                t[0], n, t[1]) if t else
            "op_tail_s: not reported, N=%d leaves fewer than ten samples "
            "beyond p90" % n,
        ]
        metrics = {
            "ops_per_s": {"value": ok / busy_ref, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
        }
    else:
        bare = sum(p[0] for p in pairs)
        metrics = layer_metrics(tracer, max(n, 1))
        metrics["equidistants.import_s"] = {"value": import_s, "unit": "s"}
        metrics["trace.overhead_share"] = {
            "value": sum(p[1] for p in pairs) / bare - 1.0 if bare else 0.0,
            "unit": "share"}
        report.append("tracing overhead: %+.2f%% over %d paired ops" % (
            100 * metrics["trace.overhead_share"]["value"], len(pairs)))
        report.append("wait time: none; a single caller never waits in a "
                      "queue, so no layer has a wait-time metric")
        spans_path = os.path.join(os.path.dirname(args.workdir),
                                  "spans-%s-seed%d.tsv" % (args.workload,
                                                           args.seed))
        tracer.write(spans_path)
        report.append("spans: %d written to %s" % (
            len(tracer.start), os.path.relpath(spans_path, ROOT)))
    shutil.rmtree(args.workdir, ignore_errors=True)
    print("RESULT " + json.dumps({
        "correct": not wrong, "attempted": n, "failed": len(failed),
        "metrics": metrics, "report": report}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
