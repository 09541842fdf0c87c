"""Tests of the benchmark's own machinery: aborts and span counts.

    python3 -m pytest perfbench -q
"""

import worker
from spans import Tracer
from workloads import ContactRings, CurveTrace, GermClassify


def _op(workload, tmp_path, label):
    wl = workload(0, str(tmp_path))
    wl.setup()
    return next(op for op in wl.cycle(0) if op.label.startswith(label))


def _spans(tracer, name):
    nid = [i for i, n in enumerate(tracer.names) if n == name]
    return sum(1 for i in tracer.nid if i in nid)


def test_an_op_after_an_abort_still_passes(tmp_path):
    tracer = Tracer()
    for workload, label in ((ContactRings, "combo=(3,6,1) pair_seed=0"),
                            (GermClassify, "Ttilde7")):
        op = _op(workload, tmp_path / workload.name, label)
        tracer.install()
        try:
            status, latency, _ = worker.execute(op, 0.02, tracer)
            assert status == "timeout" and latency < 1.0
            assert tracer.stack == []
            assert worker.execute(op, workload.limit_s, tracer)[0] == "ok"
        finally:
            tracer.uninstall()
        assert worker.execute(op, workload.limit_s)[0] == "ok"


def test_spans_see_calls_between_modules(tmp_path):
    import equidistants.cli as cli
    import equidistants.normal_forms as nf
    orig = cli.recognize
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.recognize is not orig
        assert nf.hilbert_prefix.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert cli.recognize is orig


def test_one_classify_op_gives_one_recognize_span(tmp_path):
    op = _op(GermClassify, tmp_path, "S5")
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        assert worker.execute(op, 10.0, tracer)[0] == "ok"
    finally:
        tracer.uninstall()
    assert _spans(tracer, "normal_forms.recognize") == 1
    assert _spans(tracer, "cli.main") == 1
    # S5 is a 2-component germ: its signature takes one Hilbert prefix
    assert _spans(tracer, "germ_algebra.hilbert_prefix") == 1


def test_one_oval_trace_gives_one_pair_search_span(tmp_path):
    op = _op(CurveTrace, tmp_path, "oval lambda=1/2")
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        assert worker.execute(op, 30.0, tracer)[0] == "ok"
    finally:
        tracer.uninstall()
    assert _spans(tracer, "geometry_engine.find_parallel_pairs") == 1
    assert _spans(tracer, "geometry_engine.trace_equidistant") == 1
    assert _spans(tracer, "geometry_engine.write_branches_csv") == 1
    assert _spans(tracer, "geometry_engine.derivative") > 10000
