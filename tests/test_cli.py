"""End-to-end checks of the command line.

Frozen output lines for the documented invocations, the exit-code contract
(0 success, 1 usage, 2 input parse, 3 mathematical), machine-readable stderr
codes, JSON round-trips, file products, and byte-determinism across reruns.
"""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from equidistants.cli import main
from equidistants.contact_lab import (
    GraphPair,
    graphpair_to_json,
    lambda_contact_from_pair,
    local_ring_dims,
    random_graph_pair,
)
from equidistants.geometry_engine import ellipse, fourier_oval, graph_surface
from equidistants.germ_algebra import (
    MapGerm,
    ke_codimension,
    mapgerm_from_dict,
    mapgerm_to_json,
    random_k_move,
)
from equidistants.normal_forms import (
    is_nice_dimensions,
    normal_form,
    parse_label,
    recognize,
    stable_singularities,
)

TABLE_2_4 = "k=1: A1 A2 A3 A4 | k=2: C2,2+ C2,2-"
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos", "output")


def germ(polys, s):
    return MapGerm.from_polys(polys, s)


def curve_pair(phi, zeta, lam=None):
    return GraphPair(
        1, 2, 1,
        phi=germ([phi], 1), psi=germ([], 1),
        eta=germ([], 1), zeta=germ([zeta], 1),
        lam=lam,
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "equidistants.cli", *argv],
                          capture_output=True, text=True)


def assert_one_line_failure(proc, code, prefix):
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(prefix + " ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.fixture
def y3_path(tmp_path):
    path = tmp_path / "y3.json"
    path.write_text(mapgerm_to_json(germ([{(3,): 1}], 1)))
    return str(path)


@pytest.fixture
def parabola_pair_path(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(graphpair_to_json(curve_pair({(2,): 1}, {(2,): 1})))
    return str(path)


@pytest.fixture
def ellipse_path(tmp_path):
    path = tmp_path / "ellipse.json"
    path.write_text(ellipse(2, 1).to_json())
    return str(path)


# -------------------------------------------------------------- enumerate


def test_enumerate_2_4_exact_line(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "2", "--q", "4")
    assert code == 0
    assert out == TABLE_2_4 + "\n"
    assert err == ""


def test_enumerate_not_nice_dimensions_exits_3(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "4", "--q", "6")
    assert code == 3
    assert out == ""
    assert err.startswith("NOT_NICE_DIMENSIONS")


def test_enumerate_bad_domain_exits_3(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "2", "--q", "2")
    assert code == 3
    assert err.startswith("DOMAIN")


def test_enumerate_json_matches_library(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--q", "4", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob == stable_singularities(2, 4).to_dict()
    line = " | ".join(
        "k={}: {}".format(row["k"], " ".join(row["entries"])) for row in blob["rows"]
    )
    assert line == TABLE_2_4


def test_enumerate_is_byte_deterministic(capsys):
    first = run(capsys, "enumerate", "--n", "3", "--q", "5", "--json")
    second = run(capsys, "enumerate", "--n", "3", "--q", "5", "--json")
    assert first == second


def test_console_script_prints_frozen_line():
    proc = subprocess.run(
        [sys.executable, "-m", "equidistants.cli", "enumerate", "--n", "2", "--q", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == TABLE_2_4 + "\n"


# -------------------------------------------------------------- usage errors


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 1
    assert err.startswith("USAGE")


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "2", "--q", "4", "--bogus")
    assert code == 1
    assert err.startswith("USAGE")


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "2")
    assert code == 1
    assert err.startswith("USAGE")


# -------------------------------------------------------------- mu / classify


def test_mu_of_y_cubed_prints_2(capsys, y3_path):
    code, out, err = run(capsys, "mu", "--germ", y3_path)
    assert code == 0
    assert out == "2\n"
    assert err == ""


def test_mu_json(capsys, y3_path):
    code, out, _ = run(capsys, "mu", "--germ", y3_path, "--json")
    assert code == 0
    assert json.loads(out) == {"mu": 2}


def test_mu_of_zero_germ_exits_3(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(mapgerm_to_json(germ([{}], 1)))
    code, _, err = run(capsys, "mu", "--germ", str(path))
    assert code == 3
    assert err.startswith("INFINITE")


def test_classify_y_cubed(capsys, y3_path):
    code, out, _ = run(capsys, "classify", "--germ", y3_path)
    assert code == 0
    assert out == "A2 mu=2\n"


def test_classify_json_label_round_trips(capsys, y3_path):
    code, out, _ = run(capsys, "classify", "--germ", y3_path, "--json")
    assert code == 0
    blob = json.loads(out)
    cls = parse_label(blob["label"])
    assert cls.family == blob["family"]
    assert list(cls.params) == blob["params"]
    assert cls.mu == blob["mu"]


def test_classify_out_of_catalogue_exits_3(capsys, tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(mapgerm_to_json(germ([{(4, 0): 1, (0, 4): 1}], 2)))
    code, _, err = run(capsys, "classify", "--germ", str(path))
    assert code == 3
    assert err.startswith("UNRECOGNIZED")


def test_classify_of_an_immersion_germ_exits_3(capsys, tmp_path):
    # (x, x^2) reduces to a germ in no variable, which has no class: it
    # used to print A1 mu=1, though the local algebra of A1 has dimension 2
    path = tmp_path / "immersion.json"
    path.write_text(mapgerm_to_json(germ([{(1,): 1}, {(2,): 1}], 1)))
    code, out, err = run(capsys, "classify", "--germ", str(path))
    assert (code, out) == (3, "")
    assert err == "UNRECOGNIZED germ is an immersion; no singular class\n"


# -------------------------------------------------------------- input parse


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "mu", "--germ", "/nonexistent/germ.json")
    assert code == 2
    assert err.startswith("INPUT_PARSE")


def test_unparseable_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("this is not json {")
    code, _, err = run(capsys, "classify", "--germ", str(path))
    assert code == 2
    assert err.startswith("INPUT_PARSE")


def test_wrong_schema_exits_2(capsys, tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"source_dim": 1}))
    code, _, err = run(capsys, "mu", "--germ", str(path))
    assert code == 2
    assert err.startswith("INPUT_PARSE")


@pytest.mark.parametrize("command", ["classify", "mu"])
@pytest.mark.parametrize("field, value", [
    ("order", -3), ("source_dim", -1), ("source_dim", 0), ("target_dim", 0),
])
def test_germ_with_impossible_sizes_is_a_parse_error(tmp_path, command, field, value):
    # impossible sizes are malformed input, not a germ of infinite
    # codimension or a monomial enumeration without end
    blob = json.loads(mapgerm_to_json(germ([{(2,): 1}], 1)))
    blob[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert_one_line_failure(run_subprocess(command, "--germ", str(path)), 2, "INPUT_PARSE")


@pytest.mark.parametrize("command", ["classify", "mu"])
def test_germ_order_budget_is_64(capsys, tmp_path, command):
    # rungs 4..6 of the 7-jet do not certify this A8 germ, so classify
    # reduces the whole germ; at order 10**6 that ran past a minute
    blob = json.loads(mapgerm_to_json(germ(
        [{(1, 0): 1, (0, 2): 1, (1, 1): 1}, {(0, 9): 1, (5, 0): 1}], 2)))
    path = tmp_path / "a8.json"
    for order in (65, 10 ** 6):
        blob["order"] = order
        path.write_text(json.dumps(blob))
        code, out, err = run(capsys, command, "--germ", str(path))
        assert code == 2 and out == "", err
        assert err.startswith("INPUT_PARSE ") and err.count("\n") == 1
    blob["order"] = 64
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, command, "--germ", str(path))
    assert (code, err) == (0, "")
    assert out.split()[0] == {"classify": "A8", "mu": "8"}[command]


@pytest.mark.parametrize("command", ["classify", "mu"])
@pytest.mark.parametrize("components", [
    [[{"exponents": [2]}]],                    # a term without a coefficient
    [[{"coeff": "1/0", "exponents": [2]}]],    # a zero denominator
    [[5]],                                     # a term that is a number
    5,                                         # components that are a number
    [[{"coeff": "1", "exponents": 2}]],        # exponents that are a number
], ids=["no-coeff", "zero-denominator", "numeric-term",
        "numeric-components", "numeric-exponents"])
def test_malformed_germ_terms_are_parse_errors(tmp_path, command, components):
    blob = json.loads(mapgerm_to_json(germ([{(2,): 1}], 1)))
    blob["components"] = components
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert_one_line_failure(run_subprocess(command, "--germ", str(path)), 2, "INPUT_PARSE")


@pytest.mark.parametrize("exponent", [1.5, 2.5])
@pytest.mark.parametrize("command", ["classify", "mu", "contact", "ringdims"])
def test_a_fractional_exponent_is_a_parse_error(capsys, tmp_path, command,
                                                exponent):
    # int() used to truncate it: y^2.5 classified as A1, and y^1.5 as regular
    if command in ("classify", "mu"):
        blob, flag = json.loads(mapgerm_to_json(germ([{(2,): 1}], 1))), "--germ"
        blob["components"][0][0]["exponents"] = [exponent]
    else:
        blob, flag = json.loads(graphpair_to_json(curve_pair(
            {(2,): 1}, {(2,): 1}, lam=Fraction(1, 2)))), "--input"
        blob["phi"][0][0]["exponents"] = [exponent]
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, command, flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("INPUT_PARSE ") and err.count("\n") == 1
    assert "non-integer exponent" in err


def test_malformed_manifold_exits_2(capsys, tmp_path):
    path = tmp_path / "badcurve.json"
    path.write_text(json.dumps({"kind": "dodecahedron"}))
    code, _, err = run(
        capsys, "trace", "--input", str(path), "--lambda", "1/2",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert err.startswith("INPUT_PARSE")


# -------------------------------------------------------------- contact


def test_contact_known_pair(capsys, parabola_pair_path):
    code, out, _ = run(capsys, "contact", "--input", parabola_pair_path, "--lambda", "1/2")
    assert code == 0
    assert out == "kappa: [2*y1^2]\ntheta: [2*y1^2]\nclass: A1 mu=1\n"


def test_contact_json_round_trips(capsys, parabola_pair_path):
    code, out, _ = run(
        capsys, "contact", "--input", parabola_pair_path, "--lambda", "1/2", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    kappa = mapgerm_from_dict(blob["kappa"])
    expected = lambda_contact_from_pair(curve_pair({(2,): 1}, {(2,): 1}), Fraction(1, 2))
    assert kappa.polys() == expected.polys()
    assert blob["class"]["label"] == recognize(expected).label


def test_contact_total_cancellation_exits_3(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(graphpair_to_json(curve_pair({(2,): 1}, {(2,): -1})))
    code, _, err = run(capsys, "contact", "--input", str(path), "--lambda", "1/2")
    assert code == 3
    assert err.startswith("INFINITE")


def test_contact_uses_lambda_stored_in_pair(capsys, tmp_path):
    path = tmp_path / "with_lam.json"
    path.write_text(
        graphpair_to_json(curve_pair({(3,): 1}, {(2,): 1}, lam=Fraction(1, 2)))
    )
    code, out, _ = run(capsys, "contact", "--input", str(path))
    assert code == 0
    assert out == "kappa: [y1^2 + y1^3]\ntheta: [y1^2 + y1^3]\nclass: A1 mu=1\n"


def test_contact_without_any_lambda_is_usage_error(capsys, parabola_pair_path):
    code, _, err = run(capsys, "contact", "--input", parabola_pair_path)
    assert code == 1
    assert err.startswith("USAGE")


def test_contact_rejects_decimal_lambda(capsys, parabola_pair_path):
    code, _, err = run(capsys, "contact", "--input", parabola_pair_path, "--lambda", "0.5")
    assert code == 1
    assert err.startswith("USAGE")


# -------------------------------------------------------------- ringdims


def test_ringdims_matches_library(capsys, parabola_pair_path):
    code, out, _ = run(
        capsys, "ringdims", "--input", parabola_pair_path, "--lambda", "1/2",
        "--order", "8",
    )
    assert code == 0
    dims = local_ring_dims(curve_pair({(2,): 1}, {(2,): 1}), Fraction(1, 2), order=8)
    d_pi, d_kappa, d_theta = dims.dimensions
    assert out == "dim(pi)={} dim(kappa)={} dim(theta)={}\n".format(d_pi, d_kappa, d_theta)


def test_ringdims_json_carries_hilbert_functions(capsys, parabola_pair_path):
    code, out, _ = run(
        capsys, "ringdims", "--input", parabola_pair_path, "--lambda", "1/2",
        "--order", "8", "--json",
    )
    assert code == 0
    blob = json.loads(out)
    dims = local_ring_dims(curve_pair({(2,): 1}, {(2,): 1}), Fraction(1, 2), order=8)
    for key, report in (("pi", dims.pi), ("kappa", dims.kappa), ("theta", dims.theta)):
        assert blob[key]["dimension"] == report.dimension
        assert blob[key]["hilbert"] == list(report.hilbert)


@pytest.mark.parametrize("order", ["-3", "0"])
def test_ringdims_rejects_an_order_below_one(tmp_path, order):
    # the rings have dimension 4; no truncation below order 1 can say so
    path = tmp_path / "pair.json"
    path.write_text(graphpair_to_json(random_graph_pair(2, 4, 2, seed=0)))
    argv = ("ringdims", "--input", str(path), "--lambda", "1/3")
    proc = run_subprocess(*argv, "--order", order)
    assert_one_line_failure(proc, 1, "USAGE")
    assert "order must be >= 1" in proc.stderr
    proc = run_subprocess(*argv)
    assert proc.returncode == 0
    assert proc.stdout == "dim(pi)=4 dim(kappa)=4 dim(theta)=4\n"


def run_capped(*argv):
    """run_subprocess under a 1.5 GB address-space limit and a 30 s
    timeout, so that an unbounded computation fails fast instead of taking
    the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
    return subprocess.run([sys.executable, "-m", "equidistants.cli", *argv],
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=cap)


@pytest.mark.parametrize("order", ["65", "1000000000"])
def test_ringdims_rejects_an_order_above_the_budget(tmp_path, order):
    # the cap is held to MAX_TERM_DEGREE like every other order from
    # outside; at order 10**9 the rings grew until memory ran out
    path = tmp_path / "pair.json"
    path.write_text(graphpair_to_json(random_graph_pair(1, 2, 1, seed=3)))
    argv = ("ringdims", "--input", str(path), "--lambda", "1/3")
    proc = run_capped(*argv, "--order", order)
    assert_one_line_failure(proc, 1, "USAGE")
    assert "order must be at most 64, got " + order in proc.stderr
    proc = run_capped(*argv, "--order", "64")
    assert proc.returncode == 0
    assert proc.stdout == "dim(pi)=INFINITE dim(kappa)=INFINITE " \
        "dim(theta)=INFINITE\n"


# sha256 of `ringdims --json` on pair seeds 0-3 at lambda 1/3 and 1/2, in
# that order, per (n, q, k): the 24 inputs of the contact_rings benchmark
# and the same pairs at 1/2
RING_FINGERPRINTS = {
    (1, 2, 1):
        "6acc603393ad249c4d94fc2b45b026da334f7bf75a0d5e22ab5bf5bf895fb913",
    (2, 4, 1):
        "956e0cdf3314114a8930f088aee2f19662fef08779d6795c3121bd763af2f465",
    (2, 4, 2):
        "fc4b687b73fdb3eb7bd15d4f5ff678ed5aeb11a66b5bb0f9532a7126322f4973",
    (3, 6, 1):
        "5d18e282fc4b768510bc656173503b5fec2ffdf60fb79c240d4ef9b9e5f9d83d",
    (3, 6, 2):
        "92f506300daa72b28126b984722d5097dfd09a34bf600b316291f38c6ec26b34",
    (3, 6, 3):
        "0e4928514bbd5297fff1f84499caf5b47fe02689f29b5db9403cbc8b437d72a9",
}


# sha256 of `ringdims --json` on pair seeds 0-11 of every (n, q, k) above,
# in the order of RING_FINGERPRINTS, at lambda 1/3 and 1/2: 144 reports
RING_SWEEP_FINGERPRINT = \
    "4fa3196741e5ca6498e7363829f45bae3650f8afb6af113ef82707e3881f6e22"


def hash_ring_reports(h, capsys, tmp_path, combo, seeds):
    for seed in seeds:
        path = tmp_path / f"pair{seed}.json"
        path.write_text(graphpair_to_json(random_graph_pair(*combo, seed=seed)))
        for lam in ("1/3", "1/2"):
            code, out, _ = run(capsys, "ringdims", "--input", str(path),
                               "--lambda", lam, "--json")
            assert code == 0
            h.update(out.encode())
    return h


@pytest.mark.parametrize("combo", sorted(RING_FINGERPRINTS))
def test_ring_reports_keep_their_frozen_fingerprints(capsys, tmp_path, combo):
    h = hash_ring_reports(hashlib.sha256(), capsys, tmp_path, combo, range(4))
    assert h.hexdigest() == RING_FINGERPRINTS[combo]


def test_ring_report_sweep_keeps_its_frozen_fingerprint(capsys, tmp_path):
    h = hashlib.sha256()
    for combo in sorted(RING_FINGERPRINTS):
        hash_ring_reports(h, capsys, tmp_path, combo, range(12))
    assert h.hexdigest() == RING_SWEEP_FINGERPRINT


# sha256 of `classify --json` on the 45 catalogue classes of the nice
# dimensions, by label, each moved by random_k_move seeds 0-7: 360 germs
MOVED_CLASSIFY_FINGERPRINT = \
    "4fb7e2e78e1eab939918b28437baad70dc5ac3caf7bb9fa2002622171fee707b"


def test_moved_catalogue_classes_keep_their_frozen_fingerprint(capsys, tmp_path):
    classes = {cls.label: cls
               for n in range(1, 6) for q in range(n + 1, 2 * n + 1)
               if is_nice_dimensions(n, q)
               for row in stable_singularities(n, q).rows
               for cls in row.entries}
    assert len(classes) == 45
    h = hashlib.sha256()
    path = tmp_path / "germ.json"
    for label in sorted(classes):
        form = normal_form(classes[label], classes[label].intrinsic_source)
        for seed in range(8):
            path.write_text(mapgerm_to_json(random_k_move(form, seed)))
            code, out, _ = run(capsys, "classify", "--germ", str(path), "--json")
            assert code == 0
            h.update(out.encode())
    assert h.hexdigest() == MOVED_CLASSIFY_FINGERPRINT


# ------------------------------------------------------- negative lambda


@pytest.fixture
def random_pair_path(tmp_path):
    path = tmp_path / "random.json"
    path.write_text(graphpair_to_json(random_graph_pair(1, 2, 1, seed=0)))
    return str(path)


@pytest.mark.parametrize("command", ["contact", "ringdims"])
@pytest.mark.parametrize("flag", ["--lambda", "--lam"])
def test_a_negative_lambda_may_follow_its_flag(capsys, random_pair_path, command, flag):
    # argparse alone takes -3/4 for an option, since it starts with '-'
    spaced = run(capsys, command, "--input", random_pair_path, flag, "-3/4")
    joined = run(capsys, command, "--input", random_pair_path, "--lambda=-3/4")
    assert joined[0] == 0
    assert spaced == joined


@pytest.mark.parametrize("lam", ["-1/2", "-1e-3"])
def test_a_negative_trace_lambda_may_follow_its_flag(capsys, tmp_path, ellipse_path, lam):
    argv = ("trace", "--input", ellipse_path, "--out", str(tmp_path / "neg"),
            "--step", "0.05", "--seed-density", "64", "--json")
    spaced = run(capsys, *argv, "--lambda", lam)
    joined = run(capsys, *argv, "--lambda=" + lam)
    assert joined[0] == 0
    assert spaced == joined


def test_lambda_followed_by_an_option_is_a_usage_error(capsys, random_pair_path):
    code, out, err = run(capsys, "contact", "--input", random_pair_path, "--lambda", "--json")
    assert (code, out) == (1, "")
    assert err.startswith("USAGE")


# -------------------------------------------------------------- trace


def test_trace_writes_csv_and_svg(capsys, tmp_path, ellipse_path):
    prefix = str(tmp_path / "wigner")
    code, out, _ = run(
        capsys, "trace", "--input", ellipse_path, "--lambda", "0.3",
        "--out", prefix, "--step", "0.05", "--seed-density", "64",
    )
    assert code == 0
    assert out.startswith("wrote {0}.csv and {0}.svg\n".format(prefix))
    header = (tmp_path / "wigner.csv").read_text().splitlines()[0]
    assert header == "branch_id,sigma,s,t,x1,x2,label"
    assert (tmp_path / "wigner.svg").read_text().lstrip().startswith("<svg")


def test_trace_accepts_rational_lambda_and_is_deterministic(capsys, tmp_path, ellipse_path):
    outs = []
    for name in ("a", "b"):
        prefix = str(tmp_path / name)
        code, out, _ = run(
            capsys, "trace", "--input", ellipse_path, "--lambda", "3/10",
            "--out", prefix, "--step", "0.05", "--seed-density", "64",
        )
        assert code == 0
        outs.append(out.replace(prefix, "PREFIX"))
    assert outs[0] == outs[1]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_trace_json_summarizes_branches(capsys, tmp_path, ellipse_path):
    prefix = str(tmp_path / "j")
    code, out, _ = run(
        capsys, "trace", "--input", ellipse_path, "--lambda", "0.3",
        "--out", prefix, "--step", "0.05", "--seed-density", "64", "--json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["csv"] == prefix + ".csv"
    assert blob["svg"] == prefix + ".svg"
    assert len(blob["branches"]) >= 1
    for s in blob["branches"]:
        assert set(s) == {"branch", "samples", "status", "cusps", "nodes", "unresolved"}


def test_trace_degenerate_lambda_exits_3(capsys, tmp_path, ellipse_path):
    code, _, err = run(
        capsys, "trace", "--input", ellipse_path, "--lambda", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3
    assert err.startswith("DEGENERATE_LAMBDA")


def test_trace_unparseable_lambda_is_usage_error(capsys, tmp_path, ellipse_path):
    code, _, err = run(
        capsys, "trace", "--input", ellipse_path, "--lambda", "abc",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert err.startswith("USAGE")


@pytest.mark.parametrize("lam, code, prefix", [
    ("nan", 1, "USAGE"), ("inf", 1, "USAGE"), ("-inf", 1, "USAGE"),
    ("1e308", 3, "DOMAIN"),
])
def test_trace_non_finite_lambda_fails_on_one_line(tmp_path, ellipse_path, lam, code, prefix):
    # a subprocess, so that numpy warnings would show on stderr too;
    # 1e308 is finite but sends the lambda-points of ellipse(2, 1) to inf
    proc = run_subprocess(
        "trace", "--input", ellipse_path, "--lambda=" + lam, "--out", str(tmp_path / "x"),
        "--step", "0.05", "--seed-density", "64",
    )
    assert_one_line_failure(proc, code, prefix)
    assert not (tmp_path / "x.csv").exists()


def test_trace_of_a_pinched_torus_is_a_domain_error(tmp_path):
    # the horn torus is not immersed along v = pi, a grid line of the pair
    # search, so its grid normals vanish; in a subprocess numpy warnings show
    path = tmp_path / "horn.json"
    path.write_text(json.dumps({"kind": "torus", "R": 1.0, "r": 1.0}))
    proc = run_subprocess("trace", "--input", str(path), "--lambda", "1/2",
                          "--out", str(tmp_path / "o"))
    assert_one_line_failure(proc, 3, "DOMAIN")
    assert not (tmp_path / "o.csv").exists()


def test_trace_without_a_pair_scheme_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "r5.json"
    path.write_text(graph_surface([{(2, 0): 1.0}, {(0, 2): 1.0}, {(1, 1): 1.0}]).to_json())
    code, out, err = run(
        capsys, "trace", "--input", str(path), "--lambda", "1/2",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3
    assert out == ""
    assert err == "DOMAIN no pair-location scheme for (n, q) = (2, 5)\n"


def clifford_payload(m=8):
    th = [2 * math.pi * i / m for i in range(m)]
    grid = [[[math.cos(u), math.sin(u), math.cos(v), math.sin(v)] for v in th]
            for u in th]
    return {"kind": "samples", "n": 2, "q": 4, "grid": grid}


@pytest.mark.parametrize("payload", [
    graph_surface([{(3, 0): 1.0, (0, 2): 0.1}]).to_dict(), clifford_payload(),
], ids=["graph-in-R3", "samples-in-R4"])
def test_trace_of_a_surface_outside_its_schemes_domain_is_a_domain_error(tmp_path, payload):
    # a graph in R^3 is not doubly periodic, and only graphs have an R^4 scheme
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(payload))
    proc = run_subprocess("trace", "--input", str(path), "--lambda", "1/2",
                          "--out", str(tmp_path / "o"))
    assert_one_line_failure(proc, 3, "DOMAIN")
    assert "no pair-location scheme" in proc.stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("option, code, prefix", [
    ("--step=0", 1, "USAGE"), ("--step=inf", 1, "USAGE"),
    ("--step=-0.02", 1, "USAGE"), ("--step=nan", 1, "USAGE"),
    ("--seed-density=0", 1, "USAGE"), ("--seed-density=-4", 1, "USAGE"),
    # the diagonal band 10 * 2pi / density covers every pair below 20
    ("--seed-density=1", 3, "DOMAIN"), ("--seed-density=19", 3, "DOMAIN"),
])
def test_trace_numeric_options_fail_on_one_line(tmp_path, ellipse_path, option, code, prefix):
    proc = run_subprocess("trace", "--input", ellipse_path, "--lambda", "0.3",
                          "--out", str(tmp_path / "x"), option)
    assert_one_line_failure(proc, code, prefix)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("step", ["1e-9", "1e-300"])
def test_trace_rejects_a_step_whose_cell_keys_overflow(tmp_path, ellipse_path, step):
    # the walk keys grid cells i * (ncells + 1) + j in int64, with ncells =
    # ceil(2pi / step); below a step of about 2.07e-9 the keys pass 2^63
    # and wrap.  1e-9 ran for minutes, 1e-300 failed in numpy's cast
    proc = run_capped("trace", "--input", ellipse_path, "--lambda", "1/2",
                      "--out", str(tmp_path / "x"), "--step", step)
    assert_one_line_failure(proc, 3, "DOMAIN")
    assert f"step {float(step)!r} is below 2.06" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_trace_out_in_a_missing_directory_is_one_output_line(capsys, tmp_path, ellipse_path):
    prefix = str(tmp_path / "missing" / "x")
    code, out, err = run(capsys, "trace", "--input", ellipse_path,
                         "--lambda", "0.3", "--out", prefix)
    assert code == 2 and out == ""
    assert err.startswith("OUTPUT cannot write {}.csv: ".format(prefix))
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_trace_leaves_no_csv_when_its_svg_cannot_be_written(capsys, tmp_path, ellipse_path):
    (tmp_path / "x.svg").mkdir()
    code, out, err = run(capsys, "trace", "--input", ellipse_path,
                         "--lambda", "0.3", "--out", str(tmp_path / "x"))
    assert code == 2 and out == ""
    assert err.startswith("OUTPUT cannot write {}: ".format(tmp_path / "x.svg"))
    assert err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    # a result larger than the pipe buffer fails in `print`, a short one in
    # the final flush
    ("enumerate", "--n", "3", "--q", "6", "--json"),
    ("enumerate", "--n", "2", "--q", "4"),
], ids=["long", "short"])
def test_a_closed_stdout_is_one_output_line(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "equidistants.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("OUTPUT ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("halfwidth", [0, -1, math.nan, math.inf])
def test_trace_of_a_graph_without_a_finite_positive_halfwidth_is_a_parse_error(tmp_path, halfwidth):
    # json writes and reads NaN and Infinity
    payload = graph_surface([{(2, 0): 1.0}, {(1, 1): 1.0}]).to_dict()
    payload["halfwidth"] = halfwidth
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    proc = run_subprocess("trace", "--input", str(path), "--lambda", "1/2",
                          "--out", str(tmp_path / "o"))
    assert_one_line_failure(proc, 2, "INPUT_PARSE")


def _sampled_circle_with_a_nan(m=16):
    grid = [[math.cos(2 * math.pi * i / m), math.sin(2 * math.pi * i / m)]
            for i in range(m)]
    grid[3][1] = math.nan
    return {"kind": "samples", "n": 1, "q": 2, "grid": grid}


def _graph_with_coeff(value):
    payload = graph_surface([{(2, 0): 1.0}, {(1, 1): 1.0}]).to_dict()
    payload["components"][0][0]["coeff"] = value
    return payload


@pytest.mark.parametrize("payload", [
    {"kind": "ellipse", "a": math.nan, "b": 1.0},
    {"kind": "ellipse", "a": math.inf, "b": 1.0},
    {"kind": "fourier_oval", "a": [0.0, 0.0, math.nan], "b": []},
    {"kind": "fourier_oval", "a": [0.0, 0.0, math.inf], "b": []},
    _sampled_circle_with_a_nan(),
    {"kind": "torus", "R": math.inf, "r": 0.5},
    {"kind": "torus", "R": math.nan, "r": 0.5},
    _graph_with_coeff(math.nan),
], ids=["ellipse-nan", "ellipse-inf", "oval-nan", "oval-inf", "samples-nan",
        "torus-inf", "torus-nan", "graph-nan"])
def test_trace_of_a_manifold_with_a_non_finite_value_is_a_parse_error(tmp_path, payload):
    # json writes and reads NaN and Infinity
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(payload))
    proc = run_subprocess("trace", "--input", str(path), "--lambda", "1/2",
                          "--out", str(tmp_path / "o"))
    assert_one_line_failure(proc, 2, "INPUT_PARSE")
    assert "finite" in proc.stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("payload, density", [
    ({"kind": "torus", "R": 2.0, "r": 0.5}, "1"),
    (graph_surface([{(2, 0): 1.0}, {(1, 1): 1.0}]).to_dict(), "1"),
    (graph_surface([{(2, 0): 1.0}, {(1, 1): 1.0}]).to_dict(), "5"),
], ids=["torus-1", "graph-1", "graph-5"])
def test_trace_seed_density_reaches_the_surface_pair_search(tmp_path, payload, density):
    # the torus band 10 * 2pi / 1 covers every pair, a graph grid of one
    # node has no interval to bracket a root, and the graph band
    # 10 * 2 / 5 is wider than the box [-1, 1]^2
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(payload))
    proc = run_subprocess("trace", "--input", str(path), "--lambda", "1/2",
                          "--out", str(tmp_path / "o"), "--seed-density", density)
    assert_one_line_failure(proc, 3, "DOMAIN")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("payload, density", [
    (ellipse(2, 1).to_dict(), "4097"), (ellipse(2, 1).to_dict(), "200000"),
    (graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}]).to_dict(), "65"),
    (graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}]).to_dict(), "128"),
], ids=["curve-4097", "curve-200000", "graph-65", "graph-128"])
def test_trace_rejects_a_seed_density_above_the_schemes_budget(tmp_path, payload, density):
    # the budgets are 4096 for curves and 64 for graph surfaces; at 128 the
    # graph scheme built (16384, 16384) arrays and ended in a MemoryError
    # traceback under this address-space limit
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(payload))
    proc = run_capped("trace", "--input", str(path), "--lambda", "1/2",
                      "--out", str(tmp_path / "o"), "--seed-density", density)
    assert_one_line_failure(proc, 3, "DOMAIN")
    assert f"grid density {density} exceeds the budget" in proc.stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("field, value", [("n", 7), ("n", 1.9), ("q", 3)])
def test_trace_of_samples_with_a_bad_n_or_q_is_a_parse_error(tmp_path, field, value):
    th = [2 * math.pi * i / 16 for i in range(16)]
    payload = {"kind": "samples", "n": 1, "q": 2,
               "grid": [[math.cos(t), math.sin(t)] for t in th]}
    payload[field] = value
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(payload))
    proc = run_subprocess("trace", "--input", str(path), "--lambda", "1/2",
                          "--out", str(tmp_path / "o"))
    assert_one_line_failure(proc, 2, "INPUT_PARSE")
    assert f"samples field '{field}'" in proc.stderr


def test_trace_of_a_surface_grid_without_n_names_the_rank_mismatch(tmp_path):
    # with no 'n' the payload is read as a curve, and its 7x7x3 grid has 49
    # points, so the error names the array's rank and not a short axis
    th = [2 * math.pi * i / 7 for i in range(7)]
    grid = [[[(2 + 0.5 * math.cos(v)) * math.cos(u),
              (2 + 0.5 * math.cos(v)) * math.sin(u), 0.5 * math.sin(v)]
             for v in th] for u in th]
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"kind": "samples", "grid": grid}))
    proc = run_subprocess("trace", "--input", str(path), "--lambda", "1/2",
                          "--out", str(tmp_path / "o"))
    assert_one_line_failure(proc, 2, "INPUT_PARSE")
    assert "sampled curve (n = 1) needs a grid array of rank 2, got rank 3" \
        in proc.stderr


@pytest.mark.parametrize("lam, golden", [("1/2", "oval_lambda_0_5.csv"),
                                         ("3/10", "oval_lambda_0_3.csv")])
def test_trace_reproduces_the_golden_oval_csv(capsys, tmp_path, lam, golden):
    path = tmp_path / "oval.json"
    path.write_text(fourier_oval(a=[0.0, 0.0, 0.2]).to_json())
    prefix = str(tmp_path / "oval")
    code, _, err = run(capsys, "trace", "--input", str(path), "--lambda", lam, "--out", prefix)
    assert code == 0, err
    with open(os.path.join(GOLDEN_DIR, golden), "rb") as fh:
        assert (tmp_path / "oval.csv").read_bytes() == fh.read()


def test_trace_reproduces_both_golden_oval_svgs(capsys, tmp_path):
    # the drawings carry the cusp circles and node squares of detection
    path = tmp_path / "oval.json"
    path.write_text(fourier_oval(a=[0.0, 0.0, 0.2]).to_json())
    for lam, golden in (("1/2", "oval_lambda_0_5.svg"),
                        ("3/10", "oval_lambda_0_3.svg")):
        prefix = str(tmp_path / "oval")
        code, _, err = run(capsys, "trace", "--input", str(path), "--lambda", lam,
                           "--out", prefix)
        assert code == 0, err
        with open(os.path.join(GOLDEN_DIR, golden), "rb") as fh:
            assert (tmp_path / "oval.svg").read_bytes() == fh.read()


# A CLI run with one function of normal_forms replaced by a stub that raises
# ArithmeticError(message): no natural input reaches these failures.
PATCHED_CLI = """
import sys
import equidistants.normal_forms as nf
from equidistants.cli import main

def fail(*args):
    raise ArithmeticError({message!r})

nf.{name} = fail
sys.exit(main(sys.argv[1:]))
"""


def run_patched(name, message, *argv):
    code = PATCHED_CLI.format(name=name, message=message)
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("name, message, polys, s", [
    ("rank0_reduce", "elimination left a regular variable",
     [{(1, 0): 1, (0, 2): 1}, {(0, 3): 1}], 2),
    ("_restricted_cubic", "kernel is not two-dimensional",
     [{(2, 1): 1, (0, 3): 1}], 2),
])
def test_classify_reports_other_arithmetic_errors_as_unrecognized(
        tmp_path, name, message, polys, s):
    path = tmp_path / "germ.json"
    path.write_text(mapgerm_to_json(germ(polys, s)))
    proc = run_patched(name, message, "classify", "--germ", str(path))
    assert_one_line_failure(proc, 3, "UNRECOGNIZED")
    assert proc.stderr == "UNRECOGNIZED {}\n".format(message)


def test_contact_reports_other_arithmetic_errors_as_unrecognized(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(graphpair_to_json(curve_pair({(3,): 1}, {(2,): 1})))
    proc = run_patched("ke_quotient_hilbert", "kernel is not two-dimensional",
                       "contact", "--input", str(path), "--lambda", "1/2")
    assert_one_line_failure(proc, 3, "UNRECOGNIZED")


def test_classify_of_the_printed_w8_misprint_stays_infinite(tmp_path):
    path = tmp_path / "w8.json"
    path.write_text(mapgerm_to_json(germ(
        [{(2, 0, 0): 1, (0, 3, 0): 1}, {(0, 2, 0): 1, (1, 0, 1): 1}], 3)))
    proc = run_subprocess("classify", "--germ", str(path))
    assert_one_line_failure(proc, 3, "INFINITE")


@pytest.mark.parametrize("R", [0.3, 0.7])
def test_trace_of_a_spindle_torus_is_a_domain_error(tmp_path, R):
    # a spindle torus is not immersed where cos v = -R/r, a circle that
    # misses the default grid for these radii
    path = tmp_path / "spindle.json"
    path.write_text(json.dumps({"kind": "torus", "R": R, "r": 1.0}))
    proc = run_subprocess("trace", "--input", str(path), "--lambda", "1/2",
                          "--out", str(tmp_path / "o"))
    assert_one_line_failure(proc, 3, "DOMAIN")
    assert "not immersed" in proc.stderr
