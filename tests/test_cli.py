"""End-to-end checks of the command line.

Frozen output lines for the documented invocations, the exit-code contract
(0 success, 1 usage, 2 input parse, 3 mathematical), machine-readable stderr
codes, JSON round-trips, file products, and byte-determinism across reruns.
"""

import json
import os
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
)
from equidistants.geometry_engine import ellipse, fourier_oval, graph_surface
from equidistants.germ_algebra import MapGerm, ke_codimension, mapgerm_from_dict, mapgerm_to_json
from equidistants.normal_forms import parse_label, recognize, stable_singularities

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
