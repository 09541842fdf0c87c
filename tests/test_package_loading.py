"""The package's loading contract, each check in a fresh interpreter.

Importing ``equidistants`` imports no submodule, and a public name loads
its defining module on first use.  The exact subcommands never load numpy
or the numerical engine; ``trace`` loads both and still writes the golden
CSV.  The demos, which import from the package root, run to completion and
demo 01 writes the golden CSVs byte for byte.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import equidistants
from equidistants.contact_lab import GraphPair, graphpair_to_json
from equidistants.geometry_engine import fourier_oval
from equidistants.germ_algebra import MapGerm, mapgerm_to_json

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")
DEMOS = os.path.join(ROOT, "demos")
GOLDEN_DIR = os.path.join(DEMOS, "output")
NUMERICAL = ("numpy", "equidistants.geometry_engine")

# the public surface, pinned: every name that `__all__` lists
PUBLIC = [
    "Annotation", "DomainError", "EquidistantBranch", "FrameAlignmentError",
    "GermClass", "GraphPair", "INFINITE", "ImmersionError",
    "InfiniteCodimensionError", "LocalAlgebraReport", "MapGerm",
    "NotNiceDimensionsError", "PairCloud", "PairPoint", "ParametricManifold",
    "REGULAR", "RingDims", "StableList", "StableRow", "UnrecognizedGermError",
    "catalogue", "classify_pair", "contact_map", "corank",
    "detect_singularities", "ellipse", "find_parallel_pairs", "format_poly",
    "format_stable_table", "fourier_oval", "graph_surface",
    "graphpair_from_dict", "graphpair_from_json", "graphpair_to_dict",
    "graphpair_to_json", "hilbert_prefix", "is_nice_dimensions",
    "ke_codimension", "ke_quotient_hilbert", "lambda_contact_from_pair",
    "local_algebra", "local_ring_dims", "manifold_from_dict",
    "manifold_from_json", "mapgerm_from_dict", "mapgerm_from_json",
    "mapgerm_to_dict", "mapgerm_to_json", "normal_form", "parse_label",
    "pi_tilde_local", "random_graph_pair", "random_k_move", "rank0_reduce",
    "recognize", "reduce_to_theta", "sampled_curve", "sampled_surface",
    "stable_singularities", "taylor_germ_at_pair", "torus",
    "trace_equidistant", "write_branches_csv", "write_branches_svg",
]

# Runs the CLI on argv and prints, as its last line, the exit code and the
# numerical modules then loaded.
CLI_AND_MODULES = """
import json, sys
from equidistants.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {numerical!r} if m in sys.modules]]))
""".format(numerical=NUMERICAL)


def fresh(*args, cwd=None):
    """Run python with `args` in a new interpreter that finds the package
    under src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def cli_in_fresh_interpreter(*argv):
    proc = fresh("-c", CLI_AND_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    germ = base / "germ.json"
    germ.write_text(mapgerm_to_json(MapGerm.from_polys([{(3,): 1}], 1)))
    pair = base / "pair.json"
    pair.write_text(graphpair_to_json(GraphPair(
        1, 2, 1,
        phi=MapGerm.from_polys([{(2,): 1, (3,): 1}], 1),
        psi=MapGerm.from_polys([], 1),
        eta=MapGerm.from_polys([], 1),
        zeta=MapGerm.from_polys([{(2,): -2}], 1),
        lam=Fraction(1, 3),
    )))
    oval = base / "oval.json"
    oval.write_text(fourier_oval(a=[0.0, 0.0, 0.2]).to_json())
    return {"germ": str(germ), "pair": str(pair), "oval": str(oval)}


def test_importing_the_package_imports_no_submodule():
    proc = fresh("-c", "import sys, equidistants\n"
                 "print(sorted(m for m in sys.modules\n"
                 "             if m.startswith('equidistants') or m == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['equidistants']"]


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "3", "--q", "6"),
    ("classify", "--germ", "{germ}"),
    ("mu", "--germ", "{germ}"),
    ("contact", "--input", "{pair}"),
    ("ringdims", "--input", "{pair}"),
], ids=lambda argv: argv[0])
def test_exact_subcommands_never_load_numpy(inputs, argv):
    code, loaded = cli_in_fresh_interpreter(*(a.format(**inputs) for a in argv))
    assert code == 0
    assert loaded == []


def test_trace_loads_the_numerical_engine_and_writes_the_golden_csv(
        inputs, tmp_path):
    prefix = str(tmp_path / "oval")
    code, loaded = cli_in_fresh_interpreter(
        "trace", "--input", inputs["oval"], "--lambda", "1/2", "--out", prefix)
    assert code == 0
    assert loaded == list(NUMERICAL)
    with open(os.path.join(GOLDEN_DIR, "oval_lambda_0_5.csv"), "rb") as fh:
        assert (tmp_path / "oval.csv").read_bytes() == fh.read()


def test_the_public_surface_is_pinned():
    proc = fresh("-c", "import json, equidistants\n"
                 "print(json.dumps(equidistants.__all__))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PUBLIC


def test_every_public_name_resolves():
    proc = fresh(
        "-c",
        "import equidistants\n"
        "missing = [n for n in equidistants.__all__\n"
        "           if getattr(equidistants, n, None) is None]\n"
        "namespace = {}\n"
        "exec('from equidistants import *', namespace)\n"
        "missing += [n for n in equidistants.__all__ if n not in namespace]\n"
        "print(missing)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_an_unknown_name_raises_attribute_error():
    proc = fresh(
        "-c",
        "import equidistants\n"
        "assert getattr(equidistants, 'main', None) is None\n"
        "try:\n"
        "    equidistants.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(type(exc).__name__, exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "AttributeError module 'equidistants' has no attribute 'no_such_name'")


def test_an_unknown_name_raises_attribute_error_in_process():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        equidistants.no_such_name


@pytest.mark.parametrize("demo", sorted(
    name for name in os.listdir(DEMOS) if name.endswith(".py")))
def test_demo_runs_from_a_copy(demo, tmp_path):
    # run a copy, so that demo 01 writes into tmp_path/output and never
    # over the golden files
    shutil.copy(os.path.join(DEMOS, demo), tmp_path)
    proc = fresh(str(tmp_path / demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    if demo.startswith("01_"):
        for golden in ("oval_lambda_0_3.csv", "oval_lambda_0_5.csv"):
            with open(os.path.join(GOLDEN_DIR, golden), "rb") as fh:
                assert (tmp_path / "output" / golden).read_bytes() == fh.read()
