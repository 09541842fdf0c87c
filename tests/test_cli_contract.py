"""The CLI contract under mutated inputs.

Every input ends in exit code 0-3.  A failure writes nothing to stdout,
writes no trace file, and writes exactly one stderr line whose first token
is a documented code that matches the exit code.  No exception escapes
`main` and no RuntimeWarning is raised.

Each example takes a valid base input (a map-germ, a graph pair, or one
manifold of each kind), replaces one JSON field or term with a value from
a fixed pool, or deletes it, and draws the flags from pools that mix valid
and invalid values.  No flag value makes a run costlier than its default.
The pools hold no integer above 7 but 65 and 10**6, which probe the budget
`germ_algebra.MAX_TERM_DEGREE` = 64 on a germ's order and on the term
degree of a graph pair or a graph_surface: an order or term above it, such
as a degree of 10**30 that would exhaust memory in exact rational powers,
is one INPUT_PARSE line.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from equidistants.cli import main
from equidistants.contact_lab import MAX_TERM_DEGREE

EXIT_OF = {
    "USAGE": 1,
    "INPUT_PARSE": 2,
    "OUTPUT": 2,
    "NOT_NICE_DIMENSIONS": 3,
    "DOMAIN": 3,
    "DEGENERATE_LAMBDA": 3,
    "INFINITE": 3,
    "UNRECOGNIZED": 3,
}

MISSING = "<missing>"
# written as the bare JSON number 1e400, which reads as an infinite float
HUGE = "<1e400>"
POOL = [MISSING, None, True, "x", "1/0", -1, 0, 1.5, 7, 65, 10 ** 6,
        math.nan, math.inf, HUGE, [], {}]


def _circle_grid(count):
    return [[round(2 * math.cos(2 * math.pi * i / count), 6),
             round(math.sin(2 * math.pi * i / count), 6)]
            for i in range(count)]


def _torus_grid(count):
    grid = []
    for i in range(count):
        u = 2 * math.pi * i / count
        row = []
        for j in range(count):
            v = 2 * math.pi * j / count
            rho = 2 + 0.5 * math.cos(v)
            row.append([round(rho * math.cos(u), 6), round(rho * math.sin(u), 6),
                        round(0.5 * math.sin(v), 6)])
        grid.append(row)
    return grid


def _term(coeff, *exponents):
    return {"coeff": coeff, "exponents": list(exponents)}


GERMS = {
    "germ": {"source_dim": 2, "target_dim": 1, "order": 6,
             "components": [[_term("1", 2, 0), _term("1", 0, 3)]]},
}
PAIRS = {
    "curve_pair": {"n": 1, "q": 2, "k": 1, "lambda": "1/3",
                   "phi": [[_term("-2", 2), _term("1", 3)]], "psi": [],
                   "eta": [], "zeta": [[_term("2", 2)]]},
    "surface_pair": {"n": 2, "q": 4, "k": 1, "lambda": None,
                     "phi": [[_term("-1", 0, 2), _term("1", 2, 0)]],
                     "psi": [[_term("-1", 2, 0)]],
                     "eta": [[_term("1", 0, 3)]],
                     "zeta": [[_term("-2", 0, 2), _term("2", 1, 1)]]},
}
CURVES = {
    "ellipse": {"kind": "ellipse", "a": 2.0, "b": 1.0},
    "fourier_oval": {"kind": "fourier_oval", "a": [0, 0, 0.2], "b": [0, 0, 0]},
    "sampled_curve": {"kind": "samples", "n": 1, "grid": _circle_grid(12)},
}
SURFACES = {
    "torus": {"kind": "torus", "R": 2.0, "r": 0.5},
    "graph_surface": {"kind": "graph_surface", "halfwidth": 1.0, "components": [
        [_term(1.0, 2, 0), _term(1.0, 0, 2)], [_term(1.0, 1, 1)]]},
    "sampled_surface": {"kind": "samples", "n": 2, "grid": _torus_grid(7)},
}
BASES = {**GERMS, **PAIRS, **CURVES, **SURFACES}


def _paths(node, prefix=()):
    """Key paths of every field and term below `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out += _paths(child, prefix + (key,))
    return out


PATHS = {name: _paths(base) for name, base in BASES.items()}


def mutated(name, path, value):
    """The JSON text of base `name` with the node at `path` replaced."""
    payload = copy.deepcopy(BASES[name])
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if value == MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return json.dumps(payload).replace(json.dumps(HUGE), "1e400")


@st.composite
def mutations(draw, names):
    name = draw(st.sampled_from(sorted(names)))
    return name, draw(st.sampled_from(PATHS[name])), draw(st.sampled_from(POOL))


def flag(name, value):
    return [] if value is None else ["{}={}".format(name, value)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def run_contract(argv, out_prefix=None):
    """Run `main` in-process and check the contract on its result."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
        return code, err
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert EXIT_OF.get(err.split(" ", 1)[0]) == code, err
    if out_prefix is not None:
        assert not os.path.exists(out_prefix + ".csv")
        assert not os.path.exists(out_prefix + ".svg")
    return code, err


def write_input(workdir, text):
    path = os.path.join(str(workdir), "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def contract_settings(examples):
    return settings(
        max_examples=examples, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture])


def mostly(valid, others):
    """`valid` about half the time, else a value from `others`."""
    return st.one_of(st.just(valid), st.sampled_from(others))


EXACT_LAMBDAS = mostly(None, ["1/3", "-2", "0", "1", "0.5", "x", "1/0", "nan"])
NUMERIC_LAMBDAS = mostly("1/2", ["3/10", "-1", "0", "1", "x", "1/0", "nan",
                                 "inf", "1e400"])


@contract_settings(300)
@given(command=st.sampled_from(["classify", "mu"]), json_out=st.booleans(),
       case=mutations(GERMS))
@example(command="classify", json_out=False, case=("germ", ("order",), HUGE))
@example(command="classify", json_out=True, case=("germ", ("order",), 10 ** 6))
@example(command="mu", json_out=False, case=("germ", ("order",), 65))
@example(command="mu", json_out=False, case=("germ", ("source_dim",), HUGE))
@example(command="mu", json_out=True,
         case=("germ", ("components", 0, 0, "exponents", 0), HUGE))
def test_germ_commands_keep_the_contract(workdir, command, json_out, case):
    path = write_input(workdir, mutated(*case))
    run_contract([command, "--germ", path] + (["--json"] if json_out else []))


@contract_settings(300)
@given(command=st.sampled_from(["contact", "ringdims"]), case=mutations(PAIRS),
       lam=EXACT_LAMBDAS, order=mostly(None, ["-1", "0", "1", "3", "8", "x"]))
@example(command="contact", case=("curve_pair", ("n",), HUGE), lam="1/3",
         order=None)
@example(command="ringdims", case=("surface_pair", ("lambda",), HUGE),
         lam=None, order=None)
@example(command="ringdims",
         case=("curve_pair", ("phi", 0, 0, "exponents", 0), HUGE), lam=None,
         order=None)
def test_pair_commands_keep_the_contract(workdir, command, case, lam, order):
    path = write_input(workdir, mutated(*case))
    argv = [command, "--input", path] + flag("--lambda", lam)
    if command == "ringdims":
        argv += flag("--order", order)
    run_contract(argv)


@pytest.mark.parametrize("command", ["contact", "ringdims"])
@pytest.mark.parametrize("germ", ["phi", "zeta"])
def test_a_graph_pair_degree_above_the_budget_is_input_parse(
        workdir, command, germ):
    # 10**30 in zeta used to exhaust memory, and in phi to end `contact` in
    # an OverflowError filed under UNRECOGNIZED
    term = (germ, 0, 0, "exponents", 0)
    for degree in (10 ** 30, MAX_TERM_DEGREE + 1):
        path = write_input(workdir, mutated("curve_pair", term, degree))
        code, err = run_contract([command, "--input", path, "--lambda=1/3"])
        assert code == 2 and err.startswith("INPUT_PARSE "), err
    path = write_input(workdir, mutated("curve_pair", term, MAX_TERM_DEGREE))
    assert run_contract([command, "--input", path, "--lambda=1/3"]) == (0, "")


def test_a_graph_surface_degree_above_the_budget_is_input_parse(workdir):
    # an exponent of 10**400 used to end `trace` in UNRECOGNIZED, from an
    # OverflowError of the evaluator's coefficient times a falling factorial
    out = os.path.join(str(workdir), "trace")
    term = ("components", 0, 0, "exponents", 0)
    argv = ["trace", "--input", None, "--lambda=1/2", "--out", out]
    for degree in (10 ** 400, MAX_TERM_DEGREE + 1):
        argv[2] = write_input(workdir, mutated("graph_surface", term, degree))
        code, err = run_contract(argv, out)
        assert code == 2 and err.startswith("INPUT_PARSE "), err
    argv[2] = write_input(workdir,
                          mutated("graph_surface", term, MAX_TERM_DEGREE))
    assert run_contract(argv) == (0, "")


@contract_settings(300)
@given(case=mutations(CURVES) | mutations(SURFACES),
       lam=NUMERIC_LAMBDAS,
       step=mostly(None, ["0.1", "1.5", "0", "-0.1", "nan", "inf"]),
       density=mostly(None, ["0", "-1", "1", "2", "10", "16"]))
@example(case=("graph_surface", ("components", 1, 0, "exponents"), [2]),
         lam="1/2", step=None, density=None)
@example(case=("graph_surface", ("components", 1, 0, "exponents", 0), HUGE),
         lam="1/2", step=None, density=None)
@example(case=("graph_surface", ("components", 0, 1, "coeff"), -1),
         lam="1/2", step=None, density=None)
@example(case=("ellipse", ("a",), 1e200), lam="1/2", step=None, density=None)
@example(case=("ellipse", ("a",), 1e-200), lam="1/2", step=None, density=None)
@example(case=("sampled_curve", ("grid",), [[0, 0]] * 8), lam="1/2",
         step=None, density=None)
@example(case=("sampled_curve", ("grid",), [[i, 0] for i in range(8)]),
         lam="1/2", step=None, density=None)
def test_trace_keeps_the_contract(workdir, case, lam, step, density):
    # curves trace at a density of 64 and a step of 0.05 unless a flag
    # overrides them; surfaces keep their scheme's own density, or a lower
    # one, since a higher density costs more than the default.  The sampled
    # surface stays below the band limit of 20: at its default density of
    # 24 one trace of the 7x7 torus grid takes about 3.5 s.
    out = os.path.join(str(workdir), "trace")
    for ext in (".csv", ".svg"):
        if os.path.exists(out + ext):
            os.remove(out + ext)
    if density is None and case[0] != "torus" and case[0] != "graph_surface":
        density = "64" if case[0] in CURVES else "16"
    path = write_input(workdir, mutated(*case))
    argv = ["trace", "--input", path, "--lambda=" + lam, "--out", out]
    argv += flag("--step", "0.05" if step is None else step)
    argv += flag("--seed-density", density)
    run_contract(argv, out)


@contract_settings(60)
@given(n=st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "7", "x", "1.5"]),
       q=st.sampled_from(["-1", "0", "2", "3", "4", "5", "6", "7", "8", "x"]),
       json_out=st.booleans())
def test_enumerate_keeps_the_contract(n, q, json_out):
    run_contract(["enumerate", "--n=" + n, "--q=" + q]
                 + (["--json"] if json_out else []))


# sha256 of the CSV and SVG that `trace --lambda 1/2` writes for the torus
# cloud (7,378 pairs) and the 7x7 sampled torus cloud (7,464 pairs)
SURFACE_TRACE_BYTES = {
    "torus": (
        "31ceaa1f38dd9f5e3661c447d23075e77a0bea12a0a6851a3c246a0f806ec90a",
        "6f5389185df345ead6ce7ebc232eeea344616f20e1dfd043501bdf025c2dfe01"),
    "sampled": (
        "d473e199497c81f9bc886886ccb9c16fcadd6e4f93ecb50fde1047408df3e697",
        "a65633454a7ba791527d740808b2606384a19752c259c1fa8f461b7680f3580e"),
}


@pytest.mark.parametrize("name, payload", [
    ("torus", {"kind": "torus", "R": 2.0, "r": 0.5}),
    ("sampled", {"kind": "samples", "n": 2, "q": 3, "grid": _torus_grid(7)}),
])
def test_surface_trace_keeps_its_frozen_bytes(workdir, name, payload):
    path = write_input(workdir, json.dumps(payload))
    out = os.path.join(str(workdir), "cloud_" + name)
    assert run_contract(["trace", "--input", path, "--lambda=1/2",
                         "--out", out]) == (0, "")
    for ext, want in zip((".csv", ".svg"), SURFACE_TRACE_BYTES[name]):
        with open(out + ext, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want
