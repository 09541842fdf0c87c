"""Command-line front end.

Subcommands bind the exact and numerical engines to files and stdout:

    enumerate   stable singularity types for a dimension pair (n, q)
    trace       trace an equidistant of a curve and write CSV + SVG
    classify    recognize a polynomial map-germ and print its class
    contact     contact map, reduced germ, and class for a graph pair
    ringdims    the three local ring dimensions attached to a graph pair
    mu          Ke-codimension of a polynomial map-germ

Exit codes: 0 success, 1 usage error, 2 input or output error, 3
mathematical error.  Every non-zero exit writes one machine-readable line to
stderr whose first token names the failure (USAGE, INPUT_PARSE, OUTPUT,
NOT_NICE_DIMENSIONS, DOMAIN, DEGENERATE_LAMBDA, INFINITE, UNRECOGNIZED).
Each engine error carries its own code, the CLI raises USAGE, INPUT_PARSE
and OUTPUT itself, and ``main`` alone writes the line, so any other
exception is a bug.  OUTPUT is an unwritable ``trace --out`` file (no CSV
is left without its SVG) or a stdout closed early.

Lambda values are exact rational strings ("1/2", "3") for the algebra
commands; ``trace`` also accepts decimals, but not ``nan`` or ``inf``
(USAGE).  A negative lambda is given either as ``--lambda -3/4`` or as
``--lambda=-3/4``: a token after ``--lambda`` that reads as a number is its
value.  ``trace``'s ``--step`` must be finite and positive and its
``--seed-density`` at least 1 (USAGE otherwise).  The seed density defaults
to 128 for curves and to the pair scheme's own density for surfaces; an
explicit one applies to both.  Lambda 0 or 1 is DEGENERATE_LAMBDA.
``trace`` reports DOMAIN, and writes no file, when lambda sends a traced
point outside the finite floats, when no pair-location scheme exists for the
manifold's (n, q) and domain (a surface in R^3 needs two 2pi-periodic
parameters, one in R^4 must be a graph_surface), when the manifold is not
immersed, when the seed density is so low that the diagonal band covers
every pair (below 20 on a curve or a torus, below 10 on a graph_surface),
when it is above the pair scheme's budget (4096 on a curve, 48 on a torus
or sampled surface, 64 on a graph_surface), when no pair off the band is
left to draw, when a curve's step is below about 2.07e-9 (the walk's cell
keys overflow int64), or on a floating-point overflow, division by zero or
invalid operation.  A NaN or infinite manifold parameter, coefficient or grid
value, a number that overflows to infinity anywhere in an input file, a
samples payload whose ``n`` is not the integer 1 or 2 or whose ``q``, when
given, is not the length of the grid's last axis, a graph_surface whose
exponent is not two non-negative integers, whose halfwidth is not positive
or which has a term of total degree above 64, a germ with a dimension
below 1, a germ order outside 0..64, a germ or graph-pair exponent that is
not an integer (2.5 is not read as 2) and a graph-pair term of total degree
above 64 are INPUT_PARSE.  All three bounds are the budget
``germ_algebra.MAX_TERM_DEGREE``: the exact engine's cost grows with a
germ's order, and an A8 germ at order 10**6 runs past a minute.
``classify``, ``contact`` and ``mu`` report INFINITE for infinite
Ke-codimension, and also for a finite germ whose quotient the truncation
ladder does not exhaust by the cap + 2 (x^10 + y^10 at order 12).  A germ
of no catalogue class (a regular germ, an immersion such as (x, x^2)) and
any other arithmetic failure are UNRECOGNIZED.

``ringdims --order`` is the truncation cap of the three local rings and
must lie in 1..64, the budget ``MAX_TERM_DEGREE`` again (USAGE otherwise).
A ring whose ideal has fewer nonzero generators than variables is INFINITE
by Krull's height theorem; its Hilbert function is listed through the cap.
Any other INFINITE ring lists it through the cap + 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .contact_lab import (
    DegenerateLambdaError,
    graphpair_from_json,
    lambda_contact_from_pair,
    local_ring_dims,
    reduce_to_theta,
)
from .germ_algebra import (
    INFINITE,
    MAX_TERM_DEGREE,
    InfiniteCodimensionError,
    MapGerm,
    format_poly,
    ke_codimension,
    mapgerm_from_json,
    mapgerm_to_dict,
)
from .normal_forms import (
    DomainError,
    NotNiceDimensionsError,
    UnrecognizedGermError,
    recognize,
    stable_singularities,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_MATH = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors on one stderr line."""

    def error(self, message):
        sys.stderr.write("USAGE {}\n".format(message))
        raise SystemExit(EXIT_USAGE)


class _Failure(Exception):
    """A failure the CLI detects itself: its code, detail and exit status."""

    def __init__(self, code: str, detail: str, status: int):
        super().__init__(detail)
        self.code, self.status = code, status


def _usage(ok: bool, detail: str) -> None:
    if not ok:
        raise _Failure("USAGE", detail, EXIT_USAGE)


def _read(path: str, parse):
    """parse(text of the file at path); unreadable or invalid is INPUT_PARSE."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise _Failure("INPUT_PARSE", "cannot read {}: {}".format(path, exc), EXIT_INPUT)
    except ValueError as exc:
        raise _Failure("INPUT_PARSE", str(exc), EXIT_INPUT)


def _parse_lambda_exact(text: str) -> Fraction:
    """Parse an exact rational lambda ("1/2", "-3/4", "2")."""
    body = text.strip()
    try:
        lam = Fraction(body)
    except (ValueError, ZeroDivisionError):
        lam = None
    _usage(lam is not None and "." not in body and "e" not in body.lower(),
           "lambda must be an exact rational such as 1/2")
    return lam


def _parse_lambda_numeric(text: str) -> float:
    """Parse a finite lambda as a rational string or a decimal (trace only)."""
    body = text.strip()
    try:
        lam = float(Fraction(body)) if "/" in body else float(body)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise _Failure("USAGE", "lambda must be a rational or decimal number", EXIT_USAGE)
    _usage(math.isfinite(lam), "lambda must be finite")
    return lam


def _is_number(token: str) -> bool:
    """Whether token reads as a decimal or a rational such as -3/4."""
    try:
        Fraction(token) if "/" in token else float(token)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _join_lambda(argv: List[str]) -> List[str]:
    """argv with each `--lambda X` (or an abbreviation such as `--lam X`)
    whose X reads as a number joined into `--lambda=X`, since argparse takes
    a token such as -3/4 for an option."""
    out: List[str] = []
    for token in argv:
        if out and len(out[-1]) > 2 and "--lambda".startswith(out[-1]) \
                and _is_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _germ_names(k: int, n: int) -> List[str]:
    """Variable names for a germ written in an adapted (y, z) chart."""
    return ["y{}".format(i + 1) for i in range(k)] + [
        "z{}".format(j + 1) for j in range(n - k)
    ]


def _format_germ(f: MapGerm, names: Optional[List[str]] = None) -> str:
    return "[" + "; ".join(format_poly(c, names=names) for c in f.polys()) + "]"


def _class_dict(cls) -> dict:
    return {
        "family": cls.family,
        "label": cls.label,
        "mu": cls.mu,
        "params": list(cls.params),
        "sign": cls.sign,
    }


def _cmd_enumerate(args) -> int:
    listing = stable_singularities(args.n, args.q)
    if args.json:
        print(listing.to_json())
        return EXIT_OK
    parts = []
    for row in listing.rows:
        labels = " ".join(cls.label for cls in row.entries) if row.entries else "(none)"
        parts.append("k={}: {}".format(row.k, labels))
    print(" | ".join(parts))
    return EXIT_OK


def _cmd_trace(args) -> int:
    import numpy as np

    from . import geometry_engine as ge

    lam = _parse_lambda_numeric(args.lam)
    _usage(math.isfinite(args.step) and args.step > 0, "--step must be finite and positive")
    _usage(args.seed_density is None or args.seed_density >= 1,
           "--seed-density must be at least 1")
    manifold = _read(args.input, ge.manifold_from_json)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        branches = ge.trace_equidistant(
            manifold, lam, step=args.step, seed_density=args.seed_density
        )
        if not any(len(b) for b in branches):
            raise _Failure("DOMAIN", "no weakly parallel pair off the diagonal band "
                           "to trace", EXIT_MATH)
        branches = ge._detect_branches(branches)
    csv_path = args.out + ".csv"
    svg_path = args.out + ".svg"
    path = csv_path
    try:
        ge.write_branches_csv(branches, csv_path)
        path = svg_path
        ge.write_branches_svg(branches, svg_path)
    except OSError as exc:
        if path == svg_path:
            os.remove(csv_path)  # no CSV without its SVG
        raise _Failure("OUTPUT", "cannot write {}: {}".format(path, exc.strerror or exc), EXIT_INPUT)
    summaries = []
    for i, branch in enumerate(branches):
        labels = [a.label for a in branch.annotations]
        summaries.append(
            {
                "branch": i,
                "samples": len(branch),
                "status": branch.status,
                "cusps": labels.count("A2_cusp"),
                "nodes": labels.count("A1_node") // 2,
                "unresolved": labels.count("UNRESOLVED"),
            }
        )
    if args.json:
        print(
            json.dumps(
                {"branches": summaries, "csv": csv_path, "svg": svg_path},
                indent=2,
                sort_keys=True,
            )
        )
        return EXIT_OK
    print("wrote {} and {}".format(csv_path, svg_path))
    for s in summaries:
        print(
            "branch {}: {} samples, {}, cusps={}, nodes={}, unresolved={}".format(
                s["branch"], s["samples"], s["status"], s["cusps"], s["nodes"], s["unresolved"]
            )
        )
    return EXIT_OK


def _cmd_classify(args) -> int:
    cls = recognize(_read(args.germ, mapgerm_from_json))
    if args.json:
        print(json.dumps(_class_dict(cls), indent=2, sort_keys=True))
    else:
        print("{} mu={}".format(cls.label, cls.mu))
    return EXIT_OK


def _load_pair(args):
    """The graph pair and the --lambda that overrides its own, if given."""
    pair = _read(args.input, graphpair_from_json)
    lam = None if args.lam is None else _parse_lambda_exact(args.lam)
    _usage(lam is not None or pair.lam is not None,
           "no lambda: pass --lambda or store one in the pair")
    return pair, lam


def _cmd_contact(args) -> int:
    pair, lam = _load_pair(args)
    kappa = lambda_contact_from_pair(pair, lam)
    theta = reduce_to_theta(kappa, pair.n, pair.q)
    cls = recognize(theta)
    if args.json:
        blob = {
            "kappa": mapgerm_to_dict(kappa),
            "theta": mapgerm_to_dict(theta),
            "class": _class_dict(cls),
        }
        print(json.dumps(blob, indent=2, sort_keys=True))
        return EXIT_OK
    print("kappa: {}".format(_format_germ(kappa, _germ_names(pair.k, pair.n))))
    print("theta: {}".format(_format_germ(theta, _germ_names(theta.source_dim, theta.source_dim))))
    print("class: {} mu={}".format(cls.label, cls.mu))
    return EXIT_OK


def _cmd_ringdims(args) -> int:
    pair, lam = _load_pair(args)
    _usage(args.order is None or args.order >= 1,
           "truncation order must be >= 1, got {}".format(args.order))
    _usage(args.order is None or args.order <= MAX_TERM_DEGREE,
           "truncation order must be at most {}, got {}".format(MAX_TERM_DEGREE, args.order))
    dims = local_ring_dims(pair, lam, order=args.order)
    d_pi, d_kappa, d_theta = dims.dimensions
    if args.json:
        blob = {
            "pi": {"dimension": d_pi, "hilbert": list(dims.pi.hilbert)},
            "kappa": {"dimension": d_kappa, "hilbert": list(dims.kappa.hilbert)},
            "theta": {"dimension": d_theta, "hilbert": list(dims.theta.hilbert)},
        }
        print(json.dumps(blob, indent=2, sort_keys=True))
    else:
        print("dim(pi)={} dim(kappa)={} dim(theta)={}".format(d_pi, d_kappa, d_theta))
    return EXIT_OK


def _cmd_mu(args) -> int:
    value = ke_codimension(_read(args.germ, mapgerm_from_json))
    if value == INFINITE:
        raise InfiniteCodimensionError()
    if args.json:
        print(json.dumps({"mu": value}))
    else:
        print(value)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = _Parser(prog="equidistants", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("enumerate", help="stable singularity types for (n, q)")
    p.add_argument("--n", type=int, required=True, help="source dimension")
    p.add_argument("--q", type=int, required=True, help="ambient dimension")
    p.add_argument("--json", action="store_true", help="emit the full table as JSON")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("trace", help="trace an equidistant and write CSV + SVG")
    p.add_argument("--input", required=True, help="manifold JSON file")
    p.add_argument("--lambda", dest="lam", required=True, help="ratio along each chord")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--step", type=float, default=0.02, help="arclength step")
    p.add_argument("--seed-density", type=int, default=None,
                   help="pair-search grid density (default 128 for curves, "
                        "the scheme's own for surfaces)")
    p.add_argument("--json", action="store_true", help="emit branch summaries as JSON")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("classify", help="recognize a polynomial map-germ")
    p.add_argument("--germ", required=True, help="map-germ JSON file")
    p.add_argument("--json", action="store_true", help="emit the class as JSON")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("contact", help="contact map and class for a graph pair")
    p.add_argument("--input", required=True, help="graph-pair JSON file")
    p.add_argument("--lambda", dest="lam", default=None, help="exact rational ratio")
    p.add_argument("--json", action="store_true", help="emit germs and class as JSON")
    p.set_defaults(func=_cmd_contact)

    p = sub.add_parser("ringdims", help="local ring dimensions for a graph pair")
    p.add_argument("--input", required=True, help="graph-pair JSON file")
    p.add_argument("--lambda", dest="lam", default=None, help="exact rational ratio")
    p.add_argument("--order", type=int, default=None, help="truncation order")
    p.add_argument("--json", action="store_true", help="emit dimensions as JSON")
    p.set_defaults(func=_cmd_ringdims)

    p = sub.add_parser("mu", help="Ke-codimension of a polynomial map-germ")
    p.add_argument("--germ", required=True, help="map-germ JSON file")
    p.add_argument("--json", action="store_true", help="emit the value as JSON")
    p.set_defaults(func=_cmd_mu)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # one parser per process: its prog is fixed, and parsing keeps no state
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.  Every failure ends here
    as one stderr line, its code first."""
    argv = _join_lambda(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError as exc:
        # on devnull, the interpreter's final flush of stdout cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code, detail, status = "OUTPUT", "stdout closed: {}".format(exc.strerror or exc), EXIT_INPUT
    except _Failure as exc:
        code, detail, status = exc.code, str(exc), exc.status
    except InfiniteCodimensionError as exc:
        code, detail, status = exc.code, "germ has infinite Ke-codimension", EXIT_MATH
    except (DomainError, NotNiceDimensionsError, UnrecognizedGermError,
            DegenerateLambdaError) as exc:
        code, detail, status = exc.code, str(exc), EXIT_MATH
    except FloatingPointError as exc:
        code, detail, status = "DOMAIN", str(exc), EXIT_MATH
    except ArithmeticError as exc:
        code, detail, status = "UNRECOGNIZED", str(exc), EXIT_MATH
    sys.stderr.write("{} {}\n".format(code, detail))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
