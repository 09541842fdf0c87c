"""Command-line front end.

Subcommands bind the exact and numerical engines to files and stdout:

    enumerate   stable singularity types for a dimension pair (n, q)
    trace       trace an equidistant of a curve and write CSV + SVG
    classify    recognize a polynomial map-germ and print its class
    contact     contact map, reduced germ, and class for a graph pair
    ringdims    the three local ring dimensions attached to a graph pair
    mu          Ke-codimension of a polynomial map-germ

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 mathematical
error.  Every non-zero exit writes one machine-readable line to stderr whose
first token names the failure (USAGE, INPUT_PARSE, NOT_NICE_DIMENSIONS,
DOMAIN, DEGENERATE_LAMBDA, INFINITE, UNRECOGNIZED, REGULAR).

Lambda values are exact rational strings ("1/2", "3") for the algebra
commands; ``trace`` also accepts decimals since its engine is numerical,
but not ``nan`` or ``inf`` (USAGE).  ``trace`` reports DOMAIN when lambda
sends a traced point outside the finite floats, when no pair-location
scheme exists for the manifold's (n, q), or when the manifold is not
immersed.  A germ file with a negative order or a dimension below 1 is
INPUT_PARSE.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional

from .contact_lab import (
    GraphPair,
    graphpair_from_json,
    lambda_contact_from_pair,
    local_ring_dims,
    reduce_to_theta,
)
from .geometry_engine import (
    detect_singularities,
    manifold_from_json,
    trace_equidistant,
    write_branches_csv,
    write_branches_svg,
)
from .germ_algebra import (
    INFINITE,
    REGULAR,
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


def _fail(code: str, detail: str, exit_code: int) -> int:
    sys.stderr.write("{} {}\n".format(code, detail))
    return exit_code


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_lambda_exact(text: str) -> Fraction:
    """Parse an exact rational lambda ("1/2", "-3/4", "2")."""
    body = text.strip()
    if "." in body or "e" in body.lower():
        raise ValueError("lambda must be an exact rational such as 1/2")
    try:
        lam = Fraction(body)
    except (ValueError, ZeroDivisionError):
        raise ValueError("lambda must be an exact rational such as 1/2")
    return lam


def _parse_lambda_numeric(text: str) -> float:
    """Parse a finite lambda as a rational string or a decimal (trace only)."""
    body = text.strip()
    try:
        lam = float(Fraction(body))
    except (ValueError, ZeroDivisionError, OverflowError):
        try:
            lam = float(body)
        except ValueError:
            raise ValueError("lambda must be a rational or decimal number")
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    return lam


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
    try:
        listing = stable_singularities(args.n, args.q)
    except NotNiceDimensionsError as exc:
        return _fail("NOT_NICE_DIMENSIONS", str(exc), EXIT_MATH)
    except DomainError as exc:
        return _fail("DOMAIN", str(exc), EXIT_MATH)
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
    try:
        lam = _parse_lambda_numeric(args.lam)
    except ValueError as exc:
        return _fail("USAGE", str(exc), EXIT_USAGE)
    try:
        payload = _read_text(args.input)
    except OSError as exc:
        return _fail("INPUT_PARSE", "cannot read {}: {}".format(args.input, exc), EXIT_INPUT)
    try:
        manifold = manifold_from_json(payload)
    except ValueError as exc:
        return _fail("INPUT_PARSE", str(exc), EXIT_INPUT)
    try:
        branches = trace_equidistant(
            manifold, lam, step=args.step, seed_density=args.seed_density
        )
    except DomainError as exc:
        return _fail("DOMAIN", str(exc), EXIT_MATH)
    except ValueError as exc:
        return _fail("DEGENERATE_LAMBDA", str(exc), EXIT_MATH)
    branches = [detect_singularities(b) for b in branches]
    csv_path = args.out + ".csv"
    svg_path = args.out + ".svg"
    write_branches_csv(branches, csv_path)
    write_branches_svg(branches, svg_path)
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


def _load_germ(path: str):
    try:
        payload = _read_text(path)
    except OSError as exc:
        return None, _fail("INPUT_PARSE", "cannot read {}: {}".format(path, exc), EXIT_INPUT)
    try:
        return mapgerm_from_json(payload), None
    except ValueError as exc:
        return None, _fail("INPUT_PARSE", str(exc), EXIT_INPUT)


def _cmd_classify(args) -> int:
    germ, err = _load_germ(args.germ)
    if err is not None:
        return err
    try:
        cls = recognize(germ)
    except ArithmeticError:
        return _fail(INFINITE, "germ has infinite Ke-codimension", EXIT_MATH)
    except UnrecognizedGermError as exc:
        return _fail("UNRECOGNIZED", str(exc), EXIT_MATH)
    if args.json:
        print(json.dumps(_class_dict(cls), indent=2, sort_keys=True))
    else:
        print("{} mu={}".format(cls.label, cls.mu))
    return EXIT_OK


def _load_pair(args):
    try:
        payload = _read_text(args.input)
    except OSError as exc:
        return None, None, _fail(
            "INPUT_PARSE", "cannot read {}: {}".format(args.input, exc), EXIT_INPUT
        )
    try:
        pair = graphpair_from_json(payload)
    except ValueError as exc:
        return None, None, _fail("INPUT_PARSE", str(exc), EXIT_INPUT)
    lam = None
    if args.lam is not None:
        try:
            lam = _parse_lambda_exact(args.lam)
        except ValueError as exc:
            return None, None, _fail("USAGE", str(exc), EXIT_USAGE)
    if lam is None and pair.lam is None:
        return None, None, _fail(
            "USAGE", "no lambda: pass --lambda or store one in the pair", EXIT_USAGE
        )
    if lam in (0, 1) or (lam is None and pair.lam in (0, 1)):
        return None, None, _fail(
            "DEGENERATE_LAMBDA", "lambda 0 and 1 have no reflection", EXIT_MATH
        )
    return pair, lam, None


def _cmd_contact(args) -> int:
    pair, lam, err = _load_pair(args)
    if err is not None:
        return err
    kappa = lambda_contact_from_pair(pair, lam)
    theta = reduce_to_theta(kappa, pair.n, pair.q)
    try:
        cls = recognize(kappa)
    except ArithmeticError:
        return _fail(INFINITE, "contact germ has infinite Ke-codimension", EXIT_MATH)
    except UnrecognizedGermError as exc:
        return _fail("UNRECOGNIZED", str(exc), EXIT_MATH)
    if args.json:
        blob = {
            "kappa": mapgerm_to_dict(kappa),
            "theta": REGULAR if theta == REGULAR else mapgerm_to_dict(theta),
            "class": _class_dict(cls),
        }
        print(json.dumps(blob, indent=2, sort_keys=True))
        return EXIT_OK
    print("kappa: {}".format(_format_germ(kappa, _germ_names(pair.k, pair.n))))
    if theta == REGULAR:
        print("theta: {}".format(REGULAR))
    else:
        print("theta: {}".format(_format_germ(theta, _germ_names(theta.source_dim, theta.source_dim))))
    print("class: {} mu={}".format(cls.label, cls.mu))
    return EXIT_OK


def _cmd_ringdims(args) -> int:
    pair, lam, err = _load_pair(args)
    if err is not None:
        return err
    try:
        dims = local_ring_dims(pair, lam, order=args.order)
    except ValueError as exc:
        if "transversal" in str(exc):
            return _fail(REGULAR, str(exc), EXIT_MATH)
        raise
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
    germ, err = _load_germ(args.germ)
    if err is not None:
        return err
    value = ke_codimension(germ)
    if value == INFINITE:
        return _fail(INFINITE, "germ has infinite Ke-codimension", EXIT_MATH)
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
    p.add_argument("--seed-density", type=int, default=128, help="seed grid density")
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


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
