"""Catalogue of contact-simple germ classes and recognition of a germ's class.

The catalogue holds fourteen families (A, D, E for one target dimension;
C, Ctilde, F, Gstar, H for plane pairs; S, T, Ttilde, U, W, Z for space
pairs).  One table, `_TABLE`, holds each family's shape: its intrinsic
variables, its target components, whether the symbol splits into +/-
variants, its admissible subscripts and whether a row pairs two of them.
Validation, the label grammar, suspension and the catalogue rows for each
(k, l) are all read from it.  Class labels follow a compact grammar: "A3",
"D4+", "C2,3-", "Ctilde6", "Gstar10", "Ttilde7".  Every mu value is
computed from the stored normal form by the local algebra engine;
subscripts are never trusted as codimensions.

Recognition matches a rank-0 germ against the catalogue using computed
invariants only: contact codimension, the Hilbert functions of the ideal
quotient and of the contact tangent quotient, and the real classification
of the pencil of quadratic parts (for two-component germs) or of the
cubic part restricted to the Hessian kernel (for functions).  In three
variables the repeated roots of the pencil's determinant cubic are read
off its Hessian covariant.

A germ with a regular part is reduced to rank 0 first, from its 7-jet
when the germ's order is above 7.  The contact ladder is then run on
rungs 4..6 only, and the whole germ is reduced, with the full ladder,
only when those rungs find no zero of the Hilbert function.  This cannot
change a label: the reduction commutes with truncation, as the pivot
variables it solves for have no constant term; rung D reads only the
(D+1)-jet of the reduced germ; every ladder cap is at least 6, so the full
ladder starts with the same three rungs; and the pencil, the cubic and the
ideal Hilbert prefix read at most the 3-jet.  Graph-pair contact
germs arrive at order 12 with long rational coefficients, and nearly all
of them certify on the 7-jet.

Two normal forms are carried in corrected shape because the printed
variants fail the catalogue's own finiteness invariant; each carries a
`correction_note` recording the printed form and the defect:
  * Ttilde7 printed as (y1^2+y2^2, y2^2+y3^2) has codimension 5 and is
    equivalent to S5; the corrected representative (obtained from T7 by
    the complex substitution y2 -> y2+i*y3, y3 -> y2-i*y3) is
    (y1^2+y2^3-3*y2*y3^2, y2^2+y3^2), with codimension 7.
  * W8 printed as (y1^2+y2^3, y2^2+y1*y3) vanishes on the whole y3-axis
    (non-isolated zero, infinite codimension); the classical form
    (y1^2+y3^3, y2^2+y1*y3) has codimension 8.
"""

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .germ_algebra import (
    INFINITE,
    REGULAR,
    InfiniteCodimensionError,
    MapGerm,
    _row_reduce,
    corank,
    hilbert_prefix,
    ke_codimension,
    ke_quotient_hilbert,
    matrix_rank,
    p_compose,
    rank0_reduce,
)

PLUS = "plus"
MINUS = "minus"
UNDETERMINED = "undetermined"
NOT_APPLICABLE = "not_applicable"

NOT_IN_TABLES = "NOT_IN_TABLES"
MU_EXCEEDS_Q = "MU_EXCEEDS_Q"


@dataclass(frozen=True)
class _Family:
    """The shape of one catalogue family.  `subscripts` lists the admissible
    (first) subscripts in increasing order; a `paired` family's rows carry
    a second subscript l >= k.  A `signed` symbol has +/- variants in the
    tables; elsewhere a +/- inside the formula does not split the symbol."""

    intrinsic: int
    components: int
    subscripts: Sequence[int]
    signed: bool = False
    paired: bool = False

    def admits(self, k: int) -> bool:
        """Whether the normal form lives in k variables: function germs
        suspend by adding squares, pair germs do not."""
        return k == self.intrinsic or (self.components == 1
                                       and k > self.intrinsic)

    def has(self, params: Tuple[int, ...]) -> bool:
        """Whether params name a row of this family."""
        if self.paired:
            return (len(params) == 2 and params[0] in self.subscripts
                    and params[1] >= params[0])
        return len(params) == 1 and params[0] in self.subscripts

    def rows(self, bound: int) -> List[Tuple[int, ...]]:
        """Parameter tuples in table order whose subscripts sum to at most
        bound."""
        out = []
        for k in self.subscripts:
            if k > bound:
                break
            if self.paired:
                out.extend((k, l) for l in range(k, bound - k + 1))
            else:
                out.append((k,))
        return out


# open-ended subscripts are ranges, so a membership test stays O(1)
_OPEN = sys.maxsize
_TABLE = {
    "A": _Family(1, 1, range(1, _OPEN)),
    "D": _Family(2, 1, range(4, _OPEN), signed=True),
    "E": _Family(2, 1, (6, 7, 8)),
    "C": _Family(2, 2, range(2, _OPEN), signed=True, paired=True),
    "Ctilde": _Family(2, 2, range(6, _OPEN, 2)),
    "F": _Family(2, 2, range(7, _OPEN)),
    "Gstar": _Family(2, 2, (10,)),
    "H": _Family(2, 2, range(9, _OPEN), signed=True),
    "S": _Family(3, 2, range(5, _OPEN)),
    "T": _Family(3, 2, (7, 8, 9)),
    "Ttilde": _Family(3, 2, (7,)),
    "U": _Family(3, 2, (7, 8, 9)),
    "W": _Family(3, 2, (8, 9)),
    "Z": _Family(3, 2, (9, 10)),
}

FAMILIES = tuple(_TABLE)

# printed symbols that the enumeration lists differently from the grammar
PRINTED_AS = {"Ctilde6": "C6", "Ctilde8": "C8", "Ctilde10": "C10", "Ctilde12": "C12"}

CORRECTION_NOTES = {
    ("Ttilde", (7,)): (
        "printed form (y1^2+y2^2, y2^2+y3^2) has contact codimension 5 and "
        "is equivalent to S5; corrected to (y1^2+y2^3-3*y2*y3^2, y2^2+y3^2), "
        "codimension 7"
    ),
    ("W", (8,)): (
        "printed form (y1^2+y2^3, y2^2+y1*y3) vanishes on the y3-axis and "
        "has infinite contact codimension; corrected to the classical "
        "(y1^2+y3^3, y2^2+y1*y3), codimension 8"
    ),
}


class DomainError(ValueError):
    """Arguments outside the n < q <= 2n domain."""
    code = "DOMAIN"


class NotNiceDimensionsError(ValueError):
    """The dimension pair admits no finite stable classification here."""
    code = "NOT_NICE_DIMENSIONS"


class UnrecognizedGermError(ValueError):
    """No catalogue signature matches the germ."""
    code = "UNRECOGNIZED"


@dataclass(frozen=True)
class GermClass:
    """One row of the catalogue, identified by (family, params, sign)."""

    family: str
    params: Tuple[int, ...]
    sign: str = NOT_APPLICABLE

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        fam = _TABLE.get(self.family)
        if fam is None:
            raise ValueError(f"unknown family {self.family!r}")
        if not fam.has(self.params):
            raise ValueError(f"no catalogue row {self.family}{self.params}")
        if fam.signed:
            allowed = (PLUS, MINUS, UNDETERMINED)
        else:
            allowed = (NOT_APPLICABLE,)
        if self.sign not in allowed:
            raise ValueError(
                f"sign {self.sign!r} not allowed for family {self.family}"
            )

    @property
    def intrinsic_source(self) -> int:
        return _TABLE[self.family].intrinsic

    @property
    def target_dim(self) -> int:
        return _TABLE[self.family].components

    @property
    def mu(self) -> Union[int, str]:
        return _computed_mu(self.family, self.params, self.sign)

    @property
    def label(self) -> str:
        suffix = {PLUS: "+", MINUS: "-"}.get(self.sign, "")
        return self.family + ",".join(str(p) for p in self.params) + suffix

    @property
    def correction_note(self) -> Optional[str]:
        return CORRECTION_NOTES.get((self.family, self.params))

    def __str__(self) -> str:
        return self.label


def _symbol(family: str, params: Tuple[int, ...]) -> GermClass:
    """The class of a symbol whose +/- variant is left open."""
    sign = UNDETERMINED if _TABLE[family].signed else NOT_APPLICABLE
    return GermClass(family, params, sign)


_LABEL_RE = re.compile(
    "^(" + "|".join(FAMILIES) + r")(\d+)(?:,(\d+))?([+-])?$"
)


def parse_label(text: str) -> GermClass:
    """Inverse of GermClass.label, e.g. 'D4+', 'C2,3-', 'Ttilde7'."""
    m = _LABEL_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse germ class label {text!r}")
    family, p1, p2, signmark = m.groups()
    params = (int(p1),) if p2 is None else (int(p1), int(p2))
    if signmark is None:
        return _symbol(family, params)
    return GermClass(family, params, PLUS if signmark == "+" else MINUS)


# ------------------------------------------------------------- normal forms


def _table_polys(family: str, params: Tuple[int, ...], sign: str):
    """Component polynomials of the normal form in intrinsic variables."""
    s = 1 if sign != MINUS else -1
    if family == "A":
        mu = params[0]
        return [{(mu + 1,): Fraction(1)}]
    if family == "D":
        mu = params[0]
        return [{(2, 1): Fraction(1), (0, mu - 1): Fraction(s)}]
    if family == "E":
        mu = params[0]
        forms = {6: {(3, 0): 1, (0, 4): 1},
                 7: {(3, 0): 1, (1, 3): 1},
                 8: {(3, 0): 1, (0, 5): 1}}
        return [{k: Fraction(v) for k, v in forms[mu].items()}]
    if family == "C":
        k, l = params
        return [{(1, 1): Fraction(1)},
                {(k, 0): Fraction(1), (0, l): Fraction(s)}]
    if family == "Ctilde":
        k = params[0] // 2
        return [{(2, 0): Fraction(1), (0, 2): Fraction(1)},
                {(0, k): Fraction(1)}]
    if family == "F":
        mu = params[0]
        if mu % 2 == 1:
            m = (mu - 1) // 2
            second = {(0, m): Fraction(1)}
        else:
            m = (mu - 4) // 2
            second = {(1, m): Fraction(1)}
        return [{(2, 0): Fraction(1), (0, 3): Fraction(1)}, second]
    if family == "Gstar":
        return [{(2, 0): Fraction(1)}, {(0, 4): Fraction(1)}]
    if family == "H":
        m = params[0] - 5
        return [{(2, 0): Fraction(1), (0, m): Fraction(s)},
                {(1, 2): Fraction(1)}]
    if family == "S":
        mu = params[0]
        first = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(s)}
        first[(0, 0, mu - 3)] = first.get((0, 0, mu - 3), Fraction(0)) + 1
        return [first, {(0, 1, 1): Fraction(1)}]
    if family == "T":
        mu = params[0]
        first = {(2, 0, 0): Fraction(1), (0, 3, 0): Fraction(1),
                 (0, 0, mu - 4): Fraction(s)}
        return [first, {(0, 1, 1): Fraction(1)}]
    if family == "Ttilde":
        return [{(2, 0, 0): Fraction(1), (0, 3, 0): Fraction(1),
                 (0, 1, 2): Fraction(-3)},
                {(0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}]
    if family == "U":
        mu = params[0]
        if mu == 7:
            return [{(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(1)},
                    {(1, 1, 0): Fraction(1), (0, 0, 3): Fraction(1)}]
        if mu == 8:
            return [{(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(1),
                     (0, 0, 3): Fraction(1)},
                    {(1, 1, 0): Fraction(1)}]
        return [{(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(1)},
                {(1, 1, 0): Fraction(1), (0, 0, 4): Fraction(1)}]
    if family == "W":
        if params[0] == 8:
            return [{(2, 0, 0): Fraction(1), (0, 0, 3): Fraction(1)},
                    {(0, 2, 0): Fraction(1), (1, 0, 1): Fraction(1)}]
        return [{(2, 0, 0): Fraction(1), (0, 1, 2): Fraction(1)},
                {(0, 2, 0): Fraction(1), (1, 0, 1): Fraction(1)}]
    # Z: GermClass admits no other family
    if params[0] == 9:
        return [{(2, 0, 0): Fraction(1), (0, 0, 3): Fraction(1)},
                {(0, 2, 0): Fraction(1), (0, 0, 3): Fraction(1)}]
    return [{(2, 0, 0): Fraction(1), (0, 1, 2): Fraction(1)},
            {(0, 2, 0): Fraction(1), (0, 0, 3): Fraction(1)}]


def normal_form(cls: GermClass, k: int) -> MapGerm:
    """The table polynomial in k source variables, quadratically padded
    in the extra variables when the target is one-dimensional."""
    i = cls.intrinsic_source
    if not _TABLE[cls.family].admits(k):
        raise ValueError(
            f"{cls.label} has no rank-0 normal form in {k} variables: it "
            f"needs {i}, and only function germs suspend to more"
        )
    polys = _table_polys(cls.family, cls.params, cls.sign)
    if k == i:
        return MapGerm.from_polys(polys, k)
    padded = {exps + (0,) * (k - i): c for exps, c in polys[0].items()}
    for j in range(i, k):
        e = [0] * k
        e[j] = 2
        padded[tuple(e)] = padded.get(tuple(e), Fraction(0)) + 1
    return MapGerm.from_polys([padded], k)


@lru_cache(maxsize=None)
def _computed_mu(family: str, params: Tuple[int, ...], sign: str):
    cls = GermClass(family, params, sign)
    return ke_codimension(normal_form(cls, cls.intrinsic_source))


# --------------------------------------------------------------- catalogue


class CatalogueRow(list):
    """A list of GermClass entries with an emptiness reason tag."""

    def __init__(self, entries=(), reason: Optional[str] = None):
        super().__init__(entries)
        self.reason = reason


def catalogue(k: int, l: int, mu_max: int) -> CatalogueRow:
    """All catalogue classes realizable as rank-0 germs of k variables
    into l, with computed codimension at most mu_max."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be positive")
    families = [(name, fam) for name, fam in _TABLE.items()
                if fam.components == l and fam.admits(k)]
    if not families:
        return CatalogueRow((), NOT_IN_TABLES)
    entries = [GermClass(name, params, sign)
               for name, fam in families
               for params in fam.rows(mu_max)
               for sign in ((PLUS, MINUS) if fam.signed else (NOT_APPLICABLE,))]
    kept = [c for c in entries if c.mu != INFINITE and c.mu <= mu_max]
    if not kept:
        return CatalogueRow((), MU_EXCEEDS_Q)
    return CatalogueRow(kept)


# ------------------------------------------------------- stable enumeration


def is_nice_dimensions(n: int, q: int) -> bool:
    """Whether every submanifold pair in these dimensions admits a stable
    midpoint-projection classification."""
    if q <= n or q > 2 * n:
        raise DomainError(f"need n < q <= 2n, got n={n}, q={q}")
    if q == 2 * n:
        return n <= 4
    if q == 2 * n - 1:
        return n <= 4
    if q == 2 * n - 2:
        return n <= 3
    return q <= 6


# Published result lists omit family U everywhere even when its computed
# codimension fits the bound (U7 has codimension exactly 7, which the
# mu <= q filter would admit at (n,q)=(4,7)).  Rows reproduce the published
# lists; the dropped classes are recorded with reasons rather than silently
# re-added or silently ignored.
_PUBLICATION_EXCLUDED_FAMILIES = {"U"}


@dataclass(frozen=True)
class StableRow:
    k: int
    l: int
    entries: Tuple[GermClass, ...]
    reason: Optional[str]
    excluded: Tuple[Tuple[GermClass, str], ...] = ()


@dataclass(frozen=True)
class StableList:
    n: int
    q: int
    rows: Tuple[StableRow, ...]

    @property
    def interpreted(self) -> Dict[str, str]:
        """Grammar labels that the published lists print differently."""
        out = {}
        for row in self.rows:
            for cls in row.entries:
                if cls.label in PRINTED_AS:
                    out[cls.label] = PRINTED_AS[cls.label]
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "rows": [
                {
                    "k": row.k,
                    "l": row.l,
                    "entries": [c.label for c in row.entries],
                    "reason": row.reason,
                    "excluded": [
                        {"label": c.label, "reason": why}
                        for c, why in row.excluded
                    ],
                }
                for row in self.rows
            ],
            "interpreted": self.interpreted,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"M^{self.n} in R^{self.q}"]
        for row in self.rows:
            if row.entries:
                body = " ".join(c.label for c in row.entries)
            else:
                body = f"(none: {row.reason})"
            lines.append(f"  k={row.k} (l={row.l}): {body}")
            for cls, why in row.excluded:
                lines.append(f"    excluded {cls.label}: {why}")
        notes = self.interpreted
        for label, printed in sorted(notes.items()):
            lines.append(f"  note: {label} is printed as {printed} in the published list")
        return "\n".join(lines)


def stable_singularities(n: int, q: int) -> StableList:
    """Admissible germ classes per parallelism degree k, as published."""
    if not is_nice_dimensions(n, q):
        raise NotNiceDimensionsError(
            f"(n,q)=({n},{q}) is outside the nice range; no finite stable list"
        )
    rows = []
    for k in range(max(1, 2 * n - q + 1), n + 1):
        l = k - (2 * n - q)
        row = catalogue(k, l, q)
        kept, dropped = [], []
        for cls in row:
            if cls.family in _PUBLICATION_EXCLUDED_FAMILIES:
                dropped.append((cls, (
                    f"computed codimension {cls.mu} <= {q} admits it, but the "
                    "published result lists omit this family; excluded for "
                    "publication fidelity"
                )))
            else:
                kept.append(cls)
        rows.append(StableRow(k, l, tuple(kept), row.reason, tuple(dropped)))
    return StableList(n, q, tuple(rows))


def format_stable_table(lists) -> str:
    """Aligned two-column text table over several dimension pairs."""
    left, right = [], []
    for sl in lists:
        left.append(f"M^{sl.n} in R^{sl.q}")
        toks = []
        for row in sl.rows:
            toks.extend(c.label for c in row.entries)
        right.append(" ".join(toks) if toks else "(none)")
    width = max(len(s) for s in left) if left else 0
    return "\n".join(f"{a:<{width}}  |  {b}" for a, b in zip(left, right))


# -------------------------------------------------------------- recognition
#
# Matching works on computed invariants alone.  Candidate signatures are
# derived from the catalogue's own normal forms (all sign variants of the
# formula, not only the symbol-level ones), so the tables never appear as
# hand-entered constants here.


def _quadratic_matrix(poly: dict, s: int):
    """Symmetric matrix M with q(y) = y^T M y for the degree-2 part."""
    m = [[Fraction(0)] * s for _ in range(s)]
    for exps, c in poly.items():
        if sum(exps) != 2:
            continue
        idx = [i for i, e in enumerate(exps) for _ in range(e)]
        i, j = idx
        if i == j:
            m[i][i] += c
        else:
            m[i][j] += Fraction(c, 2)
            m[j][i] += Fraction(c, 2)
    return m


def _det3(m) -> Fraction:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _e2(m) -> Fraction:
    """Sum of the 2x2 principal minors of a symmetric 3x3 matrix: the
    product of the two nonzero eigenvalues when the rank is exactly 2."""
    return (m[0][0] * m[1][1] - m[0][1] * m[1][0]
            + m[0][0] * m[2][2] - m[0][2] * m[2][0]
            + m[1][1] * m[2][2] - m[1][2] * m[2][1])


def _member(q1, q2, a: Fraction, b: Fraction):
    s = len(q1)
    return [[a * q1[i][j] + b * q2[i][j] for j in range(s)] for i in range(s)]


def _member_kind(m) -> str:
    """'r2ell', 'r2hyp', 'r1' or 'r0' for a singular symmetric 3x3 member:
    the pencil's members are taken at roots of det(a*Q1 + b*Q2)."""
    r = matrix_rank(m)
    if r == 0:
        return "r0"
    if r == 1:
        return "r1"
    e2 = _e2(m)
    return "r2ell" if e2 > 0 else "r2hyp"


def _cubic_coeffs(q1, q2):
    """Binary cubic det(a*Q1 + b*Q2) as coefficients of a^3..b^3."""
    vals = {}
    for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):
        vals[(a, b)] = _det3(_member(q1, q2, Fraction(a), Fraction(b)))
    c0 = vals[(1, 0)]
    c3 = vals[(0, 1)]
    # f(1,1) = c0+c1+c2+c3 and f(1,-1) = c0-c1+c2-c3
    s_plus = vals[(1, 1)] - c0 - c3
    s_minus = vals[(1, -1)] - c0 + c3
    c2 = (s_plus + s_minus) / 2
    c1 = s_plus - c2
    return (c0, c1, c2, c3)


def _binary_cubic_discriminant(c):
    a0, a1, a2, a3 = c
    return (a1 * a1 * a2 * a2 - 4 * a0 * a2 ** 3 - 4 * a1 ** 3 * a3
            + 18 * a0 * a1 * a2 * a3 - 27 * a0 * a0 * a3 * a3)


def _cubic_root_structure(c):
    """('simple', None, None) | ('double', root_dir, other_dir) |
    ('triple', root_dir, None) for a nonzero binary cubic with coefficients
    c of a^3..b^3; directions are (a, b) pairs.

    Repeated roots are read off the Hessian covariant H/4 = A a^2 + B ab
    + C b^2: it vanishes identically exactly at a triple root, and at a
    double root it is a multiple of the square of that root's linear form."""
    if _binary_cubic_discriminant(c) != 0:
        return ("simple", None, None)
    c0, c1, c2, c3 = c
    A = 3 * c0 * c2 - c1 * c1
    B = 9 * c0 * c3 - c1 * c2
    C = 3 * c1 * c3 - c2 * c2
    if A == B == C == 0:
        return ("triple", (-c1, 3 * c0) if c0 else (1, 0), None)
    if A == 0:
        return ("double", (1, 0), (-c3, c2))
    x0 = Fraction(-B, 2 * A)
    # the roots a/b sum to -c1/c0 when (1, 0) is not one of them
    other = (Fraction(-c1, c0) - 2 * x0, 1) if c0 else (1, 0)
    return ("double", (x0, 1), other)


def _pencil_profile(f: MapGerm) -> str:
    """Discrete real invariant of the pencil of quadratic parts of a germ
    in 2 or 3 variables."""
    s = f.source_dim
    q1 = _quadratic_matrix(f.components[0], s)
    q2 = _quadratic_matrix(f.components[1], s)
    flat1 = [q1[i][j] for i in range(s) for j in range(i, s)]
    flat2 = [q2[i][j] for i in range(s) for j in range(i, s)]
    dim_w = matrix_rank([flat1, flat2])
    if s == 2:
        if dim_w == 0:
            return "W0"
        if dim_w == 1:
            m = q1 if any(flat1) else q2
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            if matrix_rank(m) == 1:
                return "W1:rank1"
            return "W1:def" if det > 0 else "W1:indef"
        def det2(m):
            return m[0][0] * m[1][1] - m[0][1] * m[1][0]

        d0 = det2(q1)
        d3 = det2(q2)
        d1 = det2(_member(q1, q2, Fraction(1), Fraction(1))) - d0 - d3
        disc = d1 * d1 - 4 * d0 * d3
        if disc > 0:
            return "W2:roots2"
        if disc < 0:
            return "W2:roots0"
        return "W2:double"
    c = _cubic_coeffs(q1, q2)
    if all(x == 0 for x in c):
        return "cub:zero"
    kind, root, other = _cubic_root_structure(c)
    if kind == "simple":
        return "cub:simple"
    member = _member_kind(_member(q1, q2, root[0], root[1]))
    if kind == "triple":
        return f"cub:triple:{member}"
    return (f"cub:dbl:{member}:"
            + _member_kind(_member(q1, q2, other[0], other[1])))


# Component-ideal Hilbert prefixes are compared only at low degree.  The
# only catalogue pairs that the Ke-Hilbert function and the pencil profile
# leave together are F9/H9 and F10/H10, and each first differs in degree 3.
_EIH_DEPTH = 3


def _signature(f: MapGerm, keh=None):
    if keh is None:
        keh = ke_quotient_hilbert(f)
    eih = hilbert_prefix(f, _EIH_DEPTH)
    prof = _pencil_profile(f) if f.target_dim == 2 else ""
    return keh, eih, prof


def _signatures_match(sig_a, sig_b) -> bool:
    keh_a, eih_a, prof_a = sig_a
    keh_b, eih_b, prof_b = sig_b
    if keh_a != keh_b or prof_a != prof_b:
        return False
    span = min(len(eih_a), len(eih_b))
    return eih_a[:span] == eih_b[:span]


@lru_cache(maxsize=None)
def _candidate_signatures(family: str, params: Tuple[int, ...], sign: str):
    """Signatures of every concrete sign variant of one catalogue entry.  A
    +/- inside an unsigned family's formula does not split the symbol, but
    both real forms must be matchable."""
    signs = (sign,) if sign in (PLUS, MINUS) else (PLUS, MINUS)
    return tuple(
        _signature(MapGerm.from_polys(_table_polys(family, params, s),
                                      _TABLE[family].intrinsic))
        for s in signs)


def _restricted_cubic(f: MapGerm):
    """Binary cubic of the degree-3 part restricted to the Hessian kernel
    of a one-component germ with Hessian corank 2."""
    s = f.source_dim
    rows = _quadratic_matrix(f.components[0], s)
    # rational kernel basis from the reduced rows
    pivots = _row_reduce(rows, s)
    basis = []
    for j in range(s):
        if j in pivots:
            continue
        v = [Fraction(0)] * s
        v[j] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -rows[r][j]
        basis.append(v)
    cubic = {e: c for e, c in f.components[0].items() if sum(e) == 3}
    args = []
    for i in range(s):
        args.append({
            (1, 0): basis[0][i],
            (0, 1): basis[1][i],
        })
    restricted = p_compose(cubic, args, 2, 3)
    out = [Fraction(0)] * 4
    for exps, c in restricted.items():
        if sum(exps) == 3:
            out[exps[1]] += c
    return tuple(out)


# The jet a germ with a regular part is reduced from first: rungs 4..6 of
# the contact ladder read at most the 7-jet of the reduced germ.
_JET_ORDER = 7


def _rank0(f: MapGerm) -> MapGerm:
    reduced = rank0_reduce(f)
    if reduced is REGULAR:
        raise UnrecognizedGermError("germ is regular; no singular class")
    if reduced.source_dim == 0:
        # every variable is solved for: f is an immersion
        raise UnrecognizedGermError("germ is an immersion; no singular class")
    return reduced


def _reduce(f: MapGerm):
    """The rank-0 reduction of f and its Ke-Hilbert function, from the
    7-jet of f when ladder rungs 4..6 certify it, else from f itself."""
    if f.order > _JET_ORDER:
        jet = _rank0(MapGerm.from_polys(f.polys(), f.source_dim, _JET_ORDER))
        keh = ke_quotient_hilbert(jet, order=_JET_ORDER - 3)
        if keh != INFINITE:
            return jet, keh
    reduced = _rank0(f)
    return reduced, ke_quotient_hilbert(reduced)


def recognize(f: MapGerm) -> GermClass:
    """Catalogue class of a finite-codimension germ.

    A germ with a regular part is reduced to rank 0 first.  Above order 7
    the 7-jet is reduced and its contact ladder run on rungs 4..6 only;
    the whole germ is reduced, and the full ladder run, only when those
    rungs find no zero of h.  The labels are those of the whole germ:
      * `rank0_reduce` commutes with truncation: the pivot variables it
        solves for are series without constant term, so their d-jets and
        the reduced germ's read only the d-jet of f;
      * rung D reads only the generators' terms of degree <= D, the
        (D+1)-jet of the reduced germ, so rungs 4..6 read its 7-jet;
      * every cap is >= 6, so the full ladder's first rungs are the same
        4, 5, 6, and a zero of h found there is the one it returns;
      * the rest of recognition reads at most the 3-jet.
    """
    if corank(f) < f.source_dim:
        f, keh = _reduce(f)
    else:
        keh = ke_quotient_hilbert(f)
    if keh == INFINITE:
        raise InfiniteCodimensionError()
    mu = sum(keh)
    t = f.target_dim
    if t == 1:
        if mu == 1:
            return GermClass("A", (1,))
        hessian_corank = keh[1] if len(keh) > 1 else 0
        if hessian_corank == 1:
            return GermClass("A", (mu,))
        if hessian_corank != 2:
            raise UnrecognizedGermError(
                f"function-germ with Hessian corank {hessian_corank} is "
                "outside the catalogue"
            )
        for cls in catalogue(2, 1, mu):
            # a function normal form's Hessian corank is its variable count
            if cls.intrinsic_source != hessian_corank or cls.mu != mu:
                continue
            for sig in _candidate_signatures(cls.family, cls.params, cls.sign):
                if sig[0] == keh:
                    if cls.family == "D" and cls.params[0] == 4:
                        disc = _binary_cubic_discriminant(_restricted_cubic(f))
                        sign = MINUS if disc > 0 else PLUS
                        return GermClass("D", (4,), sign)
                    return _symbol(cls.family, cls.params)
        raise UnrecognizedGermError(
            f"no one-component catalogue signature matches (mu={mu})"
        )
    if t == 2:
        s = f.source_dim
        if s not in (2, 3):
            raise UnrecognizedGermError(
                f"two-component germs are catalogued only in 2 or 3 "
                f"variables, got {s}"
            )
        sig = _signature(f, keh)
        matches = []
        for cls in catalogue(s, 2, mu):
            if cls.mu != mu:
                continue
            for cand in _candidate_signatures(cls.family, cls.params, cls.sign):
                if _signatures_match(sig, cand):
                    matches.append(cls)
                    break
        if not matches:
            raise UnrecognizedGermError(
                f"no two-component catalogue signature matches (mu={mu})"
            )
        families = {(c.family, c.params) for c in matches}
        if len(families) > 1:
            raise UnrecognizedGermError(
                "ambiguous signature: " + ", ".join(c.label for c in matches)
            )
        if len(matches) == 1:
            return matches[0]
        return _symbol(matches[0].family, matches[0].params)
    raise UnrecognizedGermError(
        f"rank-0 germs with {t} components are outside the catalogue"
    )
