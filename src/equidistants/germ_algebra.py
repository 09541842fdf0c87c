"""Exact arithmetic on truncated polynomial map-germs.

A germ (R^s,0) -> (R^t,0) is stored as t sparse polynomials over Q,
truncated at a fixed total degree N.  A polynomial is a dict mapping an
exponent tuple of length s to a nonzero Fraction; the zero polynomial is
the empty dict.  All products and compositions silently drop terms of
total degree > N, so every operation stays inside the finite-dimensional
jet space and every rank or membership decision is tolerance-free.

The jet kernel (`p_add`, `p_scale`, `p_mul`, `p_compose`) is the one jet
calculus of the package: the exact engines call it with Fraction
coefficients and the float-to-exact bridge of `geometry_engine` with
floats.  For floats the order of the terms in a dict is the order in
which later sums round, so `p_mul` keeps an entry that cancels to zero in
the place where it first appeared, and `p_compose` drops zeros once, at
the end.  Over Q this changes no value.  `_row_reduce` is the one small
dense elimination: ranks, the linear part of `rank0_reduce` and the
Hessian kernel of the recognizer.

Quotient dimensions (local algebras, contact tangent spaces) are computed
by graded sparse Gaussian elimination at a truncation order D.  Leading
terms are taken lowest-total-degree first; inside a degree, graded lex
with the last variable heaviest.  For a filtered quotient the per-degree
dimension h_d computed at truncation D is exact for all d <= D, and the
graded quotient is generated in degree 0, so the first zero value h_z = 0
certifies h_d = 0 for every d >= z.  A truncation ladder climbs one
degree at a time, from min(4, cap) to cap + 2, and stops at the first
rung whose h has a zero.  A quotient with no zero by cap + 2 is reported
INFINITE, which certifies only a codimension above cap + 2 (by Nakayama's
lemma a finite codimension c has h_c = 0): the Ke-codimension 81 of
x^10 + y^10 at order 12 is reported INFINITE.  Two tests prove INFINITE
before any rung, Krull's height theorem and the axis test below.

Inside one elimination at truncation D the row space is closed under
multiplication by a monomial followed by truncation, since
trunc_D(x^b * trunc_D(h)) = trunc_D(x^b * h), and the lead order is
degree-first and multiplicative.  So once the pivots fill every column
of a degree d, every slot included, every column of degree >= d is a
pivot; the elimination enters those columns unworked and spends no row
on them.  This is the rule h_z = 0 => h_d = 0 applied within one
truncation, and it holds mod p and over Q alike.

An ideal with fewer nonzero generators t than variables s has an
infinite quotient by Krull's height theorem, dim E_s/I >= s - t > 0, so
`local_algebra` skips the ladder and reports h and the basis through the
cap from one certified elimination.  Tangent modules get no such
shortcut: an ICIS has finite Ke-codimension with t < s.

The axis test is the second proof, and it serves ideals and tangent
modules alike.  If some variable y_j is a pure power y_j^k (k >= 0, so a
constant counts) in no term of any slot of the generators, every term
has a factor y_i with i != j, so the module T lies in (y_i : i != j)*E^t.
Then E^t/T maps onto R[[y_j]]^t and is infinite: the y_j-axis lies in the
zero set, as for y_1^2*(a + b*y_2).  A quotient of finite dimension c
holds y_j^c times every unit vector, so some generator has a pure power
of each variable and the test never fires on it.  `_module_dimension`
makes the test in one pass over the terms, before the ladder, and
returns INFINITE without an elimination; `local_algebra` then reads h
and the basis through cap + 2, where the ladder would have ended, from
one certified elimination.

The elimination runs over F_p for a 61-bit prime p and every result is
proved over Q.  Each generator is scaled to integer coefficients, and a
prime dividing a denominator is skipped.  The rank of the integer rows
mod p is at most their rank over Q.  From the echelon form mod p, each
free column j gives a kernel vector that is 1 at j and 0 above j.  Those
vectors are lifted p-adically (Dixon's method).  The elimination
records, for each pivot it works, its source row, the inverse it was
normalised by and the multipliers that reduced it; so mod p the worked
source rows are the record's lower triangle times the unit upper
triangular pivot rows.  Digit k >= 1 takes the residual of the worked
source rows on the vector so far, divided by p^k, forward-substitutes it
through the multipliers and back-substitutes it through the pivot tails;
the vector gains that correction times p^k, and no further elimination
is made.  At each modulus p^(k+1) the vectors are lifted to Q by Wang's
rational reconstruction, and the lift is accepted only when every
integer row annihilates every lifted vector in exact integer arithmetic.
A vector of the row space led by column j has a nonzero product with a
vector whose last nonzero entry is at j, so no free column mod p is a
pivot over Q; with the rank bound the two pivot sets, and h, are equal.

That proof needs every lifted vector to be 0 above its free column.  The
p-adic kernel of the worked rows need not be, when p is unlucky: a
correction can land on a pivot above j.  Such a digit refuses the prime,
and the next prime is eliminated.  If the pivot sets mod p and over Q
agree, the vector over Q led by j solves the worked rows, which are
invertible mod p on the pivot columns, so it is the p-adic solution and
no digit is refused.  A lift that runs out of its `_DIGITS` = 8 digits,
about the modulus that eight primes reach together, refuses the prime
too.  The Fraction elimination runs once every prime is refused.

Since h_d does not depend on D >= d, a truncation ladder climbs on
uncertified eliminations mod one prime and certifies only the rung where
they stop it.  The decision of every lower rung is replayed from that
rung's exact h; when the exact h does not stop the ladder there, the
climb resumes above it.
"""
from __future__ import annotations

import json
import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

try:
    from gmpy2 import mpq as _fastq
except ImportError:  # pragma: no cover
    _fastq = Fraction

INFINITE = "INFINITE"
REGULAR = "REGULAR"


class InfiniteCodimensionError(ArithmeticError):
    """The quotient is infinite-dimensional; the message is INFINITE."""

    code = INFINITE

    def __init__(self) -> None:
        super().__init__(INFINITE)


Exponent = Tuple[int, ...]
Poly = Dict[Exponent, Fraction]

# Truncation caps by source dimension; ladders climb toward the cap one
# degree at a time so small quotients certify early and never pay for the
# full order.
_DEFAULT_ORDER = {0: 6, 1: 12, 2: 12, 3: 8}


def default_order(source_dim: int) -> int:
    return _DEFAULT_ORDER.get(source_dim, 6)


# The highest truncation order a map-germ, from JSON or built in code, and
# the highest total degree a graph-pair term, may have.  The exact engine's
# cost grows with a germ's order: a degree of 10**30 exhausts memory in
# exact rational powers, and recognizing an A8 germ runs past a minute at
# order 10**6 where it takes a tenth of a second at order 64.  64 is far
# above every degree the shipped inputs use (3) and the default orders (at
# most 12).
MAX_TERM_DEGREE = 64


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_TERM_DEGREE:
        raise ValueError(f"map-germ order must be in 0..{MAX_TERM_DEGREE}, "
                         f"got {order}")


# ---------------------------------------------------------------------------
# sparse polynomial helpers


def canonical(coeffs: Mapping[Exponent, object], source_dim: int,
              order: int) -> Poly:
    """Coerce coefficients to Fraction, drop zeros and over-order terms."""
    out: Poly = {}
    for exp, c in coeffs.items():
        exp = tuple(int(e) for e in exp)
        if len(exp) != source_dim:
            raise ValueError(f"exponent {exp} has length {len(exp)}, "
                             f"expected {source_dim}")
        if any(e < 0 for e in exp):
            raise ValueError(f"negative exponent in {exp}")
        if sum(exp) > order:
            continue
        c = Fraction(c)
        if c != 0:
            out[exp] = c
    return out


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp, 0) + c
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def p_scale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return {}
    return {exp: v * c for exp, v in a.items()}


def p_mul(a: Poly, b: Poly, order: int) -> Poly:
    """Truncated product; an entry that cancels to zero keeps its place."""
    out: Poly = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > order:
                continue
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return out


def p_compose(p: Poly, args: Sequence[Poly], source_dim: int,
              order: int) -> Poly:
    """Substitute args[i] for variable i of p; args live in source_dim vars.

    Every partial sum is kept, in the order of p's terms, and zeros are
    dropped only at the end; the module docstring says why floats need it.
    """
    # Cache powers of each argument since exponents repeat across terms.
    pows: List[Dict[int, Poly]] = [{1: a} for a in args]
    out: Poly = {}
    for exp, c in p.items():
        term: Poly = {(0,) * source_dim: c}
        for i, e in enumerate(exp):
            if not e:
                continue
            table = pows[i]
            for m in range(len(table) + 1, e + 1):
                table[m] = p_mul(table[m - 1], args[i], order)
            term = p_mul(term, table[e], order)
            if not term:
                break
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def p_diff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for exp, c in p.items():
        if exp[i]:
            d = list(exp)
            d[i] -= 1
            out[tuple(d)] = c * exp[i]
    return out


_SUBS = "₀₁₂₃₄₅₆₇₈₉"


def format_poly(p: Poly, names: Optional[Sequence[str]] = None) -> str:
    if not p:
        return "0"
    s = len(next(iter(p)))
    if names is None:
        names = [f"y{i + 1}" for i in range(s)]
    parts = []
    for exp in sorted(p, key=lambda e: (sum(e), tuple(-x for x in e))):
        c = p[exp]
        mono = "*".join(
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(exp) if e
        )
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def unit_exp(i: int, n: int) -> Exponent:
    """The exponent of the i-th of n variables."""
    return tuple(int(i == j) for j in range(n))


def monomials_upto(source_dim: int, order: int) -> List[Exponent]:
    """All exponent tuples of total degree <= order, by ascending degree."""
    if source_dim == 0:
        return [()]
    out: List[Exponent] = []

    def rec(prefix: Tuple[int, ...], remaining: int, left: int) -> None:
        if remaining == 1:
            out.append(prefix + (left,))
            return
        for e in range(left + 1):
            rec(prefix + (e,), remaining - 1, left - e)

    for d in range(order + 1):
        rec((), source_dim, d)
    return out


# ---------------------------------------------------------------------------
# jets and map-germs


@dataclass(frozen=True)
class JetPoly:
    """A polynomial truncated at total degree `order` in `source_dim` vars."""

    source_dim: int
    order: int
    coeffs: Mapping[Exponent, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", canonical(self.coeffs, self.source_dim, self.order)
        )

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * self.source_dim, Fraction(0))

    def __str__(self) -> str:
        return format_poly(dict(self.coeffs))


@dataclass(frozen=True)
class MapGerm:
    """Map-germ (R^s,0) -> (R^t,0): t truncated polynomials without constants."""

    source_dim: int
    target_dim: int
    order: int
    components: Tuple[JetPoly, ...]

    def __post_init__(self) -> None:
        _check_order(self.order)
        comps = tuple(self.components)
        if len(comps) != self.target_dim:
            raise ValueError("component count does not match target_dim")
        for c in comps:
            if c.source_dim != self.source_dim or c.order != self.order:
                raise ValueError("component dims/order disagree with germ")
            if c.constant_term() != 0:
                raise ValueError("germ components must vanish at the origin")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def from_polys(polys: Sequence[Mapping[Exponent, object]], source_dim: int,
                   order: Optional[int] = None) -> "MapGerm":
        if order is None:
            # never truncate away the caller's own monomials
            top = max((sum(e) for p in polys for e in p), default=0)
            order = max(default_order(source_dim), top)
        comps = tuple(JetPoly(source_dim, order, dict(p)) for p in polys)
        return MapGerm(source_dim, len(comps), order, comps)

    @staticmethod
    def identity(dim: int, order: Optional[int] = None) -> "MapGerm":
        if order is None:
            order = default_order(dim)
        polys = [{unit_exp(i, dim): Fraction(1)} for i in range(dim)]
        return MapGerm.from_polys(polys, dim, order)

    @staticmethod
    def zero(source_dim: int, target_dim: int,
             order: Optional[int] = None) -> "MapGerm":
        if order is None:
            order = default_order(source_dim)
        return MapGerm.from_polys([{} for _ in range(target_dim)],
                                  source_dim, order)

    def polys(self) -> List[Poly]:
        return [dict(c.coeffs) for c in self.components]

    def max_degree(self) -> int:
        """Highest total degree of any stored monomial (0 when zero)."""
        return max(
            (sum(e) for c in self.components for e in c.coeffs), default=0
        )

    def linear_matrix(self) -> List[List[Fraction]]:
        """t x s matrix of degree-1 coefficients."""
        rows = []
        for comp in self.components:
            row = [Fraction(0)] * self.source_dim
            for exp, c in comp.coeffs.items():
                if sum(exp) == 1:
                    row[exp.index(1)] = c
            rows.append(row)
        return rows

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


# ---------------------------------------------------------------------------
# exact rank and echelon machinery

Key = Tuple[int, Exponent]  # (target slot, monomial)


def _rank_key(key: Key) -> Tuple[int, Tuple[int, ...], int]:
    slot, exp = key
    return (sum(exp), tuple(-e for e in reversed(exp)), slot)


def _row_reduce(m: List[List[Fraction]], ncols: int) -> List[int]:
    """Bring the small dense matrix m to reduced row echelon form in place,
    choosing pivots among its first ncols columns only; returns the pivot
    columns, the i-th leading row i."""
    pivots: List[int] = []
    for col in range(ncols):
        if len(pivots) == len(m):
            break
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a small dense matrix."""
    m = [list(map(Fraction, r)) for r in rows]
    return len(_row_reduce(m, len(m[0]) if m else 0))


# The eight largest primes below 2^61, so residues fit an array('q') and
# the product of two stays a small Python int.
_PRIMES = tuple(2 ** 61 - k for k in (1, 31, 45, 229, 259, 283, 339, 391))

# The most p-adic digits one prime lifts: p^8 is about the modulus that
# the eight primes reach together.
_DIGITS = len(_PRIMES)

# The tail of a pivot that the cutoff of `_eliminate_mod` enters unworked.
_NO_TAIL = (array("q"), array("q"))


def _code(key: Key, slots: int, base: int) -> int:
    slot, exp = key
    return sum(e * base ** i for i, e in enumerate(exp)) * slots + slot


@lru_cache(maxsize=64)
def _columns(source_dim: int, slots: int, order: int):
    """The keys (slot, monomial) of degree <= order in the lead order, their
    degrees, each key's ordinal by its code, and (degree, code of (0, m))
    per monomial m.

    A code is the exponents read in base order + 1, times `slots`, plus the
    slot; multiplying a key by m adds the code of (0, m).  Callers share
    the cached values and must not change them.
    """
    monos = monomials_upto(source_dim, order)
    keys = tuple(sorted(((slot, m) for m in monos for slot in range(slots)),
                        key=_rank_key))
    degree = tuple(sum(m) for _, m in keys)
    ordinal = {_code(k, slots, order + 1): i for i, k in enumerate(keys)}
    shifts = tuple((sum(m), _code((0, m), slots, order + 1)) for m in monos)
    return keys, degree, ordinal, shifts


class _Rows:
    """The rows m*g of one truncated quotient, scaled to integers.

    Columns are the keys numbered in the lead order.  Each generator is
    scaled by the lcm of its denominators and its terms sorted by that
    order, which multiplication by a monomial preserves; so row m*g is
    stored as the generator's index and the ascending column array of its
    first terms, those that survive the truncation.
    """

    def __init__(self, gens: Sequence[Dict[Key, Fraction]], source_dim: int,
                 slots: int, order: int):
        keys, self.degree, ordinal, shifts = _columns(source_dim, slots, order)
        self.keys = keys
        self.order = order
        self.coeffs: List[List[int]] = []
        self.rows: List[Tuple[int, array]] = []
        self.scale = 1  # lcm of every denominator
        for g in gens:
            # (column of the term at m = 1, code, coefficient) in lead order
            items = sorted((ordinal[c], c, v) for c, v in (
                (_code(k, slots, order + 1), v) for k, v in g.items()
                if sum(k[1]) <= order))
            if not items:
                continue
            lcm = math.lcm(*(v.denominator for _, _, v in items))
            self.scale = math.lcm(self.scale, lcm)
            gi = len(self.coeffs)
            self.coeffs.append([v.numerator * (lcm // v.denominator)
                                for _, _, v in items])
            degs = [self.degree[i] for i, _, _ in items]
            codes = [c for _, c, _ in items]
            for dm, shift in shifts:
                keep = bisect_right(degs, order - dm)
                if not keep:
                    break
                self.rows.append((gi, array("q", [
                    ordinal[shift + c] for c in codes[:keep]])))
        # Ascending lead order keeps fill-in local to each degree band.
        self.rows.sort(key=lambda row: row[1][0])

    def hilbert(self, pivots) -> List[int]:
        h = [0] * (self.order + 1)
        for d in self.degree:
            h[d] += 1
        for c in pivots:
            h[self.degree[c]] -= 1
        return h

    def primes(self) -> List[int]:
        """The primes that divide no denominator; scaling a generator by a
        multiple of p would send some of its terms to 0 mod p."""
        return [p for p in _PRIMES if self.scale % p]

    def annihilate(self, kernel: Dict[int, List[Tuple[int, int]]]) -> bool:
        """Whether every row kills every kernel vector, in exact integers;
        `kernel[k]` lists (vector, integer entry at column k)."""
        for gi, cols in self.rows:
            acc: Dict[int, int] = {}
            for k, a in zip(cols, self.coeffs[gi]):
                for j, w in kernel.get(k, ()):
                    acc[j] = acc.get(j, 0) + a * w
            if any(acc.values()):
                return False
        return True


class _Echelon(dict):
    """Echelon form mod p: {lead column: (columns, values)} of each pivot
    row past its lead, whose value is 1; columns ascend.

    It also records the elimination for the p-adic lift.  `worked` lists
    each worked pivot in the order it was made, as (column, source row of
    `_Rows.rows`, the inverse that normalised it, end of its multipliers).
    The multipliers are pairs (lead, c) kept in `leads` and `mults`: the
    row was reduced by c times the pivot row of lead, in that order.  So
    mod p the source row is inverse^-1 times its pivot row plus the sum of
    c times those rows.
    """

    __slots__ = ("p", "worked", "leads", "mults")

    def __init__(self, p: int):
        super().__init__()
        self.p = p
        self.worked: List[Tuple[int, Tuple[int, array], int, int]] = []
        self.leads = array("q")
        self.mults = array("q")


def _eliminate_mod(rows: _Rows, p: int) -> _Echelon:
    """Echelon form mod p of the rows, with its record (see `_Echelon`).

    A row is a dict only while it is reduced; entries grow unreduced and
    are taken mod p when they lead or when the row becomes a pivot.  Once
    the pivots fill every column of a degree d, every column of degree
    >= d is a pivot (see the module docstring): those columns enter with
    an empty tail and no record, and `top` drops below them, so a row
    whose lead passes `top` is spent.  Only the tails of the columns above
    `top` differ from the full elimination, and no free column lies past
    them.  A spent row or a row reduced to zero drops its multipliers.
    """
    pivots = _Echelon(p)
    worked, leads, mults = pivots.worked, pivots.leads, pivots.mults
    note_lead, note_mult = leads.append, mults.append
    unfilled = rows.hilbert(())
    first = list(accumulate(unfilled, initial=0))
    top = len(rows.keys) - 1
    for src in rows.rows:
        gi, cols = src
        if cols[0] > top:
            break
        row = dict(zip(cols, rows.coeffs[gi]))
        get = row.get
        mark = len(leads)
        while row:
            lead = min(row)
            if lead > top:
                del leads[mark:], mults[mark:]
                break
            c = row[lead] % p
            if not c:
                del row[lead]
                continue
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(c, -1, p)
                del row[lead]
                kept = [(k, v * inv % p) for k, v in sorted(row.items())]
                kept = [kv for kv in kept if kv[1]]
                pivots[lead] = (array("q", [k for k, _ in kept]),
                                array("q", [v for _, v in kept]))
                worked.append((lead, src, inv, len(leads)))
                d = rows.degree[lead]
                unfilled[d] -= 1
                if not unfilled[d]:
                    for k in range(first[d], top + 1):
                        pivots.setdefault(k, _NO_TAIL)
                    top = first[d] - 1
                break
            del row[lead]
            note_lead(lead)
            note_mult(c)
            for k, v in zip(*piv):
                row[k] = get(k, 0) - c * v
        else:
            del leads[mark:], mults[mark:]
    return pivots


def _eliminate_exact(rows: _Rows) -> set:
    """Pivot columns over Q by Fraction elimination: the fallback of
    `_certified_pivots` and the oracle its tests compare against."""
    pivots: Dict[int, Dict[int, object]] = {}
    for gi, cols in rows.rows:
        row = {k: _fastq(c) for k, c in zip(cols, rows.coeffs[gi]) if c}
        while row:
            lead = min(row)
            c = row[lead]
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = {k: v / c for k, v in row.items()}
                break
            for k, v in piv.items():
                s = row.get(k, 0) - c * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
    return set(pivots)


def _back_substitute(pivots: Dict[int, Tuple[array, array]],
                     rhs: Dict[int, Dict[int, int]], p: int,
                     free=()) -> Dict[int, Dict[int, int]]:
    """{pivot c: {free j: u}} with u at c plus the tail of c times u equal
    to the right-hand side at c, mod p, for every free j: the pivot rows
    are unit upper triangular on the pivot columns.  The right-hand side
    at c is rhs[c] plus the entries of c's tail at the columns in `free`;
    entries that vanish are left out."""
    out: Dict[int, Dict[int, int]] = {}
    for c in sorted(pivots, reverse=True):
        cols, vals = pivots[c]
        acc = dict(rhs.get(c, ()))
        for k, v in zip(cols, vals):
            u = out.get(k)
            if u:
                for j, w in u.items():
                    acc[j] = acc.get(j, 0) - v * w
            elif k in free:
                acc[k] = acc.get(k, 0) + v
        acc = {j: v % p for j, v in acc.items() if v % p}
        if acc:
            out[c] = acc
    return out


def _free_entries(pivots: Dict[int, Tuple[array, array]], free: set,
                  p: int) -> Dict[int, Dict[int, int]]:
    """{pivot c: {free j: entry}} of the reduced echelon form mod p.

    The kernel vector of free column j is 1 at j, minus these entries at
    the pivots c < j, and 0 at every other column: above j in particular.
    """
    return _back_substitute(pivots, {}, p, free)


def _forward(ech: _Echelon, rho: Dict[int, Dict[int, int]]
             ) -> Dict[int, Dict[int, int]]:
    """Replay the recorded elimination on right-hand sides rho, given per
    worked pivot for its source row: {pivot c: {free j: z}} with the pivot
    rows times u equal to z whenever the source rows times u equal rho."""
    p, leads, mults = ech.p, ech.leads, ech.mults
    z: Dict[int, Dict[int, int]] = {}
    lo = 0
    for c, _, inv, hi in ech.worked:
        acc = dict(rho.get(c, ()))
        for i in range(lo, hi):
            u = z.get(leads[i])
            if u:
                m = mults[i]
                for j, w in u.items():
                    acc[j] = acc.get(j, 0) - m * w
        lo = hi
        acc = {j: v * inv % p for j, v in acc.items() if v % p}
        if acc:
            z[c] = acc
    return z


def _residual(rows: _Rows, ech: _Echelon, rho: Dict[int, Dict[int, int]],
              digit: Dict[int, Dict[int, int]]) -> Dict[int, Dict[int, int]]:
    """(rho - source row times digit) / p on every worked source row; the
    division is exact because the digit solves the rows mod p."""
    p = ech.p
    out: Dict[int, Dict[int, int]] = {}
    for c, (gi, cols), _, _ in ech.worked:
        acc = dict(rho.get(c, ()))
        for k, a in zip(cols, rows.coeffs[gi]):
            u = digit.get(k)
            if u:
                for j, w in u.items():
                    acc[j] = acc.get(j, 0) - a * w
        acc = {j: v // p for j, v in acc.items() if v}
        if acc:
            out[c] = acc
    return out


def _rational(a: int, m: int) -> Optional[Tuple[int, int]]:
    """Wang's rational reconstruction: (n, d) with n = a*d mod m, |n| and
    0 < d at most sqrt(m/2) and gcd(n, d) = 1; None when none exists."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(residues: Dict[int, Dict[int, int]], modulus: int,
          free: set) -> Optional[Dict[int, List[Tuple[int, int]]]]:
    """The kernel vectors over Q as integer columns for `_Rows.annihilate`,
    or None when some entry has no rational reconstruction."""
    fracs = {}
    for c, entries in residues.items():
        for j, a in entries.items():
            nd = _rational(a, modulus)
            if nd is None:
                return None
            fracs[(c, j)] = nd
    den = dict.fromkeys(free, 1)
    for (_, j), (_, d) in fracs.items():
        den[j] = math.lcm(den[j], d)
    kernel: Dict[int, List[Tuple[int, int]]] = {j: [(j, den[j])] for j in free}
    for (c, j), (n, d) in fracs.items():
        kernel.setdefault(c, []).append((j, -n * (den[j] // d)))
    return kernel


def _kernel_lifts(rows: _Rows, ech: _Echelon) -> bool:
    """Whether the kernel of the echelon form mod p lifts p-adically to
    vectors over Q that every integer row annihilates, each led by its
    free column (see the module docstring).

    Digit 0 is the reduced echelon form.  Each further digit forward- and
    back-substitutes the residual of the worked source rows, divided by the
    modulus, through the record.  A digit at a pivot above its free column
    refuses the prime, and so does running out of digits.
    """
    p = ech.p
    free = set(range(len(rows.keys))).difference(ech)
    residues = _free_entries(ech, free, p)
    # The vector of j is 1 at j minus the residues; the first residual
    # takes that 1 as an entry -1 of digit 0.
    digit = {**residues, **{j: {j: -1} for j in free}}
    rho, modulus = {}, p
    for n in range(_DIGITS):
        if n:
            rho = _residual(rows, ech, rho, digit)
            digit = _back_substitute(ech, _forward(ech, rho), p)
            if any(c > j for c, u in digit.items() for j in u):
                return False
            for c, u in digit.items():
                entries = residues[c] = dict(residues.get(c, ()))
                for j, v in u.items():
                    entries[j] = entries.get(j, 0) + modulus * v
            modulus *= p
        kernel = _lift(residues, modulus, free)
        if kernel is not None and rows.annihilate(kernel):
            return True
    return False


def _certified_pivots(rows: _Rows, first: Optional[_Echelon] = None) -> set:
    """Pivot columns of the rows over Q, proved from one elimination mod p.

    `first` is the elimination already made mod the first usable prime.
    See the module docstring for the certificate; a prime whose lift is
    refused is dropped for the next, and the Fraction elimination runs
    when every prime is spent.
    """
    for n, p in enumerate(rows.primes()):
        ech = first if n == 0 and first is not None else _eliminate_mod(rows, p)
        if _kernel_lifts(rows, ech):
            return set(ech)
    return _eliminate_exact(rows)


def _settle(h: List[int], pivots: set, rungs: List[int], cap: int):
    """The ladder's result from the exact h and pivot keys at truncation
    rungs[-1], replaying the decision of every rung up to it; None when the
    ladder climbs past rungs[-1].  The quotient is stabilized exactly when
    it is finite."""
    if 0 in h:
        z = h.index(0)
        used = next(D for D in rungs if D >= z)
        return (sum(h[:z]), h[:z], True,
                {k for k in pivots if sum(k[1]) <= used}, used)
    if rungs[-1] < cap + 2:
        return None
    return INFINITE, h, False, pivots, cap + 2


def _axis_in_zero_set(gens: Sequence[Dict[Key, Fraction]],
                      source_dim: int) -> bool:
    """Whether some variable y_j is a pure power y_j^k, k >= 0, in no term
    of any slot of the generators: then the y_j-axis lies in their zero
    set and the quotient is infinite (module docstring).  Stops at the
    first term that leaves no variable without a pure power."""
    missing = set(range(source_dim))
    for g in gens:
        for _, exp in g:
            top = max(exp, default=0)
            if sum(exp) == top:
                if not top:
                    return False
                missing.discard(exp.index(top))
                if not missing:
                    return False
    return bool(missing)


def _module_dimension(
    gens: Sequence[Dict[Key, Fraction]], source_dim: int, slots: int,
    cap: int
) -> Tuple[Union[int, str], Optional[List[int]], bool, Optional[set], int]:
    """Certified quotient dimension via the truncation ladder.

    Returns (dimension or INFINITE, hilbert, stabilized, pivots, used_order).
    A module that `_axis_in_zero_set` proves infinite skips the ladder and
    returns (INFINITE, None, False, None, cap + 2): no elimination is made.
    Otherwise the ladder climbs one degree at a time from truncation
    min(4, cap) to cap + 2 on eliminations mod one prime and certifies only
    the rung where they stop it; `_settle` replays every lower rung from
    that rung's exact h, and the climb resumes above it if the exact h does
    not stop the ladder there.
    """
    if _axis_in_zero_set(gens, source_dim):
        return INFINITE, None, False, None, cap + 2
    rungs = list(range(min(4, cap), cap + 3))
    start = 0
    while True:
        for i in range(start, len(rungs)):
            rows = _Rows(gens, source_dim, slots, rungs[i])
            primes = rows.primes()
            probe = _eliminate_mod(rows, primes[0]) if primes else None
            if probe is None or i == len(rungs) - 1:
                break
            if 0 in rows.hilbert(probe):
                break
        pivots = _certified_pivots(rows, probe)
        settled = _settle(rows.hilbert(pivots),
                          {rows.keys[c] for c in pivots}, rungs[:i + 1], cap)
        if settled is not None:
            return settled
        start = i + 1


def _ideal_gens(f: MapGerm) -> List[Dict[Key, Fraction]]:
    return [{(0, exp): c for exp, c in p.items()} for p in f.polys()]


def _tangent_gens(f: MapGerm) -> List[Dict[Key, Fraction]]:
    """Extended contact tangent space generators inside E^t.

    Partial-derivative columns of f, plus f_j times each target unit vector;
    multiplication by arbitrary monomials happens inside the echelon.
    """
    polys = f.polys()
    gens: List[Dict[Key, Fraction]] = []
    for i in range(f.source_dim):
        col: Dict[Key, Fraction] = {}
        for j, p in enumerate(polys):
            for exp, c in p_diff(p, i).items():
                col[(j, exp)] = c
        if col:
            gens.append(col)
    for j, p in enumerate(polys):
        for r in range(f.target_dim):
            if p:
                gens.append({(r, exp): c for exp, c in p.items()})
    return gens


# ---------------------------------------------------------------------------
# public invariants


@dataclass(frozen=True)
class LocalAlgebraReport:
    """Quotient of the function-germ ring by the ideal of components."""

    dimension: Union[int, str]
    hilbert: Tuple[int, ...]
    basis: Tuple[Exponent, ...]
    stabilized: bool

    @property
    def finite(self) -> bool:
        return self.dimension != INFINITE


def _analysis_cap(f: MapGerm, order: Optional[int] = None) -> int:
    """The truncation cap: `order` when given, which must be at least 1;
    else the dimension default, raised when the germ itself carries
    higher-degree monomials."""
    if order is None:
        return max(default_order(f.source_dim), f.max_degree() + 1)
    if order < 1:
        raise ValueError(f"truncation order must be >= 1, got {order}")
    return order


def local_algebra(f: MapGerm, order: Optional[int] = None) -> LocalAlgebraReport:
    """Dimension, Hilbert function and monomial basis of E_s/<f_1..f_t>.

    With fewer nonzero components than variables the quotient is infinite
    by Krull's height theorem, and its report lists h and the basis through
    the truncation order.  A quotient that the axis test proves infinite
    lists them through the order + 2, where the ladder would have ended.
    Both come from one certified elimination.
    """
    cap = _analysis_cap(f, order)
    gens = _ideal_gens(f)
    if sum(map(bool, gens)) < f.source_dim:
        dim, h, used = INFINITE, None, cap
    else:
        dim, h, _, pivots, used = _module_dimension(gens, f.source_dim, 1, cap)
    if h is None:
        rows = _Rows(gens, f.source_dim, 1, used)
        piv = _certified_pivots(rows)
        h, pivots = rows.hilbert(piv), {rows.keys[c] for c in piv}
    # Finite case: basis degrees run strictly below the certified zero of h.
    # Infinite case: list the quotient monomials up to the explored order.
    top = used if dim == INFINITE else len(h) - 1
    basis = tuple(m for m in monomials_upto(f.source_dim, top)
                  if (0, m) not in pivots)
    return LocalAlgebraReport(dim, tuple(h), basis, dim != INFINITE)


def hilbert_prefix(f: MapGerm, depth: int) -> Tuple[int, ...]:
    """Exact Hilbert function of E_s/<f_1..f_t> in degrees 0..depth.

    A single truncated computation; h[d] for d <= depth is unaffected by
    anything above the truncation, so the prefix is exact whether or not
    the full quotient is finite.  Trailing zero entries are trimmed.
    """
    rows = _Rows(_ideal_gens(f), f.source_dim, 1, depth)
    h = rows.hilbert(_certified_pivots(rows))
    if 0 in h:
        h = h[:h.index(0)]
    return tuple(h)


def corank(f: MapGerm) -> int:
    """Source dimension minus the exact rank of the linear part."""
    return f.source_dim - matrix_rank(f.linear_matrix())


def ke_codimension(f: MapGerm, order: Optional[int] = None) -> Union[int, str]:
    """Dimension of E^t over the extended contact tangent space of f."""
    cap = _analysis_cap(f, order)
    dim, _, _, _, _ = _module_dimension(
        _tangent_gens(f), f.source_dim, f.target_dim, cap
    )
    return dim


def ke_quotient_hilbert(f: MapGerm,
                        order: Optional[int] = None) -> Union[Tuple[int, ...], str]:
    """Hilbert function of the contact tangent-space quotient (or INFINITE)."""
    cap = _analysis_cap(f, order)
    dim, h, _, _, _ = _module_dimension(
        _tangent_gens(f), f.source_dim, f.target_dim, cap
    )
    return INFINITE if dim == INFINITE else tuple(h)


def rank0_reduce(f: MapGerm) -> Union[MapGerm, str]:
    """Remove the regular part of f by exact linear changes and elimination.

    Returns a rank-0 germ (R^(s-r),0) -> (R^(t-r),0) with the same local
    algebra, where r is the rank of the linear part; REGULAR if r = t.
    """
    s, t, order = f.source_dim, f.target_dim, f.order
    # Target side: row-reduce [A | I], A the linear part of f, so the first
    # r new components have independent linear parts, the reduced rows of
    # A, and the rest have none; the right block N is invertible.
    m = [row + list(map(Fraction, unit_exp(i, t)))
         for i, row in enumerate(f.linear_matrix())]
    pivot_cols = _row_reduce(m, s)
    r = len(pivot_cols)
    if r == t:
        return REGULAR
    if r == 0:
        return f
    polys = f.polys()
    new_comps: List[Poly] = []
    for row in m:
        acc: Poly = {}
        for j, c in enumerate(row[s:]):
            if c:
                acc = p_add(acc, p_scale(polys[j], c))
        new_comps.append(acc)
    # Source side: the linear parts w_i of the first r components become new
    # coordinates alongside the non-pivot variables.  Row reduction left
    # w_i = x_{pivot_i} + (non-pivot tail), so the change inverts by hand.
    nonpivot = [j for j in range(s) if j not in pivot_cols]
    relabel = {col: i for i, col in enumerate(pivot_cols)}
    for i, j in enumerate(nonpivot):
        relabel[j] = r + i
    args_old_to_new: List[Poly] = []
    for j in range(s):
        i = relabel[j]
        expr: Poly = {unit_exp(i, s): Fraction(1)}
        if i < r:
            for jj in nonpivot:
                if m[i][jj]:
                    expr[unit_exp(relabel[jj], s)] = -m[i][jj]
        args_old_to_new.append(expr)
    relabeled = [
        p_compose(p, args_old_to_new, s, order) for p in new_comps
    ]
    # Now component i (i < r) reads w_i + P_i(w, x), P_i in m^2.
    # Solve w = W(x) by iteration; each pass gains one degree of accuracy.
    x_block = [{unit_exp(i, s): Fraction(1)} for i in range(r, s)]
    W = [dict() for _ in range(r)]  # type: List[Poly]
    for _ in range(order + 1):
        args = list(W) + x_block
        newW = []
        for i in range(r):
            val = p_compose(relabeled[i], args, s, order)
            # w_i + P_i(W, x) = 0  =>  w_i = w_i_guess - (guess + P_i)
            newW.append(p_add(W[i], p_scale(val, Fraction(-1))))
        if newW == W:
            break
        W = newW
    args = list(W) + x_block
    reduced = [p_compose(relabeled[i], args, s, order) for i in range(r, t)]
    # Drop the eliminated variables: remaining polys only involve x-block.
    out_polys: List[Poly] = []
    for p in reduced:
        q: Poly = {}
        for exp, c in p.items():
            if any(exp[i] for i in range(r)):
                raise ArithmeticError("elimination left a regular variable")
            q[exp[r:]] = c
        out_polys.append(q)
    return MapGerm.from_polys(out_polys, s - r, order)


def random_k_move(f: MapGerm, seed: int) -> MapGerm:
    """Compose f with a random jet-diffeomorphism and unit matrix factor.

    Deterministic per seed; preserves the contact class of f.
    """
    rng = random.Random(f"kmove|{seed}|{f.source_dim}|{f.target_dim}")
    s, t, order = f.source_dim, f.target_dim, f.order

    # Unimodular linear part from a few integer shears keeps coefficients tame.
    L = [list(map(Fraction, unit_exp(i, s))) for i in range(s)]
    for _ in range(rng.randint(1, 3)):
        if s < 2:
            break
        i, j = rng.sample(range(s), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(s):
            L[i][col] += c * L[j][col]
    phi: List[Poly] = []
    for i in range(s):
        p: Poly = {unit_exp(j, s): L[i][j] for j in range(s) if L[i][j]}
        for _ in range(rng.randint(0, 2)):
            exp = [0] * s
            for _ in range(2):
                exp[rng.randrange(s)] += 1
            c = Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
            p = p_add(p, {tuple(exp): c})
        phi.append(p)
    composed = [
        p_compose(p, phi, s, order) for p in f.polys()
    ]

    A = [list(map(Fraction, unit_exp(i, t))) for i in range(t)]
    if t >= 2:
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(t), 2)
            c = rng.choice((-1, 1))
            for col in range(t):
                A[i][col] += c * A[j][col]
    scale = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)))
    out: List[Poly] = []
    for i in range(t):
        acc: Poly = {}
        for j in range(t):
            if A[i][j]:
                acc = p_add(acc, p_scale(composed[j], A[i][j] * scale))
        # Optional function-valued wobble: (1 + c*y_m) times one component.
        if rng.random() < 0.5:
            e = unit_exp(rng.randrange(s), s)
            wob = {(0,) * s: Fraction(1),
                   e: Fraction(rng.choice((-1, 1)), 2)}
            acc = p_mul(acc, wob, order)
        out.append(acc)
    return MapGerm.from_polys(out, s, order)


# ---------------------------------------------------------------------------
# JSON round trip


def _coeff_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 \
        else str(c.numerator)


def mapgerm_to_dict(f: MapGerm) -> dict:
    return {
        "source_dim": f.source_dim,
        "target_dim": f.target_dim,
        "order": f.order,
        "components": [
            [
                {"coeff": _coeff_str(c), "exponents": list(exp)}
                for exp, c in sorted(comp.coeffs.items())
            ]
            for comp in f.components
        ],
    }


def polys_from_payload(payload, slots: int, name: str) -> List[Poly]:
    """The polynomials of a JSON component list, each a list of terms
    {"coeff": rational string or number, "exponents": [...]}; any other
    shape is a ValueError that names `name`."""
    if not isinstance(payload, list) or len(payload) != slots:
        raise ValueError(f"{name} must list {slots} components")
    polys: List[Poly] = []
    for comp in payload:
        if not isinstance(comp, list):
            raise ValueError(f"{name} components must be lists of terms")
        p: Poly = {}
        for item in comp:
            try:
                exps = tuple(int(e) for e in item["exponents"])
                c = Fraction(str(item["coeff"]))
            except (KeyError, TypeError, ValueError, OverflowError,
                    ZeroDivisionError) as err:
                raise ValueError(f"bad term in {name}: {item!r}") from err
            p[exps] = p.get(exps, Fraction(0)) + c
        polys.append(p)
    return polys


def mapgerm_from_dict(data: Mapping) -> MapGerm:
    try:
        s = int(data["source_dim"])
        t = int(data["target_dim"])
        order = int(data["order"])
        comps = data["components"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad map-germ object: {exc}") from exc
    _check_order(order)
    if s < 1 or t < 1:
        raise ValueError(
            f"map-germ dimensions must be >= 1, got source_dim={s}, "
            f"target_dim={t}")
    polys = polys_from_payload(comps, t, "map-germ")
    return MapGerm(s, t, order, tuple(JetPoly(s, order, p) for p in polys))


def mapgerm_to_json(f: MapGerm) -> str:
    return json.dumps(mapgerm_to_dict(f), indent=2)


def mapgerm_from_json(text: str) -> MapGerm:
    return mapgerm_from_dict(json.loads(text))
