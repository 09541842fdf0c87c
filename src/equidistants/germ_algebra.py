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
floats.  Every product runs in one loop, `_mul`, on packed monomials
(Monagan and Pearce): an exponent tuple is one int with a field of
w = order.bit_length() + 1 bits per variable and the total degree on top,
so a monomial product is one addition and truncation one comparison.
Terms above the order are dropped when packed, so a field holds at most
order and a sum of two at most 2*order < 2^w: no field carries into the
next, even in a product the test rejects.

Over Q `p_compose` runs the loop on integers over one common denominator,
as FLINT's fmpq_poly does: the args are scaled by the lcm D of their
denominators, the term c*x^e of p by E*D^(top - |e|) (E the lcm of p's
denominators, top its highest degree), and each output is one
Fraction(v, E*D^top).  A truncated power a^k over D^k is far from
reduced when D is large, as for the solved variables of `rank0_reduce`
at order 12 and above, so past `_INTEGER_LOOP_BITS` bits of E*D^top the
loop multiplies the Fractions as they are; the two ways' times crossed
between 4,200 and 7,000 bits.

For floats the order of a dict's terms is the order in which later sums
round.  So the loop visits the pairs of terms in the old tuple-keyed
order and inserts a new key as 0 + c (a product -0.0 is stored as +0.0);
an entry that cancels to zero keeps its place, and `p_compose` drops
zeros once, at the end.  Over Q this gives the same keys in the same
order, since an integer sum is zero exactly when the Fraction sum is.
`_row_reduce` is the one small dense elimination: ranks, the linear part
of `rank0_reduce` and the Hessian kernel of the recognizer.

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
mod p is at most their rank over Q.  In the reduced echelon form mod p,
each free column j gives a kernel vector that is 1 at j, nonzero
elsewhere only at pivots c < j, and so 0 above j.  The vectors are lifted
to Q by Wang's rational reconstruction, and the lift is accepted only
when every integer row annihilates every lifted vector in exact integer
arithmetic.  A vector of the row space led by column j has a nonzero
product with a vector whose last nonzero entry is at j, so no free column
mod p is a pivot over Q; with the rank bound the two pivot sets, and h,
are equal.

When the lift fails, because an entry is too tall for the modulus or p is
unlucky, the next prime is eliminated, and primes with the same pivots
join by the Chinese remainder theorem.  A prime's key is (-rank, sorted
pivot columns).  Column j is a pivot when the columns up to j have a
higher rank than those before j, and mod p each of those ranks can only
drop, so a prime whose pivots differ from those over Q has fewer pivots
or later ones, and a larger key.  A prime whose key is smaller than the
best so far restarts the residues r, one with a larger key is skipped,
and one with an equal key e joins by r <- r + M*((e - r)*M^-1 mod p) and
M <- M*p.  The joined kernel vectors keep the shape of each prime's, 1 at
j and nonzero elsewhere only at pivots c < j, so the proof above holds at
the modulus M; the key only chooses what to join, and a wrong choice
costs primes, never an answer.  Eight primes reach a modulus near 2^488,
and the Fraction elimination runs once every prime is spent.

The modular elimination skips rows that commuting generators make
redundant: the Koszul criterion, the weakest form of Faugere's F5
criterion.  Let g_i = a_i*e_r and g_j = a_j*e_r, i < j, be generators in
the single slot r, and L_i the lead monomial of a_i (its first term in the
lead order).  Every row u*g_j with L_i dividing u, u = m*L_i, is dropped.
Write a_i = c*L_i + sum c_t*t over later monomials t, and a_j = sum d_a*x^a;
since a_i*g_j = a_j*g_i,
    c*(m*L_i)*g_j = sum d_a*(m*x^a)*g_i - sum c_t*(m*t)*g_j,
and the identity survives truncation, a row past it being zero.  Order
the signatures (generator index, multiplier) position first, and inside
a position by the reverse of the lead order, which is multiplicative too.
Every row on the right has a smaller signature than the dropped row, so
by induction on the signature the kept rows span the built rows over Q.
Ideals qualify in every generator; tangent modules in their f_j*e_r
generators and in any partial-derivative column that sits in one slot.

Only the kept rows are eliminated mod p.  The span holds over Q; mod p
it fails when p divides c, so the certificate does not trust the
criterion.  Every built row must annihilate the lifted vectors, and the
rank bound reads rank_p(kept) <= rank_Q(kept) <=
rank_Q(built), which needs only that the kept rows are among the built
ones.  The cutoff at the first full degree d needs the same two facts.
Let W be the pivots worked mod p and L_Q the pivots of the built rows over
Q.  Each column below degree d outside W is free, and its annihilated
kernel vector keeps it out of L_Q; degree d lies in W.  So L_Q up to
degree d is inside W up to degree d.  The worked pivots up to degree d
are independent on those columns, so |W_<=d| is at most the rank mod p,
hence over Q, of the kept rows cut to them, which is at most the rank of
the built rows cut to them, |L_Q,<=d|.  So the two sets are equal, a
degree that fills mod p is full over Q, and by closure every higher one
is.  With no full degree the same count over all columns gives W = L_Q.
A wrong drop therefore costs a refused prime, never a wrong answer;
`_eliminate_exact` too works every built row.

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
from operator import lshift
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

# the benchmark's machine report (perfbench/worker.py) names this type
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
_RATIONAL = (int, Fraction)
# the largest common denominator, in bits, that `p_compose` runs on integers
_INTEGER_LOOP_BITS = 6000

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
        if not isinstance(c, Fraction):
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
    """a times c, which must not be 0."""
    return {exp: v * c for exp, v in a.items()}


def _layout(source_dim: int, order: int) -> Tuple[Tuple[int, ...], int, int]:
    """Field offsets (the total degree's last), field mask, and the least
    key of degree order + 1."""
    width = order.bit_length() + 1
    shifts = tuple(range(0, width * (source_dim + 1), width))
    return shifts, (1 << width) - 1, (order + 1) << shifts[-1]


def _pack(p: Poly, shifts: Tuple[int, ...], order: int) -> Dict[int, object]:
    """p's terms of total degree <= order, keyed by packed exponent."""
    out: Dict[int, object] = {}
    for exp, c in p.items():
        d = sum(exp)
        if d <= order:
            out[sum(map(lshift, exp + (d,), shifts))] = c
    return out


def _unpack(key: int, shifts: Tuple[int, ...], mask: int) -> Exponent:
    return tuple((key >> s) & mask for s in shifts[:-1])


def _mul(a: Dict[int, object], b: Dict[int, object],
         bound: int) -> Dict[int, object]:
    """The truncated product of packed polynomials: the one product loop."""
    out: Dict[int, object] = {}
    for ka, ca in a.items():
        room = bound - ka
        for kb, cb in b.items():
            if kb < room:
                k = ka + kb
                out[k] = out.get(k, 0) + ca * cb
    return out


def p_mul(a: Poly, b: Poly, order: int) -> Poly:
    """Truncated product; an entry that cancels to zero keeps its place."""
    if not a or not b:
        return {}
    shifts, mask, bound = _layout(len(next(iter(a))), order)
    prod = _mul(_pack(a, shifts, order), _pack(b, shifts, order), bound)
    return {_unpack(k, shifts, mask): v for k, v in prod.items()}


def p_compose(p: Poly, args: Sequence[Poly], source_dim: int,
              order: int) -> Poly:
    """Substitute args[i] for variable i of p; args live in source_dim vars.

    Every partial sum is kept, in the order of p's terms, and zeros are
    dropped only at the end; the module docstring says why floats need it.
    Over Q, below `_INTEGER_LOOP_BITS`, the products run on integers and
    each output is one Fraction (see the module docstring).
    """
    shifts, mask, bound = _layout(source_dim, order)
    scale = None
    if all(type(c) in _RATIONAL for q in (p, *args) for c in q.values()):
        den = math.lcm(*(c.denominator for a in args for c in a.values()))
        top = max(map(sum, p), default=0)
        lcm_p = math.lcm(*(c.denominator for c in p.values()))
        if lcm_p.bit_length() + top * den.bit_length() <= _INTEGER_LOOP_BITS:
            args = [{e: c.numerator * (den // c.denominator)
                     for e, c in a.items()} for a in args]
            pw = [lcm_p * den ** k for k in range(top + 1)]
            p = {e: c.numerator * (pw[top - sum(e)] // c.denominator)
                 for e, c in p.items()}
            scale = pw[top]
    packed = [_pack(a, shifts, order) for a in args]
    # Cache powers of each argument since exponents repeat across terms.
    pows: List[Dict[int, Dict[int, object]]] = [{1: a} for a in packed]
    out: Dict[int, object] = {}
    for exp, c in p.items():
        term = {0: c}
        for i, e in enumerate(exp):
            if not e:
                continue
            table = pows[i]
            for m in range(len(table) + 1, e + 1):
                table[m] = _mul(table[m - 1], packed[i], bound)
            term = _mul(term, table[e], bound)
            if not term:
                break
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    if scale is None:
        return {_unpack(m, shifts, mask): v for m, v in out.items() if v}
    return {_unpack(m, shifts, mask): Fraction(v, scale)
            for m, v in out.items() if v}


def p_diff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for exp, c in p.items():
        if exp[i]:
            d = list(exp)
            d[i] -= 1
            out[tuple(d)] = c * exp[i]
    return out


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
class MapGerm:
    """Map-germ (R^s,0) -> (R^t,0): t polynomials without constants, each a
    canonical dict truncated at total degree `order`."""

    source_dim: int
    target_dim: int
    order: int
    components: Tuple[Poly, ...]

    def __post_init__(self) -> None:
        _check_order(self.order)
        comps = tuple(canonical(c, self.source_dim, self.order)
                      for c in self.components)
        if len(comps) != self.target_dim:
            raise ValueError("component count does not match target_dim")
        if any((0,) * self.source_dim in c for c in comps):
            raise ValueError("germ components must vanish at the origin")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def from_polys(polys: Sequence[Mapping[Exponent, object]], source_dim: int,
                   order: Optional[int] = None) -> "MapGerm":
        if order is None:
            # never truncate away the caller's own monomials
            top = max((sum(e) for p in polys for e in p), default=0)
            order = max(default_order(source_dim), top)
        return MapGerm(source_dim, len(polys), order, tuple(polys))

    def polys(self) -> List[Poly]:
        return [dict(c) for c in self.components]

    def max_degree(self) -> int:
        """Highest total degree of any stored monomial (0 when zero)."""
        return max((sum(e) for c in self.components for e in c), default=0)

    def linear_matrix(self) -> List[List[Fraction]]:
        """t x s matrix of degree-1 coefficients."""
        rows = []
        for comp in self.components:
            row = [Fraction(0)] * self.source_dim
            for exp, c in comp.items():
                if sum(exp) == 1:
                    row[exp.index(1)] = c
            rows.append(row)
        return rows

    def __str__(self) -> str:
        return "(" + ", ".join(format_poly(c) for c in self.components) + ")"


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


def _lead_column(row: Tuple[int, array]) -> int:
    return row[1][0]


class _Rows:
    """The rows m*g of one truncated quotient, scaled to integers.

    Columns are the keys numbered in the lead order.  Each generator is
    scaled by the lcm of its denominators and its terms sorted by that
    order, which multiplication by a monomial preserves; so row m*g is
    stored as the generator's index and the ascending column array of its
    first terms, those that survive the truncation.

    `rows` holds every built row: `annihilate` and `_eliminate_exact` read
    them.  `kept` holds the rows that `_eliminate_mod` works, all but the
    rows m*g_j of a one-slot generator g_j whose multiplier m is divisible
    by the lead monomial of an earlier one-slot generator in the same slot
    (the Koszul criterion of the module docstring).  Both are sorted by
    lead, ties in the order built, so `kept` is a subsequence of `rows`.
    """

    def __init__(self, gens: Sequence[Dict[Key, Fraction]], source_dim: int,
                 slots: int, order: int):
        keys, self.degree, ordinal, shifts = _columns(source_dim, slots, order)
        self.keys = keys
        self.order = order
        self.coeffs: List[List[int]] = []
        self.rows: List[Tuple[int, array]] = []
        self.kept: List[Tuple[int, array]] = []
        self.scale = 1  # lcm of every denominator
        # per slot, the codes of the multipliers that the leads of the
        # one-slot generators so far divide
        multiples: List[set] = [set() for _ in range(slots)]
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
            slot = codes[0] % slots
            one_slot = all(c % slots == slot for c in codes)
            drop = multiples[slot] if one_slot else ()
            for dm, shift in shifts:
                keep = bisect_right(degs, order - dm)
                if not keep:
                    break
                row = (gi, array("q", [ordinal[shift + c]
                                       for c in codes[:keep]]))
                self.rows.append(row)
                if shift not in drop:
                    self.kept.append(row)
            if one_slot:
                # `shifts` ascends by degree: the multipliers m' with
                # deg(lead * m') <= order come first
                lead = codes[0] - slot
                upto = math.comb(source_dim + order - degs[0], source_dim)
                drop.update(lead + shift for _, shift in shifts[:upto])
        # Ascending lead order keeps fill-in local to each degree band.
        self.rows.sort(key=_lead_column)
        self.kept.sort(key=_lead_column)

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


def _eliminate_mod(rows: _Rows, p: int) -> Dict[int, Tuple[array, array]]:
    """Echelon form mod p of the kept rows: {lead column: (columns,
    values)} of each pivot row past its lead, whose value is 1; columns
    ascend.

    A row is a dict only while it is reduced; entries grow unreduced and
    are taken mod p when they lead or when the row becomes a pivot.  Once
    the pivots fill every column of a degree d, every column of degree
    >= d is a pivot (see the module docstring): those columns enter with
    an empty tail, and `top` drops below them, so a row whose lead passes
    `top` is spent.  Only the tails of the columns above `top` differ from
    the full elimination, and no free column lies past them.
    """
    pivots: Dict[int, Tuple[array, array]] = {}
    unfilled = rows.hilbert(())
    first = list(accumulate(unfilled, initial=0))
    top = len(rows.keys) - 1
    for gi, cols in rows.kept:
        if cols[0] > top:
            break
        row = dict(zip(cols, rows.coeffs[gi]))
        get = row.get
        while row:
            lead = min(row)
            if lead > top:
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
                d = rows.degree[lead]
                unfilled[d] -= 1
                if not unfilled[d]:
                    for k in range(first[d], top + 1):
                        pivots.setdefault(k, _NO_TAIL)
                    top = first[d] - 1
                break
            del row[lead]
            for k, v in zip(*piv):
                row[k] = get(k, 0) - c * v
    return pivots


def _eliminate_exact(rows: _Rows) -> set:
    """Pivot columns over Q by Fraction elimination: the fallback of
    `_certified_pivots` and the oracle its tests compare against."""
    pivots: Dict[int, Dict[int, object]] = {}
    for gi, cols in rows.rows:
        row = {k: Fraction(c) for k, c in zip(cols, rows.coeffs[gi]) if c}
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


def _free_entries(pivots: Dict[int, Tuple[array, array]], free: set,
                  p: int) -> Dict[int, Dict[int, int]]:
    """{pivot c: {free j: entry}} of the reduced echelon form mod p.

    The kernel vector of free column j is 1 at j, minus these entries at
    the pivots c < j, and 0 at every other column: above j in particular.
    Back substitution: the pivot rows are unit upper triangular on the
    pivot columns, and entries that vanish are left out.
    """
    out: Dict[int, Dict[int, int]] = {}
    for c in sorted(pivots, reverse=True):
        cols, vals = pivots[c]
        acc: Dict[int, int] = {}
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


def _crt(residues: Dict[int, Dict[int, int]], modulus: int,
         entries: Dict[int, Dict[int, int]], p: int
         ) -> Dict[int, Dict[int, int]]:
    """The residues mod modulus*p that are `residues` mod `modulus` and
    `entries` mod p; a missing entry is 0."""
    inv = pow(modulus, -1, p)
    out: Dict[int, Dict[int, int]] = {}
    for c in residues.keys() | entries.keys():
        old, new = residues.get(c, {}), entries.get(c, {})
        acc = out[c] = {}
        for j in old.keys() | new.keys():
            r = old.get(j, 0)
            acc[j] = r + modulus * ((new.get(j, 0) - r) * inv % p)
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


def _certified_pivots(rows: _Rows, first: Optional[dict] = None) -> set:
    """Pivot columns of the rows over Q, proved from eliminations mod
    primes whose kernels the Chinese remainder theorem joins.

    `first` is the elimination already made mod the first usable prime.
    See the module docstring for the certificate and for the key by which
    a prime restarts, joins or skips the residues; the Fraction
    elimination runs when every prime is spent.
    """
    best = None
    for n, p in enumerate(rows.primes()):
        ech = first if n == 0 and first is not None else _eliminate_mod(rows, p)
        key = (-len(ech), sorted(ech))
        if best is not None and key > best:
            continue
        free = set(range(len(rows.keys))).difference(ech)
        entries = _free_entries(ech, free, p)
        if best is None or key < best:
            best, residues, modulus = key, entries, p
        else:
            residues = _crt(residues, modulus, entries, p)
            modulus *= p
        kernel = _lift(residues, modulus, free)
        if kernel is not None and rows.annihilate(kernel):
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
    """The truncation cap: `order` when given, which must lie in
    1..MAX_TERM_DEGREE; else the dimension default, raised when the germ
    itself carries higher-degree monomials."""
    if order is None:
        return max(default_order(f.source_dim), f.max_degree() + 1)
    if order < 1:
        raise ValueError(f"truncation order must be >= 1, got {order}")
    if order > MAX_TERM_DEGREE:
        raise ValueError(f"truncation order must be at most "
                         f"{MAX_TERM_DEGREE}, got {order}")
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
    h = ke_quotient_hilbert(f, order)
    return h if h == INFINITE else sum(h)


def ke_quotient_hilbert(f: MapGerm,
                        order: Optional[int] = None) -> Union[Tuple[int, ...], str]:
    """Hilbert function of the contact tangent-space quotient (or INFINITE)."""
    cap = _analysis_cap(f, order)
    dim, h, _, _, _ = _module_dimension(
        _tangent_gens(f), f.source_dim, f.target_dim, cap
    )
    return INFINITE if dim == INFINITE else tuple(h)


def rank0_reduce(f: MapGerm) -> Union[MapGerm, str]:
    """Remove the regular part of f by an exact linear change of the target
    and elimination of the variables its linear part solves for.

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
    # Source side: component i < r reads x_{pivot_i} - rest_i(x), rest_i
    # free of x_{pivot_i}, with y the non-pivot variables.  Solve for
    # x_{pivot_i} = W_i(y) by W_i <- rest_i(W, y) from the linear solution,
    # right through degree 1.  If every term of rest holding a pivot
    # variable has degree >= j + 1 (j >= 1: a reduced row has no other
    # pivot) and W is right through degree d, a pass leaves it right
    # through d + j, reading only the (d + j)-jets of rest and W; so the
    # passes compose at orders stepping by j up to the full order, and the
    # last leaves the unique fixed point.  The reduced germ is components
    # r.. with W substituted: every composition is in the s - r y-variables.
    nonpivot = [c for c in range(s) if c not in pivot_cols]
    rest = [{e: -c for e, c in new_comps[i].items() if e != unit_exp(p, s)}
            for i, p in enumerate(pivot_cols)]
    sub = {c: {unit_exp(i, s - r): Fraction(1)}
           for i, c in enumerate(nonpivot)}
    for i, p in enumerate(pivot_cols):
        sub[p] = {unit_exp(k, s - r): -m[i][c]
                  for k, c in enumerate(nonpivot) if m[i][c]}
    j = min((sum(e) - 1 for q in rest for e in q
             if any(e[p] for p in pivot_cols)), default=order)
    d = 1
    while d < order:
        d = min(order, d + j)
        args = [sub[c] for c in range(s)]
        for p, q in zip(pivot_cols, rest):
            sub[p] = p_compose({e: c for e, c in q.items() if sum(e) <= d},
                               args, s - r, d)
    args = [sub[c] for c in range(s)]
    return MapGerm.from_polys(
        [p_compose(new_comps[i], args, s - r, order) for i in range(r, t)],
        s - r, order)


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
                for exp, c in sorted(comp.items())
            ]
            for comp in f.components
        ],
    }


def polys_from_payload(payload, slots: int, name: str) -> List[Poly]:
    """The polynomials of a JSON component list, each a list of terms
    {"coeff": rational string or number, "exponents": [integers]}; any
    other shape, a fractional exponent among them, is a ValueError that
    names `name`."""
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
            if exps != tuple(item["exponents"]):
                raise ValueError(f"non-integer exponent in {name}: {item!r}")
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
    return MapGerm(s, t, order, tuple(polys))


def mapgerm_to_json(f: MapGerm) -> str:
    return json.dumps(mapgerm_to_dict(f), indent=2)


def mapgerm_from_json(text: str) -> MapGerm:
    return mapgerm_from_dict(json.loads(text))
