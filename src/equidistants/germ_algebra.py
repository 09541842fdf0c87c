"""Exact arithmetic on truncated polynomial map-germs.

A germ (R^s,0) -> (R^t,0) is stored as t sparse polynomials over Q,
truncated at a fixed total degree N.  A polynomial is a dict mapping an
exponent tuple of length s to a nonzero Fraction; the zero polynomial is
the empty dict.  All products and compositions silently drop terms of
total degree > N, so every operation stays inside the finite-dimensional
jet space and every rank or membership decision is tolerance-free.

Quotient dimensions (local algebras, contact tangent spaces) are computed
by graded sparse Gaussian elimination at a truncation order D.  Leading
terms are taken lowest-total-degree first; inside a degree, graded lex
with the last variable heaviest.  For a filtered quotient the per-degree
dimension h_d computed at truncation D is exact for all d <= D, and the
graded quotient is generated in degree 0, so the first zero value h_z = 0
certifies h_d = 0 for every d >= z.  When no zero appears below the cap,
the dimension is recomputed at increasing orders and declared INFINITE
after it strictly grows twice in a row.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

try:
    from gmpy2 import mpq as _fastq
except ImportError:  # pragma: no cover
    _fastq = Fraction

INFINITE = "INFINITE"
REGULAR = "REGULAR"

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, Fraction]

# Truncation caps by source dimension; ladders climb toward the cap so
# small quotients certify early and never pay for the full order.
_DEFAULT_ORDER = {0: 6, 1: 12, 2: 12, 3: 8}


def default_order(source_dim: int) -> int:
    return _DEFAULT_ORDER.get(source_dim, 6)


def _ladder(source_dim: int, cap: int) -> List[int]:
    rungs = [d for d in (4, 6, 8, 9, 10, 12) if d < cap]
    return [r for r in rungs if r >= 4] + [cap]


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
    out: Poly = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > order:
                continue
            exp = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(exp, 0) + ca * cb
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
    return out


def p_pow(a: Poly, n: int, source_dim: int, order: int) -> Poly:
    out: Poly = {(0,) * source_dim: Fraction(1)}
    for _ in range(n):
        out = p_mul(out, a, order)
    return out


def p_compose(p: Poly, args: Sequence[Poly], source_dim: int,
              order: int) -> Poly:
    """Substitute args[i] for variable i of p; args live in source_dim vars."""
    # Cache powers of each argument since exponents repeat across terms.
    pows: List[Dict[int, Poly]] = [
        {0: {(0,) * source_dim: Fraction(1)}} for _ in args
    ]

    def power(i: int, n: int) -> Poly:
        table = pows[i]
        if n not in table:
            m = max(table)
            cur = table[m]
            while m < n:
                cur = p_mul(cur, args[i], order)
                m += 1
                table[m] = cur
        return table[n]

    out: Poly = {}
    for exp, c in p.items():
        term: Poly = {(0,) * source_dim: c}
        for i, e in enumerate(exp):
            if e and term:
                term = p_mul(term, power(i, e), order)
        out = p_add(out, term)
    return out


def p_diff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for exp, c in p.items():
        if exp[i]:
            d = list(exp)
            d[i] -= 1
            out[tuple(d)] = c * exp[i]
    return out


def p_trunc(p: Poly, order: int) -> Poly:
    return {exp: c for exp, c in p.items() if sum(exp) <= order}


def p_min_degree(p: Poly) -> Optional[int]:
    return min((sum(e) for e in p), default=None)


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

    def __call__(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for exp, c in self.coeffs.items():
            v = c
            for x, e in zip(point, exp):
                for _ in range(e):
                    v *= x
            total += v
        return total

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
        polys = []
        for i in range(dim):
            e = [0] * dim
            e[i] = 1
            polys.append({tuple(e): Fraction(1)})
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

    def with_order(self, order: int) -> "MapGerm":
        return MapGerm.from_polys(self.polys(), self.source_dim, order)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def jet_compose(f: MapGerm, g: MapGerm) -> MapGerm:
    """Truncated composition f(g(y)) at order min(f.order, g.order)."""
    if g.target_dim != f.source_dim:
        raise ValueError(
            f"cannot compose: inner target {g.target_dim} != outer source "
            f"{f.source_dim}"
        )
    order = min(f.order, g.order)
    args = [p_trunc(p, order) for p in g.polys()]
    comps = [
        p_compose(p_trunc(p, order), args, g.source_dim, order)
        for p in f.polys()
    ]
    return MapGerm.from_polys(comps, g.source_dim, order)


# ---------------------------------------------------------------------------
# exact rank and echelon machinery

Key = Tuple[int, Exponent]  # (target slot, monomial)


def _rank_key(key: Key) -> Tuple[int, Tuple[int, ...], int]:
    slot, exp = key
    return (sum(exp), tuple(-e for e in reversed(exp)), slot)


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by fraction Gaussian elimination (small dense matrices)."""
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def _quotient_hilbert(gens: Sequence[Dict[Key, Fraction]], source_dim: int,
                      slots: int, order: int) -> Tuple[List[int], set]:
    """Per-degree dims of (free module of rank `slots`)/(span of m*gens).

    Returns (h[0..order], pivot key set).  h[d] is exact for all d <= order.
    Keys are encoded as ordinals in the lead order so that elimination runs
    on plain integers.
    """
    monos = monomials_upto(source_dim, order)
    keys: List[Key] = [(slot, m) for m in monos for slot in range(slots)]
    keys.sort(key=_rank_key)
    ordinal = {k: i for i, k in enumerate(keys)}
    rows: List[Dict[int, object]] = []
    for g in gens:
        if not g:
            continue
        gmin = min(sum(k[1]) for k in g)
        items = [
            (slot, exp, sum(exp), _fastq(c.numerator, c.denominator))
            for (slot, exp), c in g.items()
        ]
        for m in monos:
            dm = sum(m)
            if dm + gmin > order:
                continue
            row: Dict[int, object] = {}
            for slot, exp, de, c in items:
                if dm + de > order:
                    continue
                key = (slot, tuple(a + b for a, b in zip(m, exp)))
                row[ordinal[key]] = c
            if row:
                rows.append(row)
    # Ascending lead order keeps fill-in local to each degree band.
    rows.sort(key=min)
    pivots: Dict[int, Dict[int, object]] = {}
    pivot_per_degree = [0] * (order + 1)
    for row in rows:
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                c = row[lead]
                pivots[lead] = {k: v / c for k, v in row.items()}
                pivot_per_degree[sum(keys[lead][1])] += 1
                break
            c = row[lead]
            for k, v in piv.items():
                s = row.get(k, 0) - c * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
    counts = [0] * (order + 1)
    for m in monos:
        counts[sum(m)] += slots
    h = [counts[d] - pivot_per_degree[d] for d in range(order + 1)]
    return h, {keys[i] for i in pivots}


def _module_dimension(
    gens: Sequence[Dict[Key, Fraction]], source_dim: int, slots: int,
    cap: int
) -> Tuple[Union[int, str], List[int], bool, set, int]:
    """Certified quotient dimension via the truncation ladder.

    Returns (dimension or INFINITE, hilbert, stabilized, pivots, used_order).
    """
    h: List[int] = []
    pivots: set = set()
    used = cap
    for D in _ladder(source_dim, cap):
        h, pivots = _quotient_hilbert(gens, source_dim, slots, D)
        used = D
        if 0 in h:
            z = h.index(0)
            return sum(h[:z]), h[:z], True, pivots, used
    # No certified zero by the cap: fall back to total-dimension growth.
    dims = [sum(h)]
    for D in (cap + 1, cap + 2):
        hh, pivots2 = _quotient_hilbert(gens, source_dim, slots, D)
        if 0 in hh:
            z = hh.index(0)
            return sum(hh[:z]), hh[:z], True, pivots2, D
        dims.append(sum(hh))
        h, pivots, used = hh, pivots2, D
    if dims[2] > dims[1] > dims[0]:
        return INFINITE, h, False, pivots, used
    return dims[2], h, dims[2] == dims[1], pivots, used


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


def _analysis_cap(f: MapGerm) -> int:
    """Default truncation: the dimension default, raised when the germ
    itself carries higher-degree monomials."""
    return max(default_order(f.source_dim), f.max_degree() + 1)


def local_algebra(f: MapGerm, order: Optional[int] = None) -> LocalAlgebraReport:
    """Dimension, Hilbert function and monomial basis of E_s/<f_1..f_t>."""
    cap = order if order is not None else _analysis_cap(f)
    dim, h, stable, pivots, used = _module_dimension(
        _ideal_gens(f), f.source_dim, 1, cap
    )
    # Finite case: basis degrees run strictly below the certified zero of h.
    # Infinite case: list the quotient monomials up to the explored order.
    top = used if dim == INFINITE else len(h) - 1
    basis = tuple(
        m for m in monomials_upto(f.source_dim, min(top, used))
        if (0, m) not in pivots
    )
    return LocalAlgebraReport(dim, tuple(h), basis, stable)


def hilbert_prefix(f: MapGerm, depth: int) -> Tuple[int, ...]:
    """Exact Hilbert function of E_s/<f_1..f_t> in degrees 0..depth.

    A single truncated computation; h[d] for d <= depth is unaffected by
    anything above the truncation, so the prefix is exact whether or not
    the full quotient is finite.  Trailing zero entries are trimmed.
    """
    h, _ = _quotient_hilbert(_ideal_gens(f), f.source_dim, 1, depth)
    if 0 in h:
        h = h[:h.index(0)]
    return tuple(h)


def corank(f: MapGerm) -> int:
    """Source dimension minus the exact rank of the linear part."""
    return f.source_dim - matrix_rank(f.linear_matrix())


def ke_codimension(f: MapGerm, order: Optional[int] = None) -> Union[int, str]:
    """Dimension of E^t over the extended contact tangent space of f."""
    cap = order if order is not None else _analysis_cap(f)
    dim, _, _, _, _ = _module_dimension(
        _tangent_gens(f), f.source_dim, f.target_dim, cap
    )
    return dim


def ke_quotient_hilbert(f: MapGerm,
                        order: Optional[int] = None) -> Union[Tuple[int, ...], str]:
    """Hilbert function of the contact tangent-space quotient (or INFINITE)."""
    cap = order if order is not None else _analysis_cap(f)
    dim, h, _, _, _ = _module_dimension(
        _tangent_gens(f), f.source_dim, f.target_dim, cap
    )
    return INFINITE if dim == INFINITE else tuple(h)


def _raw_mapgerm(source_dim: int, target_dim: int, order: int,
                 comps: Tuple[JetPoly, ...]) -> MapGerm:
    # Deformation directions may carry constant terms, which the MapGerm
    # origin check rejects; build those tuples without running validation.
    germ = object.__new__(MapGerm)
    object.__setattr__(germ, "source_dim", source_dim)
    object.__setattr__(germ, "target_dim", target_dim)
    object.__setattr__(germ, "order", order)
    object.__setattr__(germ, "components", comps)
    return germ


def miniversal_basis(f: MapGerm,
                     order: Optional[int] = None) -> List[MapGerm]:
    """Monomial t-tuples spanning a complement of the contact tangent space."""
    cap = order if order is not None else _analysis_cap(f)
    dim, h, _, pivots, used = _module_dimension(
        _tangent_gens(f), f.source_dim, f.target_dim, cap
    )
    if dim == INFINITE:
        raise ArithmeticError(INFINITE)
    out: List[MapGerm] = []
    for m in monomials_upto(f.source_dim, max(len(h) - 1, 0)):
        for slot in range(f.target_dim):
            if (slot, m) not in pivots:
                polys: List[Poly] = [dict() for _ in range(f.target_dim)]
                polys[slot][m] = Fraction(1)
                comps = tuple(JetPoly(f.source_dim, f.order, p) for p in polys)
                out.append(_raw_mapgerm(f.source_dim, f.target_dim,
                                        f.order, comps))
    return out


def rank0_reduce(f: MapGerm) -> Union[MapGerm, str]:
    """Remove the regular part of f by exact linear changes and elimination.

    Returns a rank-0 germ (R^(s-r),0) -> (R^(t-r),0) with the same local
    algebra, where r is the rank of the linear part; REGULAR if r = t.
    """
    A = f.linear_matrix()
    s, t, order = f.source_dim, f.target_dim, f.order
    r = matrix_rank(A)
    if r == t:
        return REGULAR
    if r == 0:
        return f
    # Target side: row-reduce so the first r new components have independent
    # linear parts and the rest have none.
    m = [row[:] + [Fraction(1 if i == j else 0) for j in range(t)]
         for i, row in enumerate(A)]
    rank = 0
    pivot_cols: List[int] = []
    for col in range(s):
        piv = next((i for i in range(rank, t) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(t):
            if i != rank and m[i][col] != 0:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == t:
            break
    N = [row[s:] for row in m]  # t x t invertible, N*A echelonized
    polys = f.polys()
    new_comps: List[Poly] = []
    for i in range(t):
        acc: Poly = {}
        for j in range(t):
            if N[i][j]:
                acc = p_add(acc, p_scale(polys[j], N[i][j]))
        new_comps.append(acc)
    # Source side: the linear parts w_i of the first r components become new
    # coordinates alongside the non-pivot variables.  Row reduction left
    # w_i = x_{pivot_i} + (non-pivot tail), so the change inverts by hand.
    nonpivot = [j for j in range(s) if j not in pivot_cols]
    relabel = {col: i for i, col in enumerate(pivot_cols)}
    for i, j in enumerate(nonpivot):
        relabel[j] = r + i
    lin = [[Fraction(0)] * s for _ in range(r)]
    for i in range(r):
        for exp, c in new_comps[i].items():
            if sum(exp) == 1:
                lin[i][exp.index(1)] = c
    args_old_to_new: List[Poly] = []
    for j in range(s):
        if j in pivot_cols:
            i = relabel[j]
            e_new = [0] * s
            e_new[i] = 1
            expr: Poly = {tuple(e_new): Fraction(1)}
            for jj in nonpivot:
                c = lin[i][jj]
                if c:
                    e2 = [0] * s
                    e2[relabel[jj]] = 1
                    expr[tuple(e2)] = -c
            args_old_to_new.append(expr)
        else:
            e_new = [0] * s
            e_new[relabel[j]] = 1
            args_old_to_new.append({tuple(e_new): Fraction(1)})
    relabeled = [
        p_compose(p, args_old_to_new, s, order) for p in new_comps
    ]
    # Now component i (i < r) reads w_i + P_i(w, x), P_i in m^2.
    # Solve w = W(x) by iteration; each pass gains one degree of accuracy.
    zero_w: List[Poly] = []
    for i in range(s):
        if i < r:
            zero_w.append({})
        else:
            e = [0] * s
            e[i] = 1
            zero_w.append({tuple(e): Fraction(1)})
    W = [dict() for _ in range(r)]  # type: List[Poly]
    for _ in range(order + 1):
        args = list(W) + zero_w[r:]
        newW = []
        for i in range(r):
            val = p_compose(relabeled[i], args, s, order)
            # w_i + P_i(W, x) = 0  =>  w_i = w_i_guess - (guess + P_i)
            newW.append(p_add(W[i], p_scale(val, Fraction(-1))))
        if newW == W:
            break
        W = newW
    args = list(W) + zero_w[r:]
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
    L = [[Fraction(1 if i == j else 0) for j in range(s)] for i in range(s)]
    for _ in range(rng.randint(1, 3)):
        if s < 2:
            break
        i, j = rng.sample(range(s), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(s):
            L[i][col] += c * L[j][col]
    phi: List[Poly] = []
    for i in range(s):
        p: Poly = {}
        for j in range(s):
            if L[i][j]:
                e = [0] * s
                e[j] = 1
                p[tuple(e)] = L[i][j]
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

    A = [[Fraction(1 if i == j else 0) for j in range(t)] for i in range(t)]
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
            m = rng.randrange(s)
            e = [0] * s
            e[m] = 1
            wob = {(0,) * s: Fraction(1),
                   tuple(e): Fraction(rng.choice((-1, 1)), 2)}
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


def mapgerm_from_dict(data: Mapping) -> MapGerm:
    try:
        s = int(data["source_dim"])
        t = int(data["target_dim"])
        order = int(data["order"])
        comps = data["components"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad map-germ object: {exc}") from exc
    if order < 0:
        raise ValueError(f"map-germ order must be >= 0, got {order}")
    if s < 1 or t < 1:
        raise ValueError(
            f"map-germ dimensions must be >= 1, got source_dim={s}, "
            f"target_dim={t}")
    if len(comps) != t:
        raise ValueError("component count does not match target_dim")
    polys: List[Poly] = []
    for comp in comps:
        p: Poly = {}
        for term in comp:
            c = Fraction(str(term["coeff"]))
            exp = tuple(int(e) for e in term["exponents"])
            if c:
                p[exp] = p.get(exp, Fraction(0)) + c
        polys.append(p)
    comps_j = tuple(JetPoly(s, order, p) for p in polys)
    return MapGerm(s, t, order, comps_j)


def mapgerm_to_json(f: MapGerm) -> str:
    return json.dumps(mapgerm_to_dict(f), indent=2)


def mapgerm_from_json(text: str) -> MapGerm:
    return mapgerm_from_dict(json.loads(text))
