"""Reference engines that tests compare the package's exact engine with.

Inside ``fraction_engine()`` the modular elimination has no prime to try,
so every quotient that the public API computes is eliminated over Q by
the Fraction routine the modular path falls back to.  Tests compute a
result both ways and require them to be equal.  The memoized catalogue
signatures and codimensions are dropped on entry and on exit, so neither
engine reads values the other computed.

``full_eliminate_mod`` is the modular elimination without the cutoff at
the first full degree: it works every row until its lead passes the last
free column.

``fmul`` and ``fcompose`` are the float jet product and composition that
the Taylor bridge ran on before it shared ``germ_algebra``'s kernel; they
fix the order in which float coefficients are summed, and so every
rounding, that the bridge must keep.

``node_candidates`` is the node sweep of ``geometry_engine`` as a loop over
the bucketed segment pairs, one scalar intersection test per pair; the
array sweep must return its crossings bit for bit.
"""

from array import array
from contextlib import contextmanager

import numpy as np

import equidistants.germ_algebra as ga
import equidistants.normal_forms as nf
from api_extras import clear_mu_cache


def _drop_memos():
    clear_mu_cache()
    nf._candidate_signatures.cache_clear()


@contextmanager
def fraction_engine():
    saved = ga._PRIMES
    ga._PRIMES = ()
    _drop_memos()
    try:
        yield
    finally:
        ga._PRIMES = saved
        _drop_memos()


def both_engines(fn, *args):
    """(modular result, Fraction result) of fn(*args)."""
    modular = fn(*args)
    with fraction_engine():
        exact = fn(*args)
    return modular, exact


def full_eliminate_mod(rows, p):
    """Echelon form mod p of `rows` (a ``germ_algebra._Rows``) in the
    format of ``germ_algebra._eliminate_mod``, every pivot worked."""
    pivots = {}
    top = len(rows.keys) - 1
    for gi, cols in rows.rows:
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
                while top in pivots:
                    top -= 1
                break
            del row[lead]
            for k, v in zip(*piv):
                row[k] = get(k, 0) - c * v
    return pivots


def fmul(p, q, order):
    """Truncated product of float jets; cancelled entries stay in place."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > order:
                continue
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def fcompose(f, subs, n, order):
    """f with subs[j] substituted for variable j; zeros dropped at the end."""
    pows = [{0: {(0,) * n: 1.0}, 1: dict(s)} for s in subs]
    out = {}
    for exps, c in f.items():
        term = {(0,) * n: c}
        for j, e in enumerate(exps):
            if e == 0:
                continue
            while e not in pows[j]:
                top = max(pows[j])
                pows[j][top + 1] = fmul(pows[j][top], pows[j][1], order)
            term = fmul(term, pows[j][e], order)
            if not term:
                break
        for e, v in term.items():
            out[e] = out.get(e, 0.0) + v
    return {e: v for e, v in out.items() if v != 0.0}


def _segment_intersection(p1, p2, p3, p4, min_sin):
    r = p2 - p1
    w = p4 - p3
    denom = r[0] * w[1] - r[1] * w[0]
    lr, lw = np.linalg.norm(r), np.linalg.norm(w)
    if lr == 0 or lw == 0 or abs(denom) <= min_sin * lr * lw:
        return None
    dp = p3 - p1
    u = (dp[0] * w[1] - dp[1] * w[0]) / denom
    v = (dp[0] * r[1] - dp[1] * r[0]) / denom
    if not (0.0 <= u < 1.0 and 0.0 <= v < 1.0):
        return None
    return u, v


def node_candidates(P, closed, index_gap, min_sin):
    """(si, sj, point) of every transverse crossing of the polyline P, as
    ``geometry_engine._find_node_candidates`` returns them."""
    N = len(P) - 1 if not closed else len(P)
    segs = [(P[i], P[(i + 1) % len(P)]) for i in range(N)]
    lengths = [np.linalg.norm(b - a) for a, b in segs]
    cell = max(max(lengths), 1e-12) * 2.0
    buckets = {}
    for i, (a, b) in enumerate(segs):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        for cx in range(int(lo[0] // cell), int(hi[0] // cell) + 1):
            for cy in range(int(lo[1] // cell), int(hi[1] // cell) + 1):
                buckets.setdefault((cx, cy), []).append(i)
    hits = []
    seen = set()
    for ids in buckets.values():
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                i, j = ids[ai], ids[bi]
                if (i, j) in seen:
                    continue
                seen.add((i, j))
                gap = abs(i - j)
                if closed:
                    gap = min(gap, N - gap)
                if gap < index_gap:
                    continue
                hit = _segment_intersection(*segs[i], *segs[j], min_sin)
                if hit is not None:
                    hits.append((i + hit[0], j + hit[1]))
    merged = []
    for si, sj in sorted(hits):
        a = P[int(si)] + (si % 1) * (P[(int(si) + 1) % len(P)] - P[int(si)])
        if all(np.linalg.norm(a - m[2]) > cell for m in merged):
            merged.append((si, sj, a))
    return merged
