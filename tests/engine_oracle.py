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
"""

from array import array
from contextlib import contextmanager

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
