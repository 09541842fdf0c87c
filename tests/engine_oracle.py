"""Run the package's exact engine on its Fraction elimination alone.

Inside ``fraction_engine()`` the modular elimination has no prime to try,
so every quotient that the public API computes is eliminated over Q by
the Fraction routine the modular path falls back to.  Tests compute a
result both ways and require them to be equal.  The memoized catalogue
signatures and codimensions are dropped on entry and on exit, so neither
engine reads values the other computed.
"""

from contextlib import contextmanager

import equidistants.germ_algebra as ga
import equidistants.normal_forms as nf


def _drop_memos():
    nf.clear_mu_cache()
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
