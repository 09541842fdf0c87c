"""Tests for the truncated-jet local algebra engine.

Derived expected values are cross-checked against oracle_tools, a
brute-force dense-elimination implementation kept deliberately separate
from the package code (different polynomial representation, different
monomial enumeration, different rank routine).
"""

import copy
import hashlib
import json
import random
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equidistants.germ_algebra as ga
import oracle_tools as oracle
from api_extras import (
    jet_compose,
    miniversal_basis,
    tuple_p_compose,
    tuple_p_mul,
)
from engine_oracle import both_engines, fcompose, full_eliminate_mod
from equidistants.contact_lab import (
    lambda_contact_from_pair,
    local_ring_dims,
    pi_tilde_local,
    random_graph_pair,
)
from equidistants.germ_algebra import (
    INFINITE,
    REGULAR,
    MapGerm,
    corank,
    hilbert_prefix,
    ke_codimension,
    ke_quotient_hilbert,
    local_algebra,
    mapgerm_from_dict,
    mapgerm_from_json,
    mapgerm_to_dict,
    mapgerm_to_json,
    random_k_move,
    rank0_reduce,
)
from equidistants.normal_forms import (
    is_nice_dimensions,
    normal_form,
    stable_singularities,
)

y1, y2, y3 = sympy.symbols("y1 y2 y3")


def germ(polys, s, order=None):
    return MapGerm.from_polys(polys, s, order=order)


# ---------------------------------------------------------------- local_algebra


def test_local_algebra_cube():
    rep = local_algebra(germ([{(3,): 1}], 1))
    assert rep.dimension == 3
    assert rep.hilbert == (1, 1, 1)
    assert rep.basis == ((0,), (1,), (2,))
    assert rep.stabilized


def test_local_algebra_two_component_example():
    f = germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)
    rep = local_algebra(f)
    assert rep.dimension == 4
    assert rep.hilbert == (1, 2, 1)
    assert len(rep.basis) == 4
    # the basis must be a complement of the ideal in the truncated algebra,
    # checked by rank arithmetic, not by comparing with a fixed list
    extra = []
    for exps in rep.basis:
        extra.append((sympy.prod(s**e for s, e in zip((y1, y2), exps)),))
    assert oracle.is_complement(
        [(y1 * y2,), (y1**2 + y2**2,)], extra, (y1, y2), 1, 6
    )


def test_local_algebra_dimension_matches_bruteforce():
    f = germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)
    for degree in (4, 6):
        assert oracle.ideal_quotient_dimension(
            [y1 * y2, y1**2 + y2**2], (y1, y2), degree
        ) == 4
    assert local_algebra(f).dimension == 4


def test_local_algebra_explicit_low_order_still_exact():
    f = germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)
    assert local_algebra(f, order=4).dimension == 4


def test_local_algebra_zero_germ_is_infinite():
    rep = local_algebra(germ([{}], 2))
    assert rep.dimension == INFINITE


def test_local_algebra_nonisolated_pair_is_infinite():
    f = germ([{(2, 0): 1}, {(1, 1): 1}], 2)
    rep = local_algebra(f)
    assert rep.dimension == INFINITE
    assert rep.hilbert[0] == 1


def test_local_algebra_curve_ring_reports_infinite_with_stable_tail():
    # a complete intersection whose zero set is a curve: the quotient by
    # the ideal alone is infinite even though the contact codimension is not
    f = germ([{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, {(0, 1, 1): 1}], 3)
    rep = local_algebra(f)
    assert rep.dimension == INFINITE
    assert ke_codimension(f) == 5


def test_hilbert_head_and_sum():
    # cases with as many equations as variables, so the quotient is finite
    cases = [
        germ([{(4,): 1}], 1),
        germ([{(1, 1): 1}, {(3, 0): 1, (0, 3): 1}], 2),
        germ([{(2, 0): 1, (0, 3): 1}, {(0, 4): 1}], 2),
    ]
    for f in cases:
        rep = local_algebra(f)
        assert rep.hilbert[0] == 1
        assert sum(rep.hilbert) == rep.dimension
        assert len(rep.basis) == rep.dimension
        assert rep.stabilized


def test_single_equation_in_two_variables_has_curve_quotient():
    # one equation cuts out a curve, so the ideal quotient is infinite
    # even though the contact codimension is 4
    f = germ([{(2, 1): 1, (0, 3): 1}], 2)
    rep = local_algebra(f)
    assert rep.dimension == INFINITE
    assert ke_codimension(f) == 4


# ---------------------------------------------------------------- ke_codimension


def test_ke_convention_anchors():
    assert ke_codimension(germ([{(2,): 1}], 1)) == 1
    assert ke_codimension(germ([{(3,): 1}], 1)) == 2
    assert ke_codimension(germ([{(2, 1): 1, (0, 3): 1}], 2)) == 4
    assert ke_codimension(germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)) == 4


def test_ke_matches_bruteforce_on_function_case():
    # y1^2*y2 + y2^3, tangent space built independently with sympy
    assert oracle.ke_dimension([y1**2 * y2 + y2**3], (y1, y2), 6) == 4


def test_ke_matches_bruteforce_on_pair_case():
    assert oracle.ke_dimension([y1 * y2, y1**2 + y2**2], (y1, y2), 6) == 4


def test_ke_matches_bruteforce_on_definite_pair():
    f = germ([{(2, 0): 1, (0, 2): 1}, {(0, 3): 1}], 2)
    assert ke_codimension(f) == 6
    for degree in (6, 7):
        assert oracle.ke_dimension([y1**2 + y2**2, y2**3], (y1, y2), degree) == 6


def test_ke_matches_bruteforce_on_three_variable_pair():
    # (y1^2 + y2*y3, y1*y2 + y3^3): quotient stabilizes early, so two
    # consecutive truncations of the brute-force computation agree
    f = germ([{(2, 0, 0): 1, (0, 1, 1): 1}, {(1, 1, 0): 1, (0, 0, 3): 1}], 3)
    assert ke_codimension(f) == 7
    comps = [y1**2 + y2 * y3, y1 * y2 + y3**3]
    assert oracle.ke_dimension(comps, (y1, y2, y3), 4) == 7
    assert oracle.ke_dimension(comps, (y1, y2, y3), 5) == 7


def test_ke_power_ladder():
    for k in range(1, 9):
        assert ke_codimension(germ([{(k + 1,): 1}], 1)) == k
        suspended = germ([{(k + 1, 0): 1, (0, 2): 1}], 2)
        assert ke_codimension(suspended) == k


def test_ke_quotient_hilbert_sums_to_codimension():
    f = germ([{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, {(0, 1, 1): 1}], 3)
    h = ke_quotient_hilbert(f)
    assert sum(h) == ke_codimension(f) == 5


def test_ke_nonisolated_cases_are_infinite():
    assert ke_codimension(germ([{(2, 0): 1}, {(1, 1): 1}], 2)) == INFINITE
    assert ke_codimension(germ([{}, {}], 2)) == INFINITE
    # cube on the middle variable leaves a singular line through the origin
    f = germ([{(2, 0, 0): 1, (0, 3, 0): 1}, {(0, 2, 0): 1, (1, 0, 1): 1}], 3)
    assert ke_codimension(f) == INFINITE


def test_ke_isolated_variant_of_the_nonisolated_pair():
    f = germ([{(2, 0, 0): 1, (0, 0, 3): 1}, {(0, 2, 0): 1, (1, 0, 1): 1}], 3)
    assert ke_codimension(f) == 8


# ---------------------------------------------------------------- corank


def test_corank_values():
    assert corank(germ([{(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}], 3)) == 0
    assert corank(germ([{(1, 0): 1}, {(0, 3): 1}], 2)) == 1
    assert corank(germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)) == 2
    assert corank(germ([{}, {}], 3)) == 3


@pytest.mark.parametrize("seed", range(6))
def test_matrix_rank_equals_sympy_on_rank_deficient_rational_matrices(seed):
    rng = random.Random(f"matrix_rank|{seed}")
    for _ in range(8):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        inner = rng.randint(0, min(rows, cols))
        left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for _ in range(inner)] for _ in range(rows)]
        right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(cols)] for _ in range(inner)]
        m = [[sum((a[k] * right[k][j] for k in range(inner)), Fraction(0))
              for j in range(cols)] for a in left]
        if rows > 1 and rng.random() < 0.5:
            m[-1] = [x + 2 * y for x, y in zip(m[0], m[-1])]
        want = sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(
            m[i][j].numerator, m[i][j].denominator)).rank()
        assert ga.matrix_rank(m) == want
        assert want <= inner


# ---------------------------------------------------------------- rank0_reduce


@pytest.mark.parametrize("order", [65, 10 ** 6])
def test_a_germ_built_in_code_keeps_the_order_budget(order):
    # the A8 germ whose whole-germ reduction ran past a minute at 10**6
    polys = [{(1, 0): 1, (0, 2): 1, (1, 1): 1}, {(0, 9): 1, (5, 0): 1}]
    with pytest.raises(ValueError,
                       match=rf"^map-germ order must be in 0\.\.64, got {order}$"):
        germ(polys, 2, order=order)
    assert germ(polys, 2, order=64).order == 64


def test_reduce_full_rank_is_regular():
    assert rank0_reduce(germ([{(1, 0): 1}, {(0, 1): 1}], 2)) is REGULAR
    assert rank0_reduce(germ([{(1, 0): 1, (0, 2): 1}], 2)) is REGULAR


def test_reduce_rank_zero_passthrough():
    f = germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)
    assert rank0_reduce(f) == f


def test_reduce_eliminates_regular_direction():
    f = germ([{(1, 0): 1, (0, 2): 1}, {(0, 3): 1}], 2)
    theta = rank0_reduce(f)
    assert theta.source_dim == 1 and theta.target_dim == 1
    assert local_algebra(theta).hilbert == (1, 1, 1)


def test_reduce_preserves_algebra_and_codimension():
    rng = random.Random(20260819)
    base = germ([{(3, 0): 1, (0, 3): 1}], 2)
    for _ in range(12):
        # suspend by a regular direction with random higher-order coupling
        a = {(0, 0, 0, 1): 1}
        for _ in range(rng.randint(0, 2)):
            e = tuple(rng.randint(0, 2) for _ in range(4))
            if sum(e) >= 2:
                a[e] = a.get(e, 0) + rng.choice([1, -1, Fraction(1, 2)])
        coupled = {}
        for exps, c in base.components[0].items():
            coupled[exps + (0, 0)] = c
        extra = tuple(rng.randint(0, 1) for _ in range(4))
        if sum(extra) >= 2:
            coupled[extra] = coupled.get(extra, 0) + rng.choice([1, -1])
        f = germ([coupled, a], 4)
        theta = rank0_reduce(f)
        assert theta.source_dim == 3 and theta.target_dim == 1
        assert ke_codimension(f) == ke_codimension(theta)
        # ideal quotients are isomorphic through a filtered coordinate
        # change, so the Hilbert functions agree on the explored range
        hf = local_algebra(f).hilbert
        ht = local_algebra(theta).hilbert
        span = min(len(hf), len(ht))
        assert hf[:span] == ht[:span]


# sha256 of the rank0_reduce outputs, one line each (the sorted
# mapgerm_to_dict JSON, or REGULAR): the lambda-contact maps of pair seeds
# 0-3 of every (n, q, k) with n <= 3 at the three lambdas below, then
# random_k_move seeds 0-2 of every catalogue normal form, by label
REDUCE_FINGERPRINT = \
    "fb8e24903f0b5272fb0d0b5ebb32f9b393dcf0250053e2491c55e3e993951075"


def test_rank0_reduce_keeps_its_frozen_fingerprint():
    combos = [(n, q, k) for n in range(1, 4) for k in range(1, n + 1)
              for q in range(2 * n - k + 1, 2 * n + 1)]
    assert len(combos) == 10
    germs = [lambda_contact_from_pair(random_graph_pair(*combo, seed=seed), lam)
             for combo in combos for seed in range(4)
             for lam in (Fraction(1, 3), Fraction(-3, 4), Fraction(5, 2))]
    classes = {cls.label: cls
               for n in range(1, 6) for q in range(n + 1, 2 * n + 1)
               if is_nice_dimensions(n, q)
               for row in stable_singularities(n, q).rows
               for cls in row.entries}
    for label in sorted(classes):
        form = normal_form(classes[label], classes[label].intrinsic_source)
        germs += [random_k_move(form, seed) for seed in range(3)]
    h = hashlib.sha256()
    for f in germs:
        theta = rank0_reduce(f)
        line = theta if theta is REGULAR else \
            json.dumps(mapgerm_to_dict(theta), sort_keys=True)
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == REDUCE_FINGERPRINT


# ---------------------------------------------------------------- miniversal


def test_miniversal_complement_two_component():
    f = germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)
    basis = miniversal_basis(f)
    assert len(basis) == 4
    comps = [y1 * y2, y1**2 + y2**2]
    tangent = oracle.ke_tangent_generators(comps, (y1, y2))
    extra = []
    for g in basis:
        vec = []
        for p in g.polys():
            expr = sympy.Integer(0)
            for exps, c in p.items():
                expr += sympy.Rational(c.numerator, c.denominator) * y1 ** exps[0] * y2 ** exps[1]
            vec.append(expr)
        extra.append(tuple(vec))
    assert oracle.is_complement(tangent, extra, (y1, y2), 2, 6)


def test_miniversal_count_matches_codimension():
    for polys, s in [
        ([{(3,): 1}], 1),
        ([{(2, 1): 1, (0, 3): 1}], 2),
        ([{(2, 0): 1, (0, 3): 1}, {(0, 3): 1}], 2),
    ]:
        f = germ(polys, s)
        assert len(miniversal_basis(f)) == ke_codimension(f)


def test_miniversal_rejects_infinite():
    with pytest.raises(ArithmeticError):
        miniversal_basis(germ([{}], 2))


# ---------------------------------------------------------------- jet_compose


@pytest.mark.parametrize("seed", range(8))
def test_p_compose_sums_float_jets_like_the_float_reference(seed):
    # dyadic coefficients make sums cancel to exactly 0.0, which is where
    # dropping an entry early would move its key, and so the order in
    # which a later product rounds
    rng = random.Random(f"fcompose|{seed}")
    n, order = rng.randint(1, 3), rng.randint(2, 5)
    monos = [m for m in ga.monomials_upto(n, order) if sum(m)]

    def jet():
        return {m: rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))
                for m in rng.sample(monos, min(len(monos), 6))}

    for _ in range(10):
        f, args = jet(), [jet() for _ in range(n)]
        want = fcompose(f, args, n, order)
        assert list(ga.p_compose(f, args, n, order).items()) == list(want.items())


RATIONAL_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6),
              st.sampled_from((1, 2, 3, 4, 9, 999983, 1000003, 2 ** 61 - 1))),
)
# dyadic values cancel to an exact 0.0 and their products make -0.0; 0.1,
# -1/3 and the huge values round, overflow and make nan, so the order of
# the sums shows in the bits
FLOAT_COEFFS = st.sampled_from(
    (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 0.1, -1 / 3, 1e200, -1e200))


@st.composite
def jet_problems(draw, coeffs):
    """(p, args, n, order): n in 1-6, order up to 12, terms up to two
    degrees above the order, constant terms in the args included."""
    n, order = draw(st.integers(1, 6)), draw(st.integers(0, 12))

    def jet(terms, low):
        variables = st.lists(st.integers(0, n - 1), min_size=low,
                             max_size=order + 2)
        exps = variables.map(lambda vs: tuple(vs.count(i) for i in range(n)))
        return draw(st.dictionaries(exps, coeffs, max_size=terms))

    return jet(5, 1), [jet(4, 0) for _ in range(n)], n, order


def cancelling_problem(one):
    """x - y + z at x = t + t^2, y = t, z = t^2 + t: the t entry cancels
    to zero after y and comes back with z, so dropping it early would move
    its key behind t^2."""
    t, t2 = (1, 0, 0), (2, 0, 0)
    p = {(1, 0, 0): one, (0, 1, 0): -one, (0, 0, 1): one}
    return p, [{t: one, t2: one}, {t: one}, {t2: one, t: one}], 3, 3


def kernel_settings(examples):
    return settings(max_examples=examples, derandomize=True, database=None,
                    deadline=None)


@kernel_settings(150)
@given(problem=jet_problems(RATIONAL_COEFFS))
@example(problem=cancelling_problem(Fraction(1, 3)))
def test_packed_kernel_matches_the_tuple_kernel_over_q(problem):
    # mixed int/Fraction coefficients over unrelated denominators: the
    # integer loop over one common denominator gives the same keys, key
    # order and values, cancelled terms included
    p, args, n, order = problem
    want = list(tuple_p_compose(p, args, n, order).items())
    assert list(ga.p_compose(p, args, n, order).items()) == want
    with pytest.MonkeyPatch.context() as mp:
        # a common denominator above the bit limit takes the Fraction loop
        mp.setattr(ga, "_INTEGER_LOOP_BITS", -1)
        assert list(ga.p_compose(p, args, n, order).items()) == want
    for a in args:
        assert list(ga.p_mul(p, a, order).items()) == \
            list(tuple_p_mul(p, a, order).items())


@kernel_settings(150)
@given(problem=jet_problems(FLOAT_COEFFS))
@example(problem=cancelling_problem(0.1))
def test_packed_kernel_matches_the_tuple_kernel_bit_for_bit_over_floats(problem):
    p, args, n, order = problem
    assert repr(list(ga.p_compose(p, args, n, order).items())) == \
        repr(list(tuple_p_compose(p, args, n, order).items()))
    for a in args:
        assert repr(list(ga.p_mul(p, a, order).items())) == \
            repr(list(tuple_p_mul(p, a, order).items()))


@pytest.mark.parametrize("one", (1, 1.0))
def test_terms_above_the_order_stay_out_of_the_neighbouring_field(one):
    # at order 3 a field is 3 bits wide, so x^8 packed as it stands would
    # read as y; the products and powers of y below must not see it
    x8, y = (8, 0), (0, 1)
    assert ga.p_mul({x8: one, y: one}, {y: one}, 3) == {(0, 2): one}
    assert ga.p_mul({(0, 0): one}, {x8: one}, 3) == {}
    assert ga.p_compose({(0, 2): one}, [{x8: one}, {x8: one, y: one}],
                        2, 3) == {(0, 2): one}


def test_compose_pinned_value():
    outer = germ([{(2,): 1}], 1, order=3)
    inner = germ([{(1,): 1, (2,): 1}], 1, order=3)
    composed = jet_compose(outer, inner)
    assert composed.components[0] == {(2,): 1, (3,): 2}


def test_compose_identity_laws():
    f = germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)
    assert jet_compose(f, germ([{(1, 0): 1}, {(0, 1): 1}], 2, f.order)) == f
    assert jet_compose(germ([{(1, 0): 1}, {(0, 1): 1}], 2, f.order), f) == f


def _random_small_germ(rng, s, t, order):
    polys = []
    for _ in range(t):
        p = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(s))
            if 1 <= sum(e) <= 3:
                p[e] = p.get(e, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        p[(1,) + (0,) * (s - 1)] = p.get((1,) + (0,) * (s - 1), 0) + 1
        polys.append(p)
    return MapGerm.from_polys(polys, s, order=order)


def test_compose_is_associative():
    rng = random.Random(7)
    for _ in range(10):
        f = _random_small_germ(rng, 2, 2, 5)
        g = _random_small_germ(rng, 2, 2, 5)
        h = _random_small_germ(rng, 2, 2, 5)
        assert jet_compose(jet_compose(f, g), h) == jet_compose(f, jet_compose(g, h))


def test_compose_dimension_mismatch():
    f = germ([{(2,): 1}], 1)
    g = germ([{(1, 1): 1}, {(2, 0): 1}], 2)
    with pytest.raises(ValueError):
        jet_compose(g, f)
    with pytest.raises(ValueError):
        jet_compose(f, g)


# ---------------------------------------------------------------- K-moves


def test_k_move_preserves_invariants():
    targets = [
        germ([{(2, 1): 1, (0, 3): 1}], 2),
        germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2),
        germ([{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, {(0, 1, 1): 1}], 3),
    ]
    for f in targets:
        mu = ke_codimension(f)
        ck = corank(f)
        for seed in range(6):
            g = random_k_move(f, seed)
            assert ke_codimension(g) == mu
            assert corank(g) == ck


def test_k_move_is_deterministic():
    f = germ([{(2, 1): 1, (0, 3): 1}], 2)
    assert random_k_move(f, 42) == random_k_move(f, 42)
    assert random_k_move(f, 42) != random_k_move(f, 43)


# ---------------------------------------------------------------- serialization


def test_json_round_trip():
    rng = random.Random(99)
    for _ in range(20):
        f = _random_small_germ(rng, rng.randint(1, 3), rng.randint(1, 2), 6)
        assert mapgerm_from_json(mapgerm_to_json(f)) == f


def test_json_coefficient_forms():
    d = {
        "source_dim": 1,
        "target_dim": 1,
        "order": 6,
        "components": [[
            {"coeff": "1/2", "exponents": [2]},
            {"coeff": "-3", "exponents": [3]},
        ]],
    }
    f = mapgerm_from_dict(d)
    assert f.components[0] == {(2,): Fraction(1, 2), (3,): -3}
    back = mapgerm_to_dict(f)
    assert mapgerm_from_dict(back) == f


def test_json_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        mapgerm_from_json("not json at all {{{")
    with pytest.raises(ValueError):
        mapgerm_from_dict({"source_dim": 1, "target_dim": 1, "order": 4})
    with pytest.raises(ValueError):
        mapgerm_from_dict({
            "source_dim": 1, "target_dim": 1, "order": 4,
            "components": [[{"coeff": "x", "exponents": [2]}]],
        })
    with pytest.raises(ValueError):
        mapgerm_from_dict({
            "source_dim": 2, "target_dim": 1, "order": 4,
            "components": [[{"coeff": "1", "exponents": [2]}]],
        })


# ---------------------------------------------------------------- construction


def test_mapgerm_rejects_constant_terms():
    with pytest.raises(ValueError):
        germ([{(0, 0): 1, (1, 0): 1}], 2)


def test_mapgerm_rejects_bad_exponents():
    with pytest.raises(ValueError):
        germ([{(1, 0, 0): 1}], 2)
    with pytest.raises(ValueError):
        germ([{(-1,): 1}], 1)


def test_reports_are_deterministic():
    f = germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)
    assert local_algebra(f) == local_algebra(f)
    assert repr(rank0_reduce(germ([{(1, 0): 1, (0, 2): 1}, {(0, 3): 1}], 2))) == repr(
        rank0_reduce(germ([{(1, 0): 1, (0, 2): 1}, {(0, 3): 1}], 2))
    )


# ------------------------------------------------------------ hilbert prefix


def test_hilbert_prefix_agrees_with_full_report_when_finite():
    f = germ([{(3,): 1}], 1)
    assert hilbert_prefix(f, 8) == local_algebra(f).hilbert == (1, 1, 1)
    g = germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)
    assert hilbert_prefix(g, 8) == local_algebra(g).hilbert


def test_hilbert_prefix_of_non_isolated_ideal():
    # one square in two variables: two fresh monomials per degree
    f = germ([{(2, 0): 1}], 2)
    assert hilbert_prefix(f, 5) == (1, 2, 2, 2, 2, 2)


def test_hilbert_prefix_depth_controls_length_not_values():
    f = germ([{(2, 0): 1, (0, 3): 1}, {(1, 1): 1}], 2)
    long = hilbert_prefix(f, 9)
    short = hilbert_prefix(f, 3)
    assert long[:4] == short[:4]
    comps = [y1 ** 2 + y2 ** 3, y1 * y2]
    qs = [oracle.ideal_quotient_dimension(comps, [y1, y2], d)
          for d in range(4)]
    assert short == tuple(qs[d] - (qs[d - 1] if d else 0) for d in range(4))


# ------------------------------------------------- certified modular engine

P1 = ga._PRIMES[0]


def _local_report(f):
    r = local_algebra(f)
    return r.dimension, r.hilbert, r.basis, r.stabilized


def _moved_germs():
    """Small germs of every source dimension, with their K-moves."""
    base = [
        germ([{(3,): 1}], 1),
        germ([{(2, 1): 1, (0, 3): 1}], 2),
        germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2),
        germ([{(2, 0): 1, (0, 3): 1}, {(0, 3): 1}], 2),
        germ([{(2, 0, 0): 1, (0, 1, 1): 1}, {(1, 1, 0): 1, (0, 0, 3): 1}], 3),
        germ([{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}], 3),
        germ([{(2, 0): 1}], 2),
    ]
    return base + [random_k_move(f, seed) for f in base for seed in (1, 2)]


def test_local_algebra_and_miniversal_basis_match_the_fraction_engine():
    for f in _moved_germs():
        modular, exact = both_engines(_local_report, f)
        assert modular == exact
        modular, exact = both_engines(ke_quotient_hilbert, f)
        assert modular == exact
        if modular != INFINITE:
            modular, exact = both_engines(miniversal_basis, f)
            assert modular == exact


def _no_axis_test(gens, source_dim):
    return False


def _random_small_germs():
    """Forty random germs in one or two variables, with coefficients that
    three-digit primes divide; many have an infinite quotient."""
    rng = random.Random(20)
    out = []
    for _ in range(40):
        s = rng.choice((1, 2))
        polys = []
        for _ in range(rng.choice((1, 2))):
            p = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 5) for _ in range(s))
                if 0 < sum(e) <= 7:
                    num = rng.choice((1, -1, 101, 2 * 103, 107 * 109))
                    p[e] = Fraction(num, rng.choice((1, 2, 113)))
            polys.append(p)
        out.append(germ(polys, s))
    return out


def test_module_dimension_matches_fraction_on_small_primes(monkeypatch):
    # With three-digit primes, unlucky primes, failed lifts and mod-p
    # ladders that stop on the wrong rung are common, so every branch of
    # the certificate and of the ladder replay runs against the oracle.
    # The axis test is off, so the germs it proves infinite climb too.
    monkeypatch.setattr(ga, "_PRIMES", (101, 103, 107, 109, 113, 127))
    monkeypatch.setattr(ga, "_axis_in_zero_set", _no_axis_test)
    cases = 0
    for f in _moved_germs():
        for gens, slots in ((ga._ideal_gens(f), 1),
                            (ga._tangent_gens(f), f.target_dim)):
            args = (gens, f.source_dim, slots, ga._analysis_cap(f))
            modular, exact = both_engines(ga._module_dimension, *args)
            assert modular == exact
            cases += 1
    for f in _random_small_germs():
        args = (ga._ideal_gens(f), f.source_dim, 1, ga._analysis_cap(f))
        modular, exact = both_engines(ga._module_dimension, *args)
        assert modular == exact, f.polys()
        cases += 1
    assert cases == 82


def test_a_prime_dividing_a_denominator_is_skipped(monkeypatch):
    used = []
    eliminate = ga._eliminate_mod

    def spy(rows, p):
        used.append(p)
        return eliminate(rows, p)

    monkeypatch.setattr(ga, "_eliminate_mod", spy)
    f = germ([{(1, 0): Fraction(1, P1), (0, 2): 1}, {(0, 3): 1}], 2)
    modular, exact = both_engines(_local_report, f)
    assert modular == exact == (3, (1, 1, 1), ((0, 0), (0, 1), (0, 2)), True)
    assert used and P1 not in used


def test_an_unlucky_first_prime_is_caught_by_the_check():
    # mod P1 the ideal is (y1^2, y2^2) with h = (1, 2, 1); over Q the
    # lead of y1^2 + P1*y2 is y2 and h = (1, 1, 1, 1)
    f = germ([{(2, 0): 1, (0, 1): P1}, {(0, 2): 1}], 2)
    modular, exact = both_engines(_local_report, f)
    assert modular == exact
    assert modular[:2] == (4, (1, 1, 1, 1))
    modular, exact = both_engines(ke_codimension, f)
    assert modular == exact


def test_ladder_replay_settles_below_the_rung_where_mod_p_stopped():
    # mod P1 the germ is y^6, so the one-prime climb stops at rung 6;
    # over Q its lead is y and the Fraction ladder stops at rung 4
    f = germ([{(1,): P1, (6,): 1}], 1)
    args = (ga._ideal_gens(f), 1, 1, ga._analysis_cap(f))
    modular, exact = both_engines(ga._module_dimension, *args)
    assert modular == exact
    assert modular[0] == 1 and modular[4] == 4


def test_ladder_replay_climbs_past_the_rung_where_mod_p_stopped():
    # mod P1 the ideal is (y1^6, y1*y2, y2^2), finite with its zero in
    # degree 6; over Q, y2 = y1^6/P1 and the zero is in degree 7, above rung 6
    f = germ([{(6, 0): 1, (0, 1): -P1}, {(1, 1): 1}, {(0, 2): 1}], 2)
    args = (ga._ideal_gens(f), 2, 1, ga._analysis_cap(f))
    modular, exact = both_engines(ga._module_dimension, *args)
    assert modular == exact
    assert modular[:3] == (7, [1] * 7, True) and modular[4] == 7
    assert _local_report(f)[:2] == (7, (1,) * 7)


def _spy_primes(monkeypatch):
    """The primes `_eliminate_mod` runs on, in order, and the rows of every
    Fraction fallback, as two lists that grow while the spies stay."""
    used, fallbacks = [], []
    eliminate, exact = ga._eliminate_mod, ga._eliminate_exact

    def spy_mod(rows, p):
        used.append(p)
        return eliminate(rows, p)

    def spy_exact(rows):
        fallbacks.append(rows.order)
        return exact(rows)

    monkeypatch.setattr(ga, "_eliminate_mod", spy_mod)
    monkeypatch.setattr(ga, "_eliminate_exact", spy_exact)
    return used, fallbacks


def test_tall_coefficients_need_more_than_one_prime(monkeypatch):
    # the kernel vector of the free monomial y1^2 holds c: 2^40 + 15 is
    # past the one-prime reconstruction bound of about 2^30 and inside the
    # two-prime bound of about 2^60, and 2^600 + 1 is past the bound of
    # about 2^243 that all eight 61-bit primes reach
    def tall(c):
        return germ([{(0, 1): 1, (2, 0): -c}, {(3, 0): 1}], 2)

    used, fallbacks = _spy_primes(monkeypatch)
    report = (3, (1, 1, 1), ((0, 0), (1, 0), (2, 0)), True)
    assert _local_report(tall(2 ** 40 + 15)) == report
    assert used == list(ga._PRIMES[:2]) and fallbacks == []
    used.clear()
    assert _local_report(tall(2 ** 600 + 1)) == report
    assert used == list(ga._PRIMES) and fallbacks == [4]
    # one prime alone cannot reach 2^40 + 15 now that the modulus grows
    # only across primes, so the Fraction elimination answers
    monkeypatch.setattr(ga, "_PRIMES", ga._PRIMES[:1])
    fallbacks.clear()
    assert _local_report(tall(2 ** 40 + 15)) == report
    assert fallbacks == [4]


def _unlucky_rows():
    """Rows at truncation 4 of an ideal that P1 makes unlucky: mod P1 it
    is (y1^2, y2^2) and y2 is free with kernel vector e_y2; over Q the
    row y1^2 + P1*y2 leads with y2, and the kernel vector of y1^2 is -1/P1
    at y2, which needs three 61-bit moduli."""
    f = germ([{(2, 0): 1, (0, 1): P1}, {(0, 2): 1}], 2)
    return ga._Rows(ga._ideal_gens(f), 2, 1, 4)


def test_a_prime_with_earlier_pivots_restarts_the_residues(monkeypatch):
    # mod P1 the lift e_y2 is refused, since the row y1^2 + P1*y2 does not
    # annihilate it; mod the next prime y2 is a pivot, so that prime's key
    # is smaller, its residues replace P1's and the primes after it join
    rows = _unlucky_rows()
    oracle_pivots = ga._eliminate_exact(rows)
    used, fallbacks = _spy_primes(monkeypatch)
    assert ga._certified_pivots(rows) == oracle_pivots
    assert used == list(ga._PRIMES[:4]) and fallbacks == []


def test_a_prime_with_later_pivots_is_skipped(monkeypatch):
    # the unlucky P1 comes second: its key is larger than the first
    # prime's, so it is skipped, and the third and fourth primes join the
    # first; had P1 restarted the residues, the third prime would restart
    # them again and a fifth would be needed
    rows = _unlucky_rows()
    oracle_pivots = ga._eliminate_exact(rows)
    P2, *rest = ga._PRIMES[1:]
    monkeypatch.setattr(ga, "_PRIMES", (P2, P1, *rest))
    used, fallbacks = _spy_primes(monkeypatch)
    assert ga._certified_pivots(rows) == oracle_pivots
    assert used == [P2, P1, *rest[:2]] and fallbacks == []


# ------------------------------------------- cutoff at the first full degree

RING_COMBOS = ((1, 2, 1), (2, 4, 1), (2, 4, 2), (3, 6, 1), (3, 6, 2),
               (3, 6, 3))


def _rungs(f, top=None):
    cap = ga._analysis_cap(f)
    return [D for D in range(min(4, cap), cap + 3) if top is None or D <= top]


def _assert_cutoff_matches_full_elimination(gens, source_dim, slots, rungs):
    for D in rungs:
        rows = ga._Rows(gens, source_dim, slots, D)
        p = rows.primes()[0]
        cut = ga._eliminate_mod(rows, p)
        full = full_eliminate_mod(rows, p)
        assert cut.keys() == full.keys(), (source_dim, slots, D)
        free = set(range(len(rows.keys))).difference(full)
        assert ga._free_entries(cut, free, p) == \
            ga._free_entries(full, free, p), (source_dim, slots, D)


def _ring_germs(combo, seed):
    gp = random_graph_pair(*combo, seed=seed)
    lam = Fraction(1, 3)
    kappa = lambda_contact_from_pair(gp, lam)
    return [pi_tilde_local(gp, lam), kappa, rank0_reduce(kappa)]


@pytest.mark.parametrize("combo", RING_COMBOS)
def test_cutoff_pivots_equal_the_full_elimination_on_ring_pairs(combo):
    # every rung of the three rings, up to rung 5 in six variables
    for seed in range(4):
        for f in _ring_germs(combo, seed):
            top = 5 if f.source_dim == 6 else None
            _assert_cutoff_matches_full_elimination(
                ga._ideal_gens(f), f.source_dim, 1, _rungs(f, top))


def _moved_two_slot_germs():
    """The catalogue classes with two target components, each moved by
    seeds 0 and 1."""
    forms = {}
    for pair in ((2, 3), (2, 4), (3, 5), (4, 7), (4, 8)):
        for row in stable_singularities(*pair).rows:
            for cls in row.entries:
                forms.setdefault(cls.label, cls)
    out = []
    for label in sorted(forms):
        form = normal_form(forms[label], forms[label].intrinsic_source)
        if form.target_dim >= 2:
            out += [random_k_move(form, seed) for seed in (0, 1)]
    assert len(out) >= 40
    return out


def test_cutoff_pivots_equal_the_full_elimination_on_tangent_modules():
    # the cutoff counts every slot of a degree before it fires; rungs
    # above 6 cost the full elimination seconds in three variables
    for f in _moved_two_slot_germs():
        _assert_cutoff_matches_full_elimination(
            ga._tangent_gens(f), f.source_dim, f.target_dim, _rungs(f, 6))


def test_ring_dims_of_the_slowest_bench_pair():
    dims = local_ring_dims(random_graph_pair(3, 6, 3, seed=0), Fraction(1, 3))
    assert dims.dimensions == (12, 12, 12)
    assert dims.pi.hilbert == dims.kappa.hilbert == dims.theta.hilbert \
        == (1, 3, 4, 3, 1)


def test_only_three_certificates_run_a_second_elimination(monkeypatch):
    # every elimination of the bench rings is mod the first usable prime,
    # once per set of rows, except that the three rings of (3,6,3) pair
    # seed 0 hold kernel entries too tall for one modulus: each of their
    # certificates joins one elimination mod the second prime by the CRT
    eliminated = weakref.WeakSet()
    second = []
    eliminate = ga._eliminate_mod

    def spy(rows, p):
        if rows in eliminated or p != rows.primes()[0]:
            second.append((combo, seed, rows.order, len(rows.keys), p))
        eliminated.add(rows)
        return eliminate(rows, p)

    monkeypatch.setattr(ga, "_eliminate_mod", spy)
    for combo in RING_COMBOS:
        for seed in range(4):
            dims = local_ring_dims(random_graph_pair(*combo, seed=seed),
                                   Fraction(1, 3))
            if (combo, seed) == ((3, 6, 3), 0):
                assert dims.dimensions == (12, 12, 12)
                assert dims.pi.hilbert == dims.kappa.hilbert \
                    == dims.theta.hilbert == (1, 3, 4, 3, 1)
    P2 = ga._PRIMES[1]
    assert second == [((3, 6, 3), 0, 5, 462, P2),
                      ((3, 6, 3), 0, 5, 56, P2),
                      ((3, 6, 3), 0, 5, 56, P2)]


def test_ring_dims_of_the_pair_that_took_eleven_seconds():
    # the 6-variable pi ring climbs every rung to cap + 2; before the
    # Koszul criterion this pair took 10.5-12.3 s, with it about 0.3 s
    dims = local_ring_dims(random_graph_pair(3, 6, 3, seed=5), Fraction(1, 3))
    assert dims.dimensions == (INFINITE,) * 3
    assert dims.pi.hilbert == (1, 3, 3, 3, 3, 2, 2, 2, 2)


# ------------------------------------------------------ the Koszul criterion


def _kept_only(rows):
    """A copy of `rows` whose built rows are its kept rows, for
    `_eliminate_exact`."""
    view = copy.copy(rows)
    view.rows = rows.kept
    return view


def _assert_kept_rows_span_the_built_rows(gens, source_dim, slots, rungs):
    """Pivots over Q of the kept and the built rows at every rung; returns
    the number of rows dropped."""
    dropped = 0
    for D in rungs:
        rows = ga._Rows(gens, source_dim, slots, D)
        assert ga._eliminate_exact(_kept_only(rows)) == \
            ga._eliminate_exact(rows), (source_dim, slots, D)
        built = {id(row) for row in rows.rows}
        assert built.issuperset(map(id, rows.kept))
        dropped += len(rows.rows) - len(rows.kept)
    return dropped


@pytest.mark.parametrize("combo", RING_COMBOS)
def test_kept_rows_span_the_built_rows_on_ring_pairs(combo):
    # every rung up to the one where the ladder stops, in the three rings
    pi_dropped = 0
    for seed in range(4):
        for name, f in zip(("pi", "kappa", "theta"), _ring_germs(combo, seed)):
            gens = ga._ideal_gens(f)
            used = ga._module_dimension(gens, f.source_dim, 1,
                                        ga._analysis_cap(f))[4]
            dropped = _assert_kept_rows_span_the_built_rows(
                gens, f.source_dim, 1, _rungs(f, used))
            if name == "pi":
                pi_dropped += dropped
    assert pi_dropped > 0


def test_kept_rows_span_the_built_rows_on_tangent_modules():
    # up to the rung where the ladder stops
    for f in _moved_two_slot_germs():
        gens = ga._tangent_gens(f)
        used = ga._module_dimension(gens, f.source_dim, f.target_dim,
                                    ga._analysis_cap(f))[4]
        _assert_kept_rows_span_the_built_rows(
            gens, f.source_dim, f.target_dim, _rungs(f, used))


def test_a_one_slot_derivative_column_drops_rows_of_later_generators():
    # (x^2 + y^2, y^3 + z^2): d/dx = 2x*e_0 and d/dz = 2z*e_1 sit in one
    # slot each, so x*m*(f_1*e_0) and z*m*(f_1*e_1) are dropped
    f = germ([{(2, 0, 0): 1, (0, 2, 0): 1}, {(0, 3, 0): 1, (0, 0, 2): 1}], 3)
    gens = ga._tangent_gens(f)
    assert [len({slot for slot, _ in g}) for g in gens[:3]] == [1, 2, 1]
    rows = ga._Rows(gens, 3, 2, 5)
    kept = set(map(id, rows.kept))
    dropped = [(gi, rows.keys[cols[0]]) for gi, cols in
               (row for row in rows.rows if id(row) not in kept)]
    assert (3, (0, (1, 2, 0))) in dropped  # x * y^2 * e_0, lead of x*f_1*e_0
    assert (4, (1, (0, 2, 1))) in dropped  # z * y^2 * e_1, lead of z*f_1*e_1
    assert not any(gi < 3 for gi, _ in dropped)
    _assert_kept_rows_span_the_built_rows(gens, 3, 2, range(4, 9))
    modular, exact = both_engines(ke_quotient_hilbert, f)
    assert modular == exact != INFINITE


def test_fewer_generators_than_variables_is_infinite_at_the_cap():
    # Krull: one generator in two variables never cuts a finite quotient;
    # one certified elimination at the cap gives h and the basis
    f = germ([{(2, 0): 1, (0, 3): 1, (1, 2): 2}], 2)
    rep = local_algebra(f, order=5)
    assert rep.dimension == INFINITE and not rep.stabilized
    assert rep.hilbert == (1, 2, 2, 2, 2, 2)
    assert len(rep.basis) == sum(rep.hilbert)
    assert all(sum(m) <= 5 for m in rep.basis)
    modular, exact = both_engines(_local_report, random_k_move(f, 3))
    assert modular == exact and modular[0] == INFINITE
    # a zero component is no generator: (x^2 + y^3, 0) is still Krull
    g = germ([{(2, 0): 1, (0, 3): 1}, {}], 2)
    assert local_algebra(g, order=6).hilbert == (1, 2, 2, 2, 2, 2, 2)


@pytest.mark.parametrize("order", [0, -3])
def test_a_truncation_order_below_one_is_rejected(order):
    f = germ([{(2, 0): 1}, {(0, 2): 1}], 2)
    for fn in (local_algebra, ke_codimension, ke_quotient_hilbert,
               miniversal_basis):
        with pytest.raises(ValueError, match="order must be >= 1"):
            fn(f, order)


def test_a_truncation_order_above_the_budget_is_rejected():
    # 65 is the first order past the budget; the CLI test tries 10**9,
    # under a memory limit
    f = germ([{(2, 0): 1}, {(0, 2): 1}], 2)
    for fn in (local_algebra, ke_codimension, ke_quotient_hilbert,
               miniversal_basis):
        with pytest.raises(ValueError, match="order must be at most 64"):
            fn(f, 65)
    assert local_algebra(f, 64).dimension == ke_codimension(f, 64) == 4


# ------------------------------------------------------------ the axis proof


def _with_and_without_the_axis_test(monkeypatch, fn, *args):
    """fn(*args) as the engine runs it, and with the ladder alone."""
    got = fn(*args)
    with monkeypatch.context() as m:
        m.setattr(ga, "_axis_in_zero_set", _no_axis_test)
        ladder = fn(*args)
    return got, ladder


def _assert_the_axis_proof_agrees_with_the_ladder(monkeypatch, f):
    """The results of `_module_dimension` on the tangent module of f, and
    of the public functions, with the axis test and with the ladder alone.
    A proof skips the ladder, so there only the verdict and the order must
    agree.  Returns whether the test fires on the ideal and on the tangent
    module; `local_algebra` runs the ideal's `_module_dimension`."""
    gens = ga._tangent_gens(f)
    args = (gens, f.source_dim, f.target_dim, ga._analysis_cap(f))
    got, ladder = _with_and_without_the_axis_test(
        monkeypatch, ga._module_dimension, *args)
    tangent = ga._axis_in_zero_set(gens, f.source_dim)
    if tangent:
        assert ladder[0] == INFINITE
        assert got == (INFINITE, None, False, None, ladder[4])
    else:
        assert got == ladder
    for fn in (local_algebra, ke_codimension, ke_quotient_hilbert):
        got, ladder = _with_and_without_the_axis_test(monkeypatch, fn, f)
        assert got == ladder, fn.__name__
    return ga._axis_in_zero_set(ga._ideal_gens(f), f.source_dim), tangent


def test_the_axis_proof_never_fires_on_a_catalogue_germ(monkeypatch):
    classes = {cls.label: cls
               for n in range(1, 6) for q in range(n + 1, 2 * n + 1)
               if is_nice_dimensions(n, q)
               for row in stable_singularities(n, q).rows
               for cls in row.entries}
    assert len(classes) == 45
    for cls in classes.values():
        f = normal_form(cls, cls.intrinsic_source)
        for g in [f] + [random_k_move(f, seed) for seed in range(8)]:
            _, tangent = _assert_the_axis_proof_agrees_with_the_ladder(
                monkeypatch, g)
            assert not tangent, cls.label
            assert ke_codimension(g) == cls.mu


def test_the_axis_proof_agrees_with_the_ladder_on_random_germs(monkeypatch):
    fired = [_assert_the_axis_proof_agrees_with_the_ladder(monkeypatch, f)
             for f in _random_small_germs()]
    # both outcomes are exercised, on ideals and on tangent modules
    assert {ideal for ideal, _ in fired} == {False, True}
    assert {tangent for _, tangent in fired} == {False, True}


def _spy_eliminations(monkeypatch):
    """The truncation orders of the rows `_eliminate_mod` is called on."""
    orders = []
    eliminate = ga._eliminate_mod

    def spy(rows, p):
        orders.append(rows.order)
        return eliminate(rows, p)

    monkeypatch.setattr(ga, "_eliminate_mod", spy)
    return orders


# Each has a coordinate axis in the zero set of its contact tangent module:
# the y-axis of x^2*y, every axis of the zero germ, and the z-axis of a
# two-component germ that does not depend on z.
AXIS_DEGENERATE = [
    pytest.param(germ([{(2, 1): 1}], 2), id="x2y"),
    pytest.param(germ([{}], 2), id="zero"),
    pytest.param(germ([{(2, 0, 0): 1, (0, 2, 0): 1}, {(1, 1, 0): 1}], 3),
                 id="cylinder"),
]


@pytest.mark.parametrize("f", AXIS_DEGENERATE)
def test_an_axis_in_the_zero_set_proves_infinite_without_elimination(
        monkeypatch, f):
    orders = _spy_eliminations(monkeypatch)
    assert ke_codimension(f) == INFINITE
    assert ke_quotient_hilbert(f) == INFINITE
    assert orders == []
    rep, ladder = _with_and_without_the_axis_test(monkeypatch, local_algebra, f)
    assert rep == ladder and rep.dimension == INFINITE


def test_an_axis_proved_local_algebra_lists_the_ladders_h_and_basis(
        monkeypatch):
    # (x^2, xy) has two generators in two variables, so Krull does not
    # apply; y is no pure power, so the y-axis lies in the zero set
    f = germ([{(2, 0): 1}, {(1, 1): 1}], 2)
    cap = ga._analysis_cap(f)
    orders = _spy_eliminations(monkeypatch)
    rep = local_algebra(f)
    assert orders == [cap + 2]
    with monkeypatch.context() as m:
        m.setattr(ga, "_axis_in_zero_set", _no_axis_test)
        assert local_algebra(f) == rep
    assert orders[1:] == list(range(4, cap + 3))
    assert rep.dimension == INFINITE and not rep.stabilized
    assert rep.hilbert == (1, 2) + (1,) * (cap + 1)
    assert len(rep.basis) == sum(rep.hilbert)


# ROADMAP item 2: the ladder ends at cap + 2 (14 and 10 here) before the
# first zero of h (degrees 17 and 13), so these finite germs read INFINITE.
LADDER_TOO_SHORT = [
    pytest.param(germ([{(10, 0): 1, (0, 10): 1}], 2, order=12), 81,
                 id="x10+y10"),
    pytest.param(germ([{(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1}], 3,
                      order=8), 125, id="x6+y6+z6"),
]


@pytest.mark.parametrize("f, mu", LADDER_TOO_SHORT)
def test_pure_powers_keep_a_germ_on_the_ladder(f, mu):
    assert not ga._axis_in_zero_set(ga._tangent_gens(f), f.source_dim)


@pytest.mark.xfail(strict=True, reason="the ladder stops at cap + 2")
@pytest.mark.parametrize("f, mu", LADDER_TOO_SHORT)
def test_ke_codimension_of_a_germ_whose_h_vanishes_above_the_cap(f, mu):
    assert ke_codimension(f) == mu
