"""Adapted-pair pipeline checks: reflections, contact maps, the projection
local form, rank-0 reduction, and the three-ring agreement."""

import json
from fractions import Fraction

import pytest

from api_extras import lambda_reflection, swap_pair
from equidistants.germ_algebra import (
    INFINITE,
    REGULAR,
    MapGerm,
    corank,
    hilbert_prefix,
    local_algebra,
    mapgerm_from_dict,
    matrix_rank,
    rank0_reduce,
)
from equidistants.contact_lab import (
    GraphPair,
    contact_map,
    graphpair_from_dict,
    graphpair_from_json,
    graphpair_to_dict,
    graphpair_to_json,
    lambda_contact_from_pair,
    local_ring_dims,
    pi_tilde_local,
    random_graph_pair,
    reduce_to_theta,
)
from equidistants.normal_forms import recognize

half = Fraction(1, 2)
third = Fraction(1, 3)


def germ(polys, s):
    return MapGerm.from_polys(polys, s)


def curve_pair(phi, zeta, lam=None):
    """n=1, q=2, k=1: the z and v blocks are empty."""
    return GraphPair(
        1, 2, 1,
        phi=germ([phi], 1), psi=germ([], 1),
        eta=germ([], 1), zeta=germ([zeta], 1),
        lam=lam,
    )


FLAT = GraphPair(
    2, 4, 1,
    phi=germ([{}], 2), psi=germ([{}], 2),
    eta=germ([{}], 2), zeta=germ([{}], 2),
)


# -------------------------------------------------------------- reflection


def test_reflection_at_one_half_is_point_reflection():
    assert lambda_reflection((0, 0), half, (1, 2)) == (-1, -2)


def test_reflection_swaps_the_two_section_points():
    a_plus, a_minus = (3, 0), (0, 3)
    a = tuple(third * p + (1 - third) * m for p, m in zip(a_plus, a_minus))
    assert a == (1, 2)
    assert lambda_reflection(a, third, a_minus) == a_plus


def test_reflection_pair_composes_to_identity():
    import random
    rng = random.Random("reflect")
    for _ in range(20):
        lam = Fraction(rng.randint(1, 9), 10)
        if lam in (0, 1):
            continue
        a = tuple(Fraction(rng.randint(-5, 5), 3) for _ in range(3))
        x = tuple(Fraction(rng.randint(-5, 5), 2) for _ in range(3))
        y = lambda_reflection(a, lam, x)
        assert lambda_reflection(a, 1 - lam, y) == x


def test_reflection_accepts_floats():
    out = lambda_reflection((0.0, 0.0), 0.5, (1.0, 2.0))
    assert out == (-1.0, -2.0)


def test_reflection_rejects_degenerate_lambda():
    for lam in (0, 1, Fraction(1), "0"):
        with pytest.raises(ValueError):
            lambda_reflection((0,), lam, (1,))
    with pytest.raises(ValueError):
        lambda_reflection((0, 0), half, (1,))


# -------------------------------------------------------------- validation


def test_graphpair_requires_second_order_vanishing():
    with pytest.raises(ValueError):
        curve_pair({(1,): 1}, {(2,): 1})


def test_graphpair_checks_block_shapes():
    with pytest.raises(ValueError):
        GraphPair(1, 2, 1, phi=germ([{(2,)*1: 1}], 1), psi=germ([], 1),
                  eta=germ([], 1), zeta=germ([{}, {}], 1))
    with pytest.raises(ValueError):
        GraphPair(2, 4, 1, phi=germ([{}], 1), psi=germ([{}], 2),
                  eta=germ([{}], 2), zeta=germ([{}], 2))


def test_graphpair_dimension_domain():
    z2 = germ([{}], 2)
    with pytest.raises(ValueError):
        GraphPair(2, 5, 1, phi=z2, psi=z2, eta=z2, zeta=z2)  # q > 2n
    with pytest.raises(ValueError):
        GraphPair(2, 3, 0, phi=z2, psi=z2, eta=z2, zeta=z2)  # k < 1
    with pytest.raises(ValueError):
        # tangent spaces span: q + k - 2n = 0
        GraphPair(2, 3, 1, phi=z2, psi=z2, eta=z2, zeta=z2)


def test_graphpair_lambda_is_exact_and_nondegenerate():
    gp = curve_pair({(2,): 1}, {(2,): 1}, lam="1/3")
    assert gp.lam == third
    with pytest.raises(ValueError):
        curve_pair({(2,): 1}, {(2,): 1}, lam=1)
    with pytest.raises(ValueError):
        curve_pair({(2,): 1}, {(2,): 1}, lam="1/0")


# ------------------------------------------------------------- contact map


def test_contact_map_of_flat_pair_is_z_and_zero():
    kap = contact_map(FLAT)
    assert kap.polys() == [{(0, 1): Fraction(1)}, {}]
    assert corank(kap) == 1


def test_contact_map_curve_example():
    gp = curve_pair({(2,): 1}, {(2,): -1})
    kap = contact_map(gp)
    assert kap.polys() == [{(2,): Fraction(2)}]
    assert local_algebra(kap).dimension == 2


def test_contact_map_surface_example_recognized():
    gp = GraphPair(
        2, 4, 2,
        phi=germ([{(1, 1): 1}, {(2, 0): 1}], 2),
        psi=germ([], 2), eta=germ([], 2),
        zeta=germ([{}, {(0, 2): -1}], 2),
    )
    kap = contact_map(gp)
    assert kap.polys() == [
        {(1, 1): Fraction(1)},
        {(2, 0): Fraction(1), (0, 2): Fraction(1)},
    ]
    got = recognize(kap)
    assert (got.family, got.params) == ("C", (2, 2))


def test_contact_map_substitutes_psi_inside_eta():
    # eta(ytilde, v) = v^2, psi(y, z) = y^2: kappa z-slot = z - y^4
    gp = GraphPair(
        2, 4, 1,
        phi=germ([{}], 2),
        psi=germ([{(2, 0): 1}], 2),
        eta=germ([{(0, 2): 1}], 2),
        zeta=germ([{}], 2),
    )
    kap = contact_map(gp)
    assert kap.polys()[0] == {(0, 1): Fraction(1), (4, 0): Fraction(-1)}


@pytest.mark.parametrize("n,q,k", [
    (1, 2, 1), (2, 3, 2), (2, 4, 1), (2, 4, 2), (3, 5, 2), (3, 5, 3),
])
def test_corank_law_on_seeded_pairs(n, q, k):
    for seed in range(8):
        gp = random_graph_pair(n, q, k, seed)
        assert corank(contact_map(gp)) == k


# ----------------------------------------------------------- reduction


def test_reduce_to_theta_splits_off_regular_directions():
    kap = germ([{(0, 1): 1}, {(3, 0): 1}], 2)
    theta = reduce_to_theta(kap, 2, 4)
    assert theta.source_dim == 1 and theta.target_dim == 1
    assert theta.polys() == [{(3,): Fraction(1)}]


def test_reduce_to_theta_boundary_is_regular():
    # k = 2n - q: the reduced target dimension would be zero
    assert reduce_to_theta(germ([{(0, 1): 1}], 2), 2, 3) is REGULAR


def test_reduce_to_theta_checks_shape():
    with pytest.raises(ValueError):
        reduce_to_theta(germ([{(0, 1): 1}], 2), 2, 5)


ADMISSIBLE = [(n, q, k) for n in range(1, 5) for q in range(n + 1, 2 * n + 1)
              for k in range(1, n + 1) if q + k - 2 * n >= 1]


@pytest.mark.parametrize("n, q, k", ADMISSIBLE)
def test_a_graph_pair_contact_is_never_transversal(n, q, k):
    # the linear part of kappa is its z-block, of rank n - k, so the
    # reduction keeps q + k - 2n >= 1 components: local_ring_dims and the
    # contact subcommand rely on it
    for seed in range(3):
        gp = random_graph_pair(n, q, k, seed)
        for lam in (third, Fraction(-3, 4), Fraction(5, 2)):
            kap = lambda_contact_from_pair(gp, lam)
            assert corank(kap) == k
            theta = rank0_reduce(kap)
            assert theta is not REGULAR, (n, q, k, seed, lam)
            assert (theta.source_dim, theta.target_dim) == (k, q + k - 2 * n)


def test_reduction_preserves_component_ideal_growth():
    for seed in range(6):
        gp = random_graph_pair(2, 4, 2, seed)
        kap = contact_map(gp)
        theta = reduce_to_theta(kap, 2, 4)
        if theta is REGULAR:
            continue
        assert hilbert_prefix(kap, 6) == hilbert_prefix(theta, 6)


# ------------------------------------------------------- projection germ


def test_pi_tilde_curve_assembly():
    gp = curve_pair({(2,): 1}, {(2,): 1})
    pt = pi_tilde_local(gp, half)
    assert pt.polys() == [
        {(1, 0): half, (0, 1): half},
        {(2, 0): half, (0, 2): half},
    ]


def test_pi_tilde_linear_rank_and_target_corank():
    for (n, q, k) in ((1, 2, 1), (2, 3, 2), (2, 4, 1), (2, 4, 2),
                      (3, 5, 2), (3, 5, 3)):
        for seed in range(3):
            gp = random_graph_pair(n, q, k, seed)
            pt = pi_tilde_local(gp, third)
            assert pt.source_dim == 2 * n and pt.target_dim == q
            rank = matrix_rank(pt.linear_matrix())
            assert rank == 2 * n - k
            assert q - rank == q + k - 2 * n


def test_pi_tilde_needs_lambda():
    gp = curve_pair({(2,): 1}, {(2,): 1})
    with pytest.raises(ValueError):
        pi_tilde_local(gp)
    with pytest.raises(ValueError):
        pi_tilde_local(gp, 0)


# ------------------------------------------------------- reflected contact


def test_lambda_contact_at_one_half_flips_arguments():
    # eta = 0, zeta(yt) = yt^2, phi(y) = y^2 + y^3:
    # kappa_(1/2) = phi(y) + zeta(-y) = 2 y^2 + y^3
    gp = curve_pair({(2,): 1, (3,): 1}, {(2,): 1})
    kap = lambda_contact_from_pair(gp, half)
    assert kap.polys() == [{(2,): Fraction(2), (3,): Fraction(1)}]


def test_lambda_contact_scaling_at_one_third():
    # prefactor 2 and inner scale -1/2: zeta(yt)=yt^2 contributes
    # 2 * (y/2)^2 = y^2/2
    gp = curve_pair({(3,): 1}, {(2,): 1})
    kap = lambda_contact_from_pair(gp, third)
    assert kap.polys() == [{(2,): half, (3,): Fraction(1)}]


def test_lambda_contact_of_flat_pair_is_lambda_free():
    kaps = [lambda_contact_from_pair(FLAT, lam).polys()
            for lam in (third, half, Fraction(3, 4))]
    assert kaps[0] == kaps[1] == kaps[2]


def test_lambda_contact_uses_stored_lambda():
    gp = curve_pair({(2,): 1, (3,): 1}, {(2,): -1}, lam=half)
    assert lambda_contact_from_pair(gp).polys() == [{(3,): Fraction(1)}]


# ------------------------------------------------------------ ring dims


def test_ring_dims_on_cusp_pair():
    gp = curve_pair({(2,): 1, (3,): 1}, {(2,): -1}, lam=half)
    rd = local_ring_dims(gp)
    assert rd.dimensions == (3, 3, 3)
    assert rd.pi.hilbert == rd.kappa.hilbert == rd.theta.hilbert == (1, 1, 1)
    theta = reduce_to_theta(lambda_contact_from_pair(gp), 1, 2)
    assert local_algebra(theta).dimension == 3


def test_ring_dims_flat_pair_consistently_infinite():
    rd = local_ring_dims(FLAT, third)
    assert rd.dimensions == (INFINITE,) * 3


def test_ring_dims_agree_on_seeded_pairs_with_finite_contact():
    for (n, q, k) in ((1, 2, 1), (2, 4, 1), (2, 4, 2)):
        for seed in range(8):
            gp = random_graph_pair(n, q, k, seed)
            rd = local_ring_dims(gp, third)
            d = rd.dimensions
            assert d[0] == d[1] == d[2], (n, q, k, seed, d)
            if d[0] != INFINITE:
                assert rd.pi.hilbert == rd.kappa.hilbert == rd.theta.hilbert


def test_ring_dims_prefixes_agree_even_when_infinite():
    # q < 2n: the component ideals never cut a finite quotient, but the
    # per-degree dimensions still agree at a shared truncation order
    for seed in range(4):
        gp = random_graph_pair(2, 3, 2, seed)
        rd = local_ring_dims(gp, third, order=4)
        assert rd.pi.hilbert[:5] == rd.kappa.hilbert[:5] == \
            rd.theta.hilbert[:5]


def test_theta_hilbert_symmetric_under_swap():
    # swapping the two germs pairs lambda with 1-lambda
    for seed in range(6):
        gp = random_graph_pair(2, 4, 2, seed, lam=third)
        swapped = swap_pair(gp)
        assert swapped.lam == 1 - third
        a = local_ring_dims(gp).theta
        b = local_ring_dims(swapped).theta
        assert a.dimension == b.dimension
        if a.dimension != INFINITE:
            assert a.hilbert == b.hilbert


def test_swap_pair_is_an_involution():
    gp = random_graph_pair(2, 4, 2, 3, lam=third)
    assert swap_pair(swap_pair(gp)) == gp


# --------------------------------------------------------- serialization


def test_graphpair_json_round_trip():
    gp = random_graph_pair(2, 4, 2, 17, lam=third)
    clone = graphpair_from_json(graphpair_to_json(gp))
    assert clone == gp
    assert clone.lam == third
    bare = random_graph_pair(1, 2, 1, 5)
    assert graphpair_from_json(graphpair_to_json(bare)) == bare
    assert graphpair_to_dict(bare)["lambda"] is None


def test_graphpair_json_payload_shape():
    payload = graphpair_to_dict(random_graph_pair(2, 4, 2, 17, lam=third))
    assert payload["lambda"] == "1/3"
    assert isinstance(payload["phi"], list) and len(payload["phi"]) == 2
    term = payload["phi"][0][0] if payload["phi"][0] else None
    if term is not None:
        assert set(term) == {"coeff", "exponents"}


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("phi"),
    lambda d: d.update(phi=[[{"coeff": "x", "exponents": [2, 0]}]]),
    lambda d: d.update(phi=[[{"coeff": "1", "exponents": [2]}]]),
    lambda d: d.update(phi=[]),
    lambda d: d.update(n="two"),
    lambda d: d.update({"lambda": "1"}),
    # Python's json reads Infinity as a float, which has no exact ratio
    lambda d: d["phi"][0].append({"coeff": float("inf"), "exponents": [2, 0]}),
])
def test_graphpair_from_dict_rejects_malformed(mutate):
    payload = graphpair_to_dict(random_graph_pair(2, 4, 2, 17, lam=third))
    mutate(payload)
    with pytest.raises(ValueError):
        graphpair_from_dict(payload)


def test_graphpair_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        graphpair_from_json("not json at all {")


def test_graph_pair_and_germ_files_read_a_float_coefficient_alike():
    # one term parser serves both formats: a float reads as the decimal
    # it prints as, not as its binary expansion
    term = {"coeff": 0.1, "exponents": [2, 0]}
    payload = graphpair_to_dict(random_graph_pair(2, 4, 2, 17, lam=third))
    payload["phi"][0] = [term]
    assert graphpair_from_dict(payload).phi.polys()[0] == {(2, 0): Fraction(1, 10)}
    germ = mapgerm_from_dict({"source_dim": 2, "target_dim": 1, "order": 4,
                              "components": [[term]]})
    assert germ.polys() == [{(2, 0): Fraction(1, 10)}]


def test_random_pairs_are_deterministic():
    a = random_graph_pair(2, 4, 2, 99)
    b = random_graph_pair(2, 4, 2, 99)
    assert a == b
    assert a != random_graph_pair(2, 4, 2, 98)
