"""Numerical side checks: evaluators against finite differences, pair
location against hand-derived families, tracing against closed-form
equidistants, singularity detection against frozen brute-force goldens, and
the float-to-rational bridge against exact contact classes."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from api_extras import (
    densify_branch,
    np_cross_normal_cross,
    parallelism,
    projection_rank_residuals,
    rows_min_norm_step,
    scalar_march,
    svd_check_immersed,
    tangent_frame,
)
from engine_oracle import fcompose, node_candidates
from equidistants.cli import main as cli_main
from equidistants.contact_lab import contact_map, graphpair_to_json
from equidistants.normal_forms import DomainError, GermClass
from equidistants import geometry_engine as ge
from equidistants import germ_algebra as ga
from equidistants.germ_algebra import InfiniteCodimensionError
from equidistants.geometry_engine import (
    TAU_RANK,
    EquidistantBranch,
    FrameAlignmentError,
    ImmersionError,
    PairPoint,
    UnsupportedDimensionsError,
    classify_pair,
    detect_singularities,
    ellipse,
    find_parallel_pairs,
    fourier_oval,
    graph_surface,
    manifold_from_dict,
    manifold_from_json,
    sampled_curve,
    sampled_surface,
    taylor_germ_at_pair,
    torus,
    trace_equidistant,
    write_branches_csv,
    write_branches_svg,
)

TWO_PI = 2.0 * math.pi

OVAL = dict(a=[0.0, 0.0, 0.2])


def oval():
    return fourier_oval(**OVAL)


def tor_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def make_pair(M, s, t):
    deg, cod = parallelism(M, s, t)
    return PairPoint(s, t, M.position(s), M.position(t), deg, cod, 0.0)


def curvature(M, th):
    """|x' x x''| / |x'|^3 for a plane curve."""
    v = np.asarray(M.derivative(th, (1,)), dtype=float)
    a = np.asarray(M.derivative(th, (2,)), dtype=float)
    return abs(v[0] * a[1] - v[1] * a[0]) / np.linalg.norm(v) ** 3


@pytest.fixture(scope="module")
def oval_half():
    return trace_equidistant(oval(), 0.5)


@pytest.fixture(scope="module")
def oval_03():
    return trace_equidistant(oval(), 0.3)


@pytest.fixture(scope="module")
def main_half(oval_half):
    return detect_singularities(max(oval_half, key=len))


@pytest.fixture(scope="module")
def main_03(oval_03):
    return detect_singularities(max(oval_03, key=len))


# ------------------------------------------------- evaluators vs differences


def fd_check(M, points, alphas, h=1e-5, tol=1e-6):
    """Central difference of the one-lower analytic derivative."""
    for p in points:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        for alpha in alphas:
            i = next(j for j, a in enumerate(alpha) if a > 0)
            lower = tuple(a - (j == i) for j, a in enumerate(alpha))
            hp, hm = p.copy(), p.copy()
            hp[i] += h
            hm[i] -= h
            fd = (np.asarray(M.derivative(tuple(hp), lower))
                  - np.asarray(M.derivative(tuple(hm), lower))) / (2 * h)
            exact = np.asarray(M.derivative(tuple(p), alpha))
            scale = 1.0 + np.abs(exact)
            assert np.all(np.abs(fd - exact) <= tol * scale), \
                (M.kind, tuple(p), alpha)


CURVE_ALPHAS = [(1,), (2,), (3,)]
SURF_ALPHAS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
               (3, 0), (2, 1), (1, 2), (0, 3)]


def test_ellipse_derivatives_match_differences():
    fd_check(ellipse(2.0, 1.0), [0.0, 0.4, 1.9, 4.4], CURVE_ALPHAS)


def test_fourier_oval_derivatives_match_differences():
    M = fourier_oval(a=(0.0, 0.0, 0.2), b=(0.1,))
    fd_check(M, [0.0, 0.7, 2.3, 5.1], CURVE_ALPHAS)


def test_torus_derivatives_match_differences():
    pts = [(0.0, 0.0), (0.5, 1.2), (2.2, 4.0), (4.0, 2.8)]
    fd_check(torus(2.0, 0.5), pts, SURF_ALPHAS)


def test_graph_surface_derivatives_match_differences():
    M = graph_surface([{(2, 0): 1.0, (0, 2): -0.5, (1, 2): 0.25},
                       {(1, 1): 1.0, (3, 0): -0.125}])
    pts = [(0.0, 0.0), (0.3, -0.4), (-0.7, 0.6)]
    fd_check(M, pts, SURF_ALPHAS)


def test_evaluators_broadcast_over_arrays():
    M = oval()
    th = np.array([0.1, 1.3, 2.9])
    batch = M.derivative((th,), (2,))
    assert batch.shape == (3, 2)
    for i, t in enumerate(th):
        assert np.allclose(batch[i], M.derivative(t, (2,)), atol=1e-14)
    T = torus(2.0, 0.5)
    U = np.array([[0.1, 0.4], [1.0, 2.0]])
    V = np.array([[0.2, 0.9], [1.5, 2.5]])
    out = T.derivative((U, V), (1, 1))
    assert out.shape == (2, 2, 3)
    assert np.allclose(out[1, 0], T.derivative((1.0, 1.5), (1, 1)),
                       atol=1e-14)


def test_derivative_rejects_bad_multi_index():
    M = ellipse()
    with pytest.raises(ValueError):
        M.derivative(0.3, (1, 0))
    with pytest.raises(ValueError):
        M.derivative(0.3, (-1,))
    with pytest.raises(ValueError):
        torus().derivative((0.1,), (1, 0))


def oval_closed_form(a, b, th, m):
    """m-th derivative of (r cos th, r sin th) for r = 1 + sum_j a_j cos(j th)
    + b_j sin(j th), from x + i y = sum_k c_k exp(i k th)."""
    coef = {1: 1.0 + 0j}
    for j, c in enumerate(a, start=1):
        coef[j + 1] = coef.get(j + 1, 0) + c / 2
        coef[1 - j] = coef.get(1 - j, 0) + c / 2
    for j, c in enumerate(b, start=1):
        coef[j + 1] = coef.get(j + 1, 0) + c / 2j
        coef[1 - j] = coef.get(1 - j, 0) - c / 2j
    z = sum(c * (1j * k) ** m * np.exp(1j * k * th) for k, c in coef.items())
    return np.stack([z.real, z.imag], axis=-1)


def sampled_polynomial_curve():
    """A 16-node grid on a degree-6 polynomial in theta: the 7-point
    interpolant reproduces it wherever its window does not wrap."""
    x = np.polynomial.Polynomial([1.0, -0.5, 0.3, 0.2, -0.1, 0.03, -0.004])
    y = np.polynomial.Polynomial([0.0, 0.8, -0.2, 0.05, 0.01, -0.02, 0.002])
    th = np.arange(16) * (TWO_PI / 16)
    return sampled_curve(np.stack([x(th), y(th)], axis=-1)), x, y


def test_curve_jets_match_closed_forms():
    th = np.array([1.3, 2.0, 2.9, 4.4])    # windows of 16 nodes stay inside
    a, b = (0.1, 0.0, 0.15), (0.0, 0.05)
    E, F = ellipse(2.0, 1.0), fourier_oval(a=a, b=b)
    S, px, py = sampled_polynomial_curve()
    want = {
        "ellipse": lambda m: np.stack([2.0 * np.cos(th + m * math.pi / 2),
                                       np.sin(th + m * math.pi / 2)], -1),
        "fourier_oval": lambda m: oval_closed_form(a, b, th, m),
        "samples": lambda m: np.stack([px.deriv(m)(th), py.deriv(m)(th)],
                                      -1),
    }
    for M in (E, F, S):
        jet = M.jet((th,), 3)
        assert jet.shape == (4, len(th), 2)
        for m in range(4):
            assert np.max(np.abs(jet[m] - want[M.kind](m))) <= 1e-12, \
                (M.kind, m)
            assert M.derivative((th,), (m,)).tobytes() == jet[m].tobytes()
        one = M.jet(float(th[1]), 3)
        assert one.shape == (4, 2)
        assert one.tobytes() == jet[:, 1].tobytes()
    with pytest.raises(ValueError):
        E.jet(0.1, -1)


# one manifold per evaluator kind; the sampled grid serves curves and surfaces
JET_MANIFOLDS = {
    "ellipse": lambda: ellipse(2.0, 1.0),
    "fourier_oval": lambda: fourier_oval(a=[0.1, 0.0, 0.15], b=[0.0, 0.05]),
    "sampled_curve": lambda: wobbly_samples(),
    "torus": lambda: torus(2.0, 0.5),
    "graph_surface": lambda: graph_surface(R4_GRAPH),
    "sampled_surface": lambda: sampled_surface(
        np.random.default_rng(11).normal(size=(12, 10, 3))),
}


@pytest.mark.parametrize("kind", sorted(JET_MANIFOLDS))
def test_every_evaluator_keeps_the_jet_contract(kind):
    M = JET_MANIFOLDS[kind]()
    rng = np.random.default_rng(5)
    params = tuple(rng.uniform(-1.0, 1.0, (2, 3)) for _ in range(M.n))
    J = M.jet(params, 3)
    assert J.shape == (4,) * M.n + (2, 3, M.q)
    for alpha in np.ndindex(*(4,) * M.n):
        if sum(alpha) > 3:
            assert not J[alpha].any()
            continue
        want = M.jet(params, sum(alpha))[alpha].tobytes()
        assert M.derivative(params, alpha).tobytes() == want
        assert J[alpha].tobytes() == want
    # a single point gives the bits of its entry in the batch
    for k in np.ndindex(2, 3):
        one = M.jet(tuple(float(p[k]) for p in params), 3)
        assert one.shape == (4,) * M.n + (M.q,)
        assert one.tobytes() == J[(slice(None),) * M.n + k].tobytes()
    for bad in ((-1,) + (0,) * (M.n - 1), (1,) * (M.n + 1)):
        with pytest.raises(ValueError):
            M.derivative(params, bad)
    with pytest.raises(ValueError):
        M.jet(params, -1)


# ----------------------------------------------------------- sampled grids


def test_sampled_curve_reproduces_ellipse_derivatives():
    E = ellipse(2.0, 1.0)
    th = np.arange(512) * (TWO_PI / 512)
    S = sampled_curve(np.asarray(E.position((th,))))
    assert (S.n, S.q) == (1, 2)
    for t in (0.0, 0.37, 2.9, 5.5):
        for m, tol in ((0, 1e-10), (1, 1e-9), (2, 1e-8), (3, 1e-6)):
            err = np.max(np.abs(np.asarray(S.derivative(t, (m,)))
                                - np.asarray(E.derivative(t, (m,)))))
            assert err <= tol, (t, m, err)


def test_sampled_surface_reproduces_torus_derivatives():
    T = torus(2.0, 0.5)
    u = np.arange(64) * (TWO_PI / 64)
    U, V = np.meshgrid(u, u, indexing="ij")
    S = sampled_surface(np.asarray(T.position((U, V))))
    assert (S.n, S.q) == (2, 3)
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = tuple(rng.uniform(0.0, TWO_PI, 2))
        for alpha, tol in (((0, 0), 1e-8), ((1, 0), 1e-6), ((0, 1), 1e-6),
                           ((2, 0), 1e-5), ((1, 1), 1e-5), ((0, 2), 1e-5),
                           ((3, 0), 1e-3)):
            err = np.max(np.abs(np.asarray(S.derivative(p, alpha))
                                - np.asarray(T.derivative(p, alpha))))
            assert err <= tol, (p, alpha, err)


def test_sampled_curve_batch_matches_pointwise_evaluation():
    # the per-point loop the evaluator used to run, with scalar `tau ** k`;
    # a rough grid keeps the high powers of tau significant
    rng = np.random.default_rng(3)
    S = sampled_curve(rng.normal(size=(64, 2)))
    grid, (h,) = S._ev.grid, S._ev.h
    th = rng.uniform(0.0, TWO_PI, 300)
    idx = np.rint(th / h).astype(int)
    tau = th / h - idx
    rows = (idx[:, None] + np.arange(-3, 4)[None, :]) % len(grid)
    coeffs = np.einsum("pk,nkq->pnq", ge._LAGRANGE_INV, grid[rows])
    for m in range(4):
        want = np.empty((len(th), 2))
        for i in range(len(th)):
            acc = np.zeros(2)
            for p in range(m, 7):
                acc = acc + coeffs[p, i] * math.perm(p, m) * tau[i] ** (p - m)
            want[i] = acc / h ** m
        assert S.derivative((th,), (m,)).tobytes() == want.tobytes()
        assert S.derivative(th[5], (m,)).tobytes() == want[5].tobytes()


def pointwise_surface_derivative(ev, u, v, alpha):
    """The per-point loop the sampled-surface evaluator used to run."""

    def poly_eval_deriv(coeffs, tau, m):
        # coeffs indexed by power along axis 0; tau broadcasts against them
        powers = ge._tau_powers(tau, coeffs.shape[0] - 1 - m)
        return ge._poly_deriv_sum(coeffs, powers, m)

    i, j = alpha
    n0, n1 = ev.grid.shape[:2]
    out = np.empty((len(u), ev.grid.shape[2]))
    for k in range(len(u)):
        i0 = int(round(u[k] / ev.h[0]))
        j0 = int(round(v[k] / ev.h[1]))
        t0 = u[k] / ev.h[0] - i0
        t1 = v[k] / ev.h[1] - j0
        rows = (i0 + np.arange(-3, 4)) % n0
        cols = (j0 + np.arange(-3, 4)) % n1
        block = ev.grid[np.ix_(rows, cols)]
        c1 = np.einsum("pk,akq->paq", ge._LAGRANGE_INV, block)
        line = np.stack(
            [poly_eval_deriv(c1[:, a, :], t1, j) for a in range(7)])
        c0 = ge._LAGRANGE_INV @ line
        out[k] = poly_eval_deriv(c0, t0, i) / (
            ev.h[0] ** i * ev.h[1] ** j)
    return out


def test_sampled_surface_batch_matches_pointwise_evaluation():
    # a rough, non-square grid; points beyond both ends of each period and
    # on the seams exercise the wrapped windows
    rng = np.random.default_rng(11)
    S = sampled_surface(rng.normal(size=(12, 10, 3)))
    u = np.concatenate([rng.uniform(-1.0, TWO_PI + 1.0, 200),
                        [0.0, TWO_PI, -1e-9, TWO_PI - 1e-9, -TWO_PI, 7.0]])
    v = np.concatenate([rng.uniform(-1.0, TWO_PI + 1.0, 200),
                        [TWO_PI, 0.0, 1e-9, -3.0, 9.5, -1e-9]])
    for alpha in [(0, 0)] + SURF_ALPHAS:
        want = pointwise_surface_derivative(S._ev, u, v, alpha)
        assert S.derivative((u, v), alpha).tobytes() == want.tobytes()
        grid = S.derivative((u.reshape(2, -1), v.reshape(2, -1)), alpha)
        assert grid.tobytes() == want.tobytes()
        one = S.derivative((float(u[-3]), float(v[-3])), alpha)
        assert one.tobytes() == want[-3].tobytes()


def test_sampled_grids_reject_tiny_inputs():
    with pytest.raises(ValueError):
        sampled_curve(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        sampled_surface(np.zeros((4, 9, 3)))
    with pytest.raises(ValueError, match="needs a grid array of rank 3, "
                                         "got rank 2"):
        sampled_surface(np.zeros((8, 3)))


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_graph_surface_rejects_a_coefficient_that_is_not_finite(c):
    with pytest.raises(ValueError, match="coefficients must be finite"):
        graph_surface([{(2, 0): 1.0}, {(1, 1): c}])


@pytest.mark.parametrize("halfwidth", [0, -1.0, math.nan, math.inf])
def test_graph_surface_rejects_a_halfwidth_that_is_not_finite_and_positive(halfwidth):
    with pytest.raises(ValueError, match="halfwidth must be finite and positive"):
        graph_surface([{(2, 0): 1.0}, {(1, 1): 1.0}], halfwidth)


# ----------------------------------------------------------- serialization


def test_manifold_payload_round_trips_positions():
    cases = [
        ellipse(2.0, 1.0),
        fourier_oval(a=(0.0, 0.0, 0.2), b=(0.1,)),
        torus(2.0, 0.5),
        graph_surface([{(2, 0): 1.0}, {(1, 1): -0.5}], halfwidth=0.8),
        sampled_curve(np.asarray(ellipse().position(
            (np.arange(32) * (TWO_PI / 32),)))),
    ]
    for M in cases:
        M2 = manifold_from_json(M.to_json())
        assert (M2.n, M2.q, M2.kind) == (M.n, M.q, M.kind)
        if M.n == 1:
            probe = [(0.3,), (2.2,)]
        else:
            probe = [(0.3, 0.4), (1.0, 0.2)]
        for p in probe:
            assert np.allclose(np.asarray(M2.position(p)),
                               np.asarray(M.position(p)), atol=1e-15)


def test_malformed_manifold_payloads_are_rejected():
    bad = [
        {},
        {"kind": "dodecahedron"},
        {"kind": "ellipse", "a": 2.0},
        {"kind": "torus", "R": 2.0},
        {"kind": "graph_surface"},
        {"kind": "samples", "n": 1},
    ]
    for payload in bad:
        with pytest.raises(ValueError):
            manifold_from_dict(payload)
    with pytest.raises(ValueError):
        manifold_from_json("{not json")


@pytest.mark.parametrize("field, value", [
    ("n", 0), ("n", -3), ("n", 7), ("n", 1.9), ("n", 2.0), ("n", True),
    ("n", "2"), ("q", 4), ("q", 3.0),
])
def test_a_samples_payload_needs_n_of_1_or_2_and_the_grids_q(field, value):
    # the sampled torus is a surface in R^3, with q given or not; every one
    # of these values used to build a curve or a surface anyway, or went
    # unread
    payload = sampled_torus().to_dict()
    assert manifold_from_dict(payload).q == 3
    del payload["q"]
    assert manifold_from_dict(payload).q == 3
    payload[field] = value
    with pytest.raises(ValueError, match=f"samples field '{field}'"):
        manifold_from_dict(payload)


# ------------------------------------------------------ frames, parallelism


def test_tangent_frame_on_circle_and_ellipse():
    C = ellipse(1.0, 1.0)
    for th in (0.0, 0.9, 2.5):
        assert np.allclose(tangent_frame(C, th),
                           [[-math.sin(th), math.cos(th)]], atol=1e-15)
    E = ellipse(2.0, 1.0)
    assert np.allclose(tangent_frame(E, 0.0), [[0.0, 1.0]], atol=1e-15)


def test_tangent_frame_on_graph_rows():
    M = graph_surface([{(2, 0): 1.0, (0, 2): 1.0}])
    fr = tangent_frame(M, (0.3, -0.2))
    assert np.allclose(fr, [[1.0, 0.0, 0.6], [0.0, 1.0, -0.4]], atol=1e-15)


def test_tangent_frame_raises_where_immersion_fails():
    horn = torus(1.0, 1.0)
    with pytest.raises(ImmersionError):
        tangent_frame(horn, (0.3, math.pi))


def test_pair_search_on_a_horn_torus_raises_immersion_error():
    # the horn torus pinches at v = pi, a grid line of the pair search
    with pytest.raises(ImmersionError) as err:
        find_parallel_pairs(torus(1.0, 1.0))
    assert isinstance(err.value, DomainError)


@pytest.mark.parametrize("R, density", [(0.3, 24), (0.7, 24), (1.0, 25)])
def test_pair_search_on_a_spindle_torus_raises_immersion_error(R, density):
    # the singular circle cos v = -R/r misses these grids
    with pytest.raises(ImmersionError, match="not immersed"):
        find_parallel_pairs(torus(R, 1.0), density)


@pytest.mark.parametrize("M, density", [(torus(1.5, 0.7), 16),
                                        (torus(3.0, 1.0), 13),
                                        (ellipse(2.0, 1.0), 16)])
def test_a_diagonal_band_covering_every_pair_is_a_domain_error(M, density):
    # the default band 10 * 2pi / density exceeds pi, the largest distance
    # from the diagonal, so no pair could survive it
    with pytest.raises(DomainError, match=f"at density {density} exceeds"):
        find_parallel_pairs(M, density)
    with pytest.raises(DomainError, match="diagonal band 3.2 at density 64"):
        find_parallel_pairs(M, 64, delta_diag=3.2)


@pytest.mark.parametrize("band", [math.nan, -1.0, 0.0, -0.0])
@pytest.mark.parametrize("make", [
    lambda: fourier_oval(a=[0.0, 0.0, 0.2]), lambda: torus(2.0, 0.5),
    lambda: graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}]),
], ids=["oval", "torus", "graph4"])
def test_a_band_that_is_not_positive_is_a_domain_error(
        monkeypatch, make, band):
    # raised before any grid is built.  The surface searches ran their scan
    # and refinement and then failed in `_pair_points` with a bare
    # ValueError; on the oval a NaN band meant no band (1,006 pairs)
    M = make()

    def no_jet(self, params, top):
        raise AssertionError("a jet was evaluated")

    monkeypatch.setattr(ge.ParametricManifold, "jet", no_jet)
    with pytest.raises(DomainError, match="is not positive"):
        find_parallel_pairs(M, delta_diag=band)


@pytest.mark.parametrize("density", [1, 0])
def test_a_graph_grid_without_an_interval_is_a_domain_error(density):
    M = graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}])
    with pytest.raises(DomainError, match=f"grid density {density}"):
        find_parallel_pairs(M, density)


@pytest.mark.parametrize("M, budget", [
    (ellipse(2.0, 1.0), 4096), (torus(2.0, 0.5), 48),
    (graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}]), 64),
], ids=["curve", "torus", "graph"])
def test_a_density_above_the_schemes_budget_is_a_domain_error(M, budget):
    # raised before any grid is built, so the call returns at once
    with pytest.raises(DomainError, match=f"density {budget + 1} exceeds "
                                          f"the budget {budget}"):
        find_parallel_pairs(M, budget + 1)


def test_a_graph_band_wider_than_the_box_is_a_domain_error():
    # the default band 10 * 2 * halfwidth / density is wider than the box
    # below density 10, so no pair could survive it
    M = graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}])
    with pytest.raises(DomainError, match="at density 9 exceeds the box"):
        find_parallel_pairs(M, 9)
    assert find_parallel_pairs(M, 10)


def test_parallelism_degrees_on_circle():
    C = ellipse(1.0, 1.0)
    assert parallelism(C, 0.4, 0.4 + math.pi) == (1, 1)
    assert parallelism(C, 0.4, 0.4 + math.pi / 2) == (0, 0)
    with pytest.raises(ValueError):
        parallelism(C, 0.4, 0.4)


def test_parallelism_degrees_on_torus():
    T = torus(2.0, 0.5)
    u, v = 0.7, 1.1
    assert parallelism(T, (u, v), (u, v + math.pi)) == (2, 1)
    assert parallelism(T, (u, v), (u + math.pi, -v)) == (2, 1)
    assert parallelism(T, (u, v), (u + math.pi, math.pi - v)) == (2, 1)
    assert parallelism(T, (0.3, math.pi / 2), (2.1, math.pi / 2)) == (2, 1)
    assert parallelism(T, (u, v), (u + 1.0, v + 2.0)) == (1, 0)


@pytest.mark.parametrize("make", [
    oval, lambda: torus(2.0, 0.5),
    lambda: graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}]),
], ids=["oval", "torus", "graph4"])
def test_pair_degrees_match_the_rank_of_each_stacked_frame(make):
    # `parallelism` reads the stacked SVDs of `_pair_points`; this is the
    # pair-by-pair rank of the two tangent frames that they must give
    M = make()
    pairs = find_parallel_pairs(M)
    for p in pairs[::max(1, len(pairs) // 40)]:
        sv = np.linalg.svd(np.vstack([tangent_frame(M, p.s),
                                      tangent_frame(M, p.t)]),
                           compute_uv=False)
        r = int(np.sum(sv > TAU_RANK * sv[0]))
        assert (p.deg_k, p.codim) == (2 * M.n - r, M.q - r)
        assert parallelism(M, p.s, p.t) == (p.deg_k, p.codim)


@pytest.mark.parametrize("make", [
    oval, lambda: graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}]),
], ids=["oval", "graph4"])
def test_pair_points_keep_only_the_cloud_positions(make):
    # a and b hold their own rows, no view of the order-1 jet whose first
    # partials gave the frames; a PairPoint's a and b are rows of them
    M = make()
    pairs = find_parallel_pairs(M)
    cloud = ge._pair_points(M, pairs.s, pairs.t, pairs.residual)
    for X in (cloud.a, cloud.b):
        assert X.base is None and X.shape == (len(pairs), M.q)
    assert pairs[3].a.base is pairs.a and pairs[3].b.base is pairs.b


@pytest.mark.parametrize("make", [
    oval, lambda: torus(2.0, 0.5),
    lambda: graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}]),
], ids=["oval", "torus", "graph4"])
def test_cloud_rows_are_the_pair_by_pair_pair_points(make):
    # an int, a negative int, a slice and a mask give the PairPoints that
    # `_pair_points` builds for each pair alone: the same bits and the same
    # Python types (floats or tuples of floats, ints)
    M = make()
    cloud = find_parallel_pairs(M)
    m = len(cloud)

    def alone(i):
        return ge._pair_points(M, [cloud.s[i]], [cloud.t[i]],
                               [cloud.residual[i]])[0]

    mask = np.arange(m) % 97 == 5
    picked = cloud[3::m // 7], cloud[mask]
    assert all(isinstance(c, ge.PairCloud) for c in picked)
    got = [cloud[7], cloud[-1], *picked[0], *picked[1]]
    want = [alone(7), alone(m - 1), *map(alone, range(3, m, m // 7)),
            *map(alone, np.flatnonzero(mask))]
    assert len(got) == len(want) > 10
    for p, q in zip(got, want):
        for f in dataclasses.fields(PairPoint):
            x, y = getattr(p, f.name), getattr(q, f.name)
            assert type(x) is type(y)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
        assert {type(v) for v in np.ravel([p.s, p.t]).tolist()} == {float}


def test_a_flat_graph_gives_an_empty_cloud_and_an_empty_cloud_branch():
    # det(Df(t) - Df(s)) vanishes everywhere, so no grid line brackets a root
    M = graph_surface([{(1, 0): 1.0}, {(0, 1): 1.0}])
    cloud = find_parallel_pairs(M)
    assert len(cloud) == 0 and list(cloud) == []
    assert cloud.s.shape == cloud.t.shape == (0, 2)
    assert cloud.a.shape == cloud.b.shape == (0, 4)
    [branch] = trace_equidistant(M, 0.5)
    assert branch.status == "cloud" and len(branch) == 0
    assert branch.s.shape == (0, 2) and branch.points.shape == (0, 4)


def test_pair_point_checks_the_degree_codimension_identity():
    C = ellipse(1.0, 1.0)
    a, b = C.position(0.0), C.position(math.pi)
    pp = PairPoint(0.0, math.pi, a, b, 1, 1, 0.0)
    assert np.allclose(pp.lambda_point(0.3), 0.3 * a + 0.7 * b, atol=1e-16)
    with pytest.raises(ValueError):
        PairPoint(0.0, math.pi, a, b, 1, 0, 0.0)


# ------------------------------------------------------------ pair location


def test_circle_pairs_are_antipodal():
    pairs = find_parallel_pairs(ellipse(1.0, 1.0), grid_density=128)
    assert len(pairs) >= 64
    for p in pairs:
        assert tor_dist(p.s, p.t) == pytest.approx(math.pi, abs=1e-9)
        assert (p.deg_k, p.codim) == (1, 1)
        assert p.residual <= 1e-10


def test_ellipse_pairs_are_antipodal():
    pairs = find_parallel_pairs(ellipse(2.0, 1.0), grid_density=128)
    assert len(pairs) >= 64
    for p in pairs:
        assert tor_dist(p.s, p.t) == pytest.approx(math.pi, abs=1e-9)
        assert (p.deg_k, p.codim) == (1, 1)


def test_fourier_oval_has_antipodal_and_secondary_pairs():
    # frozen from a 2000x2000 determinant scan: one family with
    # |t - s| in [2.529, pi], six secondary arcs with |t - s| <= 1.074
    pairs = find_parallel_pairs(oval(), grid_density=256)
    gaps = np.array([tor_dist(p.s, p.t) for p in pairs])
    assert np.all((gaps >= 0.2) & (gaps <= math.pi + 1e-12))
    assert np.any(gaps >= 2.529 - 1e-2)
    assert np.any(gaps <= 1.074 + 1e-2)
    assert not np.any((gaps > 1.08) & (gaps < 2.52))
    for p in pairs:
        assert (p.deg_k, p.codim) == (1, 1)


def torus_family_gaps(s, t):
    """How far the parameter pair (s, t) is from each of the four families of
    weakly parallel pairs of a torus: v differs by pi at equal u, or u
    differs by pi with v mirrored (t_v = -s_v or pi - s_v), or both points
    lie on the parabolic circles cos v = 0 (measured by |cos v|)."""
    (su, sv), (tu, tv) = s, t
    return (max(tor_dist(su, tu), tor_dist(sv, tv - math.pi)),
            max(tor_dist(su, tu - math.pi), tor_dist(sv, -tv)),
            max(tor_dist(su, tu - math.pi), tor_dist(sv, math.pi - tv)),
            max(abs(math.cos(sv)), abs(math.cos(tv))))


def test_torus_pairs_land_on_the_four_families():
    pairs = find_parallel_pairs(torus(2.0, 0.5))
    assert len(pairs) > 1000
    seen = set()
    for p in pairs:
        f1, f2, f3, parab = (gap < bound for gap, bound in zip(
            torus_family_gaps(p.s, p.t), (1e-6, 1e-6, 1e-6, 1e-8)))
        assert f1 or f2 or f3 or parab, (p.s, p.t)
        assert (p.deg_k, p.codim) == (2, 1)
        seen.update(n for n, f in zip("1234", (f1, f2, f3, parab)) if f)
    assert seen == {"1", "2", "3", "4"}


def test_graph_surface_pairs_land_on_the_jacobian_cone():
    # det(J_f(t) - J_f(s)) = 2 (dt1^2 - dt2^2) for f = (x^2 + y^2, x y)
    M = graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}])
    pairs = find_parallel_pairs(M)
    assert len(pairs) > 100
    for p in pairs:
        d1 = abs(p.t[0] - p.s[0])
        d2 = abs(p.t[1] - p.s[1])
        assert abs(d1 - d2) <= 1e-8
        assert (p.deg_k, p.codim) == (1, 1)


def _g_scalar(M, s, t):
    Ts = M.derivative(s, (1,))
    Tt = M.derivative(t, (1,))
    scale = np.linalg.norm(Ts) * np.linalg.norm(Tt)
    return Ts[0] * Tt[1] - Ts[1] * Tt[0], scale


def _bisect_root(f, lo, hi, flo, iters=80):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_curve_pairs(M, density, tol=1e-10):
    """Curve pair location one bracket at a time, with scalar bisection and
    pair-by-pair PairPoints: the reference for the lockstep version."""
    thetas = np.arange(density) * (TWO_PI / density)
    T = M.derivative((thetas,), (1,))
    G = np.outer(T[:, 0], np.ones(density)) * T[:, 1][None, :] \
        - np.outer(T[:, 1], np.ones(density)) * T[:, 0][None, :]
    norms = np.linalg.norm(T, axis=1)
    G = G / (norms[:, None] * norms[None, :])
    spacing = TWO_PI / density
    didx = np.abs(np.subtract.outer(np.arange(density), np.arange(density)))
    didx = np.minimum(didx, density - didx)
    banned = didx * spacing < 10.0 * TWO_PI / density
    found = {}

    def refine_line(fixed, lo, hi, flo, along_t):
        def g(x):
            return _g_scalar(M, fixed, x) if along_t else _g_scalar(M, x, fixed)
        root = _bisect_root(lambda x: g(x)[0], lo, hi, flo)
        val, scale = g(root)
        if abs(val) <= tol * scale:
            s, t = (fixed, root) if along_t else (root, fixed)
            key = (int(round(s / (spacing / 2))) % (2 * density),
                   int(round(t / (spacing / 2))) % (2 * density))
            if key not in found:
                found[key] = (s % TWO_PI, t % TWO_PI, abs(val) / scale)

    sign_t = (G * np.roll(G, -1, axis=1) < 0) & ~banned \
        & ~np.roll(banned, -1, axis=1)
    for i, j in zip(*np.nonzero(sign_t)):
        refine_line(thetas[i], thetas[j], thetas[j] + spacing, G[i, j], True)
    sign_s = (G * np.roll(G, -1, axis=0) < 0) & ~banned \
        & ~np.roll(banned, -1, axis=0)
    for i, j in zip(*np.nonzero(sign_s)):
        refine_line(thetas[j], thetas[i], thetas[i] + spacing, G[i, j], False)
    out = []
    for s, t, res in sorted(found.values()):
        deg, cod = parallelism(M, s, t)
        if cod > 0:
            out.append(PairPoint(s, t, M.position(s), M.position(t), deg, cod,
                                 float(res)))
    return out


def wobbly_samples():
    th = np.arange(64) * (TWO_PI / 64)
    return sampled_curve(np.stack([2.0 * np.cos(th) + 0.1 * np.cos(2 * th),
                                   np.sin(th) + 0.05 * np.sin(3 * th)], axis=1))


def assert_same_pairs(got, want):
    assert len(got) == len(want) > 0
    for p, q in zip(got, want):
        assert (p.s, p.t, p.residual) == (q.s, q.t, q.residual)
        assert (p.deg_k, p.codim) == (q.deg_k, q.codim)
        assert p.a.tobytes() == q.a.tobytes()
        assert p.b.tobytes() == q.b.tobytes()


@pytest.mark.parametrize("density", [128, 256])
@pytest.mark.parametrize("make", [
    oval, lambda: ellipse(2.0, 1.0),
    lambda: fourier_oval(a=[0.1, 0.0, 0.15], b=[0.0, 0.05]), wobbly_samples,
], ids=["oval", "ellipse", "two_harmonic", "samples"])
def test_lockstep_pair_location_matches_the_scalar_reference(make, density):
    M = make()
    assert_same_pairs(find_parallel_pairs(M, density), scalar_curve_pairs(M, density))


def scalar_torus_pairs(M, density, delta, tol=1e-10):
    """The torus scheme one pair at a time: Gauss-Newton steps on every
    candidate until all converge, a dict dedupe and pair-by-pair
    PairPoints.  The reference for the array passes."""
    us = np.arange(density) * (TWO_PI / density)
    U, V = np.meshgrid(us, us, indexing="ij")
    N = np.cross(M.derivative((U, V), (1, 0)), M.derivative((U, V), (0, 1)))
    flat = (N / np.linalg.norm(N, axis=-1, keepdims=True)).reshape(-1, 3)
    spacing = TWO_PI / density
    coords = np.stack([U.ravel(), V.ravel()], axis=1)
    mis = np.linalg.norm(np.cross(flat[:, None, :], flat[None, :, :]), axis=-1)
    du = np.abs(coords[:, None, 0] - coords[None, :, 0])
    dv = np.abs(coords[:, None, 1] - coords[None, :, 1])
    du = np.minimum(du, TWO_PI - du)
    dv = np.minimum(dv, TWO_PI - dv)
    cand = np.argwhere((mis < 2.0 * spacing) & ~(np.maximum(du, dv) < delta))
    cand = cand[cand[:, 0] < cand[:, 1]]

    def normals(u, v):
        nn = np.cross(M.derivative((u, v), (1, 0)), M.derivative((u, v), (0, 1)))
        return nn / np.linalg.norm(nn, axis=-1, keepdims=True)

    def resid(Z):
        return np.cross(normals(Z[:, 0], Z[:, 1]), normals(Z[:, 2], Z[:, 3]))

    Z = np.hstack([coords[cand[:, 0]], coords[cand[:, 1]]])
    h = 1e-6
    for _ in range(40):
        r = resid(Z)
        active = np.linalg.norm(r, axis=1) >= tol
        if not active.any():
            break
        cols = []
        for idx in range(4):
            Zp = Z.copy()
            Zp[:, idx] += h
            cols.append((resid(Zp) - r) / h)
        J = np.stack(cols, axis=2)
        step = -np.einsum("cij,cj->ci", np.linalg.pinv(J), r)
        step[~active] = 0.0
        sn = np.linalg.norm(step, axis=1)
        big = sn > 0.5
        step[big] *= (0.5 / sn[big])[:, None]
        Z = Z + step
    rn = np.linalg.norm(resid(Z), axis=1)
    Z = Z % TWO_PI
    found = {}
    for m in range(len(Z)):
        z = Z[m]
        if rn[m] > tol or max(tor_dist(z[0], z[2]), tor_dist(z[1], z[3])) < delta:
            continue
        key = tuple(int(round(x / (spacing / 4))) % (4 * density) for x in z)
        if key not in found:
            found[key] = ((float(z[0]), float(z[1])),
                          (float(z[2]), float(z[3])), float(rn[m]))
    out = []
    for s, t, res in sorted(found.values(), key=lambda item: item[:2]):
        deg, cod = parallelism(M, s, t)
        out.append(PairPoint(s, t, M.position(s), M.position(t), deg, cod, res))
    return out


def scalar_graph4_pairs(M, density, delta, tol=1e-10):
    """The R^4 graph scheme with its brackets collected grid point by grid
    point, a bisection that runs every step and keeps each bracket's first
    exact zero, as `_bisect_root` does, a dict dedupe and pair-by-pair
    `parallelism`: the reference for the array passes."""
    axis = np.linspace(-M._ev.halfwidth, M._ev.halfwidth, density)
    step = axis[1] - axis[0]
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    Jf = np.stack([x.ravel() for x in ge._graph_jac_entries(M, X1, X2)], axis=1)
    pts = np.stack([X1.ravel(), X2.ravel()], axis=1)
    br = []
    for i in range(len(pts)):
        D = Jf - Jf[i]
        dets = (D[:, 0] * D[:, 3] - D[:, 1] * D[:, 2]).reshape(density, density)
        for fixed_axis, grid in ((0, dets), (1, dets.T)):
            sign = np.signbit(grid)
            for a, b in zip(*np.nonzero(sign[:, :-1] != sign[:, 1:])):
                br.append((i, axis[a], axis[b], axis[b + 1], grid[a, b],
                           fixed_axis))
    si, fix, lo, hi, flo, fax = (np.array(c) for c in zip(*br))
    sj = Jf[si]

    def det_at(x):
        t1, t2 = np.where(fax == 0, fix, x), np.where(fax == 0, x, fix)
        b11, b12, b21, b22 = ge._graph_jac_entries(M, t1, t2)
        return ((b11 - sj[:, 0]) * (b22 - sj[:, 3])
                - (b12 - sj[:, 1]) * (b21 - sj[:, 2]))

    zero = np.full(len(lo), np.nan)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = det_at(mid)
        first = (fm == 0.0) & np.isnan(zero)
        zero[first] = mid[first]
        same = (fm > 0) == (flo > 0)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    root = np.where(np.isnan(zero), 0.5 * (lo + hi), zero)
    res = np.abs(det_at(root))
    T1, T2 = np.where(fax == 0, fix, root), np.where(fax == 0, root, fix)
    found = {}
    for m in range(len(si)):
        s, t = pts[si[m]], (float(T1[m]), float(T2[m]))
        if res[m] > tol or max(abs(s[0] - t[0]), abs(s[1] - t[1])) < delta:
            continue
        key = (si[m], int(round(t[0] / (step / 2))), int(round(t[1] / (step / 2))))
        if key not in found:
            found[key] = ((float(s[0]), float(s[1])), t, float(res[m]))
    out = []
    for s, t, r in sorted(found.values(), key=lambda item: item[:2]):
        deg, cod = parallelism(M, s, t)
        if cod > 0:
            out.append(PairPoint(s, t, M.position(s), M.position(t), deg, cod, r))
    return out


@pytest.mark.parametrize("R, r, density, delta", [
    (2.0, 0.5, 24, 10.0 * TWO_PI / 24),  # the search's defaults
    (1.5, 0.7, 16, 0.6),
], ids=["R2-r0.5-d24", "R1.5-r0.7-d16"])
def test_torus_pair_passes_match_the_scalar_reference(R, r, density, delta):
    # the search's analytic Jacobian and closed-form step land Newton where
    # the reference's differences and pinv do, up to the root's flat
    # directions: the largest moves are 3.6e-5 and 8.2e-6
    M = torus(R, r)
    got = find_parallel_pairs(M, density, delta_diag=delta)
    want = scalar_torus_pairs(M, density, delta)
    assert len(got) == len(want) > 0
    G = np.array([p.s + p.t for p in got])
    W = np.array([q.s + q.t for q in want])
    nearest = []
    for lo in range(0, len(G), 64):
        d = np.abs(G[lo:lo + 64, None] - W[None]) % TWO_PI
        d = np.minimum(d, TWO_PI - d).max(axis=2)
        k = d.argmin(axis=1)
        assert d[np.arange(len(k)), k].max() <= 1e-4
        nearest.extend(k.tolist())
    assert sorted(nearest) == list(range(len(want)))    # one to one
    for p, k in zip(got, nearest):
        assert (p.deg_k, p.codim) == (want[k].deg_k, want[k].codim)
        assert p.residual <= 1e-10


def test_torus_refinement_blocks_leave_the_pairs_unchanged(monkeypatch):
    # every refinement step is row-wise, so the block size moves no bit
    M = torus(1.5, 0.7)
    want = find_parallel_pairs(M, 16, delta_diag=0.6)
    monkeypatch.setattr(ge, "_REFINE_ROWS", 97)
    assert_same_pairs(find_parallel_pairs(M, 16, delta_diag=0.6), want)


@pytest.mark.parametrize("block", [97, 3000])
@pytest.mark.parametrize("make, density, delta", [
    (oval, 128, None), (oval, 256, None), (lambda: torus(2.0, 0.5), 24, None),
    (lambda: sampled_torus(), 12, 3.0),
    (lambda: graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}]),
     16, None),
], ids=["oval-128", "oval-256", "torus-24", "sampled-torus-12", "graph4-16"])
def test_scan_blocks_leave_the_pairs_unchanged(monkeypatch, make, density,
                                               delta, block):
    # every scan row and every bracket is computed alone, so the block size
    # moves no bit.  97 scans one grid row a block and bisects the graph's
    # brackets 97 at a time; 3000 scans 5-23 rows a block, with a partial
    # last block in each of these grids
    M = make()
    want = find_parallel_pairs(M, density, delta_diag=delta)
    monkeypatch.setattr(ge, "_SCAN_PAIRS", block)
    assert_same_pairs(find_parallel_pairs(M, density, delta_diag=delta), want)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
@pytest.mark.parametrize("make, density, count, bound_mib", [
    ("fourier_oval(a=[0.0, 0.0, 0.2])", 4096, 16176, 150),
    ("torus(2.0, 0.5)", 48, 33788, 150),
    ("graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}])", 64,
     187349, 200),
], ids=["oval-4096", "torus-48", "graph4-64"])
def test_pair_search_peak_memory_stays_bounded_at_the_budget(make, density,
                                                             count, bound_mib):
    # a fresh process reads its own peak.  Its VmHWM starts at exec, where
    # ru_maxrss keeps the spawning process's peak (over 200 MB from a full
    # pytest run).  Scanned in blocks of _SCAN_PAIRS, into a PairCloud,
    # these peak near 40, 60 and 185 MB (a bare import is about 40 MB); one
    # pass over the whole grid peaked at 583 and 284 MB, and one PairPoint
    # per pair at 44, 74 and 243 MB
    code = ("from equidistants import find_parallel_pairs, fourier_oval, "
            "graph_surface, torus\n"
            f"pairs = find_parallel_pairs({make}, {density})\n"
            "print(len(pairs), next(line.split()[1] for line in "
            "open('/proc/self/status') if line.startswith('VmHWM:')))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ge.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, check=True)
    pairs, peak_kib = map(int, proc.stdout.split())
    assert pairs == count
    assert peak_kib <= bound_mib * 1024


def test_packed_keys_keep_the_first_row_of_each_key():
    # against np.unique over key rows, with negative columns as the graph
    # scheme's keys have, repeated rows, and an empty key set
    rng = np.random.default_rng(5)
    keys = rng.integers(-15, 9, size=(3000, 3))
    keys[1500:] = keys[rng.integers(0, 1500, 1500)]
    S, T = rng.permutation(3000) * 1.0, np.zeros(3000)
    _, first = np.unique(keys, axis=0, return_index=True)
    want = first[np.argsort(S[first])]
    assert np.array_equal(ge._first_of_each_key(keys, S, T), want)
    empty = ge._first_of_each_key(np.empty((0, 4), dtype=np.int64),
                                  np.empty(0), np.empty(0))
    assert empty.shape == (0,) and empty.dtype.kind == "i"


def test_min_norm_step_matches_pinv():
    rng = np.random.default_rng(3)
    J = rng.normal(size=(200, 3, 4))
    J[:50, 2] = 2.0 * J[:50, 0]                 # rank 2: one row drops
    J[50:60, 1] = 0.0                           # a zero row drops
    r = np.einsum("cij,cj->ci", J, rng.normal(size=(200, 4)))
    want = np.einsum("cij,cj->ci", np.linalg.pinv(J), r)
    assert np.allclose(ge._min_norm_step(J, r), want, rtol=0, atol=1e-12)


def test_graph_pair_passes_match_the_scalar_reference():
    M = graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}])
    assert_same_pairs(find_parallel_pairs(M),
                      scalar_graph4_pairs(M, 16, 10.0 * 2.0 / 16))


def sampled_torus():
    """torus(2, 0.5) sampled on a 12x12 grid."""
    u = np.arange(12) * (TWO_PI / 12)
    U, V = np.meshgrid(u, u, indexing="ij")
    return sampled_surface(np.asarray(torus(2.0, 0.5).position((U, V))))


# (manifold, grid density, diagonal band); None keeps the search's default
SURFACE_SEARCHES = {
    "torus": (lambda: torus(2.0, 0.5), None, None),
    "graph4": (lambda: graph_surface([{(2, 0): 1.0, (0, 2): 1.0},
                                      {(1, 1): 1.0}]), None, None),
    "sampled_torus": (sampled_torus, 12, 3.0),
}


@pytest.mark.parametrize("make", [lambda: torus(2.0, 0.5),
                                  lambda: torus(1.5, 0.7), sampled_torus],
                         ids=["R2-r0.5", "R1.5-r0.7", "sampled"])
def test_torus_residual_jacobian_matches_central_differences(make):
    M = make()
    Z = np.random.default_rng(11).uniform(0.0, TWO_PI, size=(300, 4))
    r, J = ge._normal_cross(M, Z)
    frames = [M.jet((Z[:, k], Z[:, k + 1]), 1) for k in (0, 2)]
    nh = [np.cross(F[1, 0], F[0, 1]) for F in frames]
    nh = [n / np.linalg.norm(n, axis=1, keepdims=True) for n in nh]
    assert np.allclose(r, np.cross(*nh), rtol=0, atol=1e-15)
    h = 1e-5
    scale = np.linalg.norm(J, axis=(1, 2))
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        diff = (ge._normal_cross(M, Z + e)[0]
                - ge._normal_cross(M, Z - e)[0]) / (2 * h)
        err = np.linalg.norm(J[:, :, k] - diff, axis=1)
        assert (err <= 1e-6 * scale).all(), err.max()


# the torus refinement's surfaces, at the grid densities searched here
REFINE_SURFACES = {
    "R2-r0.5": (lambda: torus(2.0, 0.5), 24),
    "R1.5-r0.7": (lambda: torus(1.5, 0.7), 16),
    "sampled": (sampled_torus, 12),
}


def refine_rows(density, seed):
    """Rows (u_s, v_s, u_t, v_t): random ones, grid nodes, and points on
    the axes, where jet entries and normal components are exact zeros of
    either sign, and where some rows have s = t and so r = 0."""
    rng = np.random.default_rng(seed)
    Z = rng.uniform(0.0, TWO_PI, size=(400, 4))
    Z[:100] = rng.integers(0, density, size=(100, 4)) * (TWO_PI / density)
    Z[100:160] = rng.choice([0.0, -0.0, math.pi / 2, math.pi], size=(60, 4))
    return Z


def same_bits(got, want):
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes()
               and np.shape(g) == np.shape(w) for g, w in zip(got, want))


@pytest.mark.parametrize("name", sorted(REFINE_SURFACES))
def test_normal_cross_matches_the_np_cross_reference_bit_for_bit(name):
    make, density = REFINE_SURFACES[name]
    M = make()
    Z = refine_rows(density, 7)
    assert same_bits(ge._normal_cross(M, Z), np_cross_normal_cross(M, Z))


@pytest.mark.parametrize("name", sorted(REFINE_SURFACES))
def test_the_first_pass_read_from_the_grid_is_a_direct_evaluation(name):
    # the search's grid, its one order-2 jet, and the normals gathered at
    # random node pairs, as the first Gauss-Newton pass gathers them
    make, density = REFINE_SURFACES[name]
    M = make()
    us = np.arange(density) * (TWO_PI / density)
    U, V = np.meshgrid(us, us, indexing="ij")
    coords = np.stack([U.ravel(), V.ravel()], axis=1)
    N = ge._unit_normals(M.jet((U, V), 2)).reshape(3, 3, -1)
    pick = np.random.default_rng(13).integers(0, len(coords), size=(500, 2))
    Z = np.hstack([coords[pick[:, 0]], coords[pick[:, 1]]])
    got = ge._normal_cross(M, Z, (N[..., pick[:, 0]], N[..., pick[:, 1]]))
    assert same_bits(got, np_cross_normal_cross(M, Z))
    assert same_bits(got, ge._normal_cross(M, Z))
    # the scan's normals are those of the order-1 jet the scan read before
    J = M.jet((U, V), 1)
    n = np.cross(J[1, 0], J[0, 1])
    n = (n / np.linalg.norm(n, axis=-1, keepdims=True)).reshape(-1, 3)
    assert same_bits([N[0].T], [n])


def test_min_norm_step_matches_the_rows_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    J = rng.normal(size=(300, 3, 4))
    J[:50, 2] = 2.0 * J[:50, 0]                 # rank 2: one row drops
    J[50:60, 1] = 0.0                           # a zero row drops
    J[60:80, :, 1:3] = rng.choice([0.0, -0.0], size=(20, 3, 2))
    J[80:85] = 0.0                              # every row drops
    r = rng.normal(size=(300, 3))
    r[60:100] = rng.choice([0.0, -0.0, 1.0], size=(40, 3))
    assert same_bits([ge._min_norm_step(J, r)], [rows_min_norm_step(J, r)])
    # and on the refinement's own systems, held by coordinate
    for name, (make, density) in sorted(REFINE_SURFACES.items()):
        r, J = ge._normal_cross(make(), refine_rows(density, 29))
        want = rows_min_norm_step(np.ascontiguousarray(J),
                                  np.ascontiguousarray(r))
        assert same_bits([ge._min_norm_step(J, r)], [want]), name


def certificate_frames(n, q, rng):
    """n x q frames on both sides of every decision of the immersion check:
    random ones, zero and rank 1, sigma_min / sigma_max at and near
    TAU_RANK and at the certificate's margin, and frames so small that
    their Gram matrix underflows, fully (1e-170) or into subnormal
    products (1e-79), or so large that it overflows (1e160)."""
    frames = [rng.normal(size=(n, q)) for _ in range(12)]
    frames += [np.zeros((n, q)), np.full((n, q), np.inf)]   # inf passes
    if n == 2:
        frames.append(np.outer([1.0, -2.0], rng.normal(size=q)))
        Q = np.linalg.qr(rng.normal(size=(q, q)))[0]
        for ratio in (1e-9, 1e-8, 1.0000001e-8, 1e-7, 1e-5, 1e-4, 2e-4):
            D = np.zeros((2, q))
            D[0, 0], D[1, 1] = 1.0, ratio
            frames.append(D @ Q)
    scaled = [scale * f for scale in (1e-170, 1e-79, 1e160)
              for f in frames[:3] + frames[-8:]]
    return np.array(frames + scaled)


def immersion_outcome(check, frames, params):
    try:
        check(frames, params)
    except Exception as exc:                # noqa: BLE001 - compared below
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_the_immersion_certificate_agrees_with_the_svd_check(n, q):
    # one frame at a time, then the whole stack in three orders: the same
    # raise or none, at the same frame, with the same message; and no
    # floating-point error the SVD check does not raise itself
    rng = np.random.default_rng(31 + 10 * n + q)
    frames = certificate_frames(n, q, rng)
    params = rng.uniform(0.0, TWO_PI, size=(len(frames), n))
    orders = [np.arange(len(frames))] + [rng.permutation(len(frames))
                                         for _ in range(2)]
    with np.errstate(all="raise"):
        for i in range(len(frames)):
            args = frames[i:i + 1], params[i:i + 1]
            assert (immersion_outcome(ge._check_immersed, *args)
                    == immersion_outcome(svd_check_immersed, *args)), i
        for order in orders:
            want = immersion_outcome(svd_check_immersed, frames[order],
                                     params[order])
            assert want is not None
            assert immersion_outcome(ge._check_immersed, frames[order],
                                     params[order]) == want
            ok = [i for i in order if immersion_outcome(
                svd_check_immersed, frames[i:i + 1], params[i:i + 1]) is None]
            assert immersion_outcome(ge._check_immersed, frames[ok],
                                     params[ok]) is None


@functools.lru_cache(maxsize=None)
def surface_search(name):
    make, density, delta = SURFACE_SEARCHES[name]
    M = make()
    return M, find_parallel_pairs(M, density, delta_diag=delta)


def pairs_fingerprint(pairs):
    """sha256 over s, t, a, b, degree, codimension and residual of every
    pair, in order."""
    h = hashlib.sha256()
    for p in pairs:
        for v in (p.s, p.t, p.a, p.b, p.residual):
            h.update(np.asarray(v, dtype=float).tobytes())
        h.update(f"{p.deg_k}:{p.codim};".encode())
    return h.hexdigest()


def test_sampled_torus_pairs_land_on_the_four_families():
    # an independent check of the sampled search: its interpolant carries
    # the families of torus(2, 0.5) to within 7.6e-10 here (2.1e-8 under
    # finite differences and pinv)
    _, pairs = surface_search("sampled_torus")
    gaps = np.array([torus_family_gaps(p.s, p.t) for p in pairs])
    assert gaps.min(axis=1).max() <= 1e-7
    assert (gaps <= 1e-7).any(axis=0).all()


# sha256 of every located surface pair and of bridge germs at a spread of
# them; the pair counts are 7,378, 284 and 918.  graph4 is frozen from the
# per-multi-index evaluators, the torus and the sampled torus from the
# analytic-Jacobian refinement, which moved the torus roots by up to 3.6e-5
# and the sampled torus count from 941 to 918
SURFACE_FINGERPRINTS = {
    "torus": "589fe122e0343db460388ae8fc9a25b5bb6394d5e651ed4284337c0bc09e70d5",
    "graph4": "082594cb6759ba383fb6c5e11a97f2879f466fbe3e65818075871ed71ec6ebef",
    "sampled_torus": "9bc5448687116dc3d66b13deec5b02d02e41e320ccdd6cad3821af604ea468c0",
}
BRIDGE_FINGERPRINTS = {
    "torus": "30af9fd9e61d4f38c10d5d374d90ae8519bf0aa5b7f30defa322b3409efea45b",
    "graph4": "8e3f02d8b16ca920dc07b53043bf72e48b023c3a1b5e922ef09b44534bf521d8",
    "sampled_torus": "eba2ae10890594475aaad638df7193060e9db2c46727842640aecf35c7cbecf6",
}


@pytest.mark.parametrize("name", sorted(SURFACE_FINGERPRINTS))
def test_surface_pair_searches_keep_their_frozen_fingerprints(name):
    _, pairs = surface_search(name)
    assert pairs_fingerprint(pairs) == SURFACE_FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(BRIDGE_FINGERPRINTS))
def test_bridge_germs_keep_their_frozen_fingerprints(monkeypatch, name):
    # six pairs spread over each search, at lambda 1/2 and 1/3: the float
    # chart series handed to `_graph_functions` (their reprs are exact) and
    # the snapped GraphPair; a pair whose frame alignment fails contributes
    # its message
    M, pairs = surface_search(name)
    h = hashlib.sha256()
    real = ge._graph_functions

    def spy(xi, *args):
        h.update(repr(xi).encode())
        return real(xi, *args)

    monkeypatch.setattr(ge, "_graph_functions", spy)
    for pair in pairs[::len(pairs) // 6][:6]:
        for lam in ("1/2", "1/3"):
            try:
                text = graphpair_to_json(taylor_germ_at_pair(M, pair, lam))
            except FrameAlignmentError as exc:
                text = str(exc)
            h.update(text.encode())
    assert h.hexdigest() == BRIDGE_FINGERPRINTS[name]


def test_pair_location_rejects_unsupported_shapes():
    th = np.arange(32) * (TWO_PI / 32)
    helix = np.stack([np.cos(th), np.sin(th), np.sin(2 * th)], axis=1)
    with pytest.raises(ValueError):
        find_parallel_pairs(sampled_curve(helix))


def clifford_samples(m=8):
    th = np.arange(m) * (TWO_PI / m)
    U, V = np.meshgrid(th, th, indexing="ij")
    return np.stack([np.cos(U), np.sin(U), np.cos(V), np.sin(V)], axis=-1)


@pytest.mark.parametrize("M, density, need", [
    (graph_surface([{(3, 0): 1.0, (0, 2): 0.1}]), None,
     "two 2pi-periodic parameters"),
    (sampled_surface(clifford_samples()), 48, "a graph_surface"),
], ids=["graph-in-R3", "samples-in-R4"])
def test_a_surface_outside_its_schemes_domain_is_unsupported(M, density, need):
    # the (2, 3) scheme grids two 2pi-periodic parameters, and the (2, 4)
    # scheme reads a graph's halfwidth and its [I | J] frame
    with pytest.raises(UnsupportedDimensionsError, match=need):
        find_parallel_pairs(M, density)


# ----------------------------------------------------------------- tracing


def test_trace_rejects_degenerate_lambda():
    with pytest.raises(ValueError):
        trace_equidistant(ellipse(), 0.0)
    with pytest.raises(ValueError):
        trace_equidistant(ellipse(), 1.0)


def test_ellipse_midpoint_set_collapses_to_the_center():
    branches = trace_equidistant(ellipse(2.0, 1.0), 0.5)
    assert len(branches) == 1
    br = branches[0]
    assert br.status == "closed"
    assert br.degenerate
    assert np.max(np.abs(br.points)) <= 1e-6


def test_ellipse_equidistant_is_a_scaled_ellipse():
    # antipodal pairs give x = (2 lam - 1) * position, a 0.2-scaled copy
    branches = trace_equidistant(ellipse(2.0, 1.0), 0.4)
    assert len(branches) == 1
    br = branches[0]
    assert br.status == "closed" and not br.degenerate
    X = br.points
    on = (X[:, 0] / 0.4) ** 2 + (X[:, 1] / 0.2) ** 2
    assert np.max(np.abs(on - 1.0)) <= 1e-9


def test_oval_half_trace_has_the_frozen_branch_structure(oval_half):
    # frozen from the 2000x2000 component scan: one closed component and
    # six open arcs ending on the diagonal band
    statuses = sorted(br.status for br in oval_half)
    assert statuses == ["closed"] + ["open"] * 6
    main = max(oval_half, key=len)
    assert main.status == "closed"
    assert len(main) > 400
    for br in oval_half:
        assert len(br.sigmas) == len(br)
        assert np.all(np.diff(br.sigmas) > 0)
        assert not br.degenerate


@pytest.mark.parametrize("lam, step, message", [
    (1e308, 0.02, "sends traced points outside the floats"),
    (0.5, 1e-9, "is below 2.06"),
])
def test_a_trace_rejects_points_or_steps_it_cannot_represent(lam, step,
                                                             message):
    with pytest.raises(DomainError, match=message):
        trace_equidistant(ellipse(2.0, 1.0), lam, step=step)


def test_trace_is_deterministic():
    one = trace_equidistant(ellipse(2.0, 1.0), 0.4)
    two = trace_equidistant(ellipse(2.0, 1.0), 0.4)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert np.array_equal(a.points, b.points)


def sampled_oval():
    th = np.arange(64) * (TWO_PI / 64)
    r = 1.0 + 0.15 * np.cos(3 * th) + 0.05 * np.sin(2 * th)
    return sampled_curve(np.stack([r * np.cos(th), r * np.sin(th)], axis=-1))


TRACED_CURVES = {
    "oval": oval,
    "ellipse": lambda: ellipse(2.0, 1.0),
    "skew_oval": lambda: fourier_oval(a=[0.1, 0.0, 0.15], b=[0.0, 0.05]),
    "sampled_oval": sampled_oval,
}

# sha256 of every traced and annotated number, frozen from the scalar
# per-order evaluators: a faster evaluation path must keep every bit
TRACE_FINGERPRINTS = {
    ("oval", 0.3): "e1ecede16549c8d70ca51c7c2ea5ca0f2729e7ade050880c638a59ce8e1c837c",
    ("oval", 0.41): "b6d924493a2c9def61933d2ce47461de4b20058d7f2907e535977912e8fa62e8",
    ("oval", 0.5): "e3897f61ec8feb0e2bb42a23ed24566594d27d74747940d273c8b13d58e9cb51",
    ("oval", 0.7): "2f7b3a546d4e54ad36a6a929183c12bee4ceddd195c9e96d0496b791569c9491",
    ("ellipse", 0.3): "758f3be91a750da1d2d2e05b2ea7e7b36938490afdc4f0f70b105b7d32a760a0",
    ("ellipse", 0.41): "e4c5f72b08e0085d0ce86f69795efa894a2fba1665c08cdf786074cee166cde7",
    ("ellipse", 0.5): "41c026fc73fdedb2f67dc08e41c3afe2269423e17bf0aef32e7f7aaf22cee5af",
    ("ellipse", 0.7): "c58c871d77a74f734173120ba9f91c4f3bd8135c478f5b88c8b0d1c852fc90bf",
    ("skew_oval", 0.3): "faf6d7ae5dbbbac653ed52189b9b6673a295bf68b95b064cdb440d1bad069fdf",
    ("skew_oval", 0.41): "3111765243caf2f3efe336ebf48860f58f5293d72e47726095a0e8970211e329",
    ("skew_oval", 0.5): "ee6101a8d3fa6814ba236d1df1886141197375c698878fd30c06b4f944173485",
    ("skew_oval", 0.7): "137e2284ff3cb7d71f9d262f06e56ad7ac4edb807be4ef66d950fdfc9fb67492",
    ("sampled_oval", 0.3): "8e21bb8dd44748904189e99de14a2438080172c2b8815902af566aacb51b52be",
    ("sampled_oval", 0.41): "9cb693f7f8d6acdd0ed7b1b7deb35696f4e12a98e69507e9fe569e348523c128",
    ("sampled_oval", 0.5): "7f159c36fc289d0cc2cd952a6590355990c2ba3912e5fc0190b1aac166ca42fe",
    ("sampled_oval", 0.7): "d62820f534a4c10b56a4a60dd03d5214db61e5dd392c4b772c7f2f145758026b",
}


def trace_fingerprint(M, lam):
    return branches_fingerprint(
        detect_singularities(br) for br in trace_equidistant(M, lam))


def branches_fingerprint(branches):
    """sha256 over s, t, a, b and x of every sample, the sigmas and status
    of every branch, and index, label, pair and x of every annotation."""
    h = hashlib.sha256()

    def put(*vals):
        for v in vals:
            h.update(np.asarray(v, dtype=float).tobytes())

    for br in branches:
        h.update(br.status.encode())
        put(br.sigmas)
        for row in zip(br.s, br.t, br.a, br.b, br.points):
            put(*row)
        for ann in br.annotations:
            h.update(f"{ann.index}:{ann.label}".encode())
            if ann.pair is not None:
                put(ann.pair.s, ann.pair.t, ann.pair.a, ann.pair.b, ann.x)
    return h.hexdigest()


@pytest.mark.parametrize("curve, lam", sorted(TRACE_FINGERPRINTS))
def test_traces_keep_their_frozen_fingerprints(curve, lam):
    got = trace_fingerprint(TRACED_CURVES[curve](), lam)
    assert got == TRACE_FINGERPRINTS[curve, lam]


@pytest.mark.parametrize("lam, nodes", [(0.5, 0), (0.3, 6)])
def test_the_ends_of_open_skew_oval_branches_bracket_no_cusp(lam, nodes):
    # the last sample of an open branch takes the chord that reaches it; the
    # chord back to the branch's first sample flipped its velocity scalar
    # and made 6 brackets that refinement failed, UNRESOLVED at index len - 2
    branches = [detect_singularities(br) for br in
                trace_equidistant(TRACED_CURVES["skew_oval"](), lam)]
    labels = [a.label for br in branches for a in br.annotations]
    assert labels.count("A2_cusp") == 10
    assert labels.count("A1_node") == nodes
    assert "UNRESOLVED" not in labels


def cli_trace(tmp_path, M, lam):
    """Run `trace` on M at lam (its argument string); returns the annotated
    branches the CLI writes and its JSON branch summaries."""
    path = tmp_path / "curve.json"
    path.write_text(M.to_json())
    written = []
    write = ge.write_branches_csv

    def keep(branches, out):
        written.extend(branches)
        write(branches, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ge, "write_branches_csv", keep)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli_main(["trace", "--input", str(path), "--lambda", lam,
                             "--out", str(tmp_path / "out"), "--json"]) == 0
    return written, json.loads(out.getvalue())["branches"]


@pytest.mark.parametrize("curve, lam", sorted(TRACE_FINGERPRINTS))
def test_cli_trace_keeps_the_frozen_fingerprints(tmp_path, curve, lam):
    # the CLI detects every branch of the trace in one lockstep pass
    branches, _ = cli_trace(tmp_path, TRACED_CURVES[curve](), str(lam))
    assert branches_fingerprint(branches) == TRACE_FINGERPRINTS[curve, lam]


@pytest.fixture(scope="module")
def oval_cli_half(tmp_path_factory):
    """The CLI trace of the oval at lambda 1/2, with the calls of the curve
    evaluator, of `_refine_cusps` and of `_land_on_band` recorded, and the
    row-passes of its marches: rows advanced by one corrector iterate."""
    calls = {"jet": 0, "refine": 0, "land_rows": [], "row_passes": 0}
    jet, refine, land = ge._FourierOval.jet, ge._refine_cusps, ge._land_on_band
    step_once = ge._Marches.step_once

    def count_jet(self, *args):
        calls["jet"] += 1
        return jet(self, *args)

    def count_refine(*args):
        calls["refine"] += 1
        return refine(*args)

    def count_land(M, lo, hi, *args):
        calls["land_rows"].append(len(lo))
        return land(M, lo, hi, *args)

    def count_rows(self, *args):
        calls["row_passes"] += len(self.rows)
        return step_once(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ge._FourierOval, "jet", count_jet)
        mp.setattr(ge._Marches, "step_once", count_rows)
        mp.setattr(ge, "_refine_cusps", count_refine)
        mp.setattr(ge, "_land_on_band", count_land)
        _, summaries = cli_trace(tmp_path_factory.mktemp("oval"), oval(),
                                 "1/2")
    return calls, summaries


def test_cli_trace_refines_every_cusp_in_one_call(oval_cli_half):
    calls, summaries = oval_cli_half
    assert sum(s["cusps"] for s in summaries) == 18
    assert calls["refine"] == 1


def test_trace_lands_both_ends_of_an_open_branch_in_one_call(oval_cli_half):
    # one landing call holds both ends of every open branch of the trace
    calls, summaries = oval_cli_half
    opened = [s for s in summaries if s["status"] == "open"]
    assert len(opened) == 6
    assert calls["land_rows"] == [2 * len(opened)]


def test_oval_cli_trace_and_detection_stay_within_2350_evaluator_passes(
        oval_cli_half):
    # 2,143 passes with every march in one lockstep pass per corrector
    # iterate; 3,647 with one march at a time, 5,521 with one cusp
    # bisection per branch and one landing per branch end
    calls, _ = oval_cli_half
    assert calls["jet"] <= 2350, calls["jet"]


def test_oval_cli_trace_stays_within_4500_row_passes(oval_cli_half):
    # 4,459 with one stopping rule (rows of two seeds meet in a cell: the
    # higher seed stops), every point of a stopped seed's last pass
    # claiming its cell; 4,543 when those points were skipped, 7,714 when
    # only a seed that steps into a lower seed's cell stops, and 11,792
    # when no seed ever stops
    calls, _ = oval_cli_half
    assert calls["row_passes"] <= 4500, calls["row_passes"]


def usable_seeds(M, density=128):
    """The projected seeds that `trace_equidistant` marches from, in the
    order its walk reads them, and the diagonal band width."""
    delta = 10.0 * TWO_PI / density
    pairs = find_parallel_pairs(M, density, delta_diag=delta)
    seeds = sorted([(float(p.s), float(p.t)) for p in pairs]
                   + [(float(p.t), float(p.s)) for p in pairs])
    Z0, ok = ge._project_to_zero_many(M, seeds, 1e-12)
    ok &= np.array([tor_dist(s, t) >= delta for s, t in Z0])
    return Z0[ok], delta


def march_rows(Z):
    """Every point of Z twice, marching forward and backward."""
    return np.repeat(Z, 2, axis=0), np.tile([1.0, -1.0], len(Z))


def assert_march_is_scalar(got, M, z0, sign, delta, max_steps, step=0.02,
                           tol=1e-12):
    """The lockstep march `got` equals the scalar march bit for bit."""
    pts, closed, failed, band = got
    want, w_closed, w_failed, w_band = scalar_march(
        M, z0, sign, step, delta, tol, max_steps)
    assert np.array(pts).tobytes() == np.array(want).tobytes()
    assert (closed, failed) == (w_closed, w_failed)
    assert (band is None) == (w_band is None)
    if band is not None:
        for a, b in zip(band, w_band):
            assert np.asarray(a, dtype=float).tobytes() == b.tobytes()
    return "closed" if closed else "band" if band else "failed"


@pytest.mark.parametrize("curve", sorted(TRACED_CURVES))
def test_lockstep_marches_equal_the_scalar_march(curve):
    # short marches from seeds all over the walk, both directions, as rows
    # of one batch; then the whole march of the first seed each way, and
    # marches allowed no step, which end at their starts
    M = TRACED_CURVES[curve]()
    Z0, delta = usable_seeds(M)
    ends = set()
    for Z, max_steps in ((Z0[::len(Z0) // 16], 60), (Z0[:1], 40000),
                         (Z0[:3], 0)):
        rows, signs = march_rows(Z)
        march = ge._Marches(M, rows, signs, 0.02, delta, 1e-12, max_steps)
        march.start(range(len(rows)))
        march.run()
        for r, (z0, sign) in enumerate(zip(rows, signs)):
            ends.add(assert_march_is_scalar(march.result(r), M, z0, sign,
                                            delta, max_steps))
    # the ellipse's one branch is closed and never reaches the band
    assert ends >= {"failed"} | ({"closed"} if curve == "ellipse"
                                 else {"band"})


def spy_retries(monkeypatch):
    """Record (march, row id, tries before this one) at every failed
    corrector of a `_Marches`."""
    seen, retry = [], ge._Marches._retry

    def spy(self, r, finished):
        seen.append((self, r.rid, r.tries))
        retry(self, r, finished)

    monkeypatch.setattr(ge._Marches, "_retry", spy)
    return seen


def test_marches_that_halve_their_step_equal_the_scalar_march(monkeypatch):
    # at step 0.6 the oval's correctors fail 17 times, and each converges
    # at half the step
    M = oval()
    seen = spy_retries(monkeypatch)
    trace_equidistant(M, 0.5, step=0.6)
    assert len(seen) == 17 and {tries for _, _, tries in seen} == {0}
    checked = 0
    for march, rid in {(march, rid) for march, rid, _ in seen}:
        if march.done(rid):
            checked += 1
            assert_march_is_scalar(march.result(rid), M, march.Z0[rid],
                                   march.signs[rid], march.delta,
                                   march.max_steps, step=0.6)
    assert checked == 8


def test_a_march_fails_after_its_fifth_failed_corrector(monkeypatch):
    # a corrector held to tol 0 never converges: the step halves four
    # times, and the fifth failure ends the march at its start
    M = oval()
    Z0, delta = usable_seeds(M)
    seen = spy_retries(monkeypatch)
    march = ge._Marches(M, Z0[:1], [1.0], 0.02, delta, 0.0, 40000)
    march.start([0])
    march.run()
    assert [tries for _, _, tries in seen] == [0, 1, 2, 3, 4]
    assert assert_march_is_scalar(march.result(0), M, Z0[0], 1.0, delta,
                                  40000, tol=0.0) == "failed"
    assert len(march.result(0)[0]) == 1


def test_solve_rows_solves_each_row_alone_around_a_singular_one():
    J = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]],
                  [[0.5, -1.0], [3.0, 0.25]]])
    rhs = np.array([[1.0, 2.0], [1.0, 1.0], [-0.5, 4.0]])
    x, singular = ge._solve_rows(J, rhs)
    assert list(singular) == [1] and x[1].tolist() == [0.0, 0.0]
    for i in (0, 2):
        assert x[i].tobytes() == np.linalg.solve(J[i], rhs[i]).tobytes()


def test_a_projection_out_of_iterates_keeps_rows_within_ten_times_tol():
    # one Newton iterate from each row, then the last test at 10 * tol:
    # the middle row passes it, and not tol itself
    M, tol = oval(), 1e-12
    Z0, _ = usable_seeds(M)
    z = Z0[:1] + np.array([[1e-5, 0.0], [3e-6, 0.0], [1e-7, 0.0]])
    Z, ok = ge._project_to_zero_many(M, z, tol, iters=1)
    g, gs, gt, _ = ge._g_grad(M, z[:, 0], z[:, 1])
    n2 = gs * gs + gt * gt
    assert Z.tobytes() == np.column_stack([z[:, 0] - g * gs / n2,
                                           z[:, 1] - g * gt / n2]).tobytes()
    g, _, _, scale = ge._g_grad(M, Z[:, 0], Z[:, 1])
    assert ok.tolist() == [False, True, True]
    assert (np.abs(g) <= tol * scale).tolist() == [False, False, True]


def test_a_dropped_lockstep_row_started_again_equals_the_scalar_march():
    # rows dropped mid-corrector while the others finish, then started
    # again from their seeds
    M = oval()
    Z0, delta = usable_seeds(M)
    rows, signs = march_rows(Z0[::len(Z0) // 6][:6])
    march = ge._Marches(M, rows, signs, 0.02, delta, 1e-12, 80)
    march.start(range(len(rows)))
    for _ in range(7):
        march.step_once()
    dropped = march.live()[::2]
    assert dropped and min(len(march.pts[r]) for r in dropped) > 1
    march.drop(dropped)
    assert not set(dropped) & (set(march.live()) | set(march.pts))
    march.run()
    assert not any(march.done(r) for r in dropped)
    march.start(dropped)
    march.run()
    for r, (z0, sign) in enumerate(zip(rows, signs)):
        assert_march_is_scalar(march.result(r), M, z0, sign, delta, 80)


def test_the_walk_starts_again_every_march_it_needs(monkeypatch):
    # every row is dropped after each lockstep pass, so the walk starts
    # again each march it reads, and the trace stays the same
    step_once, start = ge._Marches.step_once, ge._Marches.start
    dropped, again = set(), set()

    def stall(self, watch=None):
        step_once(self, watch)
        if watch is not None:
            dropped.update(self.live())
            self.drop(self.live())

    def spy(self, rids):
        rids = list(rids)
        again.update(r for r in rids if r in dropped)
        start(self, rids)

    monkeypatch.setattr(ge._Marches, "step_once", stall)
    monkeypatch.setattr(ge._Marches, "start", spy)
    assert trace_fingerprint(oval(), 0.5) == TRACE_FINGERPRINTS["oval", 0.5]
    assert len(again) >= 7


def test_an_oval_trace_builds_pair_points_only_for_annotations(monkeypatch):
    # the seeds and branches are arrays; a PairPoint per seed made 426
    # here, 408 of them for the seeds
    built = []
    check = ge.PairPoint.__post_init__

    def count(self):
        built.append(1)
        check(self)

    monkeypatch.setattr(ge.PairPoint, "__post_init__", count)
    branches = ge._detect_branches(trace_equidistant(oval(), 0.5))
    pairs = sum(a.pair is not None for br in branches for a in br.annotations)
    assert len(built) == pairs == 18


def test_a_trace_projects_each_distinct_seed_once(monkeypatch):
    # each pair and its swap are seeds; the parent projected 816 seed rows,
    # of which 496 were distinct
    calls, project = [], ge._project_to_zero_many

    def spy(M, Z, *args):
        calls.append(np.array(Z))
        return project(M, Z, *args)

    monkeypatch.setattr(ge, "_project_to_zero_many", spy)
    trace_equidistant(oval(), 0.5)
    assert len(np.unique(calls[0], axis=0)) == len(calls[0]) == 496


def test_node_sweep_matches_the_loop_reference(oval_03):
    # bucketed random walks cross themselves often, and some repeat a point
    rng = np.random.default_rng(5)
    walks = []
    for k in range(40):
        P = np.cumsum(rng.normal(size=(int(rng.integers(4, 200)), 2)), axis=0)
        if k % 4 == 0:
            P[rng.integers(len(P))] = P[rng.integers(len(P))]
        walks.append(P)
    hits = 0
    for P in walks + [br.points for br in oval_03]:
        for closed in (False, True):
            for gap, min_sin in ((12, 0.15), (1, 0.0)):
                want = node_candidates(P, closed, gap, min_sin)
                got = ge._find_node_candidates(P, closed, gap, min_sin)
                assert len(got) == len(want)
                for (si, sj, a), (wi, wj, wa) in zip(got, want):
                    assert (si, sj) == (wi, wj)
                    assert a.tobytes() == wa.tobytes()
                hits += len(want)
    assert hits > 100


def test_oval_trace_and_detection_stay_within_6000_evaluator_passes(
        monkeypatch):
    # one pass is one call into the curve evaluator, of any order range
    calls = []
    for name in ("jet", "derivative"):
        fn = getattr(ge._FourierOval, name, None)
        if fn is not None:
            def spy(self, *args, _fn=fn):
                calls.append(1)
                return _fn(self, *args)
            monkeypatch.setattr(ge._FourierOval, name, spy)
    for br in trace_equidistant(oval(), 0.5):
        detect_singularities(br)
    assert len(calls) <= 6000, len(calls)


def test_torus_trace_returns_a_midpoint_cloud():
    branches = trace_equidistant(torus(2.0, 0.5), 0.5)
    assert len(branches) == 1
    cloud = branches[0]
    assert cloud.status == "cloud"
    assert len(cloud) > 1000
    R, r = 2.0, 0.5
    for s, t, x in zip(cloud.s, cloud.t, cloud.points):
        rho = math.hypot(x[0], x[1])
        on_circle = abs(rho - R) < 1e-8 and abs(x[2]) < 1e-8
        at_origin = np.linalg.norm(x) < 1e-8
        on_sphere = abs(np.linalg.norm(x) - r) < 1e-8
        parab = abs(math.cos(s[1])) < 1e-8 \
            and abs(math.cos(t[1])) < 1e-8 \
            and min(abs(x[2]), abs(abs(x[2]) - r)) < 1e-8 \
            and rho <= R + 1e-8
        assert on_circle or at_origin or on_sphere or parab, (s, t, x)


# ------------------------------------------------------------- densification


def test_densify_branch_caps_the_requested_gaps(oval_03):
    main = max(oval_03, key=len)
    fine = densify_branch(main, max_sigma_gap=2e-3)
    Z = np.column_stack([fine.s, fine.t])
    d = np.abs(np.diff(Z, axis=0))
    d = np.minimum(d, TWO_PI - d)
    sgap = np.hypot(d[:, 0], d[:, 1])
    assert np.max(sgap) <= 2e-3 * 1.0001
    assert fine.status == main.status
    g, _, _, scale = ge._g_grad(fine.manifold, fine.s, fine.t)
    assert np.max(np.abs(g) / scale) <= 1e-9

    byx = densify_branch(main, target_spacing=1e-2)
    gaps = np.linalg.norm(np.diff(byx.points, axis=0), axis=1)
    assert np.max(gaps) <= 1.05e-2
    with pytest.raises(ValueError):
        densify_branch(main)


def test_closed_branch_densification_returns_to_its_start(oval_03):
    main = max(oval_03, key=len)
    fine = densify_branch(main, max_sigma_gap=5e-3)
    assert tor_dist(fine.s[0], fine.s[-1]) < 1e-9
    assert tor_dist(fine.t[0], fine.t[-1]) < 1e-9


# ------------------------------------------------------ singularity reports


CUSPS_HALF = [(-0.348389, 0.0), (0.174194, -0.301713), (0.174194, 0.301713)]
NODES_03 = [(-0.24231, -0.41970), (-0.24231, 0.41970), (0.48462, 0.0)]


def test_wigner_caustic_cusps_match_the_frozen_goldens(main_half):
    anns = main_half.annotations
    cusps = [a for a in anns if a.label == "A2_cusp"]
    assert len(cusps) == 6
    assert not [a for a in anns if a.label == "UNRESOLVED"]
    assert not [a for a in anns if a.label == "A1_node"]
    # the (s, t) loop covers each unordered chord twice, so the six
    # parameter-space cusps land on three distinct caustic points
    distinct = {tuple(np.round(a.x, 4)) for a in cusps}
    assert len(distinct) == 3
    for gold in CUSPS_HALF:
        assert min(np.hypot(x - gold[0], y - gold[1])
                   for x, y in distinct) <= 2e-3
    for a in cusps:
        assert (a.germ_class.family, a.germ_class.params) == ("A", (2,))


def test_cusp_pairs_have_equal_endpoint_curvatures(main_half):
    M = oval()
    for a in main_half.annotations:
        if a.label != "A2_cusp":
            continue
        assert curvature(M, a.pair.s) == pytest.approx(
            curvature(M, a.pair.t), abs=1e-6)


def test_asymmetric_caustic_has_six_cusps_and_three_nodes(main_03):
    anns = main_03.annotations
    cusps = [a for a in anns if a.label == "A2_cusp"]
    nodes = [a for a in anns if a.label == "A1_node"]
    assert len(cusps) == 6
    assert len({tuple(np.round(a.x, 4)) for a in cusps}) == 6
    assert not [a for a in anns if a.label == "UNRESOLVED"]
    # each transverse crossing is annotated once per strand
    assert len(nodes) == 6
    for a in nodes:
        assert (a.germ_class.family, a.germ_class.params) == ("A", (1,))
        gold = min(NODES_03,
                   key=lambda g: np.hypot(a.x[0] - g[0], a.x[1] - g[1]))
        assert np.hypot(a.x[0] - gold[0], a.x[1] - gold[1]) <= 2e-3


def test_a_failed_refinement_is_unresolved_without_a_pair(monkeypatch,
                                                           oval_03):
    # no chord point projects onto {g = 0}, so no cusp bracket and no node
    # candidate refines, and nothing reaches the cross-check
    monkeypatch.setattr(ge, "_project_to_zero_many", lambda M, Z, tol: (
        np.array(Z, dtype=float), np.zeros(len(Z), dtype=bool)))
    anns = detect_singularities(max(oval_03, key=len)).annotations
    assert len(anns) == 12
    for a in anns:
        assert (a.label, a.pair, a.germ_class) == ("UNRESOLVED", None, None)


@pytest.mark.parametrize("error", [ArithmeticError, ValueError])
def test_a_failed_cross_check_is_unresolved_with_its_pair(monkeypatch, oval_03,
                                                          main_03, error):
    def fail(*args):
        raise error("no class")

    monkeypatch.setattr(ge, "classify_pair", fail)
    anns = detect_singularities(max(oval_03, key=len)).annotations
    assert len(anns) == len(main_03.annotations) == 12
    for a, want in zip(anns, main_03.annotations):
        assert (a.label, a.germ_class) == ("UNRESOLVED", None)
        assert (a.index, a.pair.s, a.pair.t) == (want.index, want.pair.s,
                                                 want.pair.t)


def test_a_disagreeing_cross_check_is_unresolved_with_its_class(
        monkeypatch, oval_03, main_03):
    a3 = GermClass("A", (3,))
    monkeypatch.setattr(ge, "classify_pair", lambda *args: a3)
    anns = detect_singularities(max(oval_03, key=len)).annotations
    assert len(anns) == len(main_03.annotations) == 12
    for a, want in zip(anns, main_03.annotations):
        assert (a.label, a.germ_class) == ("UNRESOLVED", a3)
        assert (a.index, a.pair.s, a.pair.t) == (want.index, want.pair.s,
                                                 want.pair.t)


def test_degenerate_branches_are_not_annotated():
    br = trace_equidistant(ellipse(2.0, 1.0), 0.5)[0]
    assert br.degenerate
    assert detect_singularities(br).annotations == []


def test_traced_points_sit_on_the_rank_deficiency_locus(main_03):
    assert np.max(projection_rank_residuals(main_03)) < TAU_RANK
    # a non-parallel pair stays far from the locus
    C = ellipse(1.0, 1.0)
    J = np.vstack([0.3 * tangent_frame(C, 0.3),
                   0.7 * tangent_frame(C, 1.5)])
    sv = np.linalg.svd(J, compute_uv=False)
    assert sv[-1] / sv[0] > 10 * TAU_RANK


# ----------------------------------------------------- float-rational bridge


def test_circle_antipodal_pair_has_infinite_contact():
    C = ellipse(1.0, 1.0)
    pp = make_pair(C, 0.0, math.pi)
    gp = taylor_germ_at_pair(C, pp, "1/2")
    assert (gp.n, gp.q, gp.k) == (1, 2, 1)
    assert gp.lam == Fraction(1, 2)
    assert gp.phi.polys() == [{(2,): Fraction(-1, 2)}]
    assert gp.zeta.polys() == [{(2,): Fraction(-1, 2)}]
    kappa = contact_map(gp)
    assert all(not p for p in kappa.polys())
    with pytest.raises(ArithmeticError):
        classify_pair(C, pp, "1/2")


def test_ellipse_vertex_pair_is_an_exact_fold():
    E = ellipse(2.0, 1.0)
    pp = make_pair(E, 0.0, math.pi)
    gp = taylor_germ_at_pair(E, pp, "2/5")
    assert gp.lam == Fraction(2, 5)
    assert gp.phi.polys() == [{(2,): Fraction(-1)}]
    assert gp.zeta.polys() == [{(2,): Fraction(-2, 3)}]
    kappa = contact_map(gp)
    assert kappa.polys() == [{(2,): Fraction(-1, 3)}]
    cls = classify_pair(E, pp, "2/5")
    assert (cls.family, cls.params, cls.mu) == ("A", (1,), 1)


def test_float_lambda_snaps_to_the_nearest_rational():
    E = ellipse(2.0, 1.0)
    pp = make_pair(E, 0.0, math.pi)
    assert taylor_germ_at_pair(E, pp, 0.4).lam == Fraction(2, 5)
    for bad in ("0", "1", 0.0, 1.0, Fraction(1)):
        with pytest.raises(ValueError):
            taylor_germ_at_pair(E, pp, bad)


def test_torus_pairs_classify_through_the_bridge():
    T = torus(2.0, 0.5)
    u, v = 0.7, 1.1
    pp3 = make_pair(T, (u, v), (u + math.pi, math.pi - v))
    gp = taylor_germ_at_pair(T, pp3, "1/2")
    assert (gp.n, gp.q, gp.k) == (2, 3, 2)
    cls = classify_pair(T, pp3, "1/2")
    assert (cls.family, cls.params) == ("A", (1,))
    parab = make_pair(T, (0.3, math.pi / 2), (2.1, math.pi / 2))
    cls2 = classify_pair(T, parab, "1/2")
    assert (cls2.family, cls2.params) == ("A", (1,))
    # midpoints of the (u, v + pi) family stay on the central circle, a
    # one-dimensional caustic, so that contact never stabilizes
    pp1 = make_pair(T, (u, v), (u, v + math.pi))
    with pytest.raises(ArithmeticError):
        classify_pair(T, pp1, "1/2")


def test_degenerate_torus_pairs_are_proved_infinite_without_elimination(
        monkeypatch):
    # a tube pair (u, v), (u, v + pi) and a central pair (u, v), (u + pi, -v):
    # each contact germ is y2^2 (a + b y1), so its y1-axis lies in the zero
    # set of the tangent module and no rung of the ladder is eliminated
    eliminated = []
    eliminate = ga._eliminate_mod

    def spy(rows, p):
        eliminated.append(rows.order)
        return eliminate(rows, p)

    monkeypatch.setattr(ga, "_eliminate_mod", spy)
    T = torus(2.0, 0.5)
    u, v = 0.7, 1.1
    for t in ((u, v + math.pi), (u + math.pi, -v)):
        with pytest.raises(InfiniteCodimensionError):
            classify_pair(T, make_pair(T, (u, v), t), "1/2")
    assert eliminated == []


def test_sampled_curve_pairs_classify_through_the_bridge():
    E = ellipse(2.0, 1.0)
    th = np.arange(512) * (TWO_PI / 512)
    S = sampled_curve(np.asarray(E.position((th,))))
    pp = make_pair(S, 0.0, math.pi)
    cls = classify_pair(S, pp, "2/5")
    assert (cls.family, cls.params) == ("A", (1,))
    kappa = contact_map(taylor_germ_at_pair(S, pp, "2/5"))
    coeff = float(kappa.polys()[0][(2,)])
    assert abs(coeff) == pytest.approx(1.0 / 3.0, abs=1e-6)
    with pytest.raises(ValueError):
        taylor_germ_at_pair(S, pp, "2/5", order=4)


R4_GRAPH = [{(2, 0): 1.0, (0, 2): 1.0, (3, 0): 0.3, (1, 2): -0.2},
            {(1, 1): 1.0, (0, 3): 0.25, (2, 1): 0.1}]


@pytest.mark.parametrize("M", [oval(), torus(2.0, 0.5), graph_surface(R4_GRAPH)],
                         ids=["oval", "torus", "r4_graph"])
def test_graph_functions_match_the_float_reference_kernel(monkeypatch, M):
    # the bridge's graph functions round exactly as the float jet kernel
    # the bridge ran on before it shared germ_algebra's: same values, and
    # the same key order, which is the summation order of later products
    calls = []
    real = ge._graph_functions

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ge, "_graph_functions", spy)
    pairs = find_parallel_pairs(M)
    for pair in pairs[::max(1, len(pairs) // 6)]:
        for lam in ("1/2", "1/3"):
            for order in (2, 3, 4):
                try:
                    taylor_germ_at_pair(M, pair, lam, order=order)
                except FrameAlignmentError:
                    pass
    monkeypatch.undo()
    assert len(calls) >= 24

    def run(args):
        try:
            return [list(d.items()) for d in ge._graph_functions(*args)]
        except FrameAlignmentError as exc:
            return str(exc)

    got = [run(args) for args in calls]
    monkeypatch.setattr(ge, "p_compose", fcompose)
    assert [run(args) for args in calls] == got


def test_bridge_rejects_misaligned_pairs_and_bad_orders():
    C = ellipse(1.0, 1.0)
    a, b = C.position(0.0), C.position(math.pi / 2)
    fake = PairPoint(0.0, math.pi / 2, a, b, 1, 1, 0.0)
    with pytest.raises(FrameAlignmentError,
                       match="common tangent directions degenerate"):
        taylor_germ_at_pair(C, fake, "1/2")
    # a torus pair's tangent planes coincide: its degree is 2, not 1
    T = torus(2.0, 0.5)
    pp = make_pair(T, (0.7, 1.1), (0.7 + math.pi, math.pi - 1.1))
    flat = PairPoint(pp.s, pp.t, pp.a, pp.b, 1, 0, 0.0)
    with pytest.raises(FrameAlignmentError,
                       match="more parallel than its recorded degree"):
        taylor_germ_at_pair(T, flat, "1/2")
    pp = make_pair(C, 0.0, math.pi)
    with pytest.raises(ValueError):
        taylor_germ_at_pair(C, pp, "1/2", order=1)
    regular = PairPoint(0.0, math.pi / 2, a, b, 0, 0, 0.0)
    with pytest.raises(ValueError):
        taylor_germ_at_pair(C, regular, "1/2")


def test_a_kept_linear_term_of_a_graph_function_fails_the_alignment(
        monkeypatch):
    # the graph functions' degree-1 terms are rounding noise near 1e-11 of
    # the largest coefficient: a clip of 1e-11 keeps one on this torus pair
    M = torus(2.0, 0.5)
    pair = find_parallel_pairs(M)[37]
    monkeypatch.setattr(ge, "COEFF_CLIP", 1e-11)
    with pytest.raises(FrameAlignmentError, match="keeps a degree-1 term"):
        classify_pair(M, pair, "1/2")


def test_series_invert_rejects_an_ill_conditioned_linear_part():
    # through the bridge its linear part has the frame's condition number
    # up to rounding, which _check_immersed bounds by 1 / TAU_RANK
    A = [{(1, 0): 1.0}, {(1, 0): 1.0, (0, 1): 1e-9}]
    with pytest.raises(FrameAlignmentError, match="ill-conditioned"):
        ge._series_invert(A, 2, 3)


def test_bridge_rejects_an_order_above_the_budget_before_any_jet(
        monkeypatch):
    # with the check after the float bridge, orders 8, 12 and 16 took
    # 0.12, 1.18 and 4.7 s on a torus pair, and order 65 ran past 110 s
    M = torus(2.0, 0.5)
    pair = find_parallel_pairs(M)[100]

    def no_jet(self, params, top):
        raise AssertionError("a jet was evaluated")

    monkeypatch.setattr(ge.ParametricManifold, "jet", no_jet)
    with pytest.raises(ValueError, match="2..64"):
        classify_pair(M, pair, 0.5, order=ga.MAX_TERM_DEGREE + 1)


def test_cusp_points_classify_as_the_expected_family(main_half):
    M = oval()
    cusp = next(a for a in main_half.annotations if a.label == "A2_cusp")
    cls = classify_pair(M, cusp.pair, "1/2")
    assert (cls.family, cls.params, cls.mu) == ("A", (2,), 2)


# ------------------------------------------------------------------ writers


def test_csv_writer_is_deterministic_and_labeled(tmp_path, main_03, oval_03):
    secondary = min(oval_03, key=len)
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    write_branches_csv([main_03, secondary], str(p1))
    write_branches_csv([main_03, secondary], str(p2))
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "branch_id,sigma,s,t,x1,x2,label"
    assert len(lines) == 1 + len(main_03) + len(secondary)
    labels = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert "A2_cusp" in labels and "A1_node" in labels
    with pytest.raises(ValueError):
        write_branches_csv([], str(tmp_path / "none.csv"))


def test_csv_writer_joins_surface_parameters(tmp_path):
    cloud = trace_equidistant(torus(2.0, 0.5), 0.5)
    path = tmp_path / "cloud.csv"
    write_branches_csv(cloud, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "branch_id,sigma,s,t,x1,x2,x3,label"
    assert ";" in lines[1].split(",")[2]


def test_csv_header_fits_the_rows_when_the_first_branch_is_empty(tmp_path):
    # q comes from the first branch with samples: with it read from the
    # empty first branch, the header had 5 fields and every row 7
    M = ellipse(2.0, 1.0)
    none = np.zeros(0)
    empty = EquidistantBranch(lam=0.3, manifold=M, s=none, t=none, a=none,
                              b=none, points=none, sigmas=none, status="open")
    path = tmp_path / "empty_first.csv"
    write_branches_csv([empty, *trace_equidistant(M, 0.3)], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "branch_id,sigma,s,t,x1,x2,label"
    assert len(lines) > 1
    assert {line.count(",") for line in lines} == {6}


def test_svg_writer_marks_cusps_and_nodes(tmp_path, main_03):
    path = tmp_path / "caustic.svg"
    write_branches_svg([main_03], str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<circle") == 6
    assert text.count("<rect") >= 6 + 1   # nodes plus the background
    assert "nan" not in text
    assert "<polyline" in text
    # an annotation whose refinement failed has no point to mark
    bare = dataclasses.replace(main_03, annotations=[
        ge.Annotation(index=0, label="UNRESOLVED")])
    write_branches_svg([bare], str(path))
    text = path.read_text()
    assert text.count("<circle") == 0 and text.count("<rect") == 1
    with pytest.raises(ValueError, match="no points to draw"):
        write_branches_svg([], str(tmp_path / "none.svg"))
    assert not (tmp_path / "none.svg").exists()
