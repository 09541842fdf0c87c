"""Numerical side checks: evaluators against finite differences, pair
location against hand-derived families, tracing against closed-form
equidistants, singularity detection against frozen brute-force goldens, and
the float-to-rational bridge against exact contact classes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from equidistants.contact_lab import contact_map
from equidistants.normal_forms import DomainError
from equidistants import geometry_engine as ge
from equidistants.geometry_engine import (
    TAU_RANK,
    EquidistantBranch,
    FrameAlignmentError,
    ImmersionError,
    PairPoint,
    classify_pair,
    densify_branch,
    detect_singularities,
    ellipse,
    find_parallel_pairs,
    fourier_oval,
    graph_surface,
    manifold_from_dict,
    manifold_from_json,
    parallelism,
    projection_rank_residuals,
    sampled_curve,
    sampled_surface,
    tangent_frame,
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
    grid, h = S._ev.grid, S._ev.h
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
            [ge._poly_eval_deriv(c1[:, a, :], t1, j) for a in range(7)])
        c0 = ge._LAGRANGE_INV @ line
        out[k] = ge._poly_eval_deriv(c0, t0, i) / (
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


def test_torus_pairs_land_on_the_four_families():
    pairs = find_parallel_pairs(torus(2.0, 0.5))
    assert len(pairs) > 1000
    seen = set()
    for p in pairs:
        su, sv = p.s
        tu, tv = p.t
        f1 = tor_dist(su, tu) < 1e-6 and tor_dist(sv, tv - math.pi) < 1e-6
        f2 = tor_dist(su, tu - math.pi) < 1e-6 and tor_dist(sv, -tv) < 1e-6
        f3 = tor_dist(su, tu - math.pi) < 1e-6 \
            and tor_dist(sv, math.pi - tv) < 1e-6
        parab = abs(math.cos(sv)) < 1e-8 and abs(math.cos(tv)) < 1e-8
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
    point, a dict dedupe and pair-by-pair Jacobians: the reference for the
    array passes."""
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

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = (det_at(mid) > 0) == (flo > 0)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    root = 0.5 * (lo + hi)
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
        d = np.array(ge._graph_jac_entries(M, *t)) \
            - np.array(ge._graph_jac_entries(M, *s))
        deg = 2 if np.linalg.norm(d) <= TAU_RANK else 1
        out.append(PairPoint(s, t, M.position(s), M.position(t), deg, deg, r))
    return out


@pytest.mark.parametrize("R, r, density, delta", [
    (2.0, 0.5, 24, 10.0 * TWO_PI / 24),  # the search's defaults
    (1.5, 0.7, 16, 0.6),
], ids=["R2-r0.5-d24", "R1.5-r0.7-d16"])
def test_torus_pair_passes_match_the_scalar_reference(R, r, density, delta):
    M = torus(R, r)
    got = find_parallel_pairs(M, density, delta_diag=delta)
    assert_same_pairs(got, scalar_torus_pairs(M, density, delta))


def test_graph_pair_passes_match_the_scalar_reference():
    M = graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}])
    assert_same_pairs(find_parallel_pairs(M),
                      scalar_graph4_pairs(M, 16, 10.0 * 2.0 / 16))


def test_pair_location_rejects_unsupported_shapes():
    th = np.arange(32) * (TWO_PI / 32)
    helix = np.stack([np.cos(th), np.sin(th), np.sin(2 * th)], axis=1)
    with pytest.raises(ValueError):
        find_parallel_pairs(sampled_curve(helix))


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
    assert np.max(np.abs(br.points())) <= 1e-6


def test_ellipse_equidistant_is_a_scaled_ellipse():
    # antipodal pairs give x = (2 lam - 1) * position, a 0.2-scaled copy
    branches = trace_equidistant(ellipse(2.0, 1.0), 0.4)
    assert len(branches) == 1
    br = branches[0]
    assert br.status == "closed" and not br.degenerate
    X = br.points()
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


def test_trace_is_deterministic():
    one = trace_equidistant(ellipse(2.0, 1.0), 0.4)
    two = trace_equidistant(ellipse(2.0, 1.0), 0.4)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert np.array_equal(a.points(), b.points())


def test_torus_trace_returns_a_midpoint_cloud():
    branches = trace_equidistant(torus(2.0, 0.5), 0.5)
    assert len(branches) == 1
    cloud = branches[0]
    assert cloud.status == "cloud"
    assert len(cloud) > 1000
    R, r = 2.0, 0.5
    for pp, x in cloud.samples:
        rho = math.hypot(x[0], x[1])
        on_circle = abs(rho - R) < 1e-8 and abs(x[2]) < 1e-8
        at_origin = np.linalg.norm(x) < 1e-8
        on_sphere = abs(np.linalg.norm(x) - r) < 1e-8
        parab = abs(math.cos(pp.s[1])) < 1e-8 \
            and abs(math.cos(pp.t[1])) < 1e-8 \
            and min(abs(x[2]), abs(abs(x[2]) - r)) < 1e-8 \
            and rho <= R + 1e-8
        assert on_circle or at_origin or on_sphere or parab, (pp.s, pp.t, x)


# ------------------------------------------------------------- densification


def test_densify_branch_caps_the_requested_gaps(oval_03):
    main = max(oval_03, key=len)
    fine = densify_branch(main, max_sigma_gap=2e-3)
    Z = np.array([[pp.s, pp.t] for pp, _ in fine.samples])
    d = np.abs(np.diff(Z, axis=0))
    d = np.minimum(d, TWO_PI - d)
    sgap = np.hypot(d[:, 0], d[:, 1])
    assert np.max(sgap) <= 2e-3 * 1.0001
    assert fine.status == main.status
    assert np.max([pp.residual for pp, _ in fine.samples]) <= 1e-9

    byx = densify_branch(main, target_spacing=1e-2)
    gaps = np.linalg.norm(np.diff(byx.points(), axis=0), axis=1)
    assert np.max(gaps) <= 1.05e-2
    with pytest.raises(ValueError):
        densify_branch(main)


def test_closed_branch_densification_returns_to_its_start(oval_03):
    main = max(oval_03, key=len)
    fine = densify_branch(main, max_sigma_gap=5e-3)
    first, last = fine.samples[0][0], fine.samples[-1][0]
    assert tor_dist(first.s, last.s) < 1e-9
    assert tor_dist(first.t, last.t) < 1e-9


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


def test_bridge_rejects_misaligned_pairs_and_bad_orders():
    C = ellipse(1.0, 1.0)
    a, b = C.position(0.0), C.position(math.pi / 2)
    fake = PairPoint(0.0, math.pi / 2, a, b, 1, 1, 0.0)
    with pytest.raises(FrameAlignmentError):
        taylor_germ_at_pair(C, fake, "1/2")
    pp = make_pair(C, 0.0, math.pi)
    with pytest.raises(ValueError):
        taylor_germ_at_pair(C, pp, "1/2", order=1)
    regular = PairPoint(0.0, math.pi / 2, a, b, 0, 0, 0.0)
    with pytest.raises(ValueError):
        taylor_germ_at_pair(C, regular, "1/2")


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
