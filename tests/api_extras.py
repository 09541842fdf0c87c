"""Functions on the package's types that the package itself never calls.

Tests use them to state properties of the engines: the tuple-keyed jet
product and composition that the packed kernel replaced, the one-point
continuation march that the lockstep marcher replaced, contact-group
composition and miniversal bases of map-germs, the swap and the
lambda-reflection of graph pairs, the tangent frame at a point and the
parallelism degrees of a pair, a resampled branch and the rank of the
lambda-point map along it, and a reset of the memoized codimensions.

It also keeps the formulations that faster ones replaced, as references:
the torus residual and Jacobian and the minimum-norm step on (rows, 3)
and (rows, 3, 4) arrays with np.cross, which the replacements match bit
for bit, and the immersion check that takes an SVD of every frame, which
the certificate matches in every raise and message.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from equidistants.contact_lab import GraphPair, _check_lambda
from equidistants.geometry_engine import (
    TAU_RANK,
    TWO_PI,
    EquidistantBranch,
    ImmersionError,
    ParametricManifold,
    _check_immersed,
    _g_grad,
    _pair_points,
    _project_to_zero_many,
    _toroidal_dist,
    _wrap_pi,
)
from equidistants.germ_algebra import (
    INFINITE,
    InfiniteCodimensionError,
    MapGerm,
    Poly,
    _analysis_cap,
    _module_dimension,
    _tangent_gens,
    monomials_upto,
    p_compose,
    unit_exp,
)
from equidistants.normal_forms import _computed_mu


def tuple_p_mul(a: Poly, b: Poly, order: int) -> Poly:
    """The tuple-keyed truncated product the packed kernel replaced: the
    reference for its keys, key order and values."""
    out: Poly = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > order:
                continue
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return out


def tuple_p_compose(p: Poly, args: Sequence[Poly], source_dim: int,
                    order: int) -> Poly:
    """The tuple-keyed composition the packed kernel replaced, over the
    coefficients as given: the reference for both coefficient kinds."""
    pows: List[Dict[int, Poly]] = [{1: a} for a in args]
    out: Poly = {}
    for exp, c in p.items():
        term: Poly = {(0,) * source_dim: c}
        for i, e in enumerate(exp):
            if not e:
                continue
            table = pows[i]
            for m in range(len(table) + 1, e + 1):
                table[m] = tuple_p_mul(table[m - 1], args[i], order)
            term = tuple_p_mul(term, table[e], order)
            if not term:
                break
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def _step_direction(gs, gt, prev):
    """Unit tangent of {g = 0} from the gradient (gs, gt), oriented along
    prev when given; None where the gradient vanishes."""
    d = np.array([-gt, gs])
    nrm = np.linalg.norm(d)
    if nrm == 0:
        return None
    d = d / nrm
    if prev is not None and float(d @ prev) < 0:
        d = -d
    return d


def scalar_project_to_zero(M, z, tol):
    """Newton projection of the one point z onto {g = 0}, or None."""
    Z, ok = _project_to_zero_many(M, [z], tol)
    return Z[0] if ok[0] else None


def scalar_corrector(M, z, base, d, tol, iters=12):
    """Newton-correct z onto {g = 0} within the hyperplane through base
    normal to d; returns the accepted point with the gradient (gs, gt)
    there, or None."""
    z = np.array(z, dtype=float)
    for _ in range(iters):
        g, gs, gt, scale = _g_grad(M, z[0], z[1])
        r2 = float((z - base) @ d)
        if abs(g) <= tol * scale and abs(r2) < 1e-13:
            return z, gs, gt
        J = np.array([[gs, gt], [d[0], d[1]]])
        try:
            delta = np.linalg.solve(J, np.array([g, r2]))
        except np.linalg.LinAlgError:
            return None
        z = z - delta
        if np.linalg.norm(delta) > 1.0:
            return None
    return None


def scalar_march(M, z0, direction, step, delta, tol, max_steps):
    """The one-point march along {g = 0} from z0 that the lockstep marcher
    replaced, one scalar Newton iterate at a time: the reference for every
    row of `_Marches`.  Returns (points, closed, failed, band), with band
    the (last point outside the band, step inside it) bracket or None."""
    pts = [np.array(z0, dtype=float)]
    _, gs, gt, _ = _g_grad(M, z0[0], z0[1])
    d = _step_direction(gs, gt, None)
    if d is None:
        return pts, False, True, None
    d = d * direction
    z = np.array(z0, dtype=float)
    for _ in range(max_steps):
        h = step
        for _ in range(5):
            base = z + h * d
            hit = scalar_corrector(M, base, base, d, tol)
            if hit is not None:
                break
            h = h / 2
        if hit is None:
            return pts, False, True, None
        nxt, gs, gt = hit
        if _toroidal_dist(nxt[0], nxt[1]) < delta:
            return pts, False, False, (z, nxt)
        pts.append(nxt)
        if len(pts) > 8 and \
                _toroidal_dist(nxt[0], z0[0]) < 1.2 * step and \
                _toroidal_dist(nxt[1], z0[1]) < 1.2 * step:
            pts.append(np.array(z0, dtype=float))
            return pts, True, False, None
        nd = _step_direction(gs, gt, d)
        if nd is None:
            return pts, False, True, None
        z, d = nxt, nd
    return pts, False, True, None


def p_trunc(p: Poly, order: int) -> Poly:
    return {exp: c for exp, c in p.items() if sum(exp) <= order}


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


def _raw_mapgerm(source_dim: int, target_dim: int, order: int,
                 comps: Tuple[Poly, ...]) -> MapGerm:
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
    cap = _analysis_cap(f, order)
    dim, h, _, pivots, used = _module_dimension(
        _tangent_gens(f), f.source_dim, f.target_dim, cap
    )
    if dim == INFINITE:
        raise InfiniteCodimensionError()
    out: List[MapGerm] = []
    for m in monomials_upto(f.source_dim, max(len(h) - 1, 0)):
        for slot in range(f.target_dim):
            if (slot, m) not in pivots:
                polys: List[Poly] = [dict() for _ in range(f.target_dim)]
                polys[slot][m] = Fraction(1)
                out.append(_raw_mapgerm(f.source_dim, f.target_dim,
                                        f.order, tuple(polys)))
    return out


def swap_pair(gp: GraphPair) -> GraphPair:
    """Exchange the two germs' roles.  The z and v blocks trade places, so
    the graph data swaps as (phi, psi, eta, zeta) -> (zeta, eta, psi, phi);
    the stored lambda flips to 1-lambda, the matching parameter value."""
    return GraphPair(
        gp.n, gp.q, gp.k,
        phi=gp.zeta, psi=gp.eta, eta=gp.psi, zeta=gp.phi,
        lam=None if gp.lam is None else 1 - gp.lam,
    )


def lambda_reflection(a: Sequence, lam, x: Sequence) -> tuple:
    """Image of x under the affine reflection through a with ratio lambda:
    (1/lambda) a - ((1-lambda)/lambda) x."""
    lam = _check_lambda(lam)
    if len(a) != len(x):
        raise ValueError("a and x must have the same length")
    inv = 1 / lam
    w = (1 - lam) / lam
    return tuple(inv * ai - w * xi for ai, xi in zip(a, x))


def densify_branch(branch: EquidistantBranch,
                   target_spacing: Optional[float] = None,
                   max_sigma_gap: Optional[float] = None) -> EquidistantBranch:
    """Resample a traced branch.  `target_spacing` caps the distance between
    consecutive lambda-points; `max_sigma_gap` caps the parameter-arclength
    gap, which bounds the polyline's deviation from the underlying curve by
    gap^2 * max|x''(sigma)| / 8 even across cusps, where the point spacing
    degenerates.  Inserted parameters interpolate the polyline and are
    projected back onto the parallel-pair equation; annotations are
    dropped.
    """
    if branch.status == "cloud" or len(branch) < 2:
        return branch
    if target_spacing is None and max_sigma_gap is None:
        raise ValueError("give target_spacing or max_sigma_gap")
    M = branch.manifold
    lam = branch.lam
    Z = np.column_stack([branch.s, branch.t])
    # unwrap so linear interpolation never crosses the period seam
    Zu = Z.copy()
    for col in range(2):
        Zu[:, col] = Z[0, col] + np.concatenate(
            [[0.0], np.cumsum(_wrap_pi(np.diff(Z[:, col])))])
    X = branch.points
    counts = np.ones(len(Zu) - 1, dtype=int)
    if target_spacing is not None:
        gaps = np.linalg.norm(np.diff(X, axis=0), axis=1)
        counts = np.maximum(counts,
                            np.ceil(gaps / target_spacing).astype(int))
    if max_sigma_gap is not None:
        sgaps = np.linalg.norm(np.diff(Zu, axis=0), axis=1)
        counts = np.maximum(counts,
                            np.ceil(sgaps / max_sigma_gap).astype(int))
    S_new, T_new = [], []
    for i in range(len(Zu) - 1):
        fr = np.arange(counts[i]) / counts[i]
        S_new.append(Zu[i, 0] + fr * (Zu[i + 1, 0] - Zu[i, 0]))
        T_new.append(Zu[i, 1] + fr * (Zu[i + 1, 1] - Zu[i, 1]))
    S = np.concatenate(S_new + [[Zu[-1, 0]]])
    T = np.concatenate(T_new + [[Zu[-1, 1]]])
    for _ in range(3):
        g, gs, gt, _ = _g_grad(M, S, T)
        n2 = gs * gs + gt * gt
        n2[n2 == 0] = 1.0
        S = S - g * gs / n2
        T = T - g * gt / n2
    A = M.position((S,))
    B = M.position((T,))
    X = lam * A + (1 - lam) * B
    steps = np.hypot(np.diff(S), np.diff(T))
    sigmas = np.concatenate([[0.0], np.cumsum(steps)])
    return EquidistantBranch(
        lam=lam, manifold=M, s=S % TWO_PI, t=T % TWO_PI, a=A, b=B, points=X,
        sigmas=sigmas, status=branch.status, degenerate=branch.degenerate)


def tangent_frame(M: ParametricManifold, params) -> np.ndarray:
    """Rows are the first partial derivatives at `params` (an n x q frame)."""
    J = M.jet(params, 1)
    frame = np.stack([J[unit_exp(i, M.n)] for i in range(M.n)])
    _check_immersed(frame[None], [params])
    return frame


def parallelism(M: ParametricManifold, s, t) -> Tuple[int, int]:
    """Degree and codimension of (weak) parallelism of the pair (s, t).

    r is the numerical rank of the stacked 2n x q frame; the degree is
    2n - r and the codimension q - r.  `_pair_points` makes the checks:
    s and t must be distinct and M immersed at both, and the `PairPoint`
    it builds enforces 2n - deg = q - codim.  codim = 0 means not weakly
    parallel.
    """
    p = _pair_points(M, [s], [t], [0.0])[0]
    return p.deg_k, p.codim


def projection_rank_residuals(branch: EquidistantBranch) -> np.ndarray:
    """Smallest-over-largest singular value of the lambda-point map Jacobian
    [lam*T(s); (1-lam)*T(t)] at every sample of the branch."""
    M, lam = branch.manifold, branch.lam
    out = np.empty(len(branch))
    for i, (s, t) in enumerate(zip(branch.s, branch.t)):
        J = np.vstack([lam * tangent_frame(M, s),
                       (1 - lam) * tangent_frame(M, t)])
        sv = np.linalg.svd(J, compute_uv=False)
        out[i] = sv[-1] / sv[0]
    return out


def clear_mu_cache() -> None:
    """Drop all memoized codimensions; they recompute on demand."""
    _computed_mu.cache_clear()


def np_cross_normal_cross(M, Z):
    """The torus residual r = nh(s) x nh(t) at the rows (u_s, v_s, u_t, v_t)
    of Z and its Jacobian (rows, 3, 4) by d nh = (dn - nh (nh . dn)) / |n|,
    with np.cross on (2, rows, 3) arrays: the reference for
    `_normal_cross`."""
    J = M.jet((Z[:, 0::2].T, Z[:, 1::2].T), 2)      # ends s, t on axis 2
    n = np.cross(J[1, 0], J[0, 1])
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    nh = n / norm
    dnh = [(d - nh * np.sum(nh * d, axis=-1, keepdims=True)) / norm
           for d in (np.cross(J[2, 0], J[0, 1]) + np.cross(J[1, 0], J[1, 1]),
                     np.cross(J[1, 1], J[0, 1]) + np.cross(J[1, 0], J[0, 2]))]
    cols = ([np.cross(d[0], nh[1]) for d in dnh]
            + [np.cross(nh[0], d[1]) for d in dnh])
    return np.cross(nh[0], nh[1]), np.stack(cols, axis=2)


def rows_min_norm_step(J, r):
    """J^+ r of stacked 3x4 systems by modified Gram-Schmidt on the rows of
    J, with each system's rows as (systems, 4) arrays: the reference for
    `_min_norm_step`."""
    cut = 1e-15 * np.linalg.norm(J, axis=2).max(axis=1)
    basis = []
    for w, y in zip(J.transpose(1, 0, 2), r.T):
        for q, c in basis:
            proj = np.sum(w * q, axis=1)
            w, y = w - proj[:, None] * q, y - proj * c
        size = np.linalg.norm(w, axis=1)
        scale = (size > cut) / np.where(size > cut, size, 1.0)
        basis.append((w * scale[:, None], y * scale))
    return sum(c[:, None] * q for q, c in basis)


def svd_check_immersed(frames, params):
    """The immersion check with an SVD of every frame: the reference for
    `_check_immersed`, which must raise where it raises, at the same frame
    and with the same message."""
    sv = np.linalg.svd(frames, compute_uv=False)
    bad = (sv[:, 0] == 0.0) | (sv[:, -1] <= TAU_RANK * sv[:, 0])
    if bad.any():
        i = int(np.argmax(bad))
        at = np.ravel(params[i]).tolist()
        at = at[0] if len(at) == 1 else tuple(at)
        raise ImmersionError(f"tangent frame drops rank at {at}: "
                             f"singular values {sv[i]}")
