"""Numerical side of the toolkit: parametrized closed submanifolds, location
of weakly parallel pairs, tracing of affine lambda-equidistants, singularity
detection on traced branches, and the bridge that turns a located pair into
an exact adapted-coordinate GraphPair for the algebra side.

Conventions.  Builtin families carry closed-form derivatives; sampled grids
differentiate a 7-point local Lagrange interpolant, whose node values are
the classical 4th-order central-difference stencils.  Numerical rank uses
singular values with the relative threshold TAU_RANK.  The float-to-exact
bridge snaps Taylor coefficients to rationals after zeroing entries below a
relative clip, so tangency-forced zeros survive roundoff.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .contact_lab import GraphPair, contact_map
from .germ_algebra import MapGerm, monomials_upto
from .normal_forms import DomainError, GermClass, recognize

TAU_RANK = 1e-8
FRAME_COND_LIMIT = 1e8
COEFF_CLIP = 1e-9
SNAP_DENOMINATOR = 10 ** 12
TWO_PI = 2.0 * math.pi


class ImmersionError(DomainError):
    """The tangent frame dropped rank at an evaluated parameter."""


class FrameAlignmentError(ValueError):
    """The adapted frame at a pair is ill conditioned or misaligned."""


class UnsupportedDimensionsError(DomainError):
    """No pair-location scheme exists for the manifold's (n, q)."""


class NonFiniteEquidistantError(DomainError):
    """Lambda sends traced lambda-points outside the finite floats."""


# --------------------------------------------------------------------------
# evaluators


def _shifted_cos(theta, m):
    return np.cos(theta + m * (math.pi / 2.0))


def _shifted_sin(theta, m):
    return np.sin(theta + m * (math.pi / 2.0))


class _Ellipse:
    def __init__(self, a: float, b: float):
        if a <= 0 or b <= 0:
            raise ValueError("ellipse axes must be positive")
        self.a, self.b = float(a), float(b)

    def derivative(self, params, alpha):
        (th,) = params
        (m,) = alpha
        return np.stack(
            [self.a * _shifted_cos(th, m), self.b * _shifted_sin(th, m)],
            axis=-1,
        )

    def payload(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b}


class _FourierOval:
    """Polar curve r(theta) = 1 + sum_j a_j cos(j theta) + b_j sin(j theta)."""

    def __init__(self, a: Sequence[float], b: Sequence[float]):
        self.a = tuple(float(c) for c in a)
        self.b = tuple(float(c) for c in b)

    def _r_deriv(self, th, m):
        out = np.ones_like(np.asarray(th, dtype=float)) if m == 0 else \
            np.zeros_like(np.asarray(th, dtype=float))
        for j, c in enumerate(self.a, start=1):
            if c:
                out = out + c * (j ** m) * _shifted_cos(j * th, m)
        for j, c in enumerate(self.b, start=1):
            if c:
                out = out + c * (j ** m) * _shifted_sin(j * th, m)
        return out

    def derivative(self, params, alpha):
        (th,) = params
        (m,) = alpha
        x = 0.0
        y = 0.0
        for i in range(m + 1):
            binom = math.comb(m, i)
            ri = self._r_deriv(th, i)
            x = x + binom * ri * _shifted_cos(th, m - i)
            y = y + binom * ri * _shifted_sin(th, m - i)
        return np.stack([np.asarray(x, dtype=float),
                         np.asarray(y, dtype=float)], axis=-1)

    def payload(self):
        return {"kind": "fourier_oval", "a": list(self.a), "b": list(self.b)}


class _Torus:
    def __init__(self, R: float, r: float):
        if R <= 0 or r <= 0:
            raise ValueError("torus radii must be positive")
        self.R, self.r = float(R), float(r)

    def derivative(self, params, alpha):
        u, v = params
        i, j = alpha
        R, r = self.R, self.r
        # x = R cos u + r cos v cos u, y = R sin u + r cos v sin u, z = r sin v
        cu_i = _shifted_cos(u, i)
        su_i = _shifted_sin(u, i)
        cv_j = _shifted_cos(v, j)
        x = (R * cu_i if j == 0 else 0.0) + r * cv_j * cu_i
        y = (R * su_i if j == 0 else 0.0) + r * cv_j * su_i
        z = r * _shifted_sin(v, j) if i == 0 else 0.0
        shape = np.broadcast(np.asarray(u), np.asarray(v)).shape
        return np.stack(
            [np.broadcast_to(np.asarray(c, dtype=float), shape)
             for c in (x, y, z)],
            axis=-1,
        )

    def payload(self):
        return {"kind": "torus", "R": self.R, "r": self.r}


class _GraphSurface:
    """Graph (y1, y2, f_1(y), ..) over a box, extra components polynomial."""

    def __init__(self, components: Sequence[Dict[Tuple[int, int], float]],
                 halfwidth: float = 1.0):
        self.components = tuple(
            {tuple(int(x) for x in e): float(c) for e, c in comp.items()}
            for comp in components
        )
        self.halfwidth = float(halfwidth)

    def derivative(self, params, alpha):
        y1, y2 = (np.asarray(p, dtype=float) for p in params)
        i, j = alpha
        shape = np.broadcast(y1, y2).shape
        cols = []
        base = [y1, y2]
        for axis in range(2):
            if alpha == (0, 0):
                cols.append(np.broadcast_to(base[axis], shape))
            elif (i, j) == ((1, 0) if axis == 0 else (0, 1)):
                cols.append(np.ones(shape))
            else:
                cols.append(np.zeros(shape))
        for comp in self.components:
            acc = np.zeros(shape)
            for (e1, e2), c in comp.items():
                if e1 < i or e2 < j:
                    continue
                f = c * math.perm(e1, i) * math.perm(e2, j)
                acc = acc + f * y1 ** (e1 - i) * y2 ** (e2 - j)
            cols.append(acc)
        return np.stack(cols, axis=-1)

    def payload(self):
        comps = [
            [{"coeff": c, "exponents": list(e)} for e, c in sorted(p.items())]
            for p in self.components
        ]
        return {"kind": "graph_surface", "components": comps,
                "halfwidth": self.halfwidth}


def _lagrange_matrix() -> np.ndarray:
    # coefficients of the degree-6 interpolant through nodes -3..3
    nodes = np.arange(-3, 4, dtype=float)
    V = np.vander(nodes, 7, increasing=True)
    return np.linalg.inv(V)


_LAGRANGE_INV = _lagrange_matrix()


def _poly_eval_deriv(coeffs: np.ndarray, tau, m: int) -> np.ndarray:
    # coeffs indexed by power along axis 0; tau broadcasts against
    # coeffs[p].  float_power rounds like the scalar `tau ** k` (libm pow);
    # the array `**` may take a SIMD pow that differs in the last bit.
    out = np.zeros(coeffs.shape[1:])
    for p in range(m, coeffs.shape[0]):
        out = out + coeffs[p] * math.perm(p, m) * np.float_power(tau, p - m)
    return out


class _SampledCurve:
    def __init__(self, grid: np.ndarray, period: float = TWO_PI):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 2 or grid.shape[0] < 7:
            raise ValueError("sampled curve needs at least 7 grid points")
        self.grid = grid
        self.period = float(period)
        self.h = self.period / grid.shape[0]

    def derivative(self, params, alpha):
        (th,) = params
        (m,) = alpha
        th = np.asarray(th, dtype=float)
        scalar = th.ndim == 0
        th = np.atleast_1d(th)
        n = self.grid.shape[0]
        idx = np.rint(th / self.h).astype(int)
        tau = th / self.h - idx
        rows = (idx[:, None] + np.arange(-3, 4)[None, :]) % n
        window = self.grid[rows]                # (N, 7, q)
        coeffs = np.einsum("pk,nkq->pnq", _LAGRANGE_INV, window)
        out = _poly_eval_deriv(coeffs, tau[:, None], m) / self.h ** m
        return out[0] if scalar else out

    def payload(self):
        return {"kind": "samples", "n": 1, "q": self.grid.shape[1],
                "grid": self.grid.tolist()}


class _SampledSurface:
    def __init__(self, grid: np.ndarray, periods=(TWO_PI, TWO_PI)):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 3 or grid.shape[0] < 7 or grid.shape[1] < 7:
            raise ValueError("sampled surface needs a 7x7 grid at least")
        self.grid = grid
        self.periods = tuple(float(p) for p in periods)
        self.h = (self.periods[0] / grid.shape[0],
                  self.periods[1] / grid.shape[1])

    def derivative(self, params, alpha):
        u, v = (np.asarray(p, dtype=float) for p in params)
        i, j = alpha
        scalar = u.ndim == 0 and v.ndim == 0
        u, v = np.broadcast_arrays(np.atleast_1d(u), np.atleast_1d(v))
        shape = u.shape
        u, v = u.ravel(), v.ravel()
        n0, n1 = self.grid.shape[:2]
        i0 = np.rint(u / self.h[0]).astype(int)
        j0 = np.rint(v / self.h[1]).astype(int)
        t0 = u / self.h[0] - i0
        t1 = v / self.h[1] - j0
        rows = (i0[:, None] + np.arange(-3, 4)) % n0
        cols = (j0[:, None] + np.arange(-3, 4)) % n1
        block = self.grid[rows[:, :, None], cols[:, None, :]]  # (N, 7, 7, q)
        c1 = np.einsum("pk,nakq->pnaq", _LAGRANGE_INV, block)
        line = _poly_eval_deriv(c1, t1[:, None, None], j)      # (N, 7, q)
        # matmul runs the BLAS call of a single `L @ line` on each point
        c0 = np.matmul(_LAGRANGE_INV, line).transpose(1, 0, 2)
        out = _poly_eval_deriv(c0, t0[:, None], i) / (
            self.h[0] ** i * self.h[1] ** j)
        out = out.reshape(shape + (self.grid.shape[2],))
        return out[(0,) * (out.ndim - 1)] if scalar else out

    def payload(self):
        return {"kind": "samples", "n": 2, "q": self.grid.shape[2],
                "grid": self.grid.tolist()}


# --------------------------------------------------------------------------
# manifold front end


@dataclass
class ParametricManifold:
    """Closed parametrized submanifold with derivative access.

    `periods[i]` is the period of parameter i, or None on a box domain.
    `derivative(params, alpha)` returns the mixed partial of multi-index
    alpha; alpha = (0,..,0) is the position.  Components of `params` may be
    floats or broadcastable arrays.
    """

    n: int
    q: int
    kind: str
    periods: Tuple[Optional[float], ...]
    _ev: object

    def position(self, params):
        return self.derivative(params, (0,) * self.n)

    def derivative(self, params, alpha):
        params = _as_params(params, self.n)
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n or any(a < 0 for a in alpha):
            raise ValueError(f"bad derivative multi-index {alpha}")
        return self._ev.derivative(params, alpha)

    def to_dict(self) -> dict:
        return self._ev.payload()

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _as_params(params, n):
    if n == 1 and np.isscalar(params):
        return (float(params),)
    if isinstance(params, np.ndarray) and n == 1 and params.ndim >= 1 \
            and not isinstance(params, tuple):
        return (params,)
    params = tuple(params)
    if len(params) != n:
        raise ValueError(f"expected {n} parameters, got {len(params)}")
    return params


def ellipse(a: float = 2.0, b: float = 1.0) -> ParametricManifold:
    return ParametricManifold(1, 2, "ellipse", (TWO_PI,), _Ellipse(a, b))


def fourier_oval(a: Sequence[float] = (), b: Sequence[float] = ()) \
        -> ParametricManifold:
    return ParametricManifold(1, 2, "fourier_oval", (TWO_PI,),
                              _FourierOval(a, b))


def torus(R: float = 2.0, r: float = 0.5) -> ParametricManifold:
    return ParametricManifold(2, 3, "torus", (TWO_PI, TWO_PI), _Torus(R, r))


def graph_surface(components, halfwidth: float = 1.0) -> ParametricManifold:
    ev = _GraphSurface(components, halfwidth)
    return ParametricManifold(2, 2 + len(ev.components), "graph_surface",
                              (None, None), ev)


def sampled_curve(grid, q: Optional[int] = None) -> ParametricManifold:
    ev = _SampledCurve(np.asarray(grid, dtype=float))
    return ParametricManifold(1, ev.grid.shape[1], "samples", (TWO_PI,), ev)


def sampled_surface(grid) -> ParametricManifold:
    ev = _SampledSurface(np.asarray(grid, dtype=float))
    return ParametricManifold(2, ev.grid.shape[2], "samples",
                              (TWO_PI, TWO_PI), ev)


def manifold_from_dict(payload: dict) -> ParametricManifold:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValueError("manifold payload needs a 'kind' field")
    kind = payload["kind"]
    try:
        if kind == "ellipse":
            return ellipse(payload["a"], payload["b"])
        if kind == "fourier_oval":
            return fourier_oval(payload.get("a", ()), payload.get("b", ()))
        if kind == "torus":
            return torus(payload["R"], payload["r"])
        if kind == "graph_surface":
            comps = [
                {tuple(t["exponents"]): float(t["coeff"]) for t in comp}
                for comp in payload["components"]
            ]
            return graph_surface(comps, payload.get("halfwidth", 1.0))
        if kind == "samples":
            grid = np.asarray(payload["grid"], dtype=float)
            if int(payload.get("n", 1)) == 1:
                return sampled_curve(grid)
            return sampled_surface(grid)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed manifold payload: {exc}") from exc
    raise ValueError(f"unknown manifold kind {kind!r}")


def manifold_from_json(text: str) -> ParametricManifold:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return manifold_from_dict(payload)


# --------------------------------------------------------------------------
# frames and parallelism


def tangent_frame(M: ParametricManifold, params) -> np.ndarray:
    """Rows are the first partial derivatives at `params` (an n x q frame)."""
    rows = [M.derivative(params, tuple(int(i == j) for j in range(M.n)))
            for i in range(M.n)]
    frame = np.stack(rows)
    sv = np.linalg.svd(frame, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= TAU_RANK * sv[0]:
        raise ImmersionError(
            f"tangent frame drops rank at {params}: singular values {sv}")
    return frame


def _toroidal_dist(a: float, b: float, period: Optional[float]) -> float:
    if period is None:
        return abs(a - b)
    d = math.fmod(abs(a - b), period)
    return min(d, period - d)


def _params_distinct(M, s, t) -> bool:
    ss, tt = _as_params(s, M.n), _as_params(t, M.n)
    return any(
        _toroidal_dist(a, b, M.periods[i]) > 1e-12
        for i, (a, b) in enumerate(zip(ss, tt))
    )


def parallelism(M: ParametricManifold, s, t) -> Tuple[int, int]:
    """Degree and codimension of (weak) parallelism of the pair (s, t).

    r is the numerical rank of the stacked 2n x q frame; the degree is
    2n - r and the codimension q - r, so 2n - deg = q - codim holds by
    construction and is asserted.  codim = 0 means not weakly parallel.
    """
    if not _params_distinct(M, s, t):
        raise ValueError("parallelism needs distinct parameters")
    stacked = np.vstack([tangent_frame(M, s), tangent_frame(M, t)])
    sv = np.linalg.svd(stacked, compute_uv=False)
    r = int(np.sum(sv > TAU_RANK * sv[0]))
    deg_k, codim = 2 * M.n - r, M.q - r
    assert 2 * M.n - deg_k == M.q - codim
    return deg_k, codim


@dataclass
class PairPoint:
    """A weakly parallel pair: parameters, points, and its degeneracy data."""

    s: object
    t: object
    a: np.ndarray
    b: np.ndarray
    deg_k: int
    codim: int
    residual: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        n = 1 if np.isscalar(self.s) else len(self.s)
        if 2 * n - self.deg_k != len(self.a) - self.codim:
            raise ValueError(
                f"parallelism identity violated: n={n}, q={len(self.a)}, "
                f"deg={self.deg_k}, codim={self.codim}")

    def lambda_point(self, lam: float) -> np.ndarray:
        lam = float(lam)
        return lam * self.a + (1.0 - lam) * self.b


# --------------------------------------------------------------------------
# locating weakly parallel pairs


def _curve_tangents(M, thetas):
    return M.derivative((np.asarray(thetas, dtype=float),), (1,))


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _norm2(v):
    # row-wise sqrt(v @ v): np.vecdot rounds like the scalar `v @ v` and
    # np.linalg.norm of one vector, which `(v * v).sum(-1)` does not
    return np.sqrt(np.vecdot(v, v))


def _g_grad(M, s, t):
    Ts, Tt = M.derivative(s, (1,)), M.derivative(t, (1,))
    As, At = M.derivative(s, (2,)), M.derivative(t, (2,))
    g = _cross2(Ts, Tt)
    return g, _cross2(As, Tt), _cross2(Ts, At), _norm2(Ts) * _norm2(Tt)


def _bisect_lockstep(f, lo, hi, flo, iters):
    """Bisect every bracket [lo[i], hi[i]] of the vectorized f at once.

    Each element halves toward its sign change and freezes at the first
    midpoint where f is exactly zero, as a scalar bisection returns it.
    Once no bracket moves (each midpoint has rounded onto an end), every
    remaining step would repeat the last one, so the loop stops there with
    the result of all `iters` steps.
    """
    root = np.zeros_like(lo)
    frozen = np.zeros(lo.shape, dtype=bool)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        hit = (fm == 0.0) & ~frozen
        root[hit] = mid[hit]
        frozen |= hit
        same = (fm > 0) == (flo > 0)
        new_lo = np.where(same, mid, lo)
        new_hi = np.where(same, hi, mid)
        if (frozen | ((new_lo == lo) & (new_hi == hi))).all():
            break
        lo, hi = new_lo, new_hi
    return np.where(frozen, root, 0.5 * (lo + hi))


def _toroidal_gaps(A, B, periods):
    """Row-wise |A - B| per parameter, measured around each periodic axis
    as `_toroidal_dist` measures it."""
    gaps = np.abs(A - B)
    for i, period in enumerate(periods):
        if period is not None:
            d = np.fmod(gaps[:, i], period)
            gaps[:, i] = np.minimum(d, period - d)
    return gaps


def _rank_drops(frames):
    """Stacked frames whose rank drops by the rule of `tangent_frame`, and
    their singular values."""
    sv = np.linalg.svd(frames, compute_uv=False)
    return (sv[:, 0] == 0.0) | (sv[:, -1] <= TAU_RANK * sv[:, 0]), sv


def _pair_points(M, S, T, residuals=None):
    """PairPoints of M at the parameter lists S and T, built in one pass.

    Frames come from `M.derivative` at the unit multi-indices; immersion
    checks and the rank of each stacked 2n x q frame come from stacked
    SVDs, which run the LAPACK call of `tangent_frame` and `parallelism` on
    each matrix, so the result is that of pair-by-pair construction.
    Errors are raised for the first offending pair, in the order
    `parallelism` checks it.  Without `residuals`, a plane-curve pair gets
    its normalized |g|.
    """
    if not len(S):
        return []
    n = M.n
    Sa = np.array(S, dtype=float).reshape(len(S), n)
    Ta = np.array(T, dtype=float).reshape(len(T), n)
    Sp, Tp = tuple(Sa.T.copy()), tuple(Ta.T.copy())
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    Fs = np.stack([M.derivative(Sp, e) for e in units], axis=1)
    Ft = np.stack([M.derivative(Tp, e) for e in units], axis=1)
    distinct = (_toroidal_gaps(Sa, Ta, M.periods) > 1e-12).any(axis=1)
    bad_s, sv_s = _rank_drops(Fs)
    bad_t, sv_t = _rank_drops(Ft)
    bad = ~distinct | bad_s | bad_t
    if bad.any():
        k = int(np.argmax(bad))
        if not distinct[k]:
            raise ValueError("parallelism needs distinct parameters")
        at, sv = (S[k], sv_s[k]) if bad_s[k] else (T[k], sv_t[k])
        raise ImmersionError(
            f"tangent frame drops rank at {at}: singular values {sv}")
    sv = np.linalg.svd(np.concatenate([Fs, Ft], axis=1), compute_uv=False)
    rank = np.sum(sv > TAU_RANK * sv[:, :1], axis=1)
    deg, codim = 2 * n - rank, M.q - rank
    if residuals is None:
        Ts, Tt = Fs[:, 0], Ft[:, 0]
        residuals = np.abs(_cross2(Ts, Tt)) / (_norm2(Ts) * _norm2(Tt))
    A, B = M.position(Sp), M.position(Tp)
    return [PairPoint(S[k], T[k], A[k], B[k], int(deg[k]), int(codim[k]),
                      float(residuals[k])) for k in range(len(S))]


def _first_of_each_key(keys, S, T):
    """Rows holding the first occurrence of each distinct key row, ordered
    lexicographically by (S, T) as sorting the (s, t) tuples orders them."""
    _, first = np.unique(keys, axis=0, return_index=True)
    cols = np.column_stack([S[first], T[first]])
    return first[np.lexsort(cols.T[::-1])]


def _pairs_curve(M, density, tol, delta):
    thetas = np.arange(density) * (TWO_PI / density)
    T = _curve_tangents(M, thetas)
    G = _cross2(T[:, None], T[None, :])
    norms = np.linalg.norm(T, axis=1)
    G = G / (norms[:, None] * norms[None, :])
    spacing = TWO_PI / density
    didx = np.abs(np.subtract.outer(np.arange(density), np.arange(density)))
    didx = np.minimum(didx, density - didx)
    banned = didx * spacing < delta

    # brackets along t at fixed s = thetas[i], then along s at fixed
    # t = thetas[j]; G[i, j] is the value at the bracket's low end
    Gr = np.roll(G, -1, axis=1)
    ti, tj = np.nonzero((G * Gr < 0) & ~banned & ~np.roll(banned, -1, axis=1))
    Gc = np.roll(G, -1, axis=0)
    si, sj = np.nonzero((G * Gc < 0) & ~banned & ~np.roll(banned, -1, axis=0))
    if len(ti) + len(si) == 0:
        return []
    along_t = np.arange(len(ti) + len(si)) < len(ti)
    fixed = thetas[np.concatenate([ti, sj])]
    lo = thetas[np.concatenate([tj, si])]
    flo = np.concatenate([G[ti, tj], G[si, sj]])
    Tf = _curve_tangents(M, fixed)

    def g_at(x):
        Tx = _curve_tangents(M, x)
        return np.where(along_t, _cross2(Tf, Tx), _cross2(Tx, Tf))

    root = _bisect_lockstep(g_at, lo, lo + spacing, flo, 80)
    S = np.where(along_t, fixed, root)
    T = np.where(along_t, root, fixed)
    Ts, Tt = _curve_tangents(M, S), _curve_tangents(M, T)
    val = np.abs(_cross2(Ts, Tt))
    scale = _norm2(Ts) * _norm2(Tt)

    rows = np.nonzero(val <= tol * scale)[0]
    keys = np.round(np.column_stack([S[rows], T[rows]]) / (spacing / 2))
    keys = keys.astype(np.int64) % (2 * density)
    S, T = S % TWO_PI, T % TWO_PI
    rows = rows[_first_of_each_key(keys, S[rows], T[rows])]
    pairs = _pair_points(M, list(S[rows]), list(T[rows]),
                         val[rows] / scale[rows])
    return [p for p in pairs if p.codim > 0]


def _pairs_torus(M, density, tol, delta):
    us = np.arange(density) * (TWO_PI / density)
    U, V = np.meshgrid(us, us, indexing="ij")
    Tu = M.derivative((U, V), (1, 0))
    Tv = M.derivative((U, V), (0, 1))
    bad, sv = _rank_drops(np.stack([Tu, Tv], axis=-2).reshape(-1, 2, M.q))
    if bad.any():
        k = int(np.argmax(bad))
        at = (float(U.flat[k]), float(V.flat[k]))
        raise ImmersionError(
            f"tangent frame drops rank at {at}: singular values {sv[k]}")
    N = np.cross(Tu, Tv)
    N = N / np.linalg.norm(N, axis=-1, keepdims=True)
    flat = N.reshape(-1, 3)
    P = flat.shape[0]
    spacing = TWO_PI / density
    coords = np.stack([U.ravel(), V.ravel()], axis=1)
    # blocked all-pairs scan keeps memory at O(block * P)
    block = max(1, 4_000_000 // P)
    cand_rows = []
    for lo_i in range(0, P, block):
        hi_i = min(lo_i + block, P)
        cross = np.cross(flat[lo_i:hi_i, None, :], flat[None, :, :])
        mis = np.linalg.norm(cross, axis=-1)
        du = np.abs(coords[lo_i:hi_i, None, 0] - coords[None, :, 0])
        dv = np.abs(coords[lo_i:hi_i, None, 1] - coords[None, :, 1])
        du = np.minimum(du, TWO_PI - du)
        dv = np.minimum(dv, TWO_PI - dv)
        near = np.maximum(du, dv) < delta
        hits = np.argwhere((mis < 2.0 * spacing) & ~near)
        hits[:, 0] += lo_i
        cand_rows.append(hits)
    cand = np.vstack(cand_rows) if cand_rows else np.empty((0, 2), dtype=int)
    cand = cand[cand[:, 0] < cand[:, 1]]
    if not len(cand):
        return []

    def normals(u, v):
        tu = M.derivative((u, v), (1, 0))
        tv = M.derivative((u, v), (0, 1))
        nn = np.cross(tu, tv)
        return nn / np.linalg.norm(nn, axis=-1, keepdims=True)

    def resid(Z):
        return np.cross(normals(Z[:, 0], Z[:, 1]), normals(Z[:, 2], Z[:, 3]))

    # Gauss-Newton with a finite-difference Jacobian on the live rows, those
    # whose residual is still at or above tol; a row that drops out would
    # only ever take zero steps, since its iterate and residual stay fixed
    Z = np.hstack([coords[cand[:, 0]], coords[cand[:, 1]]])
    h = 1e-6
    live = np.arange(len(Z))
    for _ in range(40):
        Zl = Z[live]
        r = resid(Zl)
        keep = np.linalg.norm(r, axis=1) >= tol
        if not keep.any():
            break
        live, Zl, r = live[keep], Zl[keep], r[keep]
        cols = []
        for idx in range(4):
            Zp = Zl.copy()
            Zp[:, idx] += h
            cols.append((resid(Zp) - r) / h)
        J = np.stack(cols, axis=2)
        step = -np.einsum("cij,cj->ci", np.linalg.pinv(J), r)
        sn = np.linalg.norm(step, axis=1)
        big = sn > 0.5
        step[big] *= (0.5 / sn[big])[:, None]
        Z[live] = Zl + step
    rn = np.linalg.norm(resid(Z), axis=1)
    Z = Z % TWO_PI

    S, T = Z[:, :2], Z[:, 2:]
    ok = (rn <= tol) & ~(_toroidal_gaps(S, T, M.periods).max(axis=1) < delta)
    rows = np.nonzero(ok)[0]
    keys = np.round(Z[rows] / (spacing / 4)).astype(np.int64) % (4 * density)
    rows = rows[_first_of_each_key(keys, S[rows], T[rows])]
    return _pair_points(M, [tuple(z) for z in S[rows].tolist()],
                        [tuple(z) for z in T[rows].tolist()], rn[rows])


def _graph_jac_entries(M, y1, y2):
    d10 = M.derivative((y1, y2), (1, 0))
    d01 = M.derivative((y1, y2), (0, 1))
    return d10[..., 2], d10[..., 3], d01[..., 2], d01[..., 3]


def _pairs_graph4(M, density, tol, delta):
    """The stacked frame rows are [I2 | A; I2 | B] with A, B the 2x2
    Jacobians of (f1, f2), so the 4x4 determinant collapses to det(B - A);
    its zero set is generically a 3-manifold in the 4 parameters, and this
    samples it along grid lines with vectorized bisection."""
    lo, hi = -M._ev.halfwidth, M._ev.halfwidth
    axis = np.linspace(lo, hi, density)
    step = axis[1] - axis[0]
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    a11, a12, a21, a22 = _graph_jac_entries(M, X1, X2)
    Jf = np.stack([x.ravel() for x in (a11, a12, a21, a22)], axis=1)
    pts = np.stack([X1.ravel(), X2.ravel()], axis=1)

    # brackets: for fixed s and one fixed t-coordinate, det changes sign
    # between consecutive grid nodes of the other t-coordinate.  G[i, 0]
    # holds det(J_f(t) - J_f(s_i)) over t = (axis[a], axis[b]), G[i, 1] its
    # transpose; nonzero() lists them in (i, fixed_axis, a, b) order
    D = [Jf[None, :, c] - Jf[:, None, c] for c in range(4)]
    dets = (D[0] * D[3] - D[1] * D[2]).reshape(-1, density, density)
    G = np.stack([dets, dets.transpose(0, 2, 1)], axis=1)
    sign = np.signbit(G)
    si, fax, a, b = np.nonzero(sign[..., :-1] != sign[..., 1:])
    if not len(si):
        return []
    fix, lo_a, hi_a = axis[a], axis[b], axis[b + 1]
    flo = G[si, fax, a, b]
    sj = Jf[si]

    def det_at(x):
        t1 = np.where(fax == 0, fix, x)
        t2 = np.where(fax == 0, x, fix)
        b11, b12, b21, b22 = _graph_jac_entries(M, t1, t2)
        return ((b11 - sj[:, 0]) * (b22 - sj[:, 3])
                - (b12 - sj[:, 1]) * (b21 - sj[:, 2]))

    for _ in range(60):
        mid = 0.5 * (lo_a + hi_a)
        fm = det_at(mid)
        same = (fm > 0) == (flo > 0)
        lo_a = np.where(same, mid, lo_a)
        hi_a = np.where(same, hi_a, mid)
    root = 0.5 * (lo_a + hi_a)
    res = np.abs(det_at(root))
    T1 = np.where(fax == 0, fix, root)
    T2 = np.where(fax == 0, root, fix)

    S, T = pts[si], np.stack([T1, T2], axis=1)
    ok = (res <= tol) & ~(np.abs(S - T).max(axis=1) < delta)
    rows = np.nonzero(ok)[0]
    keys = np.column_stack([si[rows],
                            np.round(T[rows] / (step / 2)).astype(np.int64)])
    rows = rows[_first_of_each_key(keys, S[rows], T[rows])]
    S, T, res = S[rows], T[rows], res[rows]
    d = np.stack(_graph_jac_entries(M, T[:, 0], T[:, 1]), axis=1) \
        - np.stack(_graph_jac_entries(M, S[:, 0], S[:, 1]), axis=1)
    deg = np.where(_norm2(d) <= TAU_RANK, 2, 1)
    A, B = M.position((S[:, 0], S[:, 1])), M.position((T[:, 0], T[:, 1]))
    S, T = map(tuple, S.tolist()), map(tuple, T.tolist())
    return [PairPoint(s, t, a, b, int(k), int(k), float(r))
            for s, t, a, b, k, r in zip(S, T, A, B, deg, res)]


def find_parallel_pairs(M: ParametricManifold,
                        grid_density: Optional[int] = None,
                        tol: float = 1e-10,
                        delta_diag: Optional[float] = None) -> List[PairPoint]:
    """Sample the weakly parallel pairs of M off the diagonal band.

    Curves: sign changes of the stacked-tangent determinant on the grid,
    refined by lockstep bisection, all brackets in one array pass per
    step.  Torus: normal-alignment residual polished by Gauss-Newton, each
    step taken only on the rows whose residual is still at or above tol;
    a torus whose grid frames drop rank raises ImmersionError.  Graph
    surfaces in R^4: sign changes of the reduced 2x2 determinant along grid
    lines.  Duplicates merge by parameter distance, keeping the first hit;
    output is ordered lexicographically.  PairPoints are built in one
    stacked pass (frames, immersion checks and ranks from stacked SVDs), as
    pair-by-pair construction would build them.  The default density is
    256 for curves and 24 / 16 for the surface schemes, whose pair sets are
    two- and three-dimensional, so their sample counts grow with a power of
    the density instead of linearly.  Any other (n, q) raises
    UnsupportedDimensionsError, a DomainError.
    """
    if grid_density is None:
        grid_density = {(1, 2): 256, (2, 3): 24, (2, 4): 16}.get(
            (M.n, M.q), 16)
    if delta_diag is None:
        span = TWO_PI if M.periods[0] else 2 * getattr(M._ev, "halfwidth", 1.0)
        delta_diag = 10.0 * span / grid_density
    if M.n == 1 and M.q == 2:
        return _pairs_curve(M, grid_density, tol, delta_diag)
    if M.n == 2 and M.q == 3:
        return _pairs_torus(M, grid_density, tol, delta_diag)
    if M.n == 2 and M.q == 4:
        return _pairs_graph4(M, grid_density, tol, delta_diag)
    raise UnsupportedDimensionsError(
        f"no pair-location scheme for (n, q) = ({M.n}, {M.q})")


# --------------------------------------------------------------------------
# equidistant tracing


@dataclass
class Annotation:
    index: int
    label: str
    pair: Optional[PairPoint] = None
    x: Optional[np.ndarray] = None
    germ_class: Optional[GermClass] = None


@dataclass
class EquidistantBranch:
    """One connected piece of an affine lambda-equidistant.

    `samples` pairs each located PairPoint with its lambda-point
    x = lam*a + (1-lam)*b; `sigmas` is cumulative continuation arclength in
    parameter space.  `status` is closed | open | step_failure | cloud.
    """

    lam: float
    manifold: ParametricManifold
    samples: List[Tuple[PairPoint, np.ndarray]]
    sigmas: np.ndarray
    status: str
    degenerate: bool = False
    annotations: List[Annotation] = field(default_factory=list)

    def points(self) -> np.ndarray:
        return np.array([x for _, x in self.samples])

    def __len__(self):
        return len(self.samples)


def _step_direction(M, z, prev):
    _, gs, gt, _ = _g_grad(M, z[0], z[1])
    d = np.array([-gt, gs])
    nrm = np.linalg.norm(d)
    if nrm == 0:
        return None
    d = d / nrm
    if prev is not None and float(d @ prev) < 0:
        d = -d
    return d


def _project_to_zero_many(M, Z, tol, iters=16):
    """Newton-project every row (s, t) of Z onto {g = 0} at once.  Each row
    stops at its own first converged iterate; the mask marks the rows that
    converged (a row whose gradient vanishes fails)."""
    Z = np.array(Z, dtype=float)
    ok = np.zeros(len(Z), dtype=bool)
    live = np.arange(len(Z))
    for _ in range(iters):
        if not len(live):
            return Z, ok
        g, gs, gt, scale = _g_grad(M, Z[live, 0], Z[live, 1])
        conv = np.abs(g) <= tol * scale
        n2 = gs * gs + gt * gt
        ok[live[conv]] = True
        step = ~conv & (n2 != 0)
        rows = live[step]
        Z[rows, 0] = Z[rows, 0] - g[step] * gs[step] / n2[step]
        Z[rows, 1] = Z[rows, 1] - g[step] * gt[step] / n2[step]
        live = rows
    if len(live):
        g, _, _, scale = _g_grad(M, Z[live, 0], Z[live, 1])
        ok[live] = np.abs(g) <= 10 * tol * scale
    return Z, ok


def _project_to_zero(M, z, tol):
    Z, ok = _project_to_zero_many(M, [z], tol)
    return Z[0] if ok[0] else None


def _corrector(M, z, base, d, tol, iters=12):
    z = np.array(z, dtype=float)
    for _ in range(iters):
        g, gs, gt, scale = _g_grad(M, z[0], z[1])
        r2 = float((z - base) @ d)
        if abs(g) <= tol * scale and abs(r2) < 1e-13:
            return z
        J = np.array([[gs, gt], [d[0], d[1]]])
        try:
            delta = np.linalg.solve(J, np.array([g, r2]))
        except np.linalg.LinAlgError:
            return None
        z = z - delta
        if np.linalg.norm(delta) > 1.0:
            return None
    return None


def _march(M, z0, direction, step, delta, tol, max_steps):
    """March along {g = 0} from z0; returns (points, closed, failed)."""
    pts = [np.array(z0, dtype=float)]
    d = _step_direction(M, z0, None)
    if d is None:
        return pts, False, True
    d = d * direction
    z = np.array(z0, dtype=float)
    for _ in range(max_steps):
        h = step
        nxt = None
        for _ in range(5):
            base = z + h * d
            nxt = _corrector(M, base, base, d, tol)
            if nxt is not None:
                break
            h = h / 2
        if nxt is None:
            return pts, False, True
        if _toroidal_dist(nxt[0], nxt[1], TWO_PI) < delta:
            # land exactly on the exclusion-band edge so termination points
            # do not depend on the step phase
            lo, hi = z, nxt
            for _ in range(50):
                mid = _project_to_zero(M, 0.5 * (lo + hi), tol)
                if mid is None:
                    break
                if _toroidal_dist(mid[0], mid[1], TWO_PI) >= delta:
                    lo = mid
                else:
                    hi = mid
            if np.linalg.norm(lo - pts[-1]) > 1e-9:
                pts.append(lo)
            return pts, False, False
        pts.append(nxt)
        if len(pts) > 8 and \
                _toroidal_dist(nxt[0], z0[0], TWO_PI) < 1.2 * step and \
                _toroidal_dist(nxt[1], z0[1], TWO_PI) < 1.2 * step:
            pts.append(np.array(z0, dtype=float))
            return pts, True, False
        nd = _step_direction(M, nxt, d)
        if nd is None:
            return pts, False, True
        z, d = nxt, nd
    return pts, False, True


def _branch_from_path(M, lam, path, status):
    S = np.array([p[0] % TWO_PI for p in path])
    T = np.array([p[1] % TWO_PI for p in path])
    A = M.position((S,))
    B = M.position((T,))
    with np.errstate(over="ignore", invalid="ignore"):
        X = lam * A + (1 - lam) * B      # _check_finite reports overflow
    steps = np.linalg.norm(np.diff(np.array(path), axis=0), axis=1) \
        if len(path) > 1 else np.array([])
    sigmas = np.concatenate([[0.0], np.cumsum(steps)])
    pairs = _pair_points(M, S.tolist(), T.tolist())
    samples = list(zip(pairs, X))
    scale = float(np.max(np.linalg.norm(A, axis=1))) or 1.0
    diam = float(np.max(np.ptp(X, axis=0))) if len(X) else 0.0
    return EquidistantBranch(
        lam=float(lam), manifold=M, samples=samples, sigmas=sigmas,
        status=status, degenerate=diam < 1e-8 * scale)


def trace_equidistant(M: ParametricManifold, lam, step: float = 0.02,
                      delta_diag: Optional[float] = None,
                      seed_density: int = 128, tol: float = 1e-12,
                      max_steps: int = 40000) -> List[EquidistantBranch]:
    """Trace the affine lambda-equidistant of M.

    Curves run pseudo-arclength continuation of the parallel-pair equation
    on the parameter torus minus the diagonal band |s - t| < delta_diag,
    mapping each solution through x = lam*a + (1-lam)*b.  Branches either
    close up or terminate at the band.  Non-curve inputs fall back to a
    grid-sampled point cloud (status "cloud") with no branch structure.
    A lambda that sends a traced point outside the finite floats raises
    NonFiniteEquidistantError, a DomainError.
    """
    lam = float(lam)
    if lam in (0.0, 1.0):
        raise ValueError("lambda must avoid 0 and 1; those reproduce M")
    if M.n != 1:
        pairs = find_parallel_pairs(M, tol=1e-10, delta_diag=delta_diag)
        with np.errstate(over="ignore", invalid="ignore"):
            samples = [(p, p.lambda_point(lam)) for p in pairs]
        branches = [EquidistantBranch(
            lam=lam, manifold=M, samples=samples,
            sigmas=np.zeros(len(samples)), status="cloud")]
        _check_finite(branches)
        return branches
    if delta_diag is None:
        delta_diag = 10.0 * TWO_PI / seed_density
    seeds = find_parallel_pairs(M, seed_density, tol=1e-10,
                                delta_diag=delta_diag)
    seed_pts = [(float(p.s), float(p.t)) for p in seeds]
    seed_pts += [(t, s) for s, t in seed_pts]
    seed_pts.sort()

    visited = set()

    def cell(z):
        return (int(math.floor((z[0] % TWO_PI) / step)),
                int(math.floor((z[1] % TWO_PI) / step)))

    ncells = int(math.ceil(TWO_PI / step))

    def mark(z):
        c = cell(z)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                visited.add(((c[0] + di) % ncells, (c[1] + dj) % ncells))

    branches = []
    for sp in seed_pts:
        if cell(sp) in visited:
            continue
        z0 = _project_to_zero(M, sp, tol)
        if z0 is None or _toroidal_dist(z0[0], z0[1], TWO_PI) < delta_diag:
            continue
        if cell(z0) in visited:
            continue
        fwd, closed, failed = _march(M, z0, +1.0, step, delta_diag, tol,
                                     max_steps)
        if closed:
            path = fwd
            status = "closed"
        else:
            bwd, _, failed_b = _march(M, z0, -1.0, step, delta_diag, tol,
                                      max_steps)
            path = list(reversed(bwd[1:])) + fwd
            status = "step_failure" if (failed or failed_b) else "open"
        for p in path:
            mark(p)
        if len(path) >= 2:
            branches.append(_branch_from_path(M, lam, path, status))
    _check_finite(branches)
    return branches


def _check_finite(branches):
    for br in branches:
        if br.samples and not np.isfinite(br.points()).all():
            raise NonFiniteEquidistantError(
                f"lambda = {br.lam} sends traced points outside the floats")


def densify_branch(branch: EquidistantBranch,
                   target_spacing: Optional[float] = None,
                   max_sigma_gap: Optional[float] = None) -> EquidistantBranch:
    """Resample a traced branch.  `target_spacing` caps the distance between
    consecutive lambda-points; `max_sigma_gap` caps the parameter-arclength
    gap, which bounds the polyline's deviation from the underlying curve by
    gap^2 * max|x''(sigma)| / 8 even across cusps, where the point spacing
    degenerates.  Inserted parameters interpolate the polyline and are
    projected back onto the parallel-pair equation; degree data is copied
    from the bracketing coarse samples, annotations are dropped.
    """
    if branch.status == "cloud" or len(branch) < 2:
        return branch
    if target_spacing is None and max_sigma_gap is None:
        raise ValueError("give target_spacing or max_sigma_gap")
    M = branch.manifold
    lam = branch.lam
    Z = np.array([[pp.s, pp.t] for pp, _ in branch.samples])
    # unwrap so linear interpolation never crosses the period seam
    Zu = Z.copy()
    for col in range(2):
        Zu[:, col] = Z[0, col] + np.concatenate(
            [[0.0], np.cumsum(_wrap_pi(np.diff(Z[:, col])))])
    X = branch.points()
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
        Ts = M.derivative((S,), (1,))
        Tt = M.derivative((T,), (1,))
        As = M.derivative((S,), (2,))
        At = M.derivative((T,), (2,))
        g = _cross2(Ts, Tt)
        gs = _cross2(As, Tt)
        gt = _cross2(Ts, At)
        n2 = gs * gs + gt * gt
        n2[n2 == 0] = 1.0
        S = S - g * gs / n2
        T = T - g * gt / n2
    A = M.position((S,))
    B = M.position((T,))
    X = lam * A + (1 - lam) * B
    Ts = M.derivative((S,), (1,))
    Tt = M.derivative((T,), (1,))
    res = np.abs(_cross2(Ts, Tt)) / (
        np.linalg.norm(Ts, axis=1) * np.linalg.norm(Tt, axis=1))
    deg0, cod0 = branch.samples[0][0].deg_k, branch.samples[0][0].codim
    samples = [
        (PairPoint(float(S[i] % TWO_PI), float(T[i] % TWO_PI), A[i], B[i],
                   deg0, cod0, float(res[i])), X[i])
        for i in range(len(S))
    ]
    steps = np.hypot(np.diff(S), np.diff(T))
    sigmas = np.concatenate([[0.0], np.cumsum(steps)])
    return EquidistantBranch(
        lam=lam, manifold=M, samples=samples, sigmas=sigmas,
        status=branch.status, degenerate=branch.degenerate)


def _wrap_pi(d):
    return (d + math.pi) % TWO_PI - math.pi


def projection_rank_residuals(branch: EquidistantBranch) -> np.ndarray:
    """Smallest-over-largest singular value of the lambda-point map Jacobian
    [lam*T(s); (1-lam)*T(t)] at every sample of the branch."""
    M, lam = branch.manifold, branch.lam
    out = np.empty(len(branch))
    for i, (pp, _) in enumerate(branch.samples):
        J = np.vstack([lam * tangent_frame(M, pp.s),
                       (1 - lam) * tangent_frame(M, pp.t)])
        sv = np.linalg.svd(J, compute_uv=False)
        out[i] = sv[-1] / sv[0]
    return out


# --------------------------------------------------------------------------
# singularity detection


def _cusp_velocity(M, lam, Z, refs):
    """Velocity scalar of the lambda-point along {g = 0} at each row of Z,
    with the branch tangent oriented along the matching row of refs; 0.0
    where the tangent vanishes."""
    S, T = Z[:, 0], Z[:, 1]
    Ts, Tt = _curve_tangents(M, S), _curve_tangents(M, T)
    As, At = M.derivative((S,), (2,)), M.derivative((T,), (2,))
    tau = np.stack([-_cross2(Ts, At), _cross2(As, Tt)], axis=1)
    nrm = _norm2(tau)
    with np.errstate(invalid="ignore", divide="ignore"):
        tau = tau / nrm[:, None]
        tau = np.where((np.vecdot(tau, refs) < 0)[:, None], -tau, tau)
        mu = np.vecdot(Ts, Tt) / np.vecdot(Ts, Ts)
        h = lam * tau[:, 0] + (1 - lam) * mu * tau[:, 1]
    return np.where(nrm == 0, 0.0, h)


def _unit_chords(z_lo, z_hi):
    """The wrapped chords z_hi - z_lo scaled to unit length (left as they
    are where the length is zero), and their lengths."""
    ref = _wrap_pi(z_hi - z_lo)
    nrm = _norm2(ref)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where((nrm != 0)[:, None], ref / nrm[:, None], ref)
    return unit, nrm


def _refine_cusps(M, lam, z_lo, z_hi, tol, iters=70):
    """Lockstep bisection of the cusps bracketed by the rows of z_lo, z_hi.

    Along each chord, h is the velocity scalar at the projection of the
    chord point onto {g = 0}.  A bracket fails when its chord is zero, its
    end values do not change sign, or any projection fails.  Returns the
    last projected point of every bracket and the mask of those that did
    not fail.  As in `_bisect_lockstep`, the loop stops early once no
    bracket moves, with the result of all `iters` steps.
    """
    ref, nrm = _unit_chords(z_lo, z_hi)

    def h_at(fr, rows):
        z = z_lo[rows] + (fr * nrm[rows])[:, None] * ref[rows]
        z, ok = _project_to_zero_many(M, z, tol)
        h = np.zeros(len(rows))
        if ok.any():
            h[ok] = _cusp_velocity(M, lam, z[ok], ref[rows[ok]])
        return h, z, ok

    n = len(z_lo)
    both = np.concatenate([np.arange(n), np.arange(n)])
    f_end, _, ok_end = h_at(np.repeat([0.0, 1.0], n), both)
    f_lo = f_end[:n]
    live = np.nonzero((nrm != 0) & ok_end[:n] & ok_end[n:]
                      & ~(f_lo * f_end[n:] > 0))[0]
    lo, hi = np.zeros(n), np.ones(n)
    z_best = np.zeros((n, 2))
    for _ in range(iters):
        if not len(live):
            break
        mid = 0.5 * (lo[live] + hi[live])
        fm, zm, ok = h_at(mid, live)
        z_best[live] = zm
        same = (fm > 0) == (f_lo[live] > 0)
        new_lo = np.where(same, mid, lo[live])
        new_hi = np.where(same, hi[live], mid)
        moved = (new_lo != lo[live]) | (new_hi != hi[live])
        lo[live], hi[live] = new_lo, new_hi
        live = live[ok]
        if not moved[ok].any():
            break
    found = np.zeros(n, dtype=bool)
    found[live] = True
    return z_best, found


def _segment_intersection(p1, p2, p3, p4, min_sin):
    r = p2 - p1
    w = p4 - p3
    denom = _cross2(r, w)
    lr, lw = np.linalg.norm(r), np.linalg.norm(w)
    if lr == 0 or lw == 0 or abs(denom) <= min_sin * lr * lw:
        return None
    dp = p3 - p1
    u = _cross2(dp, w) / denom
    v = _cross2(dp, r) / denom
    if not (0.0 <= u < 1.0 and 0.0 <= v < 1.0):
        return None
    return u, v


def _find_node_candidates(P, closed, index_gap, min_sin):
    N = len(P) - 1 if not closed else len(P)
    segs = [(P[i], P[(i + 1) % len(P)]) for i in range(N)]
    lengths = [np.linalg.norm(b - a) for a, b in segs]
    cell = max(max(lengths), 1e-12) * 2.0
    buckets: Dict[Tuple[int, int], List[int]] = {}
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


def detect_singularities(branch: EquidistantBranch, cross_check: bool = True,
                         min_sin: float = 0.15,
                         index_gap: int = 12) -> EquidistantBranch:
    """Annotate a traced branch with cusps and nodes.

    Cusps: sign changes of the velocity scalar of the lambda-point along
    the branch, refined by lockstep bisection on the parallel-pair
    equation, every bracket of the branch in one array pass per step.  Nodes:
    transverse self-intersections of the sampled polyline found by a
    bucketed segment sweep.  Each resolved point is optionally
    cross-checked through the adapted-germ contact pipeline; disagreement
    or failed refinement yields the label UNRESOLVED.
    """
    if branch.degenerate or branch.status == "cloud" or len(branch) < 4:
        return replace(branch, annotations=[])
    M, lam = branch.manifold, branch.lam
    tol = 1e-13
    Z = np.array([[pp.s, pp.t] for pp, _ in branch.samples])
    closed = branch.status == "closed"
    last = len(Z) - 1 if closed else len(Z)
    nxt = (np.arange(last) + 1) % len(Z)
    refs, _ = _unit_chords(Z[:last], Z[nxt])
    hs = _cusp_velocity(M, lam, Z[:last], refs)
    pair_count = last if closed else last - 1
    i = np.arange(pair_count)
    h_i, h_j = hs[i], hs[(i + 1) % last]
    brackets = i[~(h_i == 0.0) & ~(h_i * h_j >= 0)]
    annotations: List[Annotation] = []
    if len(brackets):
        z_star, found = _refine_cusps(M, lam, Z[brackets],
                                      Z[(brackets + 1) % len(Z)], tol)
        annotations += _annotate(M, lam, brackets.tolist(), z_star, found,
                                 "A2_cusp", ("A", (2,)), cross_check)
    nodes = _find_node_candidates(branch.points(), closed, index_gap, min_sin)
    if nodes:
        ends = np.array([spos for si, sj, _ in nodes for spos in (si, sj)])
        idx = ends.astype(int)
        fr = ends % 1
        z = Z[idx] + fr[:, None] * _wrap_pi(Z[(idx + 1) % len(Z)] - Z[idx])
        zp, found = _project_to_zero_many(M, z, tol)
        annotations += _annotate(M, lam, idx.tolist(), zp, found,
                                 "A1_node", ("A", (1,)), cross_check)
    annotations.sort(key=lambda a: a.index)
    return replace(branch, annotations=annotations)


def _annotate(M, lam, index, Z, found, label, expected, cross_check):
    """Annotations at the parameter rows of Z: `label` where `found`,
    UNRESOLVED elsewhere, optionally cross-checked against `expected`."""
    at = Z[found] % TWO_PI
    pairs = iter(_pair_points(M, at[:, 0].tolist(), at[:, 1].tolist(),
                              np.zeros(len(at))))
    out = []
    for i, hit in zip(index, found):
        if not hit:
            out.append(Annotation(index=i, label="UNRESOLVED"))
            continue
        pp = next(pairs)
        ann = Annotation(index=i, label=label, pair=pp, x=pp.lambda_point(lam))
        if cross_check:
            ann = _cross_checked(M, ann, lam, expected)
        out.append(ann)
    return out


def _cross_checked(M, ann, lam, expected):
    try:
        got = classify_pair(M, ann.pair, lam)
    except (ArithmeticError, ValueError):
        return replace(ann, label="UNRESOLVED")
    if (got.family, got.params) != expected:
        return replace(ann, label="UNRESOLVED", germ_class=got)
    return replace(ann, germ_class=got)


# --------------------------------------------------------------------------
# the float-to-exact bridge


def _factorial_multi(alpha):
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def _fmul(p, q, order):
    out: Dict[tuple, float] = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > order:
                continue
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def _fcompose(f, subs, n, order):
    pows: List[Dict[int, dict]] = [
        {0: {(0,) * n: 1.0}, 1: dict(s)} for s in subs]
    out: Dict[tuple, float] = {}
    for exps, c in f.items():
        term = {(0,) * n: c}
        for j, e in enumerate(exps):
            if e == 0:
                continue
            while e not in pows[j]:
                top = max(pows[j])
                pows[j][top + 1] = _fmul(pows[j][top], pows[j][1], order)
            term = _fmul(term, pows[j][e], order)
            if not term:
                break
        for e, v in term.items():
            out[e] = out.get(e, 0.0) + v
    return {e: v for e, v in out.items() if v != 0.0}


def _unit_exp(i, n):
    return tuple(int(i == j) for j in range(n))


def _series_invert(A, n, order):
    L = np.array([[A[i].get(_unit_exp(j, n), 0.0) for j in range(n)]
                  for i in range(n)])
    if np.linalg.cond(L) > FRAME_COND_LIMIT:
        raise FrameAlignmentError("ill-conditioned frame alignment")
    Li = np.linalg.inv(L)
    B = [
        {_unit_exp(j, n): float(Li[i, j]) for j in range(n) if Li[i, j]}
        for i in range(n)
    ]
    for _ in range(order - 1):
        comp = [_fcompose(A[i], B, n, order) for i in range(n)]
        for i in range(n):
            e = _unit_exp(i, n)
            comp[i][e] = comp[i].get(e, 0.0) - 1.0
        newB = []
        for i in range(n):
            d = dict(B[i])
            for j in range(n):
                if not Li[i, j]:
                    continue
                for e, c in comp[j].items():
                    d[e] = d.get(e, 0.0) - float(Li[i, j]) * c
            newB.append({e: c for e, c in d.items() if c != 0.0})
        B = newB
    return B


def _adapted_basis(Fa, Fb, k, q):
    """Columns [Y | Z | U | V]: Y spans the common tangent directions, Z the
    rest of the first tangent space, V the rest of the second, U a
    complement of their sum."""
    Qa = np.linalg.svd(Fa, full_matrices=False)[2]
    Qb = np.linalg.svd(Fb, full_matrices=False)[2]
    U_, S, Vt = np.linalg.svd(Qa @ Qb.T)
    if k > 0 and S[k - 1] < 1.0 - 1e-6:
        raise FrameAlignmentError(
            f"common tangent directions degenerate: cosines {S}")
    if k < len(S) and S[k] > 1.0 - 1e-6:
        raise FrameAlignmentError(
            f"pair is more parallel than its recorded degree: cosines {S}")
    Y = U_[:, :k].T @ Qa
    n = Fa.shape[0]

    def complement_in(Q):
        proj = Q - (Q @ Y.T) @ Y
        u2, s2, v2 = np.linalg.svd(proj, full_matrices=False)
        return v2[: n - k]

    Z = complement_in(Qa)
    V = complement_in(Qb)
    stacked = np.vstack([Qa, Qb])
    _, sv, vt = np.linalg.svd(stacked)
    u_dim = q + k - 2 * n
    Ublock = vt[2 * n - k: 2 * n - k + u_dim]
    B = np.vstack([Y, Z, Ublock, V]).T
    if np.linalg.cond(B) > FRAME_COND_LIMIT:
        raise FrameAlignmentError("ill-conditioned frame alignment")
    return B


def _chart_series(M, params, Binv, base, n, order, scale=None):
    xi = [dict() for _ in range(M.q)]
    for alpha in monomials_upto(n, order):
        d = sum(alpha)
        vec = np.asarray(M.derivative(params, alpha), dtype=float)
        if d == 0:
            vec = vec - base
        elif scale is not None:
            vec = scale * vec
        w = Binv @ (vec / _factorial_multi(alpha))
        for r in range(M.q):
            if w[r] != 0.0:
                xi[r][alpha] = float(w[r])
    return xi


def _graph_functions(xi, indep_rows, dep_rows, n, order):
    A = [xi[r] for r in indep_rows]
    Binv_series = _series_invert(A, n, order)
    return [_fcompose(xi[r], Binv_series, n, order) for r in dep_rows]


def _snap_block(comps, clip=COEFF_CLIP):
    mx = max((abs(c) for d in comps for c in d.values()), default=0.0)
    out = []
    for d in comps:
        nd = {}
        for e, c in d.items():
            if abs(c) <= clip * mx:
                continue
            if sum(e) <= 1:
                raise FrameAlignmentError(
                    f"graph function keeps a degree-{sum(e)} term {c}; "
                    "frame alignment failed")
            nd[e] = Fraction(c).limit_denominator(SNAP_DENOMINATOR)
        out.append(nd)
    return out


def _as_lambda_fraction(lam) -> Fraction:
    if isinstance(lam, Fraction):
        return lam
    if isinstance(lam, int):
        return Fraction(lam)
    if isinstance(lam, str):
        return Fraction(lam)
    return Fraction(lam).limit_denominator(10 ** 9)


def taylor_germ_at_pair(M: ParametricManifold, pair: PairPoint, lam,
                        order: int = 3) -> GraphPair:
    """Adapted-coordinate GraphPair of a weakly parallel pair.

    The ambient chart sends a to the origin, spans the first tangent space
    by the (y, z) block and the lambda-reflected second tangent space by
    the (y, v) block; both local graphs are Taylor-expanded to `order`.
    The reflection is baked into the second germ, so contact_map on the
    result measures the equidistant contact at the lambda-point.
    Coefficients snap to rationals; entries below a relative clip vanish.
    """
    lam_f = _as_lambda_fraction(lam)
    if lam_f in (0, 1):
        raise ValueError("lambda must avoid 0 and 1")
    lam = float(lam_f)
    n, q, k = M.n, M.q, pair.deg_k
    if k < 1:
        raise ValueError("pair is not weakly parallel (degree 0)")
    if order < 2:
        raise ValueError("need order >= 2 to carry curvature data")
    if M.kind == "samples" and order > 3:
        raise ValueError("sampled grids carry derivatives up to order 3")
    Fa = tangent_frame(M, pair.s)
    Fb_scaled = -(1 - lam) / lam * tangent_frame(M, pair.t)
    B = _adapted_basis(Fa, Fb_scaled, k, q)
    Binv = np.linalg.inv(B)
    a = np.asarray(M.position(pair.s), dtype=float)

    xi_a = _chart_series(M, pair.s, Binv, a, n, order)
    u_dim = q + k - 2 * n

    phi_psi = _graph_functions(xi_a, list(range(n)),
                               list(range(n, q)), n, order)
    phi = _snap_block(phi_psi[:u_dim])
    psi = _snap_block(phi_psi[u_dim:])

    # reflected second graph: base point maps to a, derivatives rescale
    xi_b = [dict() for _ in range(q)]
    refl_base = (1.0 / lam) * pair.lambda_point(lam) \
        - (1 - lam) / lam * np.asarray(M.position(pair.t), dtype=float)
    for alpha in monomials_upto(n, order):
        d = sum(alpha)
        vec = np.asarray(M.derivative(pair.t, alpha), dtype=float)
        if d == 0:
            vec = refl_base - a
        else:
            vec = -(1 - lam) / lam * vec
        w = Binv @ (vec / _factorial_multi(alpha))
        for r in range(q):
            if w[r] != 0.0:
                xi_b[r][alpha] = float(w[r])
    indep_b = list(range(k)) + list(range(n + u_dim, q))
    dep_b = list(range(k, n)) + list(range(n, n + u_dim))
    eta_zeta = _graph_functions(xi_b, indep_b, dep_b, n, order)
    eta = _snap_block(eta_zeta[: n - k])
    zeta = _snap_block(eta_zeta[n - k:])

    mk = lambda polys: MapGerm.from_polys(polys, n, order=order)
    return GraphPair(n, q, k, phi=mk(phi), psi=mk(psi), eta=mk(eta),
                     zeta=mk(zeta), lam=lam_f)


def classify_pair(M: ParametricManifold, pair: PairPoint, lam,
                  order: int = 3, clip: float = COEFF_CLIP) -> GermClass:
    """Contact class of the equidistant at a pair: adapted germs, contact
    map, then recognition.  The contact map's own coefficients are clipped
    relative to its largest one before recognition, since differences of
    snapped graphs carry a cancellation floor."""
    gp = taylor_germ_at_pair(M, pair, lam, order=order)
    kappa = contact_map(gp)
    polys = kappa.polys()
    mx = max((abs(float(c)) for d in polys for c in d.values()), default=0.0)
    cleaned = [
        {e: c for e, c in d.items() if abs(float(c)) > clip * mx}
        for d in polys
    ]
    kappa = MapGerm.from_polys(cleaned, kappa.source_dim)
    return recognize(kappa)


# --------------------------------------------------------------------------
# writers


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_param(p) -> str:
    if np.isscalar(p):
        return _fmt(p)
    return ";".join(_fmt(x) for x in p)


def write_branches_csv(branches: Sequence[EquidistantBranch],
                       path: str) -> None:
    """Columns: branch_id, sigma, s, t, x1..xq, label (surface parameters
    join their components with ';')."""
    if not branches:
        raise ValueError("no branches to write")
    q = len(branches[0].samples[0][1]) if branches[0].samples else 0
    header = ["branch_id", "sigma", "s", "t"] + \
        [f"x{i + 1}" for i in range(q)] + ["label"]
    lines = [",".join(header)]
    for bid, br in enumerate(branches):
        labels = {a.index: a.label for a in br.annotations}
        for i, (pp, x) in enumerate(br.samples):
            row = [str(bid), _fmt(br.sigmas[i] if len(br.sigmas) else 0.0),
                   _fmt_param(pp.s), _fmt_param(pp.t)]
            row += [_fmt(c) for c in x]
            row.append(labels.get(i, ""))
            lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b")


def write_branches_svg(branches: Sequence[EquidistantBranch], path: str,
                       size: int = 640,
                       include_manifold: bool = True) -> None:
    """Polylines per branch in ambient coordinates; cusps marked with
    circles, nodes with squares.  Only the first two ambient coordinates
    are drawn."""
    pts = [x[:2] for br in branches for _, x in br.samples]
    M = branches[0].manifold if branches else None
    outline = None
    if include_manifold and M is not None and M.n == 1:
        th = np.linspace(0, TWO_PI, 512)
        outline = np.asarray(M.position((th,)))[:, :2]
        pts.extend(outline)
    if not pts:
        raise ValueError("no points to draw")
    arr = np.array(pts)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    span = float(max(hi - lo)) or 1.0
    pad = 0.06 * span

    def to_px(p):
        x = (p[0] - lo[0] + pad) / (span + 2 * pad) * size
        y = size - (p[1] - lo[1] + pad) / (span + 2 * pad) * size
        return f"{x:.2f},{y:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if outline is not None:
        path_pts = " ".join(to_px(p) for p in outline)
        parts.append(
            f'<polyline points="{path_pts}" fill="none" stroke="#bbbbbb" '
            'stroke-width="1"/>')
    for bid, br in enumerate(branches):
        color = _SVG_COLORS[bid % len(_SVG_COLORS)]
        path_pts = " ".join(to_px(x[:2]) for _, x in br.samples)
        parts.append(
            f'<polyline points="{path_pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>')
        for ann in br.annotations:
            if ann.x is None:
                continue
            px = to_px(ann.x[:2]).split(",")
            if ann.label == "A2_cusp":
                parts.append(
                    f'<circle cx="{px[0]}" cy="{px[1]}" r="4" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>')
            elif ann.label == "A1_node":
                x0, y0 = float(px[0]), float(px[1])
                parts.append(
                    f'<rect x="{x0 - 3:.2f}" y="{y0 - 3:.2f}" width="6" '
                    f'height="6" fill="none" stroke="{color}" '
                    'stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
