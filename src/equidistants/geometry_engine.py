"""Numerical side of the toolkit: parametrized closed submanifolds, location
of weakly parallel pairs, tracing of affine lambda-equidistants, singularity
detection on traced branches, and the bridge that turns a located pair into
an exact adapted-coordinate GraphPair for the algebra side.

Conventions.  Every evaluator has one routine, `jet(params, top)`, for all
partials up to order top.  Builtin families carry closed-form derivatives;
sampled grids differentiate a 7-point local Lagrange interpolant, whose
node values are the classical 4th-order central-difference stencils.
Numerical rank uses singular values with the relative threshold TAU_RANK.
The float-to-exact bridge snaps Taylor coefficients to rationals after
zeroing entries below a relative clip, so tangency-forced zeros survive
roundoff.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .contact_lab import DegenerateLambdaError, GraphPair, contact_map
from .germ_algebra import (MAX_TERM_DEGREE, MapGerm, monomials_upto,
                           p_compose, unit_exp)
from .normal_forms import DomainError, GermClass, recognize

TAU_RANK = 1e-8
FRAME_COND_LIMIT = 1e8
COEFF_CLIP = 1e-9
SNAP_DENOMINATOR = 10 ** 12
TWO_PI = 2.0 * math.pi
_REFINE_ROWS = 4096     # torus pairs refined together; bounds their jets


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


@functools.lru_cache(maxsize=None)
def _orders(top):
    """The orders m = 0..top as a column, their phases m*pi/2, and for each
    i the binomials C(k, i) of the orders k = i..top, shaped to scale
    (order, point, coordinate) arrays."""
    m = np.arange(top + 1)[:, None]
    binoms = tuple(
        np.array([math.comb(k, i) for k in range(i, top + 1)],
                 dtype=float)[:, None, None]
        for i in range(top + 1))
    phase = m * (math.pi / 2.0)
    for arr in (m, phase) + binoms:
        arr.flags.writeable = False     # every caller shares the cached table
    return m, phase, binoms


def _circle_jet(flat, top):
    """(cos, sin) of flat + m*pi/2 for m = 0..top: the derivatives of the
    unit circle, shape (top + 1, len(flat), 2)."""
    _, phase, _ = _orders(top)
    ang = flat + phase
    out = np.empty(ang.shape + (2,))
    out[..., 0] = np.cos(ang)
    out[..., 1] = np.sin(ang)
    return out


class _Ellipse:
    def __init__(self, a: float, b: float):
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise ValueError("ellipse axes must be finite and positive")
        self.a, self.b = float(a), float(b)

    def jet(self, params, top):
        th = np.asarray(params[0], dtype=float)
        out = np.array([self.a, self.b]) * _circle_jet(th.ravel(), top)
        return out.reshape((top + 1,) + th.shape + (2,))

    def payload(self):
        return {"kind": "ellipse", "a": self.a, "b": self.b}


class _FourierOval:
    """Polar curve r(theta) = 1 + sum_j a_j cos(j theta) + b_j sin(j theta)."""

    def __init__(self, a: Sequence[float], b: Sequence[float]):
        self.a = tuple(float(c) for c in a)
        self.b = tuple(float(c) for c in b)
        if not all(map(math.isfinite, self.a + self.b)):
            raise ValueError("fourier_oval coefficients must be finite")

    def jet(self, params, top):
        # r^(i) for every order i at once, with each harmonic's shifted
        # cos/sin evaluated once; then the Leibniz sums of r (cos, sin).
        # Every sum runs in the order of the scalar formulas: harmonics as
        # listed, then ascending i from 0.0.
        th = np.asarray(params[0], dtype=float)
        flat = th.ravel()
        m, phase, binoms = _orders(top)
        r = np.zeros((top + 1, flat.size))
        r[0] = 1.0
        for j, c in enumerate(self.a, start=1):
            if c:
                r = r + c * j ** m * np.cos(j * flat + phase)
        for j, c in enumerate(self.b, start=1):
            if c:
                r = r + c * j ** m * np.sin(j * flat + phase)
        trig = _circle_jet(flat, top)
        out = np.zeros(trig.shape)
        for i, binom in enumerate(binoms):
            out[i:] = out[i:] + binom * r[i, :, None] * trig[:top + 1 - i]
        return out.reshape((top + 1,) + th.shape + (2,))

    def payload(self):
        return {"kind": "fourier_oval", "a": list(self.a), "b": list(self.b)}


class _Torus:
    def __init__(self, R: float, r: float):
        if not (0 < R < math.inf and 0 < r < math.inf):
            raise ValueError("torus radii must be finite and positive")
        self.R, self.r = float(R), float(r)

    def jet(self, params, top):
        # (x, y) = (R + r cos v) (cos u, sin u) and z = r sin v, so
        # d^(i,j) (x, y) is r cv_j (cu_i, su_i), plus R (cu_i, su_i) when
        # j = 0, with cv_j, cu_i, su_i the circle jets of v and u
        u, v = np.broadcast_arrays(*(np.asarray(p, dtype=float)
                                     for p in params))
        cu, cv = _circle_jet(u.ravel(), top), _circle_jet(v.ravel(), top)
        rcv = self.r * cv[..., 0]
        out = np.zeros((top + 1, top + 1, u.size, 3))
        out[0, :, :, 2] = self.r * cv[..., 1]
        # one coordinate at a time, so that numpy's inner loops run over
        # the points instead of a trailing axis of length 2
        for k in range(2):
            for j in range(top + 1):
                for i in range(top + 1 - j):
                    out[i, j, :, k] = rcv[j] * cu[i, :, k]
            out[:, 0, :, k] += self.R * cu[..., k]
        return out.reshape((top + 1, top + 1) + u.shape + (3,))

    def payload(self):
        return {"kind": "torus", "R": self.R, "r": self.r}


class _GraphSurface:
    """Graph (y1, y2, f_1(y), ..) over a box, extra components polynomial."""

    def __init__(self, components: Sequence[Dict[Tuple[int, int], float]],
                 halfwidth: float = 1.0):
        if not all(len(e) == 2 and all(x == int(x) >= 0 for x in e)
                   for comp in components for e in comp):
            raise ValueError("graph_surface exponents must be two "
                             "non-negative integers")
        self.components = tuple(
            {tuple(int(x) for x in e): float(c) for e, c in comp.items()}
            for comp in components
        )
        if not all(math.isfinite(c) for comp in self.components
                   for c in comp.values()):
            raise ValueError("graph_surface coefficients must be finite")
        degree = max((sum(e) for comp in self.components for e in comp),
                     default=0)
        if degree > MAX_TERM_DEGREE:
            raise ValueError(f"graph_surface has a term of degree {degree}, "
                             f"above the budget of {MAX_TERM_DEGREE}")
        self.halfwidth = float(halfwidth)
        if not (math.isfinite(self.halfwidth) and self.halfwidth > 0):
            raise ValueError("graph_surface halfwidth must be finite and "
                             "positive")

    def jet(self, params, top):
        y1, y2 = (np.asarray(p, dtype=float) for p in params)
        shape = np.broadcast(y1, y2).shape
        out = np.zeros((top + 1, top + 1) + shape
                       + (2 + len(self.components),))
        out[0, 0, ..., 0], out[0, 0, ..., 1] = y1, y2
        if top:
            out[1, 0, ..., 0] = out[0, 1, ..., 1] = 1.0
        powers = {}         # y ** k, shared by every partial

        def power(axis, k):
            if (axis, k) not in powers:
                powers[axis, k] = (y1, y2)[axis] ** k
            return powers[axis, k]

        for i in range(top + 1):
            for j in range(top + 1 - i):
                for col, comp in enumerate(self.components, start=2):
                    acc = np.zeros(shape)
                    for (e1, e2), c in comp.items():
                        if e1 < i or e2 < j:
                            continue
                        f = c * math.perm(e1, i) * math.perm(e2, j)
                        acc = acc + f * power(0, e1 - i) * power(1, e2 - j)
                    out[i, j, ..., col] = acc
        return out

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


def _tau_powers(tau, top: int):
    # tau ** k for k = 0..top.  float_power rounds like the scalar
    # `tau ** k` (libm pow); the array `**` may take a SIMD pow that differs
    # in the last bit.
    return [np.float_power(tau, k) for k in range(top + 1)]


def _poly_deriv_sum(coeffs: np.ndarray, powers, m: int) -> np.ndarray:
    # the m-th derivative of the polynomial with coefficients `coeffs` at
    # tau, from powers[k] = tau ** k
    out = np.zeros(coeffs.shape[1:])
    for p in range(m, coeffs.shape[0]):
        out = out + coeffs[p] * math.perm(p, m) * powers[p - m]
    return out


class _SampledGrid:
    """A closed curve (n = 1) or surface (n = 2) sampled on a grid that is
    2pi-periodic in each parameter.  Each point reads the 7 (or 7x7) grid
    values nearest to it; the interpolant's coefficients come from an
    einsum along the last parameter axis and, on a surface, a matmul along
    the first (the BLAS call of a single `L @ line` on each point)."""

    def __init__(self, grid: np.ndarray, n: int):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != n + 1 or min(grid.shape[:n]) < 7:
            raise ValueError("sampled curve needs at least 7 grid points"
                             if n == 1 else
                             "sampled surface needs a 7x7 grid at least")
        if not np.isfinite(grid).all():
            raise ValueError("sampled grid values must be finite")
        self.grid, self.n = grid, n
        self.h = tuple(TWO_PI / size for size in grid.shape[:n])

    def jet(self, params, top):
        params = np.broadcast_arrays(*(np.asarray(p, dtype=float)
                                       for p in params))
        n, index, powers = self.n, [], []
        for axis, (x, h) in enumerate(zip(params, self.h)):
            x = x.ravel()
            idx = np.rint(x / h).astype(int)
            tau = x / h - idx
            rows = (idx[:, None] + np.arange(-3, 4)) % self.grid.shape[axis]
            index.append(rows.reshape((-1,) + (1,) * axis + (7,)
                                      + (1,) * (n - 1 - axis)))
            # tau broadcasts against the coefficient arrays of its axis:
            # (N, 7, q) along v on a surface, (N, q) otherwise
            powers.append(_tau_powers(tau.reshape((-1,) + (1,) * (axis + 1)),
                                      6))
        block = self.grid[tuple(index)]                 # (N,) + (7,)*n + (q,)
        c = np.einsum("pk,n...kq->pn...q", _LAGRANGE_INV, block)
        out = np.zeros((top + 1,) * n + block.shape[:1] + block.shape[-1:])
        for j in range(top + 1):
            line = _poly_deriv_sum(c, powers[-1], j)
            if n == 1:
                out[j] = line / self.h[0] ** j
                continue
            c0 = np.matmul(_LAGRANGE_INV, line).transpose(1, 0, 2)
            for i in range(top + 1 - j):
                out[i, j] = _poly_deriv_sum(c0, powers[0], i) / (
                    self.h[0] ** i * self.h[1] ** j)
        return out.reshape((top + 1,) * n + params[0].shape + out.shape[-1:])

    def payload(self):
        return {"kind": "samples", "n": self.n, "q": self.grid.shape[-1],
                "grid": self.grid.tolist()}


# --------------------------------------------------------------------------
# manifold front end


@dataclass
class ParametricManifold:
    """Closed parametrized submanifold with jet access.

    `periods[i]` is the period of parameter i, or None on a box domain.
    Every evaluator has one routine, `jet(params, top)`, which returns the
    partial derivatives of every multi-index alpha with |alpha| <= top in
    one pass (see `jet`).  `derivative(params, alpha)` is
    `jet(params, |alpha|)[alpha]`, and `position` is the entry at
    alpha = (0,..,0).  Components of `params` may be floats or
    broadcastable arrays.
    """

    n: int
    q: int
    kind: str
    periods: Tuple[Optional[float], ...]
    _ev: object

    def position(self, params):
        return self.jet(params, 0)[(0,) * self.n]

    def derivative(self, params, alpha):
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n or any(a < 0 for a in alpha):
            raise ValueError(f"bad derivative multi-index {alpha}")
        return self.jet(params, sum(alpha))[alpha]

    def jet(self, params, top: int):
        """Partial derivatives J[alpha] for every multi-index alpha with
        |alpha| <= top, from one evaluator pass.  J has shape
        (top + 1,) * n + the shape of the parameters + (q,); entries with
        |alpha| > top are zero."""
        top = int(top)
        if top < 0:
            raise ValueError(f"bad jet order {top}")
        return self._ev.jet(_as_params(params, self.n), top)

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


def sampled_curve(grid) -> ParametricManifold:
    ev = _SampledGrid(grid, 1)
    return ParametricManifold(1, ev.grid.shape[1], "samples", (TWO_PI,), ev)


def sampled_surface(grid) -> ParametricManifold:
    ev = _SampledGrid(grid, 2)
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
    except (KeyError, TypeError, OverflowError) as exc:
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
    J = M.jet(params, 1)
    frame = np.stack([J[unit_exp(i, M.n)] for i in range(M.n)])
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
        # the tuple test first: np.isscalar is slow to reject a tuple
        n = (len(self.s) if isinstance(self.s, tuple)
             or not np.isscalar(self.s) else 1)
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
    return M.jet((np.asarray(thetas, dtype=float),), 1)[1]


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _norm2(v):
    # row-wise sqrt(v @ v): np.vecdot rounds like the scalar `v @ v` and
    # np.linalg.norm of one vector, which `(v * v).sum(-1)` does not
    return np.sqrt(np.vecdot(v, v))


def _pair_jets(M, s, t):
    """Tangents and accelerations (Ts, Tt, As, At) at the parameters s and
    t of a curve, from one jet pass on the stacked parameters."""
    J = M.jet(np.concatenate([np.ravel(s), np.ravel(t)]), 2)
    J = J.reshape((3, 2) + np.shape(s) + J.shape[-1:])
    return J[1, 0], J[1, 1], J[2, 0], J[2, 1]


def _g_grad(M, s, t):
    Ts, Tt, As, At = _pair_jets(M, s, t)
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
    """PairPoints of M at the parameters S and T, built in one pass.

    Frames and positions come from one jet of order 1; immersion
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
    S, T = ([p[0] if n == 1 else tuple(p) for p in A.tolist()]
            for A in (Sa, Ta))
    J = M.jet(tuple(np.concatenate([Sa, Ta]).T.copy()), 1)
    m = len(S)
    F = np.stack([J[unit_exp(i, n)] for i in range(n)], axis=1)
    Fs, Ft = F[:m], F[m:]
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
    A, B = J[(0,) * n][:m], J[(0,) * n][m:]
    return [PairPoint(*row) for row in zip(
        S, T, A, B, deg.tolist(), codim.tolist(),
        np.asarray(residuals, dtype=float).tolist())]


def _first_of_each_key(keys, S, T):
    """Rows holding the first occurrence of each distinct key row, ordered
    lexicographically by (S, T) as sorting the (s, t) tuples orders them."""
    _, first = np.unique(keys, axis=0, return_index=True)
    cols = np.column_stack([S[first], T[first]])
    return first[np.lexsort(cols.T[::-1])]


def _pairs_curve(M, density, tol, delta):
    """Bisects the brackets of g along t only.  G is exactly antisymmetric
    in IEEE arithmetic (products commute and a - b is -(b - a)), so each
    bracket along s is the transpose of one along t, and its root is the
    exact mirror (t, s).  The mirrors follow in the order a scan along s
    meets their brackets, which decides the first hit of each key."""
    thetas = np.arange(density) * (TWO_PI / density)
    T = _curve_tangents(M, thetas)
    G = _cross2(T[:, None], T[None, :])
    norms = np.linalg.norm(T, axis=1)
    G = G / (norms[:, None] * norms[None, :])
    spacing = TWO_PI / density
    didx = np.abs(np.subtract.outer(np.arange(density), np.arange(density)))
    didx = np.minimum(didx, density - didx)
    banned = didx * spacing < delta

    # G[i, j] is the value at the bracket's low end t = thetas[j]
    Gr = np.roll(G, -1, axis=1)
    ti, tj = np.nonzero((G * Gr < 0) & ~banned & ~np.roll(banned, -1, axis=1))
    fixed, lo = thetas[ti], thetas[tj]
    Tf = _curve_tangents(M, fixed)
    root = _bisect_lockstep(lambda x: _cross2(Tf, _curve_tangents(M, x)),
                            lo, lo + spacing, G[ti, tj], 80)
    mirror = np.lexsort((ti, tj))
    S = np.concatenate([fixed, root[mirror]])
    T = np.concatenate([root, fixed[mirror]])
    Ts, Tt = _curve_tangents(M, S), _curve_tangents(M, T)
    val = np.abs(_cross2(Ts, Tt))
    scale = _norm2(Ts) * _norm2(Tt)

    rows = np.nonzero(val <= tol * scale)[0]
    keys = np.round(np.column_stack([S[rows], T[rows]]) / (spacing / 2))
    keys = keys.astype(np.int64) % (2 * density)
    return (S[rows] % TWO_PI, T[rows] % TWO_PI, val[rows] / scale[rows],
            keys)


def _normal_cross(M, Z):
    """r = nh(s) x nh(t) for unit normals nh at the rows (u_s, v_s, u_t, v_t)
    of Z, and its Jacobian (rows, 3, 4) by d nh = (dn - nh (nh . dn)) / |n|."""
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


def _min_norm_step(J, r):
    """J^+ r of stacked 3x4 systems by modified Gram-Schmidt on the rows of J
    and forward substitution on r.  A row left with <= 1e-15 of the largest
    row norm drops with its equation, as pinv's cutoff drops it."""
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


def _pairs_torus(M, density, tol, delta):
    us = np.arange(density) * (TWO_PI / density)
    U, V = np.meshgrid(us, us, indexing="ij")
    J = M.jet((U, V), 1)
    Tu, Tv = J[1, 0], J[0, 1]
    bad, sv = _rank_drops(np.stack([Tu, Tv], axis=-2).reshape(-1, 2, M.q))
    if bad.any():
        k = int(np.argmax(bad))
        at = (float(U.flat[k]), float(V.flat[k]))
        raise ImmersionError(
            f"tangent frame drops rank at {at}: singular values {sv[k]}")
    ev = M._ev
    if isinstance(ev, _Torus) and ev.R <= ev.r:
        # the circle cos v = -R/r, where d/du vanishes, can miss the grid
        raise ImmersionError(
            f"torus with R={ev.R} <= r={ev.r} is not immersed where "
            f"cos v = -R/r")
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

    # Gauss-Newton on the rows whose residual is still >= tol (a dropped row
    # would take zero steps); a block's 41st pass reads its last residual
    Z = np.hstack([coords[cand[:, 0]], coords[cand[:, 1]]])
    rn = np.empty(len(Z))
    for lo in range(0, len(Z), _REFINE_ROWS):
        live = np.arange(lo, min(lo + _REFINE_ROWS, len(Z)))
        for it in range(41):
            r, J = _normal_cross(M, Z[live])
            rn[live] = np.linalg.norm(r, axis=1)
            keep = rn[live] >= tol
            if it == 40 or not keep.any():
                break
            live, step = live[keep], _min_norm_step(J[keep], r[keep])
            sn = np.linalg.norm(step, axis=1, keepdims=True)
            Z[live] -= step * (0.5 / np.maximum(sn, 0.5))  # at most 0.5 long
    Z = Z % TWO_PI

    S, T = Z[:, :2], Z[:, 2:]
    ok = (rn <= tol) & ~(_toroidal_gaps(S, T, M.periods).max(axis=1) < delta)
    rows = np.nonzero(ok)[0]
    keys = np.round(Z[rows] / (spacing / 4)).astype(np.int64) % (4 * density)
    return S[rows], T[rows], rn[rows], keys


def _graph_jac_entries(M, y1, y2):
    J = M.jet((y1, y2), 1)
    return J[1, 0, ..., 2], J[1, 0, ..., 3], J[0, 1, ..., 2], J[0, 1, ..., 3]


def _pairs_graph4(M, density, tol, delta):
    """The stacked frame rows are [I2 | A; I2 | B] with A, B the 2x2
    Jacobians of (f1, f2), so the 4x4 determinant collapses to det(B - A);
    its zero set is generically a 3-manifold in the 4 parameters, and this
    samples it along grid lines with lockstep bisection."""
    axis = np.linspace(-M._ev.halfwidth, M._ev.halfwidth, density)
    step = axis[1] - axis[0]
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    Jf = np.stack([x.ravel() for x in _graph_jac_entries(M, X1, X2)], axis=1)
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
    fix = axis[a]
    sj = Jf[si]

    def det_at(x):
        t1 = np.where(fax == 0, fix, x)
        t2 = np.where(fax == 0, x, fix)
        b11, b12, b21, b22 = _graph_jac_entries(M, t1, t2)
        return ((b11 - sj[:, 0]) * (b22 - sj[:, 3])
                - (b12 - sj[:, 1]) * (b21 - sj[:, 2]))

    root = _bisect_lockstep(det_at, axis[b], axis[b + 1], G[si, fax, a, b], 60)
    res = np.abs(det_at(root))
    T1 = np.where(fax == 0, fix, root)
    T2 = np.where(fax == 0, root, fix)

    S, T = pts[si], np.stack([T1, T2], axis=1)
    ok = (res <= tol) & ~(np.abs(S - T).max(axis=1) < delta)
    rows = np.nonzero(ok)[0]
    keys = np.column_stack([si[rows],
                            np.round(T[rows] / (step / 2)).astype(np.int64)])
    return S[rows], T[rows], res[rows], keys


def find_parallel_pairs(M: ParametricManifold,
                        grid_density: Optional[int] = None,
                        tol: float = 1e-10,
                        delta_diag: Optional[float] = None) -> List[PairPoint]:
    """Sample the weakly parallel pairs of M off the diagonal band.

    A scheme chosen by (n, q) and by the domain returns its refined
    candidates as arrays (S, T, residuals, keys).  One tail then keeps the
    first hit of each key, so duplicates merge by parameter distance,
    orders the pairs lexicographically, builds their PairPoints in one
    stacked pass (as pair-by-pair construction would build them) and drops
    those that are not weakly parallel.  The schemes:

    * closed curves in R^2: sign changes of the stacked-tangent determinant
      along t on the grid, refined by lockstep bisection; the brackets
      along s take the exact mirrors (t, s) of those roots.
    * surfaces in R^3 with two 2pi-periodic parameters (the torus, sampled
      surfaces): Gauss-Newton on the normal-alignment residual, with the
      analytic Jacobian of a second-order jet and the minimum-norm step, on
      the rows whose residual is at or above tol.  Grid frames that drop
      rank, and a torus with R <= r even when its singular circle misses
      the grid, raise ImmersionError.
    * graph surfaces in R^4: sign changes of the reduced 2x2 determinant
      along grid lines of [-halfwidth, halfwidth]^2, refined by the same
      lockstep bisection.

    Any other manifold raises UnsupportedDimensionsError, a DomainError.
    A grid density below 2, which leaves no grid interval, raises
    DomainError, and so does a diagonal band wider than half the period
    (or than the box, for graphs), which would leave no pair.  The default
    density is 256 for curves and 24 / 16 for the surface schemes, whose pair sets
    are two- and three-dimensional, so their sample counts grow with a
    power of the density instead of linearly.
    """
    shape = (M.n, M.q)
    if shape == (1, 2):
        scheme, density = _pairs_curve, 256
    elif shape == (2, 3) and M.periods == (TWO_PI, TWO_PI):
        scheme, density = _pairs_torus, 24
    elif shape == (2, 4) and M.kind == "graph_surface":
        scheme, density = _pairs_graph4, 16
    else:
        need = {(2, 3): "two 2pi-periodic parameters",
                (2, 4): "a graph_surface"}.get(shape)
        raise UnsupportedDimensionsError(
            f"no pair-location scheme for (n, q) = {shape}"
            + (f" and kind {M.kind!r}; it needs {need}" if need else ""))
    if grid_density is None:
        grid_density = density
    if grid_density < 2:
        raise DomainError(f"grid density {grid_density} leaves no grid "
                          f"interval to bracket a pair")
    span = TWO_PI if M.periods[0] else 2 * M._ev.halfwidth
    if delta_diag is None:
        delta_diag = 10.0 * span / grid_density
    # the largest distance from the diagonal
    if M.periods[0]:
        reach, what = span / 2, "half the period"
    else:
        reach, what = span, "the box width"
    if delta_diag > reach:
        raise DomainError(
            f"diagonal band {delta_diag:.6g} at density {grid_density} "
            f"exceeds {what} {reach:.6g} and covers every pair")
    S, T, residuals, keys = scheme(M, grid_density, tol, delta_diag)
    first = _first_of_each_key(keys, S, T)
    pairs = _pair_points(M, S[first], T[first], residuals[first])
    return [p for p in pairs if p.codim > 0]


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
    """Newton-correct z onto {g = 0} within the hyperplane through base
    normal to d; returns the accepted point with the gradient (gs, gt) there,
    or None."""
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


def _march(M, z0, direction, step, delta, tol, max_steps):
    """March along {g = 0} from z0; returns (points, closed, failed, band).
    A march that steps into the diagonal band stops there, and `band` is
    its last iterate outside the band with the step inside it, the bracket
    that `_land_on_band` bisects; it is None for every other ending."""
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
            hit = _corrector(M, base, base, d, tol)
            if hit is not None:
                break
            h = h / 2
        if hit is None:
            return pts, False, True, None
        nxt, gs, gt = hit
        if _toroidal_dist(nxt[0], nxt[1], TWO_PI) < delta:
            return pts, False, False, (z, nxt)
        pts.append(nxt)
        if len(pts) > 8 and \
                _toroidal_dist(nxt[0], z0[0], TWO_PI) < 1.2 * step and \
                _toroidal_dist(nxt[1], z0[1], TWO_PI) < 1.2 * step:
            pts.append(np.array(z0, dtype=float))
            return pts, True, False, None
        nd = _step_direction(gs, gt, d)
        if nd is None:
            return pts, False, True, None
        z, d = nxt, nd
    return pts, False, True, None


def _land_on_band(M, lo, hi, delta, tol, iters=50):
    """Bisect every row pair (lo, hi), lo outside the diagonal band and hi
    inside it, to the band edge along {g = 0}, all rows in one array pass
    per step.  Landing exactly on the edge keeps termination points
    independent of the step phase.  Each midpoint is projected onto
    {g = 0}.  A row stops at its first failed projection, and once its
    (lo, hi) repeats, since every later step would project the same
    midpoint again.  Rows never mix, so each row lands where it would land
    alone.  Returns the final lo of every row."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = np.arange(len(lo))
    for _ in range(iters):
        if not len(live):
            break
        mid, ok = _project_to_zero_many(M, 0.5 * (lo[live] + hi[live]), tol)
        live, mid = live[ok], mid[ok]
        gap = np.fmod(np.abs(mid[:, 0] - mid[:, 1]), TWO_PI)
        out = np.minimum(gap, TWO_PI - gap) >= delta
        stay = ~(mid == np.where(out[:, None], lo[live], hi[live])).all(axis=1)
        live, mid, out = live[stay], mid[stay], out[stay]
        lo[live[out]] = mid[out]
        hi[live[~out]] = mid[~out]
    return lo


def _branch_from_path(M, lam, path, status):
    S = [p[0] % TWO_PI for p in path]
    T = [p[1] % TWO_PI for p in path]
    pairs = _pair_points(M, S, T)
    A = np.array([p.a for p in pairs])
    B = np.array([p.b for p in pairs])
    with np.errstate(over="ignore", invalid="ignore"):
        X = lam * A + (1 - lam) * B      # _check_finite reports overflow
    steps = np.linalg.norm(np.diff(np.array(path), axis=0), axis=1) \
        if len(path) > 1 else np.array([])
    sigmas = np.concatenate([[0.0], np.cumsum(steps)])
    samples = list(zip(pairs, X))
    scale = float(np.max(np.linalg.norm(A, axis=1))) or 1.0
    diam = float(np.max(np.ptp(X, axis=0))) if len(X) else 0.0
    return EquidistantBranch(
        lam=float(lam), manifold=M, samples=samples, sigmas=sigmas,
        status=status, degenerate=diam < 1e-8 * scale)


def trace_equidistant(M: ParametricManifold, lam, step: float = 0.02,
                      delta_diag: Optional[float] = None,
                      seed_density: Optional[int] = None,
                      tol: float = 1e-12,
                      max_steps: int = 40000) -> List[EquidistantBranch]:
    """Trace the affine lambda-equidistant of M.

    Curves run pseudo-arclength continuation of the parallel-pair equation
    on the parameter torus minus the diagonal band |s - t| < delta_diag,
    mapping each solution through x = lam*a + (1-lam)*b.  Branches either
    close up or terminate at the band.  Non-curve inputs fall back to a
    grid-sampled point cloud (status "cloud") with no branch structure.
    `seed_density` is the pair-search grid density: 128 for curves when
    None, and the surface scheme's own default otherwise.
    A lambda that sends a traced point outside the finite floats raises
    NonFiniteEquidistantError, a DomainError.
    """
    lam = float(lam)
    if lam in (0.0, 1.0):
        raise DegenerateLambdaError("lambda must avoid 0 and 1; those "
                                    "reproduce M")
    if M.n != 1:
        pairs = find_parallel_pairs(M, seed_density, tol=1e-10,
                                    delta_diag=delta_diag)
        with np.errstate(over="ignore", invalid="ignore"):
            samples = [(p, p.lambda_point(lam)) for p in pairs]
        branches = [EquidistantBranch(
            lam=lam, manifold=M, samples=samples,
            sigmas=np.zeros(len(samples)), status="cloud")]
        _check_finite(branches)
        return branches
    if seed_density is None:
        seed_density = 128
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
        fwd, closed, failed, band = _march(M, z0, +1.0, step, delta_diag,
                                           tol, max_steps)
        if closed:
            path = fwd
            status = "closed"
        else:
            bwd, _, failed_b, band_b = _march(M, z0, -1.0, step, delta_diag,
                                              tol, max_steps)
            ends = [(pts, b) for pts, b in ((fwd, band), (bwd, band_b))
                    if b is not None]
            if ends:
                landed = _land_on_band(M, [b[0] for _, b in ends],
                                       [b[1] for _, b in ends], delta_diag,
                                       tol)
                for (pts, _), lo in zip(ends, landed):
                    if np.linalg.norm(lo - pts[-1]) > 1e-9:
                        pts.append(lo)
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


def _wrap_pi(d):
    return (d + math.pi) % TWO_PI - math.pi


# --------------------------------------------------------------------------
# singularity detection


def _cusp_velocity(M, lam, Z, refs):
    """Velocity scalar of the lambda-point along {g = 0} at each row of Z,
    with the branch tangent oriented along the matching row of refs; 0.0
    where the tangent vanishes."""
    Ts, Tt, As, At = _pair_jets(M, Z[:, 0], Z[:, 1])
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

    The rows may come from every branch of one trace.  Along each chord, h
    is the velocity scalar at the projection of the chord point onto
    {g = 0}.  A bracket fails when its chord is zero, its end values do not
    change sign, or any projection fails.  Returns the last projected point
    of every bracket and the mask of those that did not fail.  Rows never
    mix, so each row's result does not depend on the others.  As in
    `_bisect_lockstep`, the loop stops early once no bracket moves, with
    the result of all `iters` steps: a bracket that stops moving repeats
    its last step, so running on while other rows move changes nothing.
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


def _find_node_candidates(P, closed, index_gap, min_sin):
    """Transverse crossings of the polyline P between segments at least
    `index_gap` apart along it (around the loop when closed), as
    (si, sj, point) with si, sj the crossing's fractional segment
    positions; sorted, and merged when closer than one sweep cell.

    The sweep buckets each segment into the grid cells its bounding box
    meets, and every pair of segments sharing a cell is tested once, all
    pairs in one array pass.  A pair crosses when sin of its angle exceeds
    `min_sin` and both crossing parameters lie in [0, 1).
    """
    N = len(P) - 1 if not closed else len(P)
    A, B = P[:N], P[(np.arange(N) + 1) % len(P)]
    R = B - A
    lengths = _norm2(R)
    cell = max(lengths.max(), 1e-12) * 2.0
    lo = np.minimum(A, B) // cell
    span = (np.maximum(A, B) // cell - lo).astype(int) + 1
    count = span[:, 0] * span[:, 1]
    seg = np.repeat(np.arange(N), count)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
    cx = lo[seg, 0].astype(int) + k // span[seg, 1]
    cy = lo[seg, 1].astype(int) + k % span[seg, 1]
    # sorted by cell, each cell's segments are one run, so every pair in a
    # run sits some offset d apart within it
    order = np.lexsort((seg, cy, cx))
    seg, cx, cy = seg[order], cx[order], cy[order]
    pairs = [np.empty((0, 2), dtype=int)]
    for d in range(1, len(seg)):
        same = (cx[d:] == cx[:-d]) & (cy[d:] == cy[:-d])
        if not same.any():
            break
        pairs.append(np.column_stack([seg[:-d][same], seg[d:][same]]))
    i, j = np.unique(np.concatenate(pairs), axis=0).T
    gap = j - i
    if closed:
        gap = np.minimum(gap, N - gap)
    i, j = i[gap >= index_gap], j[gap >= index_gap]
    r, w = R[i], R[j]
    denom = _cross2(r, w)
    lr, lw = lengths[i], lengths[j]
    keep = (lr != 0) & (lw != 0) & ~(np.abs(denom) <= min_sin * lr * lw)
    i, j, r, w, denom = i[keep], j[keep], r[keep], w[keep], denom[keep]
    dp = A[j] - A[i]
    u = _cross2(dp, w) / denom
    v = _cross2(dp, r) / denom
    hit = (0.0 <= u) & (u < 1.0) & (0.0 <= v) & (v < 1.0)
    si, sj = i[hit] + u[hit], j[hit] + v[hit]
    merged = []
    for n in np.lexsort((sj, si)):
        base = int(si[n])
        a = P[base] + (si[n] % 1) * (P[(base + 1) % len(P)] - P[base])
        if all(np.linalg.norm(a - m[2]) > cell for m in merged):
            merged.append((si[n], sj[n], a))
    return merged


def detect_singularities(branch: EquidistantBranch, cross_check: bool = True,
                         min_sin: float = 0.15,
                         index_gap: int = 12) -> EquidistantBranch:
    """Annotate a traced branch with cusps and nodes.

    Cusps: sign changes of the velocity scalar of the lambda-point along
    the branch, refined by lockstep bisection on the parallel-pair
    equation.  Nodes: transverse self-intersections of the sampled polyline
    found by a bucketed segment sweep.  Each resolved point is optionally
    cross-checked through the adapted-germ contact pipeline; disagreement
    or failed refinement yields the label UNRESOLVED.  This is
    `_detect_branches` on the one branch, which gives every annotation the
    bits it gets when all branches of its trace are detected together.
    """
    return _detect_branches([branch], cross_check, min_sin, index_gap)[0]


def _detect_branches(branches, cross_check=True, min_sin=0.15, index_gap=12):
    """`detect_singularities` on every branch of one trace, which share one
    manifold and one lambda.  The cusp brackets of all branches are refined
    in one `_refine_cusps` call, so each bisection step is one array pass
    for the whole trace; every bracket's result is the one it gets alone.
    Returns the annotated branches in order."""
    tol = 1e-13
    out = [replace(br, annotations=[]) for br in branches]
    work = [(k, br, np.array([[pp.s, pp.t] for pp, _ in br.samples]))
            for k, br in enumerate(branches)
            if not (br.degenerate or br.status == "cloud" or len(br) < 4)]
    if not work:
        return out
    M, lam = work[0][1].manifold, work[0][1].lam
    brackets = [_cusp_brackets(M, lam, Z, br.status == "closed")
                for _, br, Z in work]
    z_lo = np.concatenate([Z[b] for (_, _, Z), b in zip(work, brackets)])
    z_hi = np.concatenate([Z[(b + 1) % len(Z)]
                           for (_, _, Z), b in zip(work, brackets)])
    z_star, found = (_refine_cusps(M, lam, z_lo, z_hi, tol) if len(z_lo)
                     else (z_lo, np.zeros(0, dtype=bool)))
    cut = np.cumsum([len(b) for b in brackets])[:-1]
    for (k, br, Z), b, z_b, found_b in zip(work, brackets,
                                           np.split(z_star, cut),
                                           np.split(found, cut)):
        annotations: List[Annotation] = []
        if len(b):
            annotations += _annotate(M, lam, b.tolist(), z_b, found_b,
                                     "A2_cusp", ("A", (2,)), cross_check)
        nodes = _find_node_candidates(br.points(), br.status == "closed",
                                      index_gap, min_sin)
        if nodes:
            ends = np.array([spos for si, sj, _ in nodes for spos in (si, sj)])
            idx = ends.astype(int)
            fr = ends % 1
            z = Z[idx] + fr[:, None] * _wrap_pi(Z[(idx + 1) % len(Z)]
                                                - Z[idx])
            zp, found_n = _project_to_zero_many(M, z, tol)
            annotations += _annotate(M, lam, idx.tolist(), zp, found_n,
                                     "A1_node", ("A", (1,)), cross_check)
        annotations.sort(key=lambda a: a.index)
        out[k] = replace(br, annotations=annotations)
    return out


def _cusp_brackets(M, lam, Z, closed):
    """Sample indices i of a branch at which the velocity scalar, taken
    along the chord from each sample to the next, changes sign from sample
    i to sample i + 1: a cusp lies between the two."""
    last = len(Z) - 1 if closed else len(Z)
    nxt = (np.arange(last) + 1) % len(Z)
    refs, _ = _unit_chords(Z[:last], Z[nxt])
    hs = _cusp_velocity(M, lam, Z[:last], refs)
    pair_count = last if closed else last - 1
    i = np.arange(pair_count)
    h_i, h_j = hs[i], hs[(i + 1) % last]
    return i[~(h_i == 0.0) & ~(h_i * h_j >= 0)]


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


def _series_invert(A, n, order):
    L = np.array([[A[i].get(unit_exp(j, n), 0.0) for j in range(n)]
                  for i in range(n)])
    if np.linalg.cond(L) > FRAME_COND_LIMIT:
        raise FrameAlignmentError("ill-conditioned frame alignment")
    Li = np.linalg.inv(L)
    B = [
        {unit_exp(j, n): float(Li[i, j]) for j in range(n) if Li[i, j]}
        for i in range(n)
    ]
    for _ in range(order - 1):
        comp = [p_compose(A[i], B, n, order) for i in range(n)]
        for i in range(n):
            e = unit_exp(i, n)
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


def _chart_series(J, Binv, const, scale, n, order):
    """Chart coordinates Binv @ (.) of the Taylor series of `scale` * M at a
    point where M has the jet J, one dict per coordinate; `const` is the
    constant term."""
    xi = [dict() for _ in range(len(Binv))]
    for alpha in monomials_upto(n, order):
        vec = scale * J[alpha] if sum(alpha) else const
        w = Binv @ (vec / _factorial_multi(alpha))
        for r in range(len(Binv)):
            if w[r] != 0.0:
                xi[r][alpha] = float(w[r])
    return xi


def _graph_functions(xi, indep_rows, dep_rows, n, order):
    A = [xi[r] for r in indep_rows]
    Binv_series = _series_invert(A, n, order)
    return [p_compose(xi[r], Binv_series, n, order) for r in dep_rows]


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
        raise DegenerateLambdaError("lambda must avoid 0 and 1")
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
    Ja, Jb = M.jet(pair.s, order), M.jet(pair.t, order)
    a = Ja[(0,) * n]

    # the chart is centred at a, so the first series has no constant term
    xi_a = _chart_series(Ja, Binv, np.zeros(q), 1.0, n, order)
    u_dim = q + k - 2 * n

    phi_psi = _graph_functions(xi_a, list(range(n)),
                               list(range(n, q)), n, order)
    phi = _snap_block(phi_psi[:u_dim])
    psi = _snap_block(phi_psi[u_dim:])

    # reflected second graph: base point maps to a, derivatives rescale
    refl_base = (1.0 / lam) * pair.lambda_point(lam) \
        - (1 - lam) / lam * Jb[(0,) * n]
    xi_b = _chart_series(Jb, Binv, refl_base - a, -(1 - lam) / lam, n, order)
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
