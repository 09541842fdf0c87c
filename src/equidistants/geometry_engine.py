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
from dataclasses import dataclass, field, fields, replace
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
_SCAN_PAIRS = 1 << 14   # grid pairs scanned, or brackets bisected, together
_PAIR_TOL = 1e-10       # residual bound of a located pair
_GRAM_MARGIN = 1e-4     # a certified sigma_min / sigma_max bound, >> TAU_RANK


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
    values nearest to it.  The interpolant's coefficients along the last
    parameter axis are computed once per grid node, at construction; on a
    surface a matmul along the first axis follows (the BLAS call of a single
    `L @ line` on each point)."""

    def __init__(self, grid: np.ndarray, n: int):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != n + 1:
            raise ValueError(f"sampled {'curve' if n == 1 else 'surface'} "
                             f"(n = {n}) needs a grid array of rank {n + 1}, "
                             f"got rank {grid.ndim}")
        if min(grid.shape[:n]) < 7:
            raise ValueError("sampled curve needs at least 7 grid points"
                             if n == 1 else
                             "sampled surface needs a 7x7 grid at least")
        if not np.isfinite(grid).all():
            raise ValueError("sampled grid values must be finite")
        self.grid, self.n = grid, n
        self.h = tuple(TWO_PI / size for size in grid.shape[:n])
        # the coefficients along the last axis of the 7 values centred on
        # each node, (7,) + grid.shape: 7 times the grid's floats
        size = grid.shape[-2]
        near = (np.arange(size)[:, None] + np.arange(-3, 4)) % size
        self.coeffs = np.einsum("pk,n...kq->pn...q", _LAGRANGE_INV,
                                np.take(grid, near, axis=-2))

    def jet(self, params, top):
        params = np.broadcast_arrays(*(np.asarray(p, dtype=float)
                                       for p in params))
        n, index, powers = self.n, [slice(None)], []
        for axis, (x, h) in enumerate(zip(params, self.h)):
            x = x.ravel()
            idx = np.rint(x / h).astype(int)
            tau = x / h - idx
            # a surface reads the 7 rows around the node along its first axis
            idx = (idx[:, None] + np.arange(-3, 4) if axis < n - 1
                   else idx.reshape((-1,) + (1,) * (n - 1)))
            index.append(idx % self.grid.shape[axis])
            # tau broadcasts against the coefficient arrays of its axis:
            # (N, 7, q) along v on a surface, (N, q) otherwise
            powers.append(_tau_powers(tau.reshape((-1,) + (1,) * (axis + 1)),
                                      6))
        c = self.coeffs[tuple(index)]             # (7, N) + (7,)*(n-1) + (q,)
        out = np.zeros((top + 1,) * n + c.shape[1:2] + c.shape[-1:])
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
    one pass (see `jet`).  `position` is the entry at alpha = (0,..,0).
    Components of `params` may be floats or broadcastable arrays.
    """

    n: int
    q: int
    kind: str
    periods: Tuple[Optional[float], ...]
    _ev: object

    def position(self, params):
        return self.jet(params, 0)[(0,) * self.n]

    def derivative(self, params, alpha):
        """`jet(params, |alpha|)[alpha]`.  No code of the package calls it;
        it stays only because the benchmark's tracer patches it on the class
        (ROADMAP item 13)."""
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
            n, q = payload.get("n", 1), payload.get("q")
            if type(n) is not int or n not in (1, 2):
                raise ValueError(f"samples field 'n' must be 1 or 2, got {n!r}")
            grid = np.asarray(payload["grid"], dtype=float)
            M = (sampled_curve if n == 1 else sampled_surface)(grid)
            if q is not None and (type(q) is not int or q != M.q):
                raise ValueError(f"samples field 'q' must equal the grid's "
                                 f"last axis {M.q}, got {q!r}")
            return M
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
# locating weakly parallel pairs


def _toroidal_dist(a: float, b: float) -> float:
    d = math.fmod(abs(a - b), TWO_PI)
    return min(d, TWO_PI - d)


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


@dataclass(frozen=True, eq=False)
class PairCloud(Sequence):
    """Weakly parallel pairs as arrays, one row per pair: parameters s and
    t, (m,) for curves and (m, n) for surfaces, points a and b (m, q), and
    deg_k, codim and residual (m,).  An integer index builds that row's
    PairPoint; a slice or a boolean mask gives a cloud."""

    s: np.ndarray
    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    deg_k: np.ndarray
    codim: np.ndarray
    residual: np.ndarray

    def __len__(self):
        return len(self.residual)

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            return PairCloud(*(getattr(self, f.name)[i] for f in fields(self)))
        s, t = self.s[i].tolist(), self.t[i].tolist()
        if self.s.ndim == 2:
            s, t = tuple(s), tuple(t)
        return PairPoint(s, t, self.a[i], self.b[i], int(self.deg_k[i]),
                         int(self.codim[i]), float(self.residual[i]))


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


def _check_immersed(frames, params):
    """Raise ImmersionError at the first stacked frame whose rank drops,
    zero or with a least singular value at most TAU_RANK times the largest;
    params[i], n floats, are the parameters of frames[i].  A frame passes
    without an SVD when n = 1 and 0 < |T|^2 < inf, or when n = 2 and its
    Gram matrix G has a normal det G and sqrt(det G) / tr G, a lower bound
    on sigma_min / sigma_max, finite and above _GRAM_MARGIN, so far above
    TAU_RANK that rounding cannot pass a frame the SVD flags.  The others
    take the stacked SVD in order, which names the first rank drop."""
    F = np.moveaxis(frames, 0, -1)                  # (n, q, frames)
    ok = np.zeros(len(frames), dtype=bool)
    with np.errstate(all="ignore"):
        if len(F) == 1:
            g = sum(F[0] * F[0])
            ok = (g > 0.0) & (g < np.inf)
        elif len(F) == 2:
            g11, g22 = sum(F[0] * F[0]), sum(F[1] * F[1])
            det = g11 * g22 - sum(F[0] * F[1]) ** 2
            bound = np.sqrt(det) / (g11 + g22)
            ok = ((det >= np.finfo(float).tiny) & (bound > _GRAM_MARGIN)
                  & (bound < np.inf))
    check = np.flatnonzero(~ok)
    sv = np.linalg.svd(frames[check], compute_uv=False)
    bad = (sv[:, 0] == 0.0) | (sv[:, -1] <= TAU_RANK * sv[:, 0])
    if bad.any():
        i = int(np.argmax(bad))
        at = np.ravel(params[check[i]]).tolist()
        at = at[0] if len(at) == 1 else tuple(at)
        raise ImmersionError(f"tangent frame drops rank at {at}: "
                             f"singular values {sv[i]}")


def _pair_points(M, S, T, residuals):
    """The PairCloud of M at the parameters S and T, from one jet of order
    1 at s, t of each pair in turn and stacked SVDs, which give each frame
    the singular values of its own SVD: every row is that of pair-by-pair
    construction.  Any pair whose parameters are not distinct raises
    ValueError before the first rank drop, at s before t, ImmersionError."""
    n, m = M.n, len(residuals)
    P = np.stack([np.reshape(S, (m, n)), np.reshape(T, (m, n))], axis=1,
                 dtype=float)
    gaps = _toroidal_gaps(P[:, 0], P[:, 1], M.periods)
    if not (gaps > 1e-12).any(axis=1).all():
        raise ValueError("parallelism needs distinct parameters")
    P = P.reshape(2 * m, n)
    J = M.jet(tuple(P.T.copy()), 1)
    F = np.stack([J[unit_exp(i, n)] for i in range(n)], axis=1)
    # the cloud keeps copies of the positions, and the jet is freed
    A, B = (J[(0,) * n][k::2].copy() for k in (0, 1))
    del J
    _check_immersed(F, P)
    sv = np.linalg.svd(F.reshape(m, 2 * n, M.q), compute_uv=False)
    rank = np.sum(sv > TAU_RANK * sv[:, :1], axis=1)
    shape = (m,) if n == 1 else (m, n)
    return PairCloud(P[0::2].reshape(shape), P[1::2].reshape(shape), A, B,
                     2 * n - rank, M.q - rank,
                     np.array(residuals, dtype=float))


def _row_blocks(rows, width):
    """Slices of at most _SCAN_PAIRS // width rows (one at least), so that a
    block of a rows x width scan holds at most _SCAN_PAIRS entries.  Every
    scan is row-wise, so its hits, taken block by block, are those of the
    whole array in the row-major order of np.nonzero."""
    step = max(1, _SCAN_PAIRS // width)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _first_of_each_key(keys, S, T):
    """Rows holding the first occurrence of each distinct key row, ordered
    lexicographically by (S, T) as sorting the (s, t) tuples orders them.

    Each key row packs into one integer, its row-major index in the box that
    spans the columns' ranges, which orders the packed keys as the rows;
    ravel_multi_index raises ValueError when the box has more cells than an
    intp counts.  `initial=0` gives an empty key set a box of one cell."""
    low = keys.min(axis=0, initial=0)
    box = keys.max(axis=0, initial=0) - low + 1
    packed = np.ravel_multi_index(tuple((keys - low).T), tuple(box))
    _, first = np.unique(packed, return_index=True)
    cols = np.column_stack([S[first], T[first]])
    return first[np.lexsort(cols.T[::-1])]


def _pairs_curve(M, density, delta):
    """Bisects the brackets of g along t only.  G is exactly antisymmetric
    in IEEE arithmetic (products commute and a - b is -(b - a)), so each
    bracket along s is the transpose of one along t, and its root is the
    exact mirror (t, s).  The mirrors follow in the order a scan along s
    meets their brackets, which decides the first hit of each key."""
    index = np.arange(density)
    thetas = index * (TWO_PI / density)
    T = _curve_tangents(M, thetas)
    norms = np.linalg.norm(T, axis=1)
    spacing = TWO_PI / density
    hits = []
    for rows in _row_blocks(density, density):
        G = _cross2(T[rows, None], T[None, :])
        G = G / (norms[rows, None] * norms[None, :])
        didx = np.abs(np.subtract.outer(index[rows], index))
        didx = np.minimum(didx, density - didx)
        banned = didx * spacing < delta
        # G[i, j] is the value at the bracket's low end t = thetas[j]
        Gr = np.roll(G, -1, axis=1)
        i, j = np.nonzero((G * Gr < 0) & ~banned & ~np.roll(banned, -1, axis=1))
        hits.append((i + rows.start, j, G[i, j]))
    ti, tj, glo = (np.concatenate(c) for c in zip(*hits))
    fixed, lo = thetas[ti], thetas[tj]
    Tf = _curve_tangents(M, fixed)
    root = _bisect_lockstep(lambda x: _cross2(Tf, _curve_tangents(M, x)),
                            lo, lo + spacing, glo, 80)
    mirror = np.lexsort((ti, tj))
    S = np.concatenate([fixed, root[mirror]])
    T = np.concatenate([root, fixed[mirror]])
    Ts, Tt = _curve_tangents(M, S), _curve_tangents(M, T)
    val = np.abs(_cross2(Ts, Tt))
    scale = _norm2(Ts) * _norm2(Tt)

    rows = np.nonzero(val <= _PAIR_TOL * scale)[0]
    keys = np.round(np.column_stack([S[rows], T[rows]]) / (spacing / 2))
    keys = keys.astype(np.int64) % (2 * density)
    return (S[rows] % TWO_PI, T[rows] % TWO_PI, val[rows] / scale[rows],
            keys)


def _cross(a, b):
    """a x b over the first axis of (3, ...) arrays, in np.cross's order."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _unit_normals(J):
    """(nh, d_u nh, d_v nh) by coordinate, (3, 3) + the points' shape, from
    an order-2 jet J of a surface in R^3: nh = n / |n| for n = T_u x T_v and
    d nh = (dn - nh (nh . dn)) / |n|.  `sum` adds as np.sum over an axis of
    3 does, from 0.0 in order."""
    J = np.moveaxis(J, -1, 2)
    n = _cross(J[1, 0], J[0, 1])
    norm = np.sqrt(sum(n * n))
    nh = n / norm
    return np.array([nh] + [(dn - nh * sum(nh * dn)) / norm for dn in (
        _cross(J[2, 0], J[0, 1]) + _cross(J[1, 0], J[1, 1]),
        _cross(J[1, 1], J[0, 1]) + _cross(J[1, 0], J[0, 2]))])


def _normal_cross(M, Z, ends=None):
    """r = nh(s) x nh(t) at the rows (u_s, v_s, u_t, v_t) of Z, (rows, 3),
    and its Jacobian (rows, 3, 4), views of arrays held by coordinate, from
    the `_unit_normals` (Ns, Nt) of the ends: `ends`, or one jet at both."""
    Ns, Nt = ends or np.moveaxis(
        _unit_normals(M.jet((Z[:, 0::2].T, Z[:, 1::2].T), 2)), 2, 0)
    J = np.array([_cross(d, Nt[0]) for d in Ns[1:]]
                 + [_cross(Ns[0], d) for d in Nt[1:]])
    return _cross(Ns[0], Nt[0]).T, J.transpose(2, 1, 0)


def _min_norm_step(J, r):
    """J^+ r of stacked 3x4 systems by modified Gram-Schmidt on the rows of J
    and forward substitution on r.  A row left with <= 1e-15 of the largest
    row norm drops with its equation, as pinv's cutoff drops it."""
    J, r = np.ascontiguousarray(J.transpose(1, 2, 0)), r.T
    cut = 1e-15 * np.max([np.sqrt(sum(w * w)) for w in J], axis=0)
    basis = []
    for w, y in zip(J, r):
        for q, c in basis:
            proj = sum(w * q)
            w, y = w - proj * q, y - proj * c
        size = np.sqrt(sum(w * w))
        scale = (size > cut) / np.where(size > cut, size, 1.0)
        basis.append((w * scale, y * scale))
    return sum(c * q for q, c in basis).T


def _pairs_torus(M, density, delta):
    """Gauss-Newton from the grid pairs whose normals are within 2 * spacing
    of parallel.  One order-2 jet on the grid gives its immersion frames,
    the scan's normals and the first pass, which gathers each end's normals
    from the grid.  Rows never mix: no bit depends on _REFINE_ROWS."""
    us = np.arange(density) * (TWO_PI / density)
    U, V = np.meshgrid(us, us, indexing="ij")
    J = M.jet((U, V), 2)
    coords = np.stack([U.ravel(), V.ravel()], axis=1)
    _check_immersed(np.stack([J[1, 0], J[0, 1]], axis=-2).reshape(-1, 2, M.q),
                    coords)
    ev = M._ev
    if isinstance(ev, _Torus) and ev.R <= ev.r:
        # the circle cos v = -R/r, where d/du vanishes, can miss the grid
        raise ImmersionError(
            f"torus with R={ev.R} <= r={ev.r} is not immersed where "
            f"cos v = -R/r")
    N = _unit_normals(J).reshape(3, 3, -1)
    P = N.shape[2]
    spacing = TWO_PI / density
    cand = []
    for rows in _row_blocks(P, P):
        # pairs i < j within 2 * spacing of parallel, then outside the band
        cross = _cross(N[0, :, rows, None], N[0, :, None, rows.start + 1:])
        i, j = np.nonzero(np.sqrt(sum(cross * cross)) < 2.0 * spacing)
        i, j = i + rows.start, j + rows.start + 1
        i, j = i[i < j], j[i < j]
        gaps = _toroidal_gaps(coords[i], coords[j], M.periods).max(axis=1)
        cand.append(np.column_stack([i, j])[~(gaps < delta)])
    cand = np.vstack(cand)

    # Gauss-Newton on the rows whose residual is still >= _PAIR_TOL (a dropped
    # row would take zero steps); a block's 41st pass reads its last residual
    Z = np.hstack([coords[cand[:, 0]], coords[cand[:, 1]]])
    rn = np.empty(len(Z))
    for lo in range(0, len(Z), _REFINE_ROWS):
        live = np.arange(lo, min(lo + _REFINE_ROWS, len(Z)))
        ends = N[..., cand[live, 0]], N[..., cand[live, 1]]
        for it in range(41):
            r, J = _normal_cross(M, Z[live], ends if it == 0 else None)
            rn[live] = np.linalg.norm(r, axis=1)
            keep = rn[live] >= _PAIR_TOL
            if it == 40 or not keep.any():
                break
            live, step = live[keep], _min_norm_step(J[keep], r[keep])
            sn = np.linalg.norm(step, axis=1, keepdims=True)
            Z[live] -= step * (0.5 / np.maximum(sn, 0.5))  # at most 0.5 long
    Z = Z % TWO_PI

    S, T = Z[:, :2], Z[:, 2:]
    ok = (rn <= _PAIR_TOL) & ~(_toroidal_gaps(S, T, M.periods).max(axis=1) < delta)
    rows = np.nonzero(ok)[0]
    keys = np.round(Z[rows] / (spacing / 4)).astype(np.int64) % (4 * density)
    return S[rows], T[rows], rn[rows], keys


def _graph_jac_entries(M, y1, y2):
    J = M.jet((y1, y2), 1)
    return J[1, 0, ..., 2], J[1, 0, ..., 3], J[0, 1, ..., 2], J[0, 1, ..., 3]


def _pairs_graph4(M, density, delta):
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
    hits = []
    for rows in _row_blocks(len(Jf), len(Jf)):
        D = [Jf[None, :, c] - Jf[rows, None, c] for c in range(4)]
        dets = (D[0] * D[3] - D[1] * D[2]).reshape(-1, density, density)
        G = np.stack([dets, dets.transpose(0, 2, 1)], axis=1)
        sign = np.signbit(G)
        i, fax, a, b = np.nonzero(sign[..., :-1] != sign[..., 1:])
        hits.append((i + rows.start, fax, a, b, G[i, fax, a, b]))
    si, fax, a, b, glo = (np.concatenate(c) for c in zip(*hits))
    fix = axis[a]
    sj = Jf[si]

    def det_at(x, k):
        t1 = np.where(fax[k] == 0, fix[k], x)
        t2 = np.where(fax[k] == 0, x, fix[k])
        b11, b12, b21, b22 = _graph_jac_entries(M, t1, t2)
        sk = sj[k]
        return ((b11 - sk[:, 0]) * (b22 - sk[:, 3])
                - (b12 - sk[:, 1]) * (b21 - sk[:, 2]))

    # each bracket bisects alone, so blocks of them move no root
    root, res = np.empty(len(si)), np.empty(len(si))
    for k in _row_blocks(len(si), 1):
        root[k] = _bisect_lockstep(functools.partial(det_at, k=k), axis[b[k]],
                                   axis[b[k] + 1], glo[k], 60)
        res[k] = np.abs(det_at(root[k], k))
    T1 = np.where(fax == 0, fix, root)
    T2 = np.where(fax == 0, root, fix)

    S, T = pts[si], np.stack([T1, T2], axis=1)
    ok = (res <= _PAIR_TOL) & ~(np.abs(S - T).max(axis=1) < delta)
    rows = np.nonzero(ok)[0]
    keys = np.column_stack([si[rows],
                            np.round(T[rows] / (step / 2)).astype(np.int64)])
    return S[rows], T[rows], res[rows], keys


def find_parallel_pairs(M: ParametricManifold,
                        grid_density: Optional[int] = None,
                        delta_diag: Optional[float] = None) -> PairCloud:
    """Sample the weakly parallel pairs of M off the diagonal band.

    A scheme chosen by (n, q) and by the domain returns its refined
    candidates whose residual is at most 1e-10 as arrays (S, T, residuals,
    keys).  One tail then keeps the first hit of each key, so duplicates
    merge by parameter distance, orders the pairs lexicographically, builds
    their PairCloud in one stacked pass and keeps the weakly parallel rows
    (codim > 0).  The schemes:

    * closed curves in R^2: sign changes of the stacked-tangent determinant
      along t on the grid, refined by lockstep bisection; the brackets
      along s take the exact mirrors (t, s) of those roots.
    * surfaces in R^3 with two 2pi-periodic parameters (the torus, sampled
      surfaces): Gauss-Newton on the normal-alignment residual, with the
      analytic Jacobian of a second-order jet and the minimum-norm step, on
      the rows whose residual is at or above 1e-10.  Grid frames that drop
      rank, and a torus with R <= r even when its singular circle misses
      the grid, raise ImmersionError.
    * graph surfaces in R^4: sign changes of the reduced 2x2 determinant
      along grid lines of [-halfwidth, halfwidth]^2, refined by the same
      lockstep bisection.

    Any other manifold raises UnsupportedDimensionsError, a DomainError.
    A grid density below 2, which leaves no grid interval, raises
    DomainError, and so does a diagonal band that is not positive (or NaN),
    or wider than half the period (or than the box, for graphs), which
    would leave no pair.  The default density is 256 for curves and 24 / 16
    for the surface schemes, whose pair sets are two- and three-dimensional,
    so their sample counts grow with a power of the density instead of
    linearly.  Every scan, and the graph scheme's bisection, runs in blocks
    of at most _SCAN_PAIRS grid pairs or brackets, so at its budget a search
    peaks near 40 / 60 / 185 MB in a fresh process.  The budgets 4096 / 48 /
    64 bound time, since a scan grows with the square of a curve's density
    and the fourth power of a surface's: at the budget a search takes about
    0.35 / 0.9 / 3.4 s on a 2-core machine.  A density above its budget
    raises DomainError before any grid is built.
    """
    shape = (M.n, M.q)
    if shape == (1, 2):
        scheme, density, budget = _pairs_curve, 256, 4096
    elif shape == (2, 3) and M.periods == (TWO_PI, TWO_PI):
        scheme, density, budget = _pairs_torus, 24, 48
    elif shape == (2, 4) and M.kind == "graph_surface":
        scheme, density, budget = _pairs_graph4, 16, 64
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
    if not delta_diag > 0:          # NaN too; an infinite band is too wide
        raise DomainError(f"diagonal band {delta_diag!r} is not positive")
    # the largest distance from the diagonal
    if M.periods[0]:
        reach, what = span / 2, "half the period"
    else:
        reach, what = span, "the box width"
    if delta_diag > reach:
        raise DomainError(
            f"diagonal band {delta_diag:.6g} at density {grid_density} "
            f"exceeds {what} {reach:.6g} and covers every pair")
    if grid_density > budget:
        raise DomainError(f"grid density {grid_density} exceeds the "
                          f"budget {budget} of this pair scheme")
    S, T, residuals, keys = scheme(M, grid_density, delta_diag)
    first = _first_of_each_key(keys, S, T)
    cloud = _pair_points(M, S[first], T[first], residuals[first])
    return cloud[cloud.codim > 0]


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

    Row i is one pair: parameters s[i], t[i] (floats for curves, rows of n
    for surfaces), points a[i], b[i] on M and the lambda-point points[i] =
    lam*a[i] + (1-lam)*b[i].  `sigmas` is cumulative continuation arclength
    in parameter space.  `status` is closed | open | step_failure | cloud.
    """

    lam: float
    manifold: ParametricManifold
    s: np.ndarray
    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    points: np.ndarray
    sigmas: np.ndarray
    status: str
    degenerate: bool = False
    annotations: List[Annotation] = field(default_factory=list)

    def __len__(self):
        return len(self.points)


def _solve_rows(J, rhs):
    """Solve every 2x2 system J[i] x = rhs[i]; returns the solutions and
    the singular rows' indices.  The stacked solve runs the LAPACK call of
    a single `np.linalg.solve` on each row; it raises when any row is
    singular, and then the rows are solved one at a time."""
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0], ()
    except np.linalg.LinAlgError:
        x, singular = np.zeros((len(J), 2)), []
        for i in range(len(J)):
            try:
                x[i] = np.linalg.solve(J[i], rhs[i])
            except np.linalg.LinAlgError:
                singular.append(i)
        return x, singular


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


class _Row:
    """One march in progress: the corrector iterate (x, y), the base point
    (bx, by) of its hyperplane, the unit tangent (dx, dy), the last point
    (zx, zy) and the start (x0, y0); the step h, the tries spent on it and
    the corrector iterates spent on the current try."""

    __slots__ = ("rid", "x", "y", "bx", "by", "dx", "dy", "zx", "zy",
                 "x0", "y0", "h", "tries", "it")


class _Marches:
    """Marches along {g = 0}, one per row, advanced in lockstep.

    Row r starts at Z0[r] and follows the zero set's unit tangent, oriented
    by signs[r] at the start.  Each step predicts the point h = `step`
    ahead and Newton-corrects it onto {g = 0} within the hyperplane through
    it normal to the tangent: at most 12 iterates, each moving by at most
    1.0.  A failed corrector halves h, at most four times; a fifth failure,
    a vanishing gradient or `max_steps` accepted steps fail the march.  A
    march that steps into the diagonal band |s - t| < delta stops there,
    and one that comes back within 1.2 steps of Z0[r] in both parameters,
    after 8 points, closes.

    A pass takes one corrector iterate on every live row: one jet pass
    evaluates g and its gradient at every iterate, and one stacked solve
    takes every Newton step.  Dot products run as `np.vecdot` rows or
    `np.dot`, which round like the `@` and `np.linalg.norm` of one
    2-vector (a plain a0*b0 + a1*b1 may not: BLAS may fuse it).  The rest
    is scalar float arithmetic per row, in the order of a march run alone.
    So rows never mix, and a march depends only on its start: `start`
    starts rows at Z0, `drop` stops live rows and forgets their points, and
    `result(r)` is the march of Z0[r] whatever the schedule.
    """

    def __init__(self, M, Z0, signs, step, delta, tol, max_steps):
        self.M, self.step, self.delta, self.tol = M, step, delta, tol
        self.max_steps = max_steps
        self.Z0 = np.array(Z0, dtype=float).reshape(-1, 2)
        self.signs = np.asarray(signs, dtype=float).tolist()
        self.pts = {}                       # row -> its points, once started
        self.ends = [None] * len(self.Z0)   # (closed, failed, band) once done
        self.rows = []

    def start(self, rids):
        """Start the rows among `rids` with no points (never started, or
        dropped) at Z0: the oriented tangent and the first predicted point."""
        rids = [r for r in rids if r not in self.pts]
        if not rids:
            return
        Z = self.Z0[rids]
        _, gs, gt, _ = _g_grad(self.M, Z[:, 0], Z[:, 1])
        for rid, (x0, y0), d in zip(rids, Z.tolist(), self._tangents(
                gs.tolist(), gt.tolist())):
            self.pts[rid] = [(x0, y0)]
            if d is None or self.max_steps <= 0:
                self.ends[rid] = (False, True, None)
                continue
            row = _Row()
            row.rid, row.x0, row.y0, row.zx, row.zy = rid, x0, y0, x0, y0
            sign = self.signs[rid]
            row.dx, row.dy = d[0] * sign, d[1] * sign
            self._next_step(row)
            self.rows.append(row)

    @staticmethod
    def _tangents(gs, gt, prev=None):
        """The unit tangents (-gt, gs) / |(-gt, gs)| of {g = 0}, None where
        the gradient vanishes, each turned to have a non-negative dot
        product with its row of prev when given."""
        V = [(-b, a) for a, b in zip(gs, gt)]
        out = []
        for (vx, vy), n2 in zip(V, np.vecdot(V, V).tolist()):
            nrm = math.sqrt(n2)
            out.append((vx / nrm, vy / nrm) if nrm != 0 else None)
        if prev is not None:
            turn = np.vecdot([d or (0.0, 0.0) for d in out], prev).tolist()
            out = [(-d[0], -d[1]) if d is not None and c < 0 else d
                   for d, c in zip(out, turn)]
        return out

    def result(self, r):
        """(points, closed, failed, band) of a finished row.  `band` is the
        row's last point outside the band with its step inside, the bracket
        `_land_on_band` bisects, or None for every other ending."""
        return (self.pts[r],) + self.ends[r]

    def done(self, r):
        return self.ends[r] is not None

    def live(self):
        """The ids of the live rows."""
        return [row.rid for row in self.rows]

    def run(self, watch=None):
        """Pass until no row is live.  After each pass, `watch(rows, points,
        finished)` sees the rows that took a step with their new points and
        the rows that finished; it returns rows to drop."""
        while self.rows:
            self.step_once(watch)

    def step_once(self, watch=None):
        """One pass: one corrector iterate on every live row."""
        rows = self.rows
        A = np.array([(r.x, r.y, r.x - r.bx, r.y - r.by, r.dx, r.dy)
                      for r in rows])
        g, gs, gt, scale = _g_grad(self.M, A[:, 0], A[:, 1])
        r2 = np.vecdot(A[:, 2:4], A[:, 4:6]).tolist()
        g, gs, gt, scale = g.tolist(), gs.tolist(), gt.tolist(), scale.tolist()
        tol, newton, accept = self.tol, [], []
        for i in range(len(rows)):
            if abs(g[i]) <= tol * scale[i] and abs(r2[i]) < 1e-13:
                accept.append(i)
            else:
                newton.append(i)
        finished, moved, new = [], [], []
        if newton:
            J = np.array([((gs[i], gt[i]), (rows[i].dx, rows[i].dy))
                          for i in newton])
            delta, singular = _solve_rows(J, np.array(
                [(g[i], r2[i]) for i in newton]))
            for k, (i, e, (ex, ey)) in enumerate(zip(newton, delta,
                                                      delta.tolist())):
                r = rows[i]
                r.x, r.y, r.it = r.x - ex, r.y - ey, r.it + 1
                # |delta| as np.linalg.norm takes it
                if k in singular or math.sqrt(np.dot(e, e)) > 1.0 \
                        or r.it == 12:
                    self._retry(r, finished)
        if accept:
            self._accept([rows[i] for i in accept], [gs[i] for i in accept],
                         [gt[i] for i in accept], finished, moved, new)
        if finished:
            self.rows = [r for r in rows if self.ends[r.rid] is None]
        if watch is not None and (moved or finished):
            self.drop(watch(moved, new, finished))

    def _next_step(self, r):
        r.h, r.tries = self.step, 0
        self._predict(r)

    @staticmethod
    def _predict(r):
        r.bx, r.by = r.zx + r.h * r.dx, r.zy + r.h * r.dy
        r.x, r.y, r.it = r.bx, r.by, 0

    def _retry(self, r, finished):
        """The corrector failed: halve the step, or fail the march after
        five tries."""
        r.tries += 1
        if r.tries == 5:
            self.ends[r.rid] = (False, True, None)
            finished.append(r.rid)
        else:
            r.h = r.h / 2
            self._predict(r)

    def _accept(self, rows, gs, gt, finished, moved, new):
        """The corrector converged on `rows`, with the gradient (gs, gt)
        there.  Each row leaves through the band, or takes the step, and
        then closes, fails or goes on along the new tangent.  Appends the
        ids of the rows that took the step to `moved`, and their new points
        to `new`."""
        reach, turning = 1.2 * self.step, []
        for r, a, b in zip(rows, gs, gt):
            p = (r.x, r.y)
            if _toroidal_dist(r.x, r.y) < self.delta:
                self.ends[r.rid] = (False, False, ((r.zx, r.zy), p))
                finished.append(r.rid)
                continue
            pts = self.pts[r.rid]
            pts.append(p)
            moved.append(r.rid)
            new.append(p)
            if len(pts) > 8 and \
                    _toroidal_dist(r.x, r.x0) < reach and \
                    _toroidal_dist(r.y, r.y0) < reach:
                pts.append((r.x0, r.y0))
                self.ends[r.rid] = (True, False, None)
                finished.append(r.rid)
            else:
                turning.append((r, a, b))
        if not turning:
            return
        rows, gs, gt = zip(*turning)
        for r, d in zip(rows, self._tangents(
                gs, gt, [(r.dx, r.dy) for r in rows])):
            if d is None or len(self.pts[r.rid]) > self.max_steps:
                self.ends[r.rid] = (False, True, None)
                finished.append(r.rid)
            else:
                r.zx, r.zy, (r.dx, r.dy) = r.x, r.y, d
                self._next_step(r)

    def drop(self, rids):
        """Stop the live rows among `rids` and forget their points."""
        if rids:
            rids = set(rids)
            for r in self.rows:
                if r.rid in rids:
                    del self.pts[r.rid]
            self.rows = [r for r in self.rows if r.rid not in rids]


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
        out = _toroidal_gaps(mid[:, :1], mid[:, 1:], (TWO_PI,))[:, 0] >= delta
        stay = ~(mid == np.where(out[:, None], lo[live], hi[live])).all(axis=1)
        live, mid, out = live[stay], mid[stay], out[stay]
        lo[live[out]] = mid[out]
        hi[live[~out]] = mid[~out]
    return lo


def _lambda_points(lam, A, B):
    """lam*A + (1-lam)*B, row by row; NonFiniteEquidistantError where a
    point leaves the finite floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        X = lam * A + (1 - lam) * B
    if not np.isfinite(X).all():
        raise NonFiniteEquidistantError(
            f"lambda = {lam} sends traced points outside the floats")
    return X


def _branches_from_paths(M, lam, paths):
    """One EquidistantBranch per (path, status), with the points of every
    path from one `_pair_points` pass, which raises ImmersionError at the
    first pair whose frame drops rank, at s before t."""
    P = np.concatenate([np.array(path) for path, _ in paths]) % TWO_PI
    cloud = _pair_points(M, P[:, 0], P[:, 1], np.zeros(len(P)))
    X_all = _lambda_points(lam, cloud.a, cloud.b)
    out, start = [], 0
    for path, status in paths:
        rows, start = slice(start, start + len(path)), start + len(path)
        A, B, X = cloud.a[rows], cloud.b[rows], X_all[rows]
        steps = np.linalg.norm(np.diff(np.array(path), axis=0), axis=1)
        sigmas = np.concatenate([[0.0], np.cumsum(steps)])
        scale = float(np.max(np.linalg.norm(A, axis=1))) or 1.0
        diam = float(np.max(np.ptp(X, axis=0)))
        out.append(EquidistantBranch(
            lam=float(lam), manifold=M, s=P[rows, 0], t=P[rows, 1], a=A,
            b=B, points=X, sigmas=sigmas, status=status,
            degenerate=diam < 1e-8 * scale))
    return out


def trace_equidistant(M: ParametricManifold, lam, step: float = 0.02,
                      seed_density: Optional[int] = None) \
        -> List[EquidistantBranch]:
    """Trace the affine lambda-equidistant of M.

    Curves run pseudo-arclength continuation of the parallel-pair equation
    on the parameter torus minus the diagonal band |s - t| < delta, with
    delta = 10 * 2pi / seed_density, mapping each solution through
    x = lam*a + (1-lam)*b.  Branches either close up or terminate at the
    band.  Non-curve inputs fall back to a grid-sampled point cloud (status
    "cloud") with no branch structure.  `seed_density` is the pair-search
    grid density: 128 for curves when None, and the surface scheme's own
    default otherwise.  A lambda that sends a traced point outside the
    finite floats raises NonFiniteEquidistantError, a DomainError; a
    curve's step below about 2.07e-9 raises DomainError before any search.

    The branches are decided by a sequential walk over the sorted distinct
    seeds (each pair and its swap, projected once): a seed whose grid cell,
    or whose projection's cell, lies next to a point of an accepted branch
    is skipped; otherwise its forward march, and its backward march unless
    the forward one closes, make the next branch, with band ends landed on
    the band edge.  A march depends only on its seed and direction, so the
    marches run as rows of one `_Marches`, one array pass per corrector
    iterate for all of them, scheduled speculatively by one rule: whenever
    rows of two seeds meet in a grid cell, the higher seed's rows stop and
    their points are dropped.  The band ends of this run land in one
    `_land_on_band` call, and then the walk makes its one pass; a march it
    needs that has not finished starts again from its seed, runs and lands
    in place.  The schedule decides what is computed, never what a march
    returns, so every branch, point and bit is the one that the walk gets
    from marches run one at a time.  The points of all branches come from
    one jet pass.
    """
    lam = float(lam)
    if lam in (0.0, 1.0):
        raise DegenerateLambdaError("lambda must avoid 0 and 1; those "
                                    "reproduce M")
    if M.n != 1:
        c = find_parallel_pairs(M, seed_density)
        return [EquidistantBranch(
            lam=lam, manifold=M, s=c.s, t=c.t, a=c.a, b=c.b,
            points=_lambda_points(lam, c.a, c.b), sigmas=np.zeros(len(c)),
            status="cloud")]
    # grid cells as int64 keys i * (ncells + 1) + j: a point's cell (i, j)
    # may reach ncells, while marks wrap into 0..ncells-1, so every key is
    # below (ncells + 1)^2, which must not pass 2^63
    most = math.isqrt(1 << 63) - 1
    if not TWO_PI / step <= most:
        raise DomainError(f"step {step!r} is below {TWO_PI / most:.6g}: "
                          f"the trace's int64 grid-cell keys would overflow")
    ncells = math.ceil(TWO_PI / step)
    if seed_density is None:
        seed_density = 128
    delta, tol = 10.0 * TWO_PI / seed_density, 1e-12
    seeds = find_parallel_pairs(M, seed_density)
    ST = np.column_stack([seeds.s, seeds.t])
    SP = np.unique(np.concatenate([ST, ST[:, ::-1]]), axis=0)
    Z0, usable = _project_to_zero_many(M, SP, tol)
    usable &= ~(_toroidal_gaps(Z0[:, :1], Z0[:, 1:], (TWO_PI,))[:, 0]
                < delta)
    if not usable.any():
        return []

    around = np.array([(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)])

    def cells(P):
        C = np.floor((P % TWO_PI) / step).astype(np.int64)
        return C[:, 0] * (ncells + 1) + C[:, 1], C

    def marks(P, centre=False):
        """The wrapped cells of the points P, or else of the 3 x 3 blocks
        of cells around them, as keys."""
        C = cells(P)[1]
        C = C % ncells if centre else (C[:, None, :] + around) % ncells
        return (C[..., 0] * (ncells + 1) + C[..., 1]).ravel()

    # Speculation.  Seed k of the usable seeds, in sorted order, marches
    # forward as row 2k and backward as row 2k + 1.  It starts its forward
    # row unless a lower seed's projection lies next to its own on the
    # seed grid (the seeds lie on its lines, so each reads its nearest
    # node, which rounding noise does not move).  Its backward row starts
    # once the forward one ends without closing, since the walk reads it
    # only then.  `owner` maps each cell to the lowest seed whose row has
    # a point there, from the started seeds' first points on: where rows of
    # two seeds meet, the lower one's branch is about to cover the higher.
    used = np.flatnonzero(usable)
    sp_key, z0_key = (cells(P)[0].tolist() for P in (SP[used], Z0[used]))
    node = np.rint(Z0[used] / (TWO_PI / seed_density)).astype(np.int64) \
        % seed_density
    first = np.full((seed_density, seed_density), len(used), dtype=np.int32)
    np.minimum.at(first, (node[:, 0], node[:, 1]), np.arange(len(used)))
    lowest = np.min([first[(node[:, 0] + di) % seed_density,
                           (node[:, 1] + dj) % seed_density]
                     for di, dj in around], axis=0)
    march = _Marches(M, np.repeat(Z0[used], 2, axis=0),
                     np.tile([1.0, -1.0], len(used)), step, delta, tol, 40000)
    march.start((2 * np.flatnonzero(lowest == np.arange(len(used)))).tolist())
    owner = {}

    def watch(rows, points, finished):
        if finished:
            march.start([r + 1 for r in finished
                          if r % 2 == 0 and not march.ends[r][0]])
        stop = []
        if not rows or len({r // 2 for r in march.live()}) < 2:
            return stop
        for r, c in zip(rows, marks(np.array(points), centre=True).tolist()):
            k = r // 2
            low = owner.setdefault(c, k)
            if low != k:
                owner[c], high = min(low, k), max(low, k)
                stop.extend((2 * high, 2 * high + 1))
        return stop

    live = march.live()
    march.drop(watch(live, [march.pts[r][0] for r in live], []))
    march.run(watch)
    landed = {}

    def land(rows):
        """Land the band ends of the finished rows among `rows`."""
        ends = {r: march.ends[r][2] for r in rows
                if march.done(r) and march.ends[r][2]}
        if ends:
            lo, hi = zip(*ends.values())
            landed.update(zip(ends, _land_on_band(M, lo, hi, delta, tol)))

    def finish(rows):
        """Start again, run and land the rows among `rows` not finished
        yet."""
        rows = [r for r in rows if not march.done(r)]
        if rows:
            march.start(rows)
            march.run()
            land(rows)

    land(range(len(march.Z0)))
    visited, paths = set(), []
    for k in range(len(used)):
        if sp_key[k] in visited or z0_key[k] in visited:
            continue
        f, b = 2 * k, 2 * k + 1
        if not march.done(f):
            finish([f, b])
        fwd, closed, failed, _ = march.result(f)
        if closed:
            path, status = fwd, "closed"
        else:
            finish([b])
            bwd, _, failed_b, _ = march.result(b)
            fwd, bwd = list(fwd), list(bwd)
            for pts, r in ((fwd, f), (bwd, b)):
                if r in landed and \
                        np.linalg.norm(landed[r] - pts[-1]) > 1e-9:
                    pts.append(landed[r])
            path = list(reversed(bwd[1:])) + fwd
            status = "step_failure" if (failed or failed_b) else "open"
        visited.update(marks(np.array(path)).tolist())
        if len(path) >= 2:
            paths.append((path, status))
    return _branches_from_paths(M, lam, paths) if paths else []


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


def detect_singularities(branch: EquidistantBranch) -> EquidistantBranch:
    """Annotate a traced branch with cusps and nodes.

    Cusps: sign changes of the velocity scalar of the lambda-point along
    the branch, refined by lockstep bisection on the parallel-pair
    equation.  Nodes: transverse self-intersections of the sampled polyline
    found by a bucketed segment sweep, between segments at least 12 apart
    whose angle has a sine above 0.15.  Each resolved point is
    cross-checked through the adapted-germ contact pipeline; disagreement
    or failed refinement yields the label UNRESOLVED.  This is
    `_detect_branches` on the one branch, which gives every annotation the
    bits it gets when all branches of its trace are detected together.
    """
    return _detect_branches([branch])[0]


def _detect_branches(branches):
    """`detect_singularities` on every branch of one trace, which share one
    manifold and one lambda.  The cusp brackets of all branches are refined
    in one `_refine_cusps` call, so each bisection step is one array pass
    for the whole trace; every bracket's result is the one it gets alone.
    Returns the annotated branches in order."""
    tol = 1e-13
    out = [replace(br, annotations=[]) for br in branches]
    work = [(k, br, np.column_stack([br.s, br.t]))
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
                                     "A2_cusp", ("A", (2,)))
        nodes = _find_node_candidates(br.points, br.status == "closed",
                                      12, 0.15)
        if nodes:
            ends = np.array([spos for si, sj, _ in nodes for spos in (si, sj)])
            idx = ends.astype(int)
            fr = ends % 1
            z = Z[idx] + fr[:, None] * _wrap_pi(Z[(idx + 1) % len(Z)]
                                                - Z[idx])
            zp, found_n = _project_to_zero_many(M, z, tol)
            annotations += _annotate(M, lam, idx.tolist(), zp, found_n,
                                     "A1_node", ("A", (1,)))
        annotations.sort(key=lambda a: a.index)
        out[k] = replace(br, annotations=annotations)
    return out


def _cusp_brackets(M, lam, Z, closed):
    """Sample indices i of a branch at which the velocity scalar, taken
    along the chord from each sample to the next, changes sign from sample
    i to sample i + 1: a cusp lies between the two.  The last sample of an
    open branch has no next sample; its chord is the one that reaches it."""
    last = len(Z) - 1 if closed else len(Z)
    refs, _ = _unit_chords(Z[:-1], Z[1:])
    if not closed:
        refs = np.concatenate([refs, refs[-1:]])
    hs = _cusp_velocity(M, lam, Z[:last], refs)
    pair_count = last if closed else last - 1
    i = np.arange(pair_count)
    h_i, h_j = hs[i], hs[(i + 1) % last]
    return i[~(h_i == 0.0) & ~(h_i * h_j >= 0)]


def _annotate(M, lam, index, Z, found, label, expected):
    """Annotations at the parameter rows of Z, each cross-checked by
    `classify_pair`: `label` where `found` and the class is `expected`.
    The rest are UNRESOLVED: with no pair where refinement failed, with a
    pair and no class where `classify_pair` raised, and with a pair and the
    class it gave where that class disagreed."""
    at = Z[found] % TWO_PI
    pairs = iter(_pair_points(M, at[:, 0], at[:, 1], np.zeros(len(at))))
    out = []
    for i, hit in zip(index, found):
        if not hit:
            out.append(Annotation(index=i, label="UNRESOLVED"))
            continue
        pp = next(pairs)
        try:
            got = classify_pair(M, pp, lam)
        except (ArithmeticError, ValueError):
            got = None
        agree = got is not None and (got.family, got.params) == expected
        out.append(Annotation(index=i, label=label if agree else "UNRESOLVED",
                              pair=pp, x=pp.lambda_point(lam), germ_class=got))
    return out


# --------------------------------------------------------------------------
# the float-to-exact bridge


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
    complement of their sum.  The blocks are orthonormal, Z and V principal
    vectors and U orthogonal to the rest: cond(B)^2 <= (1+S[k]) / (1-S[k])."""
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
    return np.vstack([Y, Z, Ublock, V]).T


def _chart_series(J, Binv, const, scale, n, order):
    """Chart coordinates Binv @ (.) of the Taylor series of `scale` * M at a
    point where M has the jet J, one dict per coordinate; `const` is the
    constant term."""
    xi = [dict() for _ in range(len(Binv))]
    for alpha in monomials_upto(n, order):
        vec = scale * J[alpha] if sum(alpha) else const
        w = Binv @ (vec / math.prod(map(math.factorial, alpha)))
        for r in range(len(Binv)):
            if w[r] != 0.0:
                xi[r][alpha] = float(w[r])
    return xi


def _graph_functions(xi, indep_rows, dep_rows, n, order):
    A = [xi[r] for r in indep_rows]
    Binv_series = _series_invert(A, n, order)
    return [p_compose(xi[r], Binv_series, n, order) for r in dep_rows]


def _snap_block(comps):
    mx = max((abs(c) for d in comps for c in d.values()), default=0.0)
    out = []
    for d in comps:
        nd = {}
        for e, c in d.items():
            if abs(c) <= COEFF_CLIP * mx:
                continue
            if sum(e) <= 1:
                raise FrameAlignmentError(
                    f"graph function keeps a degree-{sum(e)} term {c}; "
                    "frame alignment failed")
            nd[e] = Fraction(c).limit_denominator(SNAP_DENOMINATOR)
        out.append(nd)
    return out


def _as_lambda_fraction(lam) -> Fraction:
    if isinstance(lam, (Fraction, int, str)):
        return Fraction(lam)
    return Fraction(lam).limit_denominator(10 ** 9)


def taylor_germ_at_pair(M: ParametricManifold, pair: PairPoint, lam,
                        order: int = 3) -> GraphPair:
    """Adapted-coordinate GraphPair of a weakly parallel pair.

    The ambient chart sends a to the origin, spans the first tangent space
    by the (y, z) block and the lambda-reflected second tangent space by
    the (y, v) block; both local graphs are Taylor-expanded to `order`,
    which must lie in 2..MAX_TERM_DEGREE (ValueError before any jet).
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
    if not 2 <= order <= MAX_TERM_DEGREE:
        raise ValueError(f"bridge order {order} not in 2..{MAX_TERM_DEGREE}")
    if M.kind == "samples" and order > 3:
        raise ValueError("sampled grids carry derivatives up to order 3")
    # both ends from one jet pass; the frames are its first partials
    ends = np.array([pair.s, pair.t], dtype=float).reshape(2, n)
    J = M.jet(tuple(ends.T.copy()), order)
    Ja, Jb = J[..., 0, :], J[..., 1, :]
    F = np.stack([J[unit_exp(i, n)] for i in range(n)], axis=1)
    _check_immersed(F, ends)
    B = _adapted_basis(F[0], -(1 - lam) / lam * F[1], k, q)
    Binv = np.linalg.inv(B)
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
                  order: int = 3) -> GermClass:
    """Contact class of the equidistant at a pair: adapted germs, contact
    map, then recognition.  The contact map's own coefficients are clipped
    at COEFF_CLIP relative to its largest one before recognition, since
    differences of snapped graphs carry a cancellation floor."""
    gp = taylor_germ_at_pair(M, pair, lam, order=order)
    kappa = contact_map(gp)
    polys = kappa.polys()
    mx = max((abs(float(c)) for d in polys for c in d.values()), default=0.0)
    cleaned = [
        {e: c for e, c in d.items() if abs(float(c)) > COEFF_CLIP * mx}
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
    q = next((br.points.shape[1] for br in branches if len(br)), 0)
    header = ["branch_id", "sigma", "s", "t"] + \
        [f"x{i + 1}" for i in range(q)] + ["label"]
    lines = [",".join(header)]
    for bid, br in enumerate(branches):
        labels = {a.index: a.label for a in br.annotations}
        for i, (s, t, x) in enumerate(zip(br.s.tolist(), br.t.tolist(),
                                          br.points.tolist())):
            row = [str(bid), _fmt(br.sigmas[i] if len(br.sigmas) else 0.0),
                   _fmt_param(s), _fmt_param(t)]
            row += [_fmt(c) for c in x]
            row.append(labels.get(i, ""))
            lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b")


def write_branches_svg(branches: Sequence[EquidistantBranch],
                       path: str) -> None:
    """Polylines per branch in ambient coordinates on a 640 px square,
    over the grey outline of a curve; cusps marked with circles, nodes with
    squares.  Only the first two ambient coordinates are drawn."""
    size, outline = 640, None
    pts = [br.points[:, :2] for br in branches]
    if branches and branches[0].manifold.n == 1:
        th = np.linspace(0, TWO_PI, 512)
        outline = np.asarray(branches[0].manifold.position((th,)))[:, :2]
        pts.append(outline)
    arr = np.concatenate(pts + [np.zeros((0, 2))])
    if not len(arr):
        raise ValueError("no points to draw")
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
        path_pts = " ".join(to_px(x) for x in br.points[:, :2].tolist())
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
