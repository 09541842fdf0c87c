"""Contact-side pipeline for affine equidistants.

A weakly parallel pair of submanifold germs is stored in adapted graph
coordinates as a GraphPair.  Everything else is derived from it: the
lambda-reflection, the contact map of the two germs, the local form of the
lambda-point projection restricted to their product, the contact map of the
first germ against the reflected second one, the rank-0 reduced germ, and
the three local rings whose agreement ties the projection's singularity
type to the contact class.

Coordinate blocks: y in R^k and z in R^(n-k) parametrize the first germ,
whose graph is u = phi(y,z), v = psi(y,z); the second germ is parametrized
by (ytilde, v) with z = eta(ytilde, v), u = zeta(ytilde, v).  Here
u in R^(q+k-2n) and all four component maps vanish to second order, so the
tangent spaces at the origin intersect in a k-dimensional direction after
translation.  The strongly parallel case k = n simply drops the z and v
blocks.

lambda is kept as an exact rational throughout so ring dimensions come out
of exact linear algebra rather than floating point.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Union

from .germ_algebra import (
    MAX_TERM_DEGREE,
    LocalAlgebraReport,
    MapGerm,
    Poly,
    default_order,
    local_algebra,
    mapgerm_to_dict,
    monomials_upto,
    p_add,
    p_compose,
    p_scale,
    polys_from_payload,
    rank0_reduce,
    unit_exp,
)


class DegenerateLambdaError(ValueError):
    """lambda is 0 or 1, where the lambda-reflection collapses."""

    code = "DEGENERATE_LAMBDA"


def _check_lambda(lam) -> Fraction:
    if lam is None:
        raise ValueError("no lambda given and the pair stores none")
    try:
        lam = Fraction(lam)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as err:
        raise ValueError(f"cannot read lambda from {lam!r}") from err
    if lam == 0 or lam == 1:
        raise DegenerateLambdaError("lambda must avoid 0 and 1; those "
                                    "collapse the reflection")
    return lam


# ---------------------------------------------------------------- GraphPair


@dataclass(frozen=True)
class GraphPair:
    """Two submanifold germs of dimension n in R^q, in adapted coordinates,
    with translated tangent spaces meeting in dimension k."""

    n: int
    q: int
    k: int
    phi: MapGerm
    psi: MapGerm
    eta: MapGerm
    zeta: MapGerm
    lam: Optional[Fraction] = None

    def __post_init__(self):
        n, q, k = self.n, self.q, self.k
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if q > 2 * n:
            raise ValueError(f"need q <= 2n, got n={n}, q={q}")
        if q + k - 2 * n < 1:
            raise ValueError(
                "translated tangent spaces would span the ambient space: "
                f"need q+k-2n >= 1, got n={n}, q={q}, k={k}"
            )
        shapes = {
            "phi": (self.phi, self.u_dim),
            "psi": (self.psi, self.z_dim),
            "eta": (self.eta, self.z_dim),
            "zeta": (self.zeta, self.u_dim),
        }
        for name, (g, tdim) in shapes.items():
            if g.source_dim != n:
                raise ValueError(
                    f"{name} must depend on {n} variables, got {g.source_dim}"
                )
            if g.target_dim != tdim:
                raise ValueError(
                    f"{name} must have {tdim} components, got {g.target_dim}"
                )
            for p in g.polys():
                if any(sum(exp) < 2 for exp in p):
                    raise ValueError(
                        f"{name} must vanish to second order at the origin"
                    )
        if self.lam is not None:
            object.__setattr__(self, "lam", _check_lambda(self.lam))

    @property
    def u_dim(self) -> int:
        return self.q + self.k - 2 * self.n

    @property
    def z_dim(self) -> int:
        return self.n - self.k


# ------------------------------------------------------- polynomial helpers


def _embed(p: Poly, positions: Sequence[int], total: int) -> Poly:
    """Re-index a polynomial into a larger variable tuple."""
    out: Poly = {}
    for exp, c in p.items():
        e = [0] * total
        for pos, a in zip(positions, exp):
            e[pos] = a
        out[tuple(e)] = c
    return out


def _work_order(gp: GraphPair, source_dim: int) -> int:
    top = max(g.max_degree()
              for g in (gp.phi, gp.psi, gp.eta, gp.zeta))
    return max(default_order(source_dim), top)


# ------------------------------------------------------------ contact maps


def _reflected_contact(gp: GraphPair, s: Fraction, pref: Fraction) -> MapGerm:
    """Components z + pref * eta(s y, s psi(y,z)) and
    phi(y,z) + pref * zeta(s y, s psi(y,z)), truncated at the working jet
    order."""
    n, k = gp.n, gp.k
    order = _work_order(gp, n)
    inner = [{unit_exp(i, n): s} for i in range(k)] + [
        p_scale(p, s) for p in gp.psi.polys()
    ]
    comps = [
        p_add({unit_exp(k + j, n): Fraction(1)},
              p_scale(p_compose(eta_j, inner, n, order), pref))
        for j, eta_j in enumerate(gp.eta.polys())
    ] + [
        p_add(phi_i, p_scale(p_compose(zeta_i, inner, n, order), pref))
        for phi_i, zeta_i in zip(gp.phi.polys(), gp.zeta.polys())
    ]
    return MapGerm.from_polys(comps, n, order=order)


def contact_map(gp: GraphPair) -> MapGerm:
    """kappa(y,z) = (z - eta(y, psi(y,z)), phi(y,z) - zeta(y, psi(y,z))),
    a germ (R^n,0) -> (R^(q-n),0) whose corank equals k; truncated
    composition at the working jet order."""
    return _reflected_contact(gp, Fraction(1), Fraction(-1))


def lambda_contact_from_pair(gp: GraphPair, lam=None) -> MapGerm:
    """Contact map of the first germ against the lambda-reflection of the
    second: components z + ((1-lambda)/lambda) eta(s y, s psi(y,z)) and
    phi(y,z) + ((1-lambda)/lambda) zeta(s y, s psi(y,z)) where
    s = -lambda/(1-lambda); exact in lambda."""
    lam = _check_lambda(lam if lam is not None else gp.lam)
    return _reflected_contact(gp, -lam / (1 - lam), (1 - lam) / lam)


def reduce_to_theta(kappa: MapGerm, n: int, q: int) -> Union[MapGerm, str]:
    """Rank-0 reduction of a contact map (R^n,0) -> (R^(q-n),0).  The result
    has source dim corank(kappa) and target dim corank(kappa)-(2n-q);
    REGULAR when every component is eliminated."""
    if kappa.source_dim != n or kappa.target_dim != q - n:
        raise ValueError(
            f"contact map for (n,q)=({n},{q}) must be "
            f"(R^{n},0)->(R^{q - n},0), got "
            f"(R^{kappa.source_dim},0)->(R^{kappa.target_dim},0)"
        )
    return rank0_reduce(kappa)


# ---------------------------------------------------- projection local form


def pi_tilde_local(gp: GraphPair, lam=None) -> MapGerm:
    """The lambda-point projection restricted to the product of the two
    germs, in coordinates (y, z, ytilde, v) on (R^(2n),0):

        ( lambda y + (1-lambda) ytilde,
          lambda z + (1-lambda) eta(ytilde, v),
          lambda phi(y,z) + (1-lambda) zeta(ytilde, v),
          lambda psi(y,z) + (1-lambda) v )

    Its linear part has rank 2n-k, i.e. target corank q+k-2n."""
    lam = _check_lambda(lam if lam is not None else gp.lam)
    n, k = gp.n, gp.k
    total = 2 * n
    order = _work_order(gp, total)
    lam1 = 1 - lam
    plus = list(range(n))            # (y, z)
    minus = list(range(n, total))    # (ytilde, v)
    comps: List[Poly] = []
    for i in range(k):
        comps.append({unit_exp(i, total): lam, unit_exp(n + i, total): lam1})
    for j, eta_j in enumerate(gp.eta.polys()):
        comps.append(p_add(
            {unit_exp(k + j, total): lam},
            p_scale(_embed(eta_j, minus, total), lam1),
        ))
    for phi_i, zeta_i in zip(gp.phi.polys(), gp.zeta.polys()):
        comps.append(p_add(
            p_scale(_embed(phi_i, plus, total), lam),
            p_scale(_embed(zeta_i, minus, total), lam1),
        ))
    for j, psi_j in enumerate(gp.psi.polys()):
        comps.append(p_add(
            p_scale(_embed(psi_j, plus, total), lam),
            {unit_exp(n + k + j, total): lam1},
        ))
    return MapGerm.from_polys(comps, total, order=order)


# ------------------------------------------------------------- ring checks


class RingDims(NamedTuple):
    """Local algebra reports of the three rings that must agree."""

    pi: LocalAlgebraReport
    kappa: LocalAlgebraReport
    theta: LocalAlgebraReport

    @property
    def dimensions(self) -> tuple:
        return (self.pi.dimension, self.kappa.dimension,
                self.theta.dimension)


def local_ring_dims(gp: GraphPair, lam=None,
                    order: Optional[int] = None) -> RingDims:
    """Reports for the quotients of E_2n, E_n and E_k by the component
    ideals of the projection local form, the lambda-contact map, and its
    rank-0 reduction.  The three agree; INFINITE entries are reported per
    slot.  phi, psi, eta and zeta vanish to second order, so the linear
    part of the lambda-contact map is its z-block, of rank n - k, and the
    reduction keeps its other q + k - 2n >= 1 components: the contact of a
    GraphPair is never transversal."""
    lam = _check_lambda(lam if lam is not None else gp.lam)
    pi = pi_tilde_local(gp, lam)
    kap = lambda_contact_from_pair(gp, lam)
    theta = rank0_reduce(kap)
    return RingDims(
        local_algebra(pi, order=order),
        local_algebra(kap, order=order),
        local_algebra(theta, order=order),
    )


# ------------------------------------------------------------ serialization


def graphpair_to_dict(gp: GraphPair) -> dict:
    out = {
        "n": gp.n, "q": gp.q, "k": gp.k,
        "lambda": None if gp.lam is None else
        f"{gp.lam.numerator}/{gp.lam.denominator}",
    }
    for name in ("phi", "psi", "eta", "zeta"):
        out[name] = mapgerm_to_dict(getattr(gp, name))["components"]
    return out


def graphpair_from_dict(payload: dict) -> GraphPair:
    """The GraphPair of a JSON payload; a malformed payload, or a term of
    total degree above MAX_TERM_DEGREE, is a ValueError."""
    try:
        n, q, k = (int(payload[key]) for key in ("n", "q", "k"))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ValueError("payload must carry integer n, q, k") from err
    u_dim, z_dim = q + k - 2 * n, n - k
    germs = {}
    for name, slots in (("phi", u_dim), ("psi", z_dim),
                        ("eta", z_dim), ("zeta", u_dim)):
        if name not in payload:
            raise ValueError(f"payload lacks {name}")
        polys = polys_from_payload(payload[name], slots, name)
        top = max((sum(e) for p in polys for e in p), default=0)
        if top > MAX_TERM_DEGREE:
            raise ValueError(f"{name} has a term of degree {top}, above the "
                             f"budget of {MAX_TERM_DEGREE}")
        germs[name] = MapGerm.from_polys(polys, n)
    lam = payload.get("lambda")
    return GraphPair(n, q, k, lam=lam, **germs)


def graphpair_to_json(gp: GraphPair) -> str:
    return json.dumps(graphpair_to_dict(gp), indent=2, sort_keys=True)


def graphpair_from_json(text: str) -> GraphPair:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"not valid JSON: {err}") from err
    return graphpair_from_dict(payload)


# ----------------------------------------------------------- random pairs


def random_graph_pair(n: int, q: int, k: int, seed,
                      lam=None) -> GraphPair:
    """Deterministic pseudo-random GraphPair: sparse integer-coefficient
    quadratic and cubic terms in every block."""
    rng = random.Random(f"graphpair|{seed}|{n}|{q}|{k}")
    u_dim, z_dim = q + k - 2 * n, n - k
    monos = monomials_upto(n, 3)
    quads = [m for m in monos if sum(m) == 2]
    cubes = [m for m in monos if sum(m) == 3]

    def rand_poly():
        p = {}
        for exp in quads:
            if rng.random() < 0.5:
                c = rng.randint(-2, 2)
                if c:
                    p[exp] = Fraction(c)
        for exp in cubes:
            if rng.random() < 0.25:
                c = rng.randint(-1, 1)
                if c:
                    p[exp] = Fraction(c)
        return p

    def rand_germ(slots):
        return MapGerm.from_polys([rand_poly() for _ in range(slots)], n)

    return GraphPair(
        n, q, k,
        phi=rand_germ(u_dim), psi=rand_germ(z_dim),
        eta=rand_germ(z_dim), zeta=rand_germ(u_dim),
        lam=lam,
    )
