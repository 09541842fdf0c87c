"""End-to-end checks of the package's headline guarantees.

Each section pins one externally visible promise at a fixed tolerance:
the classification table and its runtime, exact codimension values for
every named family, the corank law for seeded contact maps, agreement of
the three local rings, invariance under contact-group moves, and the
geometric accuracy and speed of the curve pipeline.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from scipy.spatial import cKDTree

import oracle_tools as oracle
from api_extras import (
    clear_mu_cache,
    densify_branch,
    projection_rank_residuals,
)
from engine_oracle import both_engines
from equidistants import (
    INFINITE,
    NotNiceDimensionsError,
    contact_map,
    corank,
    detect_singularities,
    ellipse,
    fourier_oval,
    hilbert_prefix,
    ke_codimension,
    ke_quotient_hilbert,
    local_algebra,
    local_ring_dims,
    normal_form,
    parse_label,
    random_graph_pair,
    random_k_move,
    recognize,
    stable_singularities,
    trace_equidistant,
)
from equidistants.geometry_engine import TAU_RANK
from equidistants.normal_forms import _EIH_DEPTH

NICE_PAIRS = [
    (1, 2), (2, 3), (2, 4), (3, 4), (3, 5),
    (3, 6), (4, 5), (4, 7), (4, 8), (5, 6),
]

REJECTED_PAIRS = [(4, 6), (5, 7), (5, 8), (5, 9), (5, 10)]


def A(top):
    return ["A{}".format(m) for m in range(1, top + 1)]

def D(lo, hi):
    return ["D{}{}".format(m, s) for m in range(lo, hi + 1) for s in "+-"]

def C(pairs):
    return ["C{},{}{}".format(k, l, s) for (k, l) in pairs for s in "+-"]


EXPECTED_ROWS = {
    (1, 2): {1: A(2)},
    (2, 3): {2: A(3)},
    (2, 4): {1: A(4), 2: C([(2, 2)])},
    (3, 4): {3: A(4) + D(4, 4)},
    (3, 5): {2: A(5) + D(4, 5), 3: ["S5"]},
    (3, 6): {1: A(6), 2: C([(2, 2), (2, 3), (2, 4), (3, 3)]) + ["Ctilde6"]},
    (4, 5): {4: A(5) + D(4, 5)},
    (4, 7): {
        2: A(7) + D(4, 7) + ["E6", "E7"],
        3: ["S5", "S6", "S7", "T7", "Ttilde7"],
    },
    (4, 8): {
        1: A(8),
        2: C([(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (4, 4)])
        + ["Ctilde6", "Ctilde8", "F7", "F8"],
    },
    (5, 6): {5: A(6) + D(4, 6) + ["E6"]},
}

INTERPRETED = {
    (3, 6): {"Ctilde6": "C6"},
    (4, 8): {"Ctilde6": "C6", "Ctilde8": "C8"},
}


# ---------------------------------------------------- classification table


def test_stable_table_matches_published_rows_within_time_budget():
    clear_mu_cache()
    start = time.perf_counter()
    listings = {pair: stable_singularities(*pair) for pair in NICE_PAIRS}
    rejections = []
    for pair in REJECTED_PAIRS:
        try:
            stable_singularities(*pair)
        except NotNiceDimensionsError:
            rejections.append(pair)
    elapsed = time.perf_counter() - start

    for pair, listing in listings.items():
        expected = EXPECTED_ROWS[pair]
        for row in listing.rows:
            if row.k in expected:
                assert [c.label for c in row.entries] == expected[row.k], (pair, row.k)
            else:
                assert list(row.entries) == [], (pair, row.k)
        assert set(expected) <= {row.k for row in listing.rows}
        assert listing.interpreted == INTERPRETED.get(pair, {}), pair
    assert rejections == REJECTED_PAIRS
    assert elapsed < 5.0, "table sweep took {:.2f}s".format(elapsed)


# ---------------------------------------------------- codimension values

NAMED_SUBSCRIPTS = (
    A(8)
    + D(4, 7)
    + ["E6", "E7"]
    + C([(k, l) for k in range(2, 5) for l in range(k, 9 - k)])
    + ["Ctilde6", "Ctilde8", "F7", "F8", "S5", "S6", "S7", "T7", "Ttilde7"]
)


@pytest.mark.parametrize("label", NAMED_SUBSCRIPTS)
def test_computed_codimension_equals_subscript(label):
    cls = parse_label(label)
    form = normal_form(cls, cls.intrinsic_source)
    assert ke_codimension(form) == cls.mu


def test_mu_of_e8_is_eight():
    cls = parse_label("E8")
    assert ke_codimension(normal_form(cls, cls.intrinsic_source)) == 8


def test_mu_of_u7_exceeds_seven():
    # Tests the usual explanation for U7's absence from the published (4,7)
    # row, that its codimension exceeds q = 7, and finds it false: mu(U7)
    # is exactly 7 (Le-Greuel: 8 - mu(y1^2 + y2*y3) = 7; the form is
    # quasi-homogeneous, so mu = tau), confirmed by the sympy oracle, and
    # S7, T7 and Ttilde7 share that codimension yet stay in the row.  The
    # omission is a publication-fidelity exclusion, recorded on the row.
    syms = sympy.symbols("y1 y2 y3")
    u7 = normal_form(parse_label("U7"), 3)
    assert ke_codimension(u7) == 7
    comps = [sympy.Poly.from_dict(c, *syms).as_expr()
             for c in u7.components]
    assert comps == [syms[0]**2 + syms[1] * syms[2], syms[0] * syms[1] + syms[2]**3]
    assert oracle.ke_dimension(comps, syms, 5) == 7

    row = {r.k: r for r in stable_singularities(4, 7).rows}[3]
    entries = [c.label for c in row.entries]
    for label in ("S7", "T7", "Ttilde7"):
        assert ke_codimension(normal_form(parse_label(label), 3)) == 7, label
        assert label in entries, label
    assert "U7" not in entries
    assert "U7" in [c.label for c, _ in row.excluded]


# ---------------------------------------------------- corank law

CORANK_COMBOS = ((1, 2, 1), (2, 3, 2), (2, 4, 1), (2, 4, 2), (3, 5, 2), (3, 5, 3))


def test_corank_of_contact_map_equals_k_on_200_seeded_pairs():
    for i in range(200):
        n, q, k = CORANK_COMBOS[i % len(CORANK_COMBOS)]
        gp = random_graph_pair(n, q, k, seed=i)
        assert corank(contact_map(gp)) == k, (n, q, k, i)


def test_seeded_contact_maps_match_the_fraction_engine():
    # at truncation 4, which keeps the Fraction oracle affordable on the
    # three-variable maps whose curve-shaped quotients climb to order 10
    def reports():
        out = []
        for i in range(200):
            kappa = contact_map(random_graph_pair(
                *CORANK_COMBOS[i % len(CORANK_COMBOS)], seed=i))
            r = local_algebra(kappa, order=4)
            out.append((r.dimension, r.hilbert, r.basis, r.stabilized))
        return out

    modular, exact = both_engines(reports)
    assert modular == exact


# ---------------------------------------------------- local-ring equality

RING_QUOTAS = (
    ((1, 2, 1), 30),
    ((2, 4, 1), 25),
    ((2, 4, 2), 25),
    ((3, 6, 1), 10),
    ((3, 6, 2), 8),
    ((3, 6, 3), 2),
)


def test_hundred_finite_contact_pairs_have_matching_rings():
    lam = Fraction(1, 3)
    checked = 0
    for combo, quota in RING_QUOTAS:
        found = 0
        seed = 0
        while found < quota:
            assert seed < 8 * quota, "too few finite-contact pairs at {}".format(combo)
            gp = random_graph_pair(*combo, seed=seed)
            seed += 1
            dims = local_ring_dims(gp, lam)
            d_pi, d_kappa, d_theta = dims.dimensions
            if INFINITE in (d_pi, d_kappa, d_theta):
                continue
            assert d_pi == d_kappa == d_theta, (combo, seed - 1, dims.dimensions)
            assert dims.pi.hilbert == dims.kappa.hilbert == dims.theta.hilbert
            found += 1
        checked += found
    assert checked == 100


def test_ring_pairs_match_the_fraction_engine():
    # the pairs of the test above, finite and INFINITE alike
    lam = Fraction(1, 3)
    pairs = []
    for combo, quota in RING_QUOTAS:
        found = seed = 0
        while found < quota:
            gp = random_graph_pair(*combo, seed=seed)
            seed += 1
            pairs.append(gp)
            found += INFINITE not in local_ring_dims(gp, lam).dimensions

    def rings():
        out = []
        for gp in pairs:
            dims = local_ring_dims(gp, lam)
            out.append((dims.dimensions, dims.pi.hilbert, dims.kappa.hilbert,
                        dims.theta.hilbert))
        return out

    modular, exact = both_engines(rings)
    assert modular == exact


# ---------------------------------------------------- contact-group moves


def _catalogue_forms():
    forms = {}
    for pair in NICE_PAIRS:
        for row in stable_singularities(*pair).rows:
            for cls in row.entries:
                forms.setdefault(cls.label, cls)
    return [forms[label] for label in sorted(forms)]


@pytest.mark.parametrize("cls", _catalogue_forms(), ids=lambda c: c.label)
def test_k_moves_preserve_mu_corank_and_family(cls):
    form = normal_form(cls, cls.intrinsic_source)
    mu = ke_codimension(form)
    co = corank(form)
    assert mu == cls.mu
    for seed in range(100):
        moved = random_k_move(form, seed=seed)
        assert ke_codimension(moved) == mu, (cls.label, seed)
        assert corank(moved) == co, (cls.label, seed)
        assert recognize(moved).family == cls.family, (cls.label, seed)


@pytest.mark.parametrize("cls", _catalogue_forms(), ids=lambda c: c.label)
def test_k_move_sweep_matches_the_fraction_engine(cls):
    # the exact-engine inputs of the sweep above: the codimension is the
    # sum of the Ke-Hilbert function, and recognition reads it together
    # with the ideal Hilbert prefix
    form = normal_form(cls, cls.intrinsic_source)
    moved = [random_k_move(form, seed=seed) for seed in range(100)]

    def invariants():
        return [(ke_quotient_hilbert(g), hilbert_prefix(g, _EIH_DEPTH))
                for g in moved]

    modular, exact = both_engines(invariants)
    assert modular == exact


# ---------------------------------------------------- curve pipeline

SIGMA_GAP = 2e-3


def _polyline_segments(branches):
    segments = []
    for branch in branches:
        if branch.status == "cloud" or branch.degenerate or len(branch) < 2:
            continue
        fine = densify_branch(branch, max_sigma_gap=SIGMA_GAP)
        points = fine.points
        segments.append(points)
        if fine.status == "closed":
            segments.append(np.vstack([points[-1], points[0]]))
    return segments


def _one_sided_hausdorff(points, segments):
    starts = np.vstack([s[:-1] for s in segments])
    ends = np.vstack([s[1:] for s in segments])
    mids = 0.5 * (starts + ends)
    _, idx = cKDTree(mids).query(points, k=min(8, len(mids)))
    if idx.ndim == 1:
        idx = idx[:, None]
    best = np.full(len(points), np.inf)
    for j in range(idx.shape[1]):
        a = starts[idx[:, j]]
        ab = ends[idx[:, j]] - a
        denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
        t = np.clip(np.einsum("ij,ij->i", points - a, ab) / denom, 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(points - (a + t[:, None] * ab), axis=1))
    return best.max()


def _hausdorff(seg_a, seg_b):
    pts_a = np.vstack(seg_a)
    pts_b = np.vstack(seg_b)
    return max(_one_sided_hausdorff(pts_a, seg_b), _one_sided_hausdorff(pts_b, seg_a))


def _distinct_points(annotations, labels, tol=1e-3):
    found = []
    for ann in annotations:
        if ann.label not in labels:
            continue
        x = np.asarray(ann.x)
        if all(np.linalg.norm(x - y) > tol for y in found):
            found.append(x)
    return found


@pytest.fixture(scope="module")
def curve_pipeline():
    start = time.perf_counter()
    curves = {"ellipse": ellipse(2.0, 1.0), "oval": fourier_oval(a=[0.0, 0.0, 0.2])}
    traces = {}
    for name, curve in curves.items():
        for lam in (0.3, 0.4, 0.6, 0.7):
            traces[(name, lam)] = trace_equidistant(curve, lam)
    ellipse_half = trace_equidistant(curves["ellipse"], 0.5)
    oval_half = [detect_singularities(b) for b in trace_equidistant(curves["oval"], 0.5)]
    oval_03 = [detect_singularities(b) for b in traces[("oval", 0.3)]]

    hausdorff = {}
    for name in curves:
        for lam in (0.3, 0.4):
            hausdorff[(name, lam)] = _hausdorff(
                _polyline_segments(traces[(name, lam)]),
                _polyline_segments(traces[(name, 1.0 - lam)]),
            )

    residual = 0.0
    for branches in list(traces.values()) + [ellipse_half, oval_half]:
        for branch in branches:
            residual = max(residual, projection_rank_residuals(branch).max())

    elapsed = time.perf_counter() - start
    return {
        "ellipse_half": ellipse_half,
        "oval_half": oval_half,
        "oval_03": oval_03,
        "hausdorff": hausdorff,
        "residual": residual,
        "elapsed": elapsed,
    }


def test_ellipse_midpoint_set_collapses_to_center(curve_pipeline):
    worst = 0.0
    for branch in curve_pipeline["ellipse_half"]:
        worst = max(worst, float(np.linalg.norm(branch.points, axis=1).max()))
    assert worst <= 1e-6


def test_equidistants_symmetric_under_ratio_complement(curve_pipeline):
    for key, value in curve_pipeline["hausdorff"].items():
        assert value <= 1e-5, (key, value)


def test_oval_midpoint_caustic_has_three_cusps_all_a2(curve_pipeline):
    closed = [b for b in curve_pipeline["oval_half"] if b.status == "closed"]
    assert len(closed) == 1
    branch = closed[0]
    cusp_anns = [a for a in branch.annotations if a.label == "A2_cusp"]
    assert cusp_anns and not [a for a in branch.annotations if a.label == "UNRESOLVED"]
    for ann in cusp_anns:
        assert (ann.germ_class.family, ann.germ_class.params) == ("A", (2,))
    cusps = _distinct_points(branch.annotations, {"A2_cusp"})
    assert len(cusps) == 3
    assert len(cusps) % 2 == 1 and len(cusps) >= 3
    assert not _distinct_points(branch.annotations, {"A1_node"})


def test_offcenter_oval_crossings_all_a1(curve_pipeline):
    branch = max(curve_pipeline["oval_03"], key=len)
    node_anns = [a for a in branch.annotations if a.label == "A1_node"]
    assert node_anns and not [a for a in branch.annotations if a.label == "UNRESOLVED"]
    for ann in node_anns:
        assert (ann.germ_class.family, ann.germ_class.params) == ("A", (1,))
    assert len(_distinct_points(branch.annotations, {"A1_node"})) == 3


def test_traced_points_sit_on_degenerate_chords(curve_pipeline):
    assert curve_pipeline["residual"] < TAU_RANK


def test_curve_pipeline_fits_time_budget(curve_pipeline):
    assert curve_pipeline["elapsed"] < 60.0, curve_pipeline["elapsed"]
