"""The four workloads: inputs made from the seed, the operations, and the
checks each result must pass.

Every check compares against something the code under test did not
produce: stored hashes of the golden CSVs, closed-form curves, torus
normals and graph Jacobians written out here, and the (family, mu) that a
catalogue label spells.  numpy is imported only inside the two numerical
workloads, so the exact workloads pay only for what the package imports.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re

TWO_PI = 2.0 * math.pi

# sha256 of demos/output/oval_lambda_0_{5,3}.csv: trace of the three-cusp
# oval with detection, at the CLI defaults.
GOLDEN = {
    "1/2": "c8d9acf34c9970f7974dcfc10e746488829e8dbf8043c96f133a66835b8dbe05",
    "3/10": "0216e19f989ec34a119a2b4ecb50b5a9774b1e352fd6e4ec65a7a256e20ceb9a",
}

# The published stable-type rows of the ten nice (n, q), as labels.
CLASS_LABELS = (
    ["A%d" % m for m in range(1, 9)]
    + ["D%d%s" % (m, s) for m in range(4, 8) for s in "+-"]
    + ["E6", "E7", "S5", "S6", "S7", "T7", "Ttilde7"]
    + ["C%d,%d%s" % (k, l, s)
       for k, l in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4),
                    (3, 5), (4, 4))
       for s in "+-"]
    + ["Ctilde6", "Ctilde8", "F7", "F8"]
)
THREE_VARIABLE = {"S", "T", "Ttilde"}
NICE_PAIRS = ((1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (4, 5), (4, 7),
              (4, 8), (5, 6))
RING_COMBOS = ((1, 2, 1), (2, 4, 1), (2, 4, 2), (3, 6, 1), (3, 6, 2),
               (3, 6, 3))
RING_PAIR_SEEDS = 4


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


class Op:
    """One timed call (`run`) and the check of its result (`check`)."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def call_cli(argv):
    """`equidistants.cli.main` in-process; returns (code, stdout, stderr)."""
    from equidistants import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expect_exit_0(result):
    code, _, err = result
    expect(code == 0, "exit code %s: %s" % (code, err.strip()))


def label_class(label):
    """(family, mu) spelled by a catalogue label such as C2,4+ or Ttilde7."""
    m = re.fullmatch(r"([A-Za-z]+?)(\d+)(?:,(\d+))?[+-]?", label)
    family, first, second = m.group(1), int(m.group(2)), m.group(3)
    return family, first + (int(second) if second else 0)


def draw_ratio(rng):
    """A rational p/q in (0, 1) other than 1/2, as (p, q)."""
    while True:
        q = rng.randint(5, 12)
        p = rng.randint(1, q - 1)
        if 2 * p != q:
            return p, q


class Workload:
    name = ""
    limit_s = 0.0

    def __init__(self, seed, workdir):
        self.rng = random.Random("perfbench|%s|%d" % (self.name, seed))
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self, name, payload):
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str)
                     else json.dumps(payload))
        return self.path(name)

    def setup(self):
        """Make and serialize the inputs; warm caches."""

    def cycle(self, index):
        """The ops of one cycle; the timed phase runs whole cycles."""
        raise NotImplementedError


# ---------------------------------------------------------------- curves


def _oval(theta, deriv):
    """r = 1 + 0.2 cos 3 theta in polar form: position or tangent."""
    import numpy as np
    r = 1.0 + 0.2 * np.cos(3.0 * theta)
    c, s = np.cos(theta), np.sin(theta)
    if not deriv:
        return np.stack([r * c, r * s], axis=-1)
    dr = -0.6 * np.sin(3.0 * theta)
    return np.stack([dr * c - r * s, dr * s + r * c], axis=-1)


def _ellipse(theta, deriv):
    """(2 cos theta, sin theta): position or tangent."""
    import numpy as np
    if not deriv:
        return np.stack([2.0 * np.cos(theta), np.sin(theta)], axis=-1)
    return np.stack([-2.0 * np.sin(theta), np.cos(theta)], axis=-1)


def _read_trace_csv(path):
    import numpy as np
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = [line.split(",") for line in raw.decode("utf-8").splitlines()[1:]]
    branch = np.array([int(r[0]) for r in rows])
    cols = np.array([[float(v) for v in r[2:6]] for r in rows])
    return raw, branch, cols


def _polyline_distance(points, branch, polyline):
    """Largest distance from `points` to the segments joining consecutive
    samples of one branch of `polyline`."""
    import numpy as np
    keep = branch[:-1] == branch[1:]
    a, b = polyline[:-1][keep], polyline[1:][keep]
    ab = b - a
    worst = 0.0
    for lo in range(0, len(points), 256):
        p = points[lo:lo + 256, None, :]
        denom = np.maximum((ab * ab).sum(-1), 1e-300)
        t = np.clip(((p - a) * ab).sum(-1) / denom, 0.0, 1.0)
        d = np.linalg.norm(p - (a + t[..., None] * ab), axis=-1).min(axis=1)
        worst = max(worst, float(d.max()))
    return worst


class CurveTrace(Workload):
    """`trace` of the three-cusp oval and of ellipse(2, 1)."""

    name = "curve_trace"
    limit_s = 30.0
    cycles_drawn = 64

    def setup(self):
        self.files = {
            "oval": self.write("oval.json", {"kind": "fourier_oval",
                                             "a": [0.0, 0.0, 0.2], "b": []}),
            "ellipse": self.write("ellipse.json",
                                  {"kind": "ellipse", "a": 2.0, "b": 1.0}),
        }
        self.ratios = [(draw_ratio(self.rng), draw_ratio(self.rng))
                       for _ in range(self.cycles_drawn)]

    def cycle(self, index):
        (p, q), (pe, qe) = self.ratios[index % self.cycles_drawn]
        state = {}
        return [
            self._op("oval", "1/2", state, golden=True),
            self._op("oval", "%d/%d" % (p, q), state, first=True),
            self._op("oval", "%d/%d" % (q - p, q), state, complement=True),
            self._op("oval", "3/10", state, golden=True),
            self._op("ellipse", "%d/%d" % (pe, qe), state),
            self._op("ellipse", "1/2", state),
        ]

    def _op(self, curve, lam, state, golden=False, first=False,
            complement=False):
        out = self.path("trace_%s" % curve)
        argv = ["trace", "--input", self.files[curve], "--lambda", lam,
                "--out", out, "--json"]

        def check(result):
            import numpy as np
            expect_exit_0(result)
            summary = json.loads(result[1])
            raw, branch, cols = _read_trace_csv(out + ".csv")
            expect(len(cols) == sum(b["samples"] for b in summary["branches"]),
                   "CSV rows disagree with the branch summary")
            if golden:
                expect(hashlib.sha256(raw).hexdigest() == GOLDEN[lam],
                       "CSV differs from the golden file")
                return
            p_, q_ = (int(v) for v in lam.split("/"))
            lam_f = p_ / q_
            s, t, x = cols[:, 0], cols[:, 1], cols[:, 2:4]
            curve_fn = _oval if curve == "oval" else _ellipse
            want = (lam_f * curve_fn(s, False)
                    + (1 - lam_f) * curve_fn(t, False))
            expect(np.abs(x - want).max() <= 1e-8,
                   "points are not lambda-points of their pairs")
            ts, tt = curve_fn(s, True), curve_fn(t, True)
            cross = np.abs(ts[:, 0] * tt[:, 1] - ts[:, 1] * tt[:, 0])
            scale = np.linalg.norm(ts, axis=1) * np.linalg.norm(tt, axis=1)
            expect((cross <= 1e-8 * scale).all(), "pairs are not parallel")
            gap = np.abs((s - t + math.pi) % TWO_PI - math.pi)
            expect(gap.min() > 0.4, "pair inside the diagonal band")
            if curve == "ellipse":
                # parallel tangents sit at t = s + pi, so E_mu is the
                # ellipse scaled by 2 mu - 1 (the centre at mu = 1/2)
                k = 2 * lam_f - 1
                expect(np.abs(x - k * _ellipse(s, False)).max() <= 1e-8,
                       "ellipse equidistant is not the scaled ellipse")
            elif first:
                state["points"] = (branch, x)
            elif complement and "points" in state:
                dist = _polyline_distance(x, *state["points"])
                expect(dist <= 1e-3, "E_lambda != E_(1-lambda): %.2e" % dist)

        return Op("%s lambda=%s" % (curve, lam), lambda: call_cli(argv), check)


# -------------------------------------------------------------- surfaces


def _torus_normal(u, v):
    import numpy as np
    return np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u),
                     np.sin(v)], axis=-1)


def _torus_point(u, v):
    import numpy as np
    rho = 2.0 + 0.5 * np.cos(v)
    return np.stack([rho * np.cos(u), rho * np.sin(u), 0.5 * np.sin(v)],
                    axis=-1)


def _angle_gap(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def _torus_midpoint_degenerate(s, t):
    """Pairs (u, v), (u, v + pi) on one tube circle and (u, v), (u + pi, -v)
    symmetric through the centre: their midpoints fill a circle and a point,
    so the midpoint contact is of infinite codimension."""
    (u1, v1), (u2, v2) = s, t
    tube = _angle_gap(u1, u2) < 1e-6 and _angle_gap(v2, v1 + math.pi) < 1e-6
    central = (_angle_gap(u2, u1 + math.pi) < 1e-6
               and _angle_gap(v2, -v1) < 1e-6)
    return tube or central


class SurfacePairs(Workload):
    """`find_parallel_pairs` on torus(2, 0.5) and on the R^4 graph of
    (x^2 + y^2, x y), then `classify_pair` at lambda = 1/2 on a sample."""

    name = "surface_pairs"
    limit_s = 30.0
    sample = 24
    cycles_drawn = 64

    def setup(self):
        self.files = {
            "torus": self.write("torus.json",
                                {"kind": "torus", "R": 2.0, "r": 0.5}),
            "graph4": self.write("graph4.json", {
                "kind": "graph_surface", "halfwidth": 1.0, "components": [
                    [{"coeff": 1.0, "exponents": [2, 0]},
                     {"coeff": 1.0, "exponents": [0, 2]}],
                    [{"coeff": 1.0, "exponents": [1, 1]}]]}),
        }
        self.picks = [[self.rng.random() for _ in range(2 * self.sample)]
                      for _ in range(self.cycles_drawn)]

    def cycle(self, index):
        picks = self.picks[index % self.cycles_drawn]
        ops = []
        for k, surface in enumerate(("torus", "graph4")):
            cloud = {}
            ops.append(self._pairs_op(surface, cloud))
            for j in range(self.sample):
                ops.append(self._classify_op(surface, cloud,
                                             picks[k * self.sample + j]))
        return ops

    def _pairs_op(self, surface, cloud):
        def run():
            from equidistants import find_parallel_pairs, manifold_from_json
            with open(self.files[surface], encoding="utf-8") as fh:
                cloud["M"] = manifold_from_json(fh.read())
            cloud["pairs"] = find_parallel_pairs(cloud["M"])
            return cloud["pairs"]

        def check(pairs):
            import numpy as np
            expect(len(pairs) > 0, "no pairs found")
            s = np.array([p.s for p in pairs], dtype=float)
            t = np.array([p.t for p in pairs], dtype=float)
            if surface == "torus":
                cross = np.cross(_torus_normal(s[:, 0], s[:, 1]),
                                 _torus_normal(t[:, 0], t[:, 1]))
                resid = np.linalg.norm(cross, axis=1)
                a = np.array([p.a for p in pairs])
                expect(np.abs(a - _torus_point(s[:, 0], s[:, 1])).max()
                       <= 1e-9, "pair points are off the torus")
            else:
                # f = (y1^2 + y2^2, y1 y2) has Jacobian [[2y1, 2y2], [y2, y1]],
                # so det(Df(t) - Df(s)) = 2 (d1^2 - d2^2) with d = t - s
                d = t - s
                resid = np.abs(2.0 * (d[:, 0] ** 2 - d[:, 1] ** 2))
            expect(resid.max() <= 1e-8, "pair is not weakly parallel")
            expect(np.abs(s - t).max(axis=1).min() > 1e-6, "pair on diagonal")

        return Op("%s pairs" % surface, run, check)

    def _classify_op(self, surface, cloud, pick):
        label = "%s classify_pair" % surface

        def run():
            from equidistants import classify_pair
            pair = cloud["pairs"][int(pick * len(cloud["pairs"]))]
            try:
                return pair, classify_pair(cloud["M"], pair, 0.5).label
            except ArithmeticError as exc:
                return pair, str(exc)

        def check(result):
            pair, got = result
            if surface == "graph4":
                # published (n, q) = (2, 4) row for k = 1
                expect(got in ("A1", "A2", "A3", "A4"), "class %s" % got)
            elif _torus_midpoint_degenerate(pair.s, pair.t):
                expect(got == "INFINITE", "degenerate pair gave %s" % got)
            else:
                # published (n, q) = (2, 3) row for k = 2
                expect(got in ("A1", "A2", "A3"), "class %s" % got)

        return Op(label, run, check)


# ----------------------------------------------------------------- germs


class GermClassify(Workload):
    """`classify --json` on contact-moved catalogue germs.

    A moved 3-variable germ costs 0.1 to 0.6 s depending on its move, and
    a 20 s run classifies only about 45 of them.  Move seeds drawn from
    all integers made `ops_per_s` spread by 0.11 between workload seeds,
    and drawn 10 of 12 still by 0.085.  So every class uses move seeds
    0..`move_seeds`-1, one per cycle, in an order drawn from the seed; a
    run of 7 or more cycles sees nearly all of them."""

    name = "germ_classify"
    limit_s = 10.0
    move_seeds = 8

    def setup(self):
        from equidistants import (mapgerm_to_json, normal_form, parse_label,
                                  random_k_move, recognize,
                                  stable_singularities)
        for n, q in NICE_PAIRS:
            stable_singularities(n, q)
        forms = {}
        for label in CLASS_LABELS:
            cls = parse_label(label)
            forms[label] = normal_form(cls, cls.intrinsic_source)
            recognize(forms[label])
        # spread the costly 3-variable classes evenly through a round
        heavy = [c for c in CLASS_LABELS
                 if label_class(c)[0] in THREE_VARIABLE]
        light = [c for c in CLASS_LABELS if c not in heavy]
        step = len(CLASS_LABELS) // len(heavy)
        order = []
        for i, label in enumerate(heavy):
            order += light[i * (step - 1):(i + 1) * (step - 1)] + [label]
        self.order = order + light[len(heavy) * (step - 1):]
        moves = {label: self.rng.sample(range(self.move_seeds),
                                        self.move_seeds)
                 for label in self.order}
        self.rounds = []
        for r in range(self.move_seeds):
            files = {}
            for i, label in enumerate(self.order):
                files[label] = self.write(
                    "germ_%d_%d.json" % (r, i),
                    mapgerm_to_json(random_k_move(forms[label],
                                                  moves[label][r])))
            self.rounds.append(files)

    def cycle(self, index):
        files = self.rounds[index % self.move_seeds]
        return [self._op(label, files[label]) for label in self.order]

    def _op(self, label, path):
        family, mu = label_class(label)

        def check(result):
            expect_exit_0(result)
            got = json.loads(result[1])
            expect((got["family"], got["mu"]) == (family, mu),
                   "%s recognized as %s mu=%s" % (label, got["label"],
                                                  got["mu"]))

        argv = ["classify", "--germ", path, "--json"]
        return Op("%s (%s)" % (label, os.path.basename(path)),
                  lambda: call_cli(argv), check)


# ----------------------------------------------------------------- rings


class ContactRings(Workload):
    """`ringdims --json --lambda 1/3` on random graph pairs.

    The input set is fixed: pair seeds 0..3 of every (n, q, k).  The seed
    only orders each cycle.  A few pairs run past the latency limit (see
    README.md); which ones land in a run must not depend on the seed, or
    the time they burn would swing every rate metric between seeds."""

    name = "contact_rings"
    limit_s = 2.5

    def setup(self):
        from equidistants import graphpair_to_json, random_graph_pair
        self.inputs = []
        for combo in RING_COMBOS:
            for pair_seed in range(RING_PAIR_SEEDS):
                gp = random_graph_pair(*combo, seed=pair_seed)
                name = "pair_%d%d%d_%d.json" % (combo + (pair_seed,))
                self.inputs.append((combo, pair_seed,
                                    self.write(name, graphpair_to_json(gp))))

    def cycle(self, index):
        order = list(self.inputs)
        self.rng.shuffle(order)
        return [self._op(*item) for item in order]

    def _op(self, combo, pair_seed, path):
        def check(result):
            expect_exit_0(result)
            got = json.loads(result[1])
            dims = [got[r]["dimension"] for r in ("pi", "kappa", "theta")]
            if "INFINITE" not in dims:
                expect(dims[0] == dims[1] == dims[2], "dimensions %s" % dims)
                hilb = [got[r]["hilbert"] for r in ("pi", "kappa", "theta")]
                expect(hilb[0] == hilb[1] == hilb[2], "Hilbert functions %s"
                       % hilb)

        argv = ["ringdims", "--input", path, "--lambda", "1/3", "--json"]
        return Op("combo=(%d,%d,%d) pair_seed=%d" % (combo + (pair_seed,)),
                  lambda: call_cli(argv), check)


WORKLOADS = {w.name: w for w in (CurveTrace, SurfacePairs, GermClassify,
                                 ContactRings)}
