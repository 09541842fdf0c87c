"""Weakly parallel pairs on surfaces: a torus and a graph in R^4.

For surfaces the pair set is a manifold rather than a curve, so the
engine returns point clouds instead of traced branches.  On the torus the
clouds organize into classical families (antipodal circles, the parabolic
circles where the Gauss map degenerates); on a generic quadratic graph in
R^4 the chord condition cuts a cone.  The exact bridge classifies a
sampled pair from each cloud.
"""

import random
from collections import Counter

from equidistants import (
    classify_pair,
    find_parallel_pairs,
    graph_surface,
    torus,
    trace_equidistant,
)


def cloud_summary(name, manifold, lam):
    branch = trace_equidistant(manifold, lam)[0]
    print("{}: {} weakly parallel pairs at lambda = {}".format(name, len(branch), lam))
    pairs = find_parallel_pairs(manifold)
    degs = Counter(p.deg_k for p in pairs)
    print("  chord degeneracy histogram: {}".format(dict(sorted(degs.items()))))
    rng = random.Random(0)
    labels = Counter()
    for pair in rng.sample(pairs, 12):
        try:
            labels[classify_pair(manifold, pair, lam).label] += 1
        except (ArithmeticError, ValueError) as exc:
            labels[str(exc)] += 1
    print("  classes of twelve sampled pairs: {}".format(dict(sorted(labels.items()))))
    print()


def main():
    cloud_summary("torus R=2 r=0.5 in R^3", torus(R=2, r=0.5), 0.5)
    print(
        "(INFINITE is real geometry: chords between antipodes of the tube\n"
        " circle all share their midpoint on the central circle, so at the\n"
        " midpoint ratio that family has no finite contact class)"
    )
    print()
    cloud_summary(
        "graph of (x^2 + y^2, x y) over a disk in R^4",
        graph_surface(components=[{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}]),
        0.5,
    )


if __name__ == "__main__":
    main()
