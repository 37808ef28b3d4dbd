#!/usr/bin/env python3
"""Measure worst-case numerical drift of the sphere distance.

Sweeps random sphere pairs through random boundary-preserving maps and the
null-vector model, reporting the largest relative deviations from exact
invariance. All deviations should sit many orders of magnitude below the
1e-9 contracts.
"""

import argparse
import math

import numpy as np

from kissgeo.kissing import (
    Dilation,
    InversionSphere,
    Plane,
    Reflection,
    Sphere,
    Translation,
    apply_generator,
    distance,
    distance_sq,
    invert,
    normalize_pair,
)
from kissgeo.lightcone import from_lightcone, minkowski_inner, to_lightcone


def sample_sphere(rng, n):
    return Sphere(
        tangent=tuple(2.0 * rng.normal(size=n - 1)),
        diameter=float(np.exp(rng.uniform(-1.0, 1.0))),
    )


def sample_generator(rng, n, avoid):
    kind = rng.integers(4)
    if kind == 0:
        while True:
            center = tuple(3.0 * rng.normal(size=n - 1))
            if all(np.linalg.norm(np.array(center) - np.array(t)) > 0.3 for t in avoid):
                return InversionSphere(center, float(np.exp(rng.uniform(-0.5, 0.5))))
    if kind == 1:
        return Reflection(tuple(rng.normal(size=n - 1)), float(rng.normal()))
    if kind == 2:
        return Dilation(float(np.exp(rng.uniform(-1.0, 1.0))))
    return Translation(tuple(rng.normal(size=n - 1)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=5000)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    worst_invariance = 0.0
    worst_normalize = 0.0
    worst_isometry = 0.0
    worst_round_trip = 0.0
    for _ in range(args.pairs):
        p, q = sample_sphere(rng, args.n), sample_sphere(rng, args.n)
        d = distance(p, q)

        g = sample_generator(rng, args.n, avoid=[p.tangent, q.tangent])
        moved = distance(apply_generator(p, g), apply_generator(q, g))
        worst_invariance = max(worst_invariance, abs(moved - d) / (1.0 + d))

        s = normalize_pair(p, q)
        measured = math.dist(invert(p, s).tangent, invert(q, s).tangent)
        worst_normalize = max(worst_normalize, abs(measured - d) / (1.0 + d))

        x, y = to_lightcone(p), to_lightcone(q)
        worst_isometry = max(
            worst_isometry,
            abs(-minkowski_inner(x, y) - distance_sq(p, q)) / (1.0 + d * d),
        )
        back = from_lightcone(x)
        worst_round_trip = max(
            worst_round_trip, abs(back.diameter - p.diameter) / p.diameter
        )

    plane_worst = 0.0
    for _ in range(max(args.pairs // 10, 1)):
        plane = Plane(float(np.exp(rng.uniform(-1.0, 1.0))))
        ball = sample_sphere(rng, args.n)
        d = distance(plane, ball)
        s = normalize_pair(plane, ball)
        measured = math.dist(invert(plane, s).tangent, invert(ball, s).tangent)
        plane_worst = max(plane_worst, abs(measured - d) / (1.0 + d))

    print(f"pairs swept                      : {args.pairs} (n = {args.n})")
    print(f"invariance under random maps     : {worst_invariance:.3e}")
    print(f"closed form vs normalization     : {worst_normalize:.3e}")
    print(f"hyperplane cases                 : {plane_worst:.3e}")
    print(f"null-model isometry              : {worst_isometry:.3e}")
    print(f"null-model round trip            : {worst_round_trip:.3e}")


if __name__ == "__main__":
    main()
