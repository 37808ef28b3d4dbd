"""Shared random-instance samplers and checks for the test suite."""

import numpy as np

from kissgeo import LengthGraph, Plane, Sphere, distance
from kissgeo.embed import _round_trip_excess
from kissgeo.numkernel import max_abs
from kissgeo.kissing import InversionSphere


def random_sphere(rng, n, spread=2.0):
    tangent = tuple(float(c) for c in spread * rng.normal(size=n - 1))
    return Sphere(tangent=tangent, diameter=float(np.exp(rng.uniform(-1.0, 1.0))))


def random_plane(rng):
    return Plane(height=float(np.exp(rng.uniform(-1.0, 1.0))))


def random_sphere_set(rng, size, n, plane_chance=0.0):
    out = []
    for _ in range(size):
        if plane_chance and rng.uniform() < plane_chance and not any(
            isinstance(s, Plane) for s in out
        ):
            out.append(random_plane(rng))
        else:
            out.append(random_sphere(rng, n))
    return out


def random_inversion(rng, n, avoid=(), min_gap=0.3):
    """Inversion sphere whose center keeps a safe distance from given tangent points."""
    for _ in range(100):
        center = tuple(float(c) for c in 3.0 * rng.normal(size=n - 1))
        if all(
            np.linalg.norm(np.array(center) - np.array(t)) > min_gap for t in avoid
        ):
            return InversionSphere(center=center, radius=float(np.exp(rng.uniform(-0.5, 0.5))))
    raise RuntimeError("could not sample an inversion center away from the tangent points")


def random_chordal_graph(rng, vertices, clique_size=3):
    """Connected chordal graph built by attaching each new vertex to a clique
    subset of an existing maximal clique."""
    assert vertices >= 2
    edges = set()
    cliques = [[0]]
    for v in range(1, vertices):
        base = cliques[rng.integers(len(cliques))]
        take = int(rng.integers(1, min(len(base), clique_size) + 1))
        picked = sorted(rng.choice(base, size=take, replace=False).tolist())
        for u in picked:
            edges.add((min(u, v), max(u, v)))
        cliques.append(picked + [v])
    return sorted(edges)


def graph_from_configuration(rng, vertices, n, clique_size=3):
    """Chordal graph whose edge lengths come from an actual sphere configuration,
    so every clique (and the whole instance) is realizable."""
    spheres = [random_sphere(rng, n) for _ in range(vertices)]
    edges = random_chordal_graph(rng, vertices, clique_size)
    lengths = tuple(
        (u, v, distance(spheres[u], spheres[v])) for u, v in edges
    )
    return LengthGraph(vertices, lengths), spheres


def cycle_graph(length, edge_len=1.0):
    edges = tuple(
        (i, (i + 1) % length, edge_len) for i in range(length)
    )
    return LengthGraph(length, edges)


def coincident_sphere_set(rng, size, n, planes=2, shared=3):
    """Random spheres with `planes` hyperplanes and `shared` spheres that reuse
    an earlier sphere's tangent point at a new diameter, in shuffled order, so
    both kinds of exact zero distance occur."""
    spheres = [random_sphere(rng, n) for _ in range(size - planes - shared)]
    for _ in range(shared):
        twin = spheres[int(rng.integers(len(spheres)))]
        spheres.append(Sphere(tangent=twin.tangent, diameter=float(np.exp(rng.uniform(-1.0, 1.0)))))
    spheres += [random_plane(rng) for _ in range(planes)]
    return [spheres[i] for i in rng.permutation(size)]


def shared_point_chordal_graph(rng, vertices, n=3, shared_share=0.03, max_clique=4):
    """Chordal length graph from one plane and spheres of which a
    ``shared_share`` reuse an earlier sphere's tangent point, so that
    separators with exact zero distances occur.

    Tangent points are Gaussian with spread 2 and diameters and the plane's
    height log-uniform on [1/e, e]. Each new vertex joins a random nonempty
    subset of at most max_clique - 1 vertices of a clique made earlier.
    Lengths are computed with plain numpy: |t_u - t_v| / sqrt(phi_u phi_v)
    between spheres and sqrt(h / phi) between the plane and a sphere.
    """
    tangent = 2.0 * rng.normal(size=(vertices, n - 1))
    diameter = np.exp(rng.uniform(-1.0, 1.0, size=vertices))
    height = np.zeros(vertices)
    plane = rng.choice(vertices, size=1, replace=False)
    height[plane] = np.exp(rng.uniform(-1.0, 1.0, size=1))
    spheres = np.flatnonzero(height == 0.0)
    for i in spheres[1:][rng.random(spheres.size - 1) < shared_share]:
        tangent[i] = tangent[rng.choice(spheres[spheres < i])]
    cliques = [[0]]
    pairs = []
    for v in range(1, vertices):
        base = cliques[int(rng.integers(len(cliques)))]
        take = int(rng.integers(1, min(len(base), max_clique - 1) + 1))
        picked = sorted(int(u) for u in rng.choice(base, size=take, replace=False))
        pairs.extend((u, v) for u in picked)
        cliques.append(picked + [v])
    is_plane = height > 0.0
    inv = np.where(is_plane, 0.0, 1.0 / diameter)
    tangent[is_plane] = 0.0
    edges = []
    for u, v in pairs:
        diff = tangent[u] - tangent[v]
        gap = 0.0
        for k in range(n - 1):
            gap = gap + diff[k] * diff[k]
        d2 = gap * (inv[u] * inv[v]) + (height[u] * inv[v] + inv[u] * height[v])
        edges.append((u, v, float(np.sqrt(d2))))
    return LengthGraph(vertices, tuple(edges))


def round_trip_close(actual, expected):
    """The round-trip rule of the embedding routes on two matrices, entry by
    entry, with the largest entry of expected as its floor."""
    expected = np.asarray(expected, dtype=float)
    allowed, excess = np.empty_like(expected), np.empty_like(expected)
    _round_trip_excess(np.asarray(actual, dtype=float), expected, max_abs(expected), allowed, excess)
    return float(excess.max()) <= 0.0
