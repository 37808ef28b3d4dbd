"""Seeded inputs for the benchmark workloads, made with plain numpy.

Matrices, graphs and expected verdicts come from real sphere configurations
and the benchmark's own distance formula; kissgeo is never called here, so
the program sees only the generated inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .oracle import pair_squared_distances, squared_distances

N = 3
EMBEDDABLE = "Embeddable"
NOT_EMBEDDABLE = "NotEmbeddable"
COMPLETED = "Completed"
MAX_CLIQUE = 4


@dataclass(frozen=True)
class MatrixInstance:
    d2: np.ndarray
    expected: str

    def __post_init__(self) -> None:
        # The oracle compares outputs against d2, so the program must not change it.
        self.d2.setflags(write=False)


@dataclass(frozen=True)
class GraphInstance:
    vertices: int
    edges: np.ndarray  # (k, 3) rows of (u, v, length), u < v
    expected: str = COMPLETED


def configuration(rng, m: int, planes: int, shared_share: float, n: int = N):
    """(tangent, diameter, height) of m kissing spheres in ambient dimension n.

    Tangent points are Gaussian with spread 2 and diameters log-uniform on
    [1/e, e]. ``planes`` rows become hyperplanes at log-uniform heights, and a
    ``shared_share`` of the spheres copy an earlier sphere's tangent point, so
    zero distances occur.
    """
    tangent = 2.0 * rng.normal(size=(m, n - 1))
    diameter = np.exp(rng.uniform(-1.0, 1.0, size=m))
    height = np.zeros(m)
    plane_rows = rng.choice(m, size=planes, replace=False)
    height[plane_rows] = np.exp(rng.uniform(-1.0, 1.0, size=planes))
    spheres = np.flatnonzero(height == 0.0)
    sharers = spheres[1:][rng.random(spheres.size - 1) < shared_share]
    for i in sharers:
        earlier = spheres[spheres < i]
        tangent[i] = tangent[rng.choice(earlier)]
    return tangent, diameter, height


def embeddable_matrix(rng, m: int, n: int = N) -> MatrixInstance:
    """Squared distances of m spheres with about 1% planes and 1% shared tangent points."""
    config = configuration(rng, m, planes=max(1, m // 100), shared_share=0.01, n=n)
    return MatrixInstance(squared_distances(*config), EMBEDDABLE)


def not_embeddable_matrix(rng, m: int, n: int = N) -> MatrixInstance:
    """An embeddable matrix pushed to exactly two positive eigenvalues.

    Adds c to every pair inside a random half S of the indices, that is
    c (1_S 1_S^T - diag(1_S)). The rank-one term adds at most one positive
    eigenvalue and the diagonal term none, the diagonal stays zero and the
    entries nonnegative. numpy confirms two positive eigenvalues with a wide
    margin before the instance is used.
    """
    d = embeddable_matrix(rng, m, n).d2
    inside = rng.random(m) < 0.5
    block = (inside[:, None] & inside[None, :]).astype(float)
    np.fill_diagonal(block, 0.0)
    c = float(np.median(d))
    for _ in range(8):
        values = np.linalg.eigvalsh(d + c * block)
        top = float(np.abs(values).max())
        if int(np.sum(values > 1e-9 * top)) == 2 and values[-2] > 1e-3 * top:
            return MatrixInstance(d + c * block, NOT_EMBEDDABLE)
        c *= 2.0
    raise RuntimeError("could not confirm a second positive eigenvalue")


def chordal_edges(rng, vertices: int, max_clique: int = MAX_CLIQUE) -> np.ndarray:
    """Edges (u, v), u < v, of a connected chordal graph with cliques of at most max_clique.

    Each new vertex joins a random nonempty subset of a clique made earlier,
    which keeps the graph chordal.
    """
    cliques = [[0]]
    edges = []
    for v in range(1, vertices):
        base = cliques[int(rng.integers(len(cliques)))]
        take = int(rng.integers(1, min(len(base), max_clique - 1) + 1))
        picked = sorted(int(u) for u in rng.choice(base, size=take, replace=False))
        edges.extend((u, v) for u in picked)
        cliques.append(picked + [v])
    return np.asarray(edges, dtype=int)


def chordal_graph(rng, vertices: int, n: int = N) -> GraphInstance:
    """Chordal graph whose lengths come from a sphere configuration with one
    plane and 3% of the spheres sharing an earlier sphere's tangent point, so
    it is completable."""
    config = configuration(rng, vertices, planes=1, shared_share=0.03, n=n)
    pairs = chordal_edges(rng, vertices)
    d2 = pair_squared_distances(*config, pairs[:, 0], pairs[:, 1])
    edges = np.column_stack([pairs.astype(float), np.sqrt(d2)])
    return GraphInstance(vertices, edges)


def matrix_json(instance: MatrixInstance) -> str:
    return json.dumps({"d2": instance.d2.tolist()})


def graph_json(instance: GraphInstance) -> str:
    items = [{"u": int(u), "v": int(v), "len": float(length)} for u, v, length in instance.edges]
    return json.dumps({"vertices": instance.vertices, "edges": items})
