"""Distance completion on chordal graphs.

Given edge lengths on a chordal graph, each maximal clique is realized by
kissing spheres, mapped to future null vectors, and the cliques are glued
along the clique tree by orthochronous alignments of their shared separator
vectors. The placed vectors are read back as spheres, whose distance
matrix fills in every missing entry; it is verified against the four target
conditions (zero diagonal, edge agreement, rank at most n + 1, one positive
eigenvalue) before being returned. Non-chordal graphs are refused with a chordless-cycle
witness, and a length assignment built from such a cycle shows why: every
clique stays feasible while the cycle itself cannot close up.
"""

from __future__ import annotations

import heapq
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice

import numpy as np

from . import numkernel
from .embed import (
    EMBEDDABLE,
    Certificate,
    RealizationError,
    _round_trip_excess,
    construct_embedding,
    refusal,
)
from .kissing import distance_matrix
from .lightcone import AlignmentError, InverseMapError, from_lightcone, lorentz_align, to_lightcone
from .numkernel import GramInfeasibleError, is_integer

COMPLETED = "Completed"
INFEASIBLE = "Infeasible"
NOT_CHORDAL = "NotChordal"


@dataclass(frozen=True)
class LengthGraph:
    """Undirected graph with nonnegative edge lengths; edges are normalized to
    (u, v, length) with u < v and sorted. The vertex count and the endpoints
    must be integers (numkernel.is_integer), and each length a finite real
    number (numbers.Real) other than a bool, whose square is finite."""

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if not (is_integer(self.vertex_count) and self.vertex_count >= 1):
            raise ValueError("vertex count must be a positive integer")
        object.__setattr__(self, "vertex_count", int(self.vertex_count))
        seen: set[tuple[int, int]] = set()
        normalized = []
        for u, v, length in self.edges:
            if not (is_integer(u) and is_integer(v)):
                raise ValueError("edge endpoints must be integers")
            if isinstance(length, bool) or not isinstance(length, numbers.Real):
                raise ValueError("edge lengths must be real numbers")
            u, v = int(u), int(v)
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError("self-loops are not allowed")
            # Compared before conversion, so that an integer beyond the float range is refused.
            if not 0.0 <= length <= sys.float_info.max:
                raise ValueError("edge lengths must be finite and nonnegative")
            key, length = (min(u, v), max(u, v)), float(length)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            # A Python float product overflows to inf, silently.
            if length * length == math.inf:
                raise ValueError(f"edge {key}: squared length beyond the float range")
            seen.add(key)
            normalized.append((key[0], key[1], length))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        sets: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v, _ in self.edges:
            sets[u].add(v)
            sets[v].add(u)
        return tuple(frozenset(s) for s in sets)

    @cached_property
    def _lengths(self) -> dict[tuple[int, int], float]:
        return {(u, v): length for u, v, length in self.edges}

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._lengths

    def length(self, u: int, v: int) -> float:
        return self._lengths[(min(u, v), max(u, v))]


@dataclass(frozen=True)
class CliqueTree:
    """Maximal cliques (sorted tuples) and tree edges labeled by separators."""

    cliques: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class Chordality:
    """A perfect elimination ordering and its clique tree, or a chordless cycle."""

    chordal: bool
    peo: tuple[int, ...] | None
    cycle: tuple[int, ...] | None
    tree: CliqueTree | None


@dataclass(frozen=True)
class CliqueCheck:
    clique: tuple[int, ...]
    certificate: Certificate
    realized: bool
    diagnostic: str | None


@dataclass(frozen=True)
class CompletionResult:
    verdict: str
    full_matrix: np.ndarray | None = None
    embedding: np.ndarray | None = None
    witness: object = None

    @property
    def completed(self) -> bool:
        return self.verdict == COMPLETED


def mcs_order(graph: LengthGraph) -> tuple[int, ...]:
    """Maximum-cardinality search order; ties go to the lowest vertex index.

    A heap keyed (-weight, vertex) keeps stale entries until they are popped;
    a placed vertex's weight is None, so all its entries are stale.
    """
    adjacency = graph.adjacency
    weight: list[int | None] = [0] * graph.vertex_count
    heap = [(0, v) for v in range(graph.vertex_count)]
    order = []
    while heap:
        key, v = heapq.heappop(heap)
        if -key == weight[v]:
            weight[v] = None
            order.append(v)
            for w in adjacency[v]:
                if weight[w] is not None:
                    weight[w] += 1
                    heapq.heappush(heap, (-weight[w], w))
    return tuple(order)


def _breadth_first(neighbors, start: int, blocked=frozenset()) -> dict:
    """Each node reached from start, avoiding blocked, mapped to its parent and
    the label of the edge that reached it ((None, None) for start), in visiting
    order; neighbors[v] lists v's (node, label) pairs in the order visited."""
    reached = {start: (None, None)}
    order = [start]
    for node in order:
        for child, label in neighbors[node]:
            if child not in reached and child not in blocked:
                reached[child] = (node, label)
                order.append(child)
    return reached


def _path(reached: dict, node: int) -> list[int]:
    """The path from the search's start to node."""
    path = [node]
    while reached[path[-1]][0] is not None:
        path.append(reached[path[-1]][0])
    return path[::-1]


def _chordless_cycle(graph: LengthGraph) -> tuple[int, ...]:
    """First chordless cycle of length >= 4 in a deterministic scan.

    For a vertex v with non-adjacent neighbors u, w, a shortest u-w path
    avoiding the rest of v's closed neighborhood closes a cycle with no
    chords. The graph must not be chordal; then the scan always finds one
    (see is_chordal).
    """
    adjacency = graph.adjacency
    unlabeled = [[(w, None) for w in sorted(a)] for a in adjacency]
    for v in range(graph.vertex_count):
        for u, w in combinations(sorted(adjacency[v]), 2):
            if w in adjacency[u]:
                continue
            reached = _breadth_first(unlabeled, u, ({v} | adjacency[v]) - {u, w})
            if w in reached:
                return (v, *_path(reached, w))


def is_chordal(graph: LengthGraph) -> Chordality:
    """Chordality via the clique-tree pass over a maximum-cardinality search.

    The reversed search order is a perfect elimination ordering exactly when
    the graph is chordal, and maximal_cliques refuses one that is not. On
    success carries that ordering and its clique tree; on failure carries a
    chordless cycle of length at least four.
    """
    peo = tuple(reversed(mcs_order(graph)))
    try:
        return Chordality(True, peo, None, maximal_cliques(graph, peo))
    except ValueError:
        # A non-chordal graph has a chordless cycle; its rest joins v's cycle neighbours outside N[v].
        return Chordality(False, None, _chordless_cycle(graph), None)


def maximal_cliques(graph: LengthGraph, peo) -> CliqueTree:
    """Clique tree of a chordal graph, read off a perfect elimination ordering.

    One pass in reverse elimination order (Blair & Peyton, 1993): a vertex
    whose later neighbours are exactly the clique holding the first of them
    joins that clique; otherwise they separate the clique it starts from that
    one. Further components hang off clique 0 at their smallest index by an
    empty separator. Edges (i < j, separator) are sorted. An ordering that
    is not perfect raises ValueError.
    """
    if sorted(peo) != list(range(graph.vertex_count)):
        raise ValueError("elimination ordering must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(peo)}
    adjacency = graph.adjacency
    members: list[set[int]] = []
    component: list[int] = []
    home: dict[int, int] = {}
    links = []
    for v in reversed(peo):
        later = {w for w in adjacency[v] if pos[w] > pos[v]}
        if later:
            up = home[min(later, key=pos.__getitem__)]
            if not later <= members[up]:
                raise ValueError("ordering is not a perfect elimination ordering (graph not chordal?)")
            if later == members[up]:
                members[up].add(v)
                home[v] = up
                continue
            links.append((len(members), up, tuple(sorted(later))))
        home[v] = len(members)
        component.append(component[up] if later else len(members))
        members.append(later | {v})
    cliques = [tuple(sorted(c)) for c in members]
    rank = sorted(range(len(cliques)), key=cliques.__getitem__)
    index = {c: i for i, c in enumerate(rank)}
    # In reverse sorted order, so each component keeps its smallest index.
    first = {component[c]: index[c] for c in reversed(rank)}
    edges = [(*sorted((index[c], index[up])), separator) for c, up, separator in links]
    edges += [(0, i, ()) for i in first.values() if i]
    return CliqueTree(tuple(cliques[c] for c in rank), tuple(sorted(edges)))


def _all_maximal_cliques(graph: LengthGraph) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques of an arbitrary graph (deterministic Bron-Kerbosch)."""
    adjacency = [set(s) for s in graph.adjacency]
    out: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda v: len(adjacency[v] & p))
        for v in sorted(p - adjacency[pivot]):
            expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(graph.vertex_count)), set())
    return tuple(sorted(out))


def _clique_matrix(graph: LengthGraph, clique) -> np.ndarray:
    return np.square([[graph.length(u, v) if u != v else 0.0 for v in clique] for u in clique])


def _realize_clique(graph: LengthGraph, clique, n: int) -> tuple[CliqueCheck, list | None]:
    """The clique's CliqueCheck and spheres, or None, from one construct_embedding.

    A refusal carries GramInfeasibleError's witness, with its requirement as
    the diagnostic; a RealizationError leaves the clique Embeddable but
    unrealized, with its message as the diagnostic.
    """
    passed = Certificate(EMBEDDABLE, "inertia")
    try:
        spheres = construct_embedding(_clique_matrix(graph, clique), n)
    except GramInfeasibleError as exc:
        return CliqueCheck(clique, refusal(exc), False, exc.reason), None
    except RealizationError as exc:
        return CliqueCheck(clique, passed, False, str(exc)), None
    return CliqueCheck(clique, passed, True, None), spheres


def clique_feasible(graph: LengthGraph, n: int) -> tuple[bool, tuple[CliqueCheck, ...]]:
    """Per-clique realizability at dimension n, with certificates.

    Each maximal clique is fully specified, so its squared-length matrix is
    realized, and the attempt decides the certificate: a refusal carries the
    signature witness, and a clique whose certificate passes but whose
    construction fails (a degenerate zero-distance pattern) is demoted to
    infeasible. Non-chordal graphs are handled through full maximal-clique
    enumeration.
    """
    n = numkernel.dimension(n)
    chordality = is_chordal(graph)
    cliques = chordality.tree.cliques if chordality.chordal else _all_maximal_cliques(graph)
    checks = tuple(_realize_clique(graph, clique, n)[0] for clique in cliques)
    return all(c.realized for c in checks), checks


@dataclass(frozen=True)
class TargetReport:
    """The four target-matrix conditions of verify_target_matrix, reported
    independently, with one message per failure."""

    diagonal_ok: bool
    edges_ok: bool
    rank_ok: bool
    signature_ok: bool
    failures: tuple[str, ...]

    @property
    def satisfied(self) -> bool:
        return self.diagonal_ok and self.edges_ok and self.rank_ok and self.signature_ok


def verify_target_matrix(matrix, graph: LengthGraph, n: int) -> TargetReport:
    """Check a completed matrix against the four target conditions.

    n must be an integer >= 1 (numkernel.dimension). The matrix must be
    symmetric (numkernel.symmetric_extent), and
    - its diagonal is zero to 1e-12 of max|entry|;
    - each edge entry matches the squared length l^2 by the round trip's
      closeness rule (embed._round_trip_excess), with top = max l^2: within
      ROUND_TRIP_RTOL * (l^2 + max l^2), so every edge is checked at the
      data's own scale and the report commutes with scaling all lengths by
      one factor; non-edge entries are free;
    - its rank, by numkernel.inertia, is at most n + 1;
    - it has one positive eigenvalue, or is identically zero.
    """
    n = numkernel.dimension(n)
    d, high, low = numkernel.symmetric_extent(matrix)
    if d.shape[0] != graph.vertex_count:
        raise ValueError("matrix order must equal the vertex count")
    failures = []
    diagonal_ok = float(np.abs(np.diag(d)).max()) <= 1e-12 * max(high, -low)
    if not diagonal_ok:
        failures.append("diagonal is not zero")
    u, v, length = np.array(graph.edges, dtype=float).reshape(-1, 3).T
    u, v, expected = u.astype(int), v.astype(int), length * length
    excess = _round_trip_excess(d[u, v], expected, float(expected.max(initial=0.0)),
                                np.empty_like(expected), np.empty_like(expected))
    off = np.flatnonzero(~(excess <= 0.0))
    edges_ok = not off.size
    failures += [f"edge ({u[k]}, {v[k]}) entry {float(d[u[k], v[k]])!r} != squared length "
                 f"{float(expected[k])!r}" for k in off]
    counts = numkernel.inertia(d)
    rank_ok = counts.rank <= n + 1
    if not rank_ok:
        failures.append(f"rank {counts.rank} exceeds n + 1 = {n + 1}")
    # Rank zero, the identically zero matrix, passes as in signature_violation.
    signature_ok = counts.positive == 1 or counts.rank == 0
    if not signature_ok:
        failures.append(f"{counts.positive} positive eigenvalues instead of one")
    return TargetReport(diagonal_ok, edges_ok, rank_ok, signature_ok, tuple(failures))


def _center(neighbors) -> int:
    """A center of a tree given by its adjacency lists of (node, label): the
    middle node of a longest path, whose ends two breadth-first passes find."""
    reached = _breadth_first(neighbors, list(_breadth_first(neighbors, 0))[-1])
    path = _path(reached, list(reached)[-1])
    return path[(len(path) - 1) // 2]


def complete_chordal(graph: LengthGraph, n: int) -> CompletionResult:
    """Complete the missing distances of a chordal length graph at dimension n.

    Each maximal clique is realized and mapped to future null vectors, and one
    breadth-first walk from a center of the clique tree places them, so that
    no clique is farther than half the tree's diameter from the root. A
    child's map to the root frame is its parent's composed with the Lorentz
    alignment of their separator vectors; a new component, across an empty
    separator, inherits its parent's map. A refused alignment makes the graph
    Infeasible with the alignment's reason. The verified matrix is the
    distance_matrix of the placed vectors' spheres, unpatched; a placed
    vector off the future cone makes the graph Infeasible, naming its vertex,
    and so does a completed distance beyond the float range, naming its pair.
    """
    n = numkernel.dimension(n)
    chordality = is_chordal(graph)
    if not chordality.chordal:
        return CompletionResult(NOT_CHORDAL, witness=chordality.cycle)
    cliques = chordality.tree.cliques

    own: list[dict[int, np.ndarray]] = []
    for clique in cliques:
        check, spheres = _realize_clique(graph, clique, n)
        if spheres is None:
            return CompletionResult(INFEASIBLE, witness=check)
        own.append(dict(zip(clique, to_lightcone(spheres, n))))

    # The tree's edges are sorted, so each list is in ascending node order.
    neighbors: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in cliques]
    for i, j, separator in chordality.tree.edges:
        neighbors[i].append((j, separator))
        neighbors[j].append((i, separator))

    root = _center(neighbors)
    placed = dict(own[root])
    transports = {root: np.eye(n + 1)}
    for child, (parent, separator) in islice(_breadth_first(neighbors, root).items(), 1, None):
        transport = transports[parent]
        if separator:
            try:
                transport = transport @ lorentz_align(
                    np.stack([own[child][v] for v in separator]),
                    np.stack([own[parent][v] for v in separator]))
            except AlignmentError as exc:
                return CompletionResult(INFEASIBLE, witness=f"gluing of clique {cliques[child]}"
                                        f" onto separator {separator} failed: {exc}")
        transports[child] = transport
        for vertex in cliques[child]:
            if vertex not in placed:
                placed[vertex] = transport @ own[child][vertex]

    vectors = np.stack([placed[v] for v in range(graph.vertex_count)])
    try:
        full = distance_matrix(from_lightcone(vectors))
    except InverseMapError as exc:
        return CompletionResult(INFEASIBLE, witness=f"placed vector of vertex {exc.row}: {exc}")
    beyond = np.argwhere(np.isinf(full))
    if beyond.size:
        pair = tuple(beyond[0].tolist())
        return CompletionResult(INFEASIBLE, witness=f"completed distance {pair} is beyond the float range")
    report = verify_target_matrix(full, graph, n)
    if not report.satisfied:
        return CompletionResult(INFEASIBLE, witness="target verification failed: "
                                + "; ".join(report.failures))
    return CompletionResult(COMPLETED, full_matrix=full, embedding=vectors)


def non_chordal_witness(graph: LengthGraph) -> LengthGraph:
    """Length assignment certifying that clique feasibility is not enough on a
    non-chordal graph.

    From a chordless cycle, the first cycle edge gets length one, as does
    every edge with exactly one end on the cycle; all other edges get zero.
    Every clique stays realizable, but the zero-length chain around the cycle
    forces its endpoints together, contradicting the unit edge.
    """
    chordality = is_chordal(graph)
    if chordality.chordal:
        raise ValueError("graph is chordal; no witness exists")
    cycle = chordality.cycle
    on_cycle = set(cycle)
    first_edge = (min(cycle[0], cycle[1]), max(cycle[0], cycle[1]))
    edges = []
    for u, v, _ in graph.edges:
        if (u, v) == first_edge:
            value = 1.0
        elif (u in on_cycle) != (v in on_cycle):
            value = 1.0
        else:
            value = 0.0
        edges.append((u, v, value))
    return LengthGraph(graph.vertex_count, tuple(edges))
