"""Distance completion on chordal graphs.

Given edge lengths on a chordal graph, each maximal clique is realized by
kissing spheres, mapped to future null vectors, and the cliques are glued
along the clique tree by orthochronous alignments of their shared separator
vectors. The resulting vector system fills in every missing entry; the
completed matrix is verified against the four target conditions (zero
diagonal, edge agreement, rank at most n + 1, one positive eigenvalue) before
being returned. Non-chordal graphs are refused with a chordless-cycle
witness, and a length assignment built from such a cycle shows why: every
clique stays feasible while the cycle itself cannot close up.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import numkernel
from .embed import (
    EMBEDDABLE,
    ROUND_TRIP_RTOL,
    Certificate,
    RealizationError,
    construct_embedding,
    refusal,
)
from .lightcone import AlignmentError, lorentz_align, to_lightcone
from .numkernel import GramInfeasibleError, is_integer, signature_form

COMPLETED = "Completed"
INFEASIBLE = "Infeasible"
NOT_CHORDAL = "NotChordal"


@dataclass(frozen=True)
class LengthGraph:
    """Undirected graph with nonnegative edge lengths; edges are normalized to
    (u, v, length) with u < v and sorted. The vertex count and the endpoints
    must be integers (numkernel.is_integer)."""

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
            u, v, length = int(u), int(v), float(length)
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (length >= 0.0 and math.isfinite(length)):
                raise ValueError("edge lengths must be finite and nonnegative")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
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


def _shortest_path(adjacency, start: int, goal: int, blocked: set[int]) -> list[int] | None:
    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(adjacency[v]):
                if w in blocked or w in parents:
                    continue
                parents[w] = v
                if w == goal:
                    path = [w]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    return path[::-1]
                nxt.append(w)
        frontier = nxt
    return None


def _chordless_cycle(graph: LengthGraph) -> tuple[int, ...]:
    """First chordless cycle of length >= 4 in a deterministic scan.

    For a vertex v with non-adjacent neighbors u, w, a shortest u-w path
    avoiding the rest of v's closed neighborhood closes a cycle with no
    chords. The graph must not be chordal; then the scan always finds one
    (see is_chordal).
    """
    adjacency = graph.adjacency
    for v in range(graph.vertex_count):
        for u, w in combinations(sorted(adjacency[v]), 2):
            if w in adjacency[u]:
                continue
            blocked = ({v} | set(adjacency[v])) - {u, w}
            path = _shortest_path(adjacency, u, w, blocked)
            if path is not None:
                return (v, *path)


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
    """The four target-matrix conditions, reported independently.

    Edge agreement is enforced in the forward direction only: an entry on
    an edge must be within ROUND_TRIP_RTOL * (l^2 + min(1, max l^2)) of the
    squared length l^2; non-edge entries are free.
    """

    diagonal_ok: bool
    edges_ok: bool
    rank_ok: bool
    signature_ok: bool
    failures: tuple[str, ...]

    @property
    def satisfied(self) -> bool:
        return self.diagonal_ok and self.edges_ok and self.rank_ok and self.signature_ok


def verify_target_matrix(matrix, graph: LengthGraph, n: int) -> TargetReport:
    d, high, low = numkernel.symmetric_extent(matrix)
    if d.shape[0] != graph.vertex_count:
        raise ValueError("matrix order must equal the vertex count")
    failures = []
    diagonal_ok = float(np.abs(np.diag(d)).max()) <= 1e-12 * max(high, -low)
    if not diagonal_ok:
        failures.append("diagonal is not zero")
    u, v, length = np.array(graph.edges, dtype=float).reshape(-1, 3).T
    u, v, expected = u.astype(int), v.astype(int), length * length
    floor = min(1.0, float(expected.max(initial=0.0)))
    off = np.flatnonzero(np.abs(d[u, v] - expected) > ROUND_TRIP_RTOL * (expected + floor))
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

    def farthest(start: int) -> tuple[int, dict[int, int | None]]:
        parents: dict[int, int | None] = {start: None}
        queue = deque([start])
        while queue:
            last = queue.popleft()
            for node, _ in neighbors[last]:
                if node not in parents:
                    parents[node] = last
                    queue.append(node)
        return last, parents

    end, parents = farthest(farthest(0)[0])
    path = [end]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path[len(path) // 2]


def complete_chordal(graph: LengthGraph, n: int) -> CompletionResult:
    """Complete the missing distances of a chordal length graph at dimension n.

    Each maximal clique is realized and mapped to future null vectors, and one
    breadth-first walk from a center of the clique tree places them, so that
    no clique is farther than half the tree's diameter from the root. A
    child's map to the root frame is its parent's composed with the Lorentz
    alignment of their separator vectors; a new component, across an empty
    separator, inherits its parent's map. A refused alignment makes the graph
    Infeasible with the alignment's reason. Rounding below zero is clipped,
    and the completed matrix is verified against the target conditions before
    being returned.
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
        own.append({v: to_lightcone(s, n) for v, s in zip(clique, spheres)})

    neighbors: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in cliques]
    for i, j, separator in chordality.tree.edges:
        neighbors[i].append((j, separator))
        neighbors[j].append((i, separator))

    root = _center(neighbors)
    placed = dict(own[root])
    # Transports double as the visited set.
    transports = {root: np.eye(n + 1)}
    queue = deque([root])
    while queue:
        parent = queue.popleft()
        for child, separator in sorted(neighbors[parent]):
            if child in transports:
                continue
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
            queue.append(child)
            for vertex in cliques[child]:
                if vertex not in placed:
                    placed[vertex] = transport @ own[child][vertex]

    eta = signature_form(n + 1)
    vectors = np.stack([placed[v] for v in range(graph.vertex_count)])
    gram = vectors @ eta @ vectors.T
    full = np.maximum(-(gram + gram.T) / 2.0, 0.0)
    np.fill_diagonal(full, 0.0)
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
