import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from gen import (
    cycle_graph,
    far_sphere_graph,
    graph_from_configuration,
    random_chordal_graph,
    random_sphere,
    round_trip_close,
    shared_point_chordal_graph,
)
from kissgeo import completion
from kissgeo.completion import (
    COMPLETED,
    INFEASIBLE,
    NOT_CHORDAL,
    LengthGraph,
    clique_feasible,
    complete_chordal,
    is_chordal,
    maximal_cliques,
    non_chordal_witness,
    verify_target_matrix,
)
from kissgeo.embed import check_kissing, construct_embedding
from kissgeo.kissing import Sphere, distance, distance_matrix
from kissgeo.lightcone import from_lightcone, is_lorentz, lorentz_align
from kissgeo.numkernel import RESIDUAL


def complete_graph(vertices, length=1.0):
    edges = tuple((u, v, length) for u, v in combinations(range(vertices), 2))
    return LengthGraph(vertices, edges)


def scaled_lengths(graph, factor):
    return LengthGraph(graph.vertex_count,
                       tuple((u, v, length * factor) for u, v, length in graph.edges))


def relabelled(instance, label=None):
    label = np.arange(instance.vertices) if label is None else label
    return LengthGraph(instance.vertices, tuple(
        (int(label[int(u)]), int(label[int(v)]), float(length)) for u, v, length in instance.edges))


def assert_is_chordless_cycle(graph, cycle):
    assert len(cycle) >= 4
    assert len(set(cycle)) == len(cycle)
    for i, u in enumerate(cycle):
        assert graph.has_edge(u, cycle[(i + 1) % len(cycle)])
    for i, u in enumerate(cycle):
        for j in range(i + 2, len(cycle)):
            if i == 0 and j == len(cycle) - 1:
                continue
            assert not graph.has_edge(u, cycle[j])


class TestLengthGraph:
    def test_normalizes_edges(self):
        g = LengthGraph(3, ((2, 0, 1.0), (1, 2, 0.5)))
        assert g.edges == ((0, 2, 1.0), (1, 2, 0.5))
        assert g.length(2, 0) == 1.0
        assert g.has_edge(2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            LengthGraph(2, ((0, 0, 1.0),))
        with pytest.raises(ValueError):
            LengthGraph(2, ((0, 1, 1.0), (1, 0, 2.0)))
        with pytest.raises(ValueError):
            LengthGraph(2, ((0, 1, -1.0),))
        with pytest.raises(ValueError):
            LengthGraph(2, ((0, 3, 1.0),))

    @pytest.mark.parametrize("vertices, edges", [
        (3, ((0, 1.5, 1.0),)),
        (3, ((True, 2, 1.0),)),
        (3, (("0", 1, 1.0),)),
        (True, ()),
        (2.0, ()),
    ], ids=["fractional endpoint", "boolean endpoint", "string endpoint",
            "boolean count", "float count"])
    def test_integers_only(self, vertices, edges):
        with pytest.raises(ValueError, match="integer"):
            LengthGraph(vertices, edges)

    def test_numpy_integers_are_integers(self):
        g = LengthGraph(np.int64(3), ((np.int32(2), np.int64(0), 1.0),))
        assert g == LengthGraph(3, ((0, 2, 1.0),))
        assert type(g.vertex_count) is int
        assert all(type(u) is int and type(v) is int for u, v, _ in g.edges)


class TestIsChordal:
    def test_complete_graph(self):
        result = is_chordal(complete_graph(4))
        assert result.chordal
        assert sorted(result.peo) == [0, 1, 2, 3]

    def test_four_cycle(self):
        g = cycle_graph(4)
        result = is_chordal(g)
        assert not result.chordal
        assert_is_chordless_cycle(g, result.cycle)
        assert len(result.cycle) == 4

    def test_tree(self):
        g = LengthGraph(6, ((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)))
        assert is_chordal(g).chordal

    def test_five_cycle_with_one_chord(self):
        # One chord splits C5 into a triangle and a C4; still not chordal.
        g = LengthGraph(
            5, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 1.0), (0, 2, 1.0))
        )
        result = is_chordal(g)
        assert not result.chordal
        assert_is_chordless_cycle(g, result.cycle)

    def test_exhaustive_small_graphs_against_cycle_search(self):
        # Oracle: a graph is chordal iff no chordless cycle of length >= 4
        # exists, checked by brute-force cycle enumeration on 5 vertices.
        from itertools import combinations as combos

        def brute_force_chordal(adj, m):
            from itertools import permutations

            for size in (4, 5):
                for verts in combos(range(m), size):
                    for perm in permutations(verts[1:]):
                        cyc = (verts[0],) + perm
                        edges_ok = all(
                            cyc[(i + 1) % size] in adj[cyc[i]] for i in range(size)
                        )
                        if not edges_ok:
                            continue
                        chord = any(
                            cyc[j] in adj[cyc[i]]
                            for i in range(size)
                            for j in range(i + 2, size)
                            if not (i == 0 and j == size - 1)
                        )
                        if not chord:
                            return False
            return True

        m = 5
        pairs = list(combos(range(m), 2))
        for mask in range(0, 1 << len(pairs), 7):  # stride keeps it quick
            edges = tuple(
                (u, v, 1.0) for bit, (u, v) in enumerate(pairs) if mask >> bit & 1
            )
            g = LengthGraph(m, edges)
            adj = g.adjacency
            assert is_chordal(g).chordal == brute_force_chordal(adj, m)


class TestMaximalCliques:
    def test_path(self):
        g = LengthGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        tree = maximal_cliques(g, is_chordal(g).peo)
        assert tree.cliques == ((0, 1), (1, 2))
        assert tree.edges == ((0, 1, (1,)),)

    def test_complete_graph(self):
        g = complete_graph(4)
        tree = maximal_cliques(g, is_chordal(g).peo)
        assert tree.cliques == ((0, 1, 2, 3),)
        assert tree.edges == ()

    def test_two_triangles_sharing_an_edge(self):
        g = LengthGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
        tree = maximal_cliques(g, is_chordal(g).peo)
        assert tree.cliques == ((0, 1, 2), (1, 2, 3))
        assert tree.edges == ((0, 1, (1, 2)),)

    def test_components_hang_off_clique_zero(self):
        # Components {0, 4, 5}, {1, 2, 6} and {3} interleave in sorted order.
        g = LengthGraph(7, ((0, 4, 1.0), (4, 5, 1.0), (1, 2, 1.0), (2, 6, 1.0)))
        tree = maximal_cliques(g, is_chordal(g).peo)
        assert tree.cliques == ((0, 4), (1, 2), (2, 6), (3,), (4, 5))
        assert tree.edges == ((0, 1, ()), (0, 3, ()), (0, 4, (4,)), (1, 2, (2,)))

    def test_orderings_checked_like_the_elimination_check(self, rng):
        # Random permutations, and perfect elimination orderings other than
        # the one is_chordal returns: MCS orders of a relabelled copy.
        rejected = 0
        for k in range(300):
            g = relabelled_chordal_graph(rng, 1 + k % 3)
            cliques = maximal_cliques(g, is_chordal(g).peo).cliques
            label = rng.permutation(g.vertex_count)
            if k % 2:
                copy = LengthGraph(g.vertex_count, tuple(
                    (int(label[u]), int(label[v]), 1.0) for u, v, _ in g.edges))
                inverse = np.argsort(label)
                order = tuple(int(inverse[v]) for v in is_chordal(copy).peo)
            else:
                order = tuple(int(v) for v in label)
            if is_perfect_elimination_ordering(g, order):
                assert maximal_cliques(g, order).cliques == cliques
            else:
                rejected += 1
                with pytest.raises(ValueError, match="not a perfect elimination ordering"):
                    maximal_cliques(g, order)
        assert 100 <= rejected <= 150

    def test_running_intersection(self, rng):
        for _ in range(20):
            g, _ = graph_from_configuration(rng, 8, 2)
            chordality = is_chordal(g)
            tree = maximal_cliques(g, chordality.peo)
            # Every graph vertex appears; every edge is inside some clique.
            assert set().union(*map(set, tree.cliques)) == set(range(8))
            for u, v, _ in g.edges:
                assert any(u in c and v in c for c in tree.cliques if set((u, v)) <= set(c))
            # Running intersection: each vertex's cliques form a subtree.
            adjacency = {i: set() for i in range(len(tree.cliques))}
            for i, j, _ in tree.edges:
                adjacency[i].add(j)
                adjacency[j].add(i)
            for v in range(8):
                holding = {i for i, c in enumerate(tree.cliques) if v in c}
                seen = {min(holding)}
                frontier = [min(holding)]
                while frontier:
                    nxt = []
                    for i in frontier:
                        for j in adjacency[i]:
                            if j in holding and j not in seen:
                                seen.add(j)
                                nxt.append(j)
                    frontier = nxt
                assert seen == holding


def is_perfect_elimination_ordering(graph, order):
    """The definition: every vertex's neighbours later in the order are
    pairwise adjacent."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in graph.adjacency[v] if pos[w] > pos[v]]
        if any(not graph.has_edge(a, b) for a, b in combinations(later, 2)):
            return False
    return True


def reference_mcs_order(graph):
    """The quadratic maximum-cardinality search: scan every remaining vertex
    for the largest weight, ties to the lowest index."""
    weight = [0] * graph.vertex_count
    remaining = set(range(graph.vertex_count))
    order = []
    while remaining:
        best = max(weight[v] for v in remaining)
        v = min(u for u in remaining if weight[u] == best)
        order.append(v)
        remaining.remove(v)
        for w in graph.adjacency[v]:
            if w in remaining:
                weight[w] += 1
    return tuple(order)


def relabelled_chordal_graph(rng, pieces=1):
    """Disjoint union of random chordal graphs and isolated vertices, with
    the vertices shuffled."""
    edges = []
    count = 0
    for _ in range(pieces):
        size = int(rng.integers(2, 14))
        edges += [(u + count, v + count) for u, v in
                  random_chordal_graph(rng, size, int(rng.integers(2, 6)))]
        count += size + int(rng.integers(0, 2))
    label = rng.permutation(count)
    return LengthGraph(count, tuple((int(label[u]), int(label[v]), 1.0) for u, v in edges))


def random_graph(rng):
    m = int(rng.integers(1, 12))
    pairs = list(combinations(range(m), 2))
    keep = rng.uniform(size=len(pairs)) < rng.uniform(0.1, 0.7)
    return LengthGraph(m, tuple((u, v, 1.0) for (u, v), k in zip(pairs, keep) if k))


def test_mcs_order_matches_quadratic_reference(rng):
    for k in range(300):
        g = relabelled_chordal_graph(rng, 1 + k % 3) if k % 2 else random_graph(rng)
        assert completion.mcs_order(g) == reference_mcs_order(g)


class TestNetworkxOracle:
    """Chordality, maximal cliques and clique trees against networkx."""

    @pytest.fixture
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def as_nx(nx, graph):
        out = nx.Graph()
        out.add_nodes_from(range(graph.vertex_count))
        out.add_edges_from((u, v) for u, v, _ in graph.edges)
        return out

    def test_chordality(self, nx, rng):
        for k in range(300):
            g = relabelled_chordal_graph(rng, 1 + k % 3) if k % 2 else random_graph(rng)
            assert is_chordal(g).chordal == nx.is_chordal(self.as_nx(nx, g))

    def test_clique_tree(self, nx, rng):
        for k in range(200):
            g = relabelled_chordal_graph(rng, 1 + k % 3)
            tree = maximal_cliques(g, is_chordal(g).peo)
            cliques = [set(c) for c in tree.cliques]
            assert set(map(frozenset, cliques)) == set(nx.chordal_graph_cliques(self.as_nx(nx, g)))
            components = nx.number_connected_components(self.as_nx(nx, g))
            assert len(tree.edges) == len(cliques) - 1
            assert sum(1 for _, _, sep in tree.edges if sep) == len(cliques) - components
            for i, j, separator in tree.edges:
                assert i < j
                assert separator == tuple(sorted(cliques[i] & cliques[j]))
            links = nx.Graph(tree_edge[:2] for tree_edge in tree.edges)
            links.add_nodes_from(range(len(cliques)))
            assert nx.is_tree(links)
            for v in range(g.vertex_count):
                holding = [i for i, c in enumerate(cliques) if v in c]
                assert nx.is_connected(links.subgraph(holding))
            overlaps = nx.Graph()
            overlaps.add_nodes_from(range(len(cliques)))
            overlaps.add_weighted_edges_from(
                (i, j, len(cliques[i] & cliques[j]))
                for i, j in combinations(range(len(cliques)), 2) if cliques[i] & cliques[j]
            )
            best = nx.maximum_spanning_tree(overlaps).size(weight="weight")
            assert sum(len(sep) for _, _, sep in tree.edges) == best


class TestCliqueFeasible:
    def test_unit_triangle(self):
        g = complete_graph(3)
        ok, checks = clique_feasible(g, 2)
        assert ok
        assert len(checks) == 1 and checks[0].realized

    def test_degenerate_triangle_infeasible(self):
        # Lengths (1, 0, 0): the zero edges force shared tangent points, which
        # contradicts the unit edge; caught by the construction demotion.
        g = LengthGraph(3, ((0, 1, 1.0), (1, 2, 0.0), (0, 2, 0.0)))
        ok, checks = clique_feasible(g, 2)
        assert not ok
        check = checks[0]
        assert check.certificate.embeddable and not check.realized
        assert "zero" in check.diagnostic

    def test_single_edge_any_length(self):
        g = LengthGraph(2, ((0, 1, 5.0),))
        ok, _ = clique_feasible(g, 1)
        assert ok

    def test_unit_triangle_fails_on_the_line(self):
        ok, checks = clique_feasible(complete_graph(3), 1)
        assert not ok
        assert not checks[0].certificate.embeddable

    def test_refusal_diagnostic_is_the_witness_requirement(self):
        _, (check,) = clique_feasible(complete_graph(3), 1)
        assert check.certificate == check_kissing(np.ones((3, 3)) - np.eye(3), 1)
        assert check.diagnostic == check.certificate.witness.requirement
        assert check.diagnostic == "at most 1 negative eigenvalues"

    def test_refusal_runs_the_signature_rule_once(self, monkeypatch):
        """The refused clique's certificate is read from the factorization's
        error; the signature rule is not run a second time."""
        from kissgeo import numkernel

        calls = []
        real = numkernel.signature_violation
        monkeypatch.setattr(numkernel, "signature_violation",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        ok, (check,) = clique_feasible(complete_graph(3), 1)
        assert not ok and check.diagnostic == "at most 1 negative eigenvalues"
        assert len(calls) == 1

    def test_non_chordal_graph_checks_all_cliques(self):
        ok, checks = clique_feasible(cycle_graph(4), 2)
        assert ok
        assert len(checks) == 4

    def test_non_chordal_graph_with_a_13_clique_checks_every_clique(self, rng):
        # 16 spheres in ambient dimension 3: vertices 0-12 pairwise joined,
        # and a chordless 4-cycle 0-13-14-15 hanging off vertex 0.
        spheres = [random_sphere(rng, 3) for _ in range(16)]
        pairs = list(combinations(range(13), 2)) + [(0, 13), (13, 14), (14, 15), (0, 15)]
        g = LengthGraph(16, tuple((u, v, distance(spheres[u], spheres[v])) for u, v in pairs))
        assert not is_chordal(g).chordal
        ok, checks = clique_feasible(g, 3)
        assert ok
        assert [c.clique for c in checks] == [
            tuple(range(13)), (0, 13), (0, 15), (13, 14), (14, 15)]
        assert all(c.realized for c in checks)


class TestCompleteChordal:
    def test_path(self):
        g = LengthGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        result = complete_chordal(g, 2)
        assert result.verdict == COMPLETED and result.completed
        report = verify_target_matrix(result.full_matrix, g, 2)
        assert report.satisfied

    def test_fully_specified_triangle(self):
        g = complete_graph(3)
        result = complete_chordal(g, 2)
        assert result.verdict == COMPLETED
        assert round_trip_close(result.full_matrix, np.ones((3, 3)) - np.eye(3))

    def test_failed_target_verification_is_infeasible(self, monkeypatch):
        """A completion whose report fails is Infeasible, with the report's
        failures as the witness."""
        failures = ("edge (0, 1) entry 2.0 != squared length 1.0", "rank 4 exceeds n + 1 = 3")
        report = completion.TargetReport(True, False, False, True, failures)
        monkeypatch.setattr(completion, "verify_target_matrix", lambda *args: report)
        result = complete_chordal(LengthGraph(3, ((0, 1, 1.0), (1, 2, 1.0))), 2)
        assert result.verdict == INFEASIBLE and result.full_matrix is None
        assert result.witness == "target verification failed: " + "; ".join(failures)

    def test_four_cycle_is_not_chordal(self):
        result = complete_chordal(cycle_graph(4), 2)
        assert result.verdict == NOT_CHORDAL
        assert_is_chordless_cycle(cycle_graph(4), result.witness)

    def test_two_triangles_glued(self):
        g = LengthGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
        result = complete_chordal(g, 2)
        assert result.verdict == COMPLETED
        assert verify_target_matrix(result.full_matrix, g, 2).satisfied
        assert check_kissing(result.full_matrix, 2).embeddable

    def test_infeasible_clique_reported(self):
        g = LengthGraph(3, ((0, 1, 1.0), (1, 2, 0.0), (0, 2, 0.0)))
        result = complete_chordal(g, 2)
        assert result.verdict == INFEASIBLE
        assert result.witness.clique == (0, 1, 2)

    def test_generative_completeness(self, rng):
        for _ in range(25):
            size = int(rng.integers(4, 9))
            n = int(rng.integers(2, 4))
            g, spheres = graph_from_configuration(rng, size, n)
            result = complete_chordal(g, n)
            assert result.verdict == COMPLETED
            report = verify_target_matrix(result.full_matrix, g, n)
            assert report.satisfied
            assert check_kissing(result.full_matrix, n).embeddable
            for u, v, length in g.edges:
                assert result.full_matrix[u, v] == pytest.approx(
                    length**2, rel=1e-7, abs=1e-9
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_verdict_invariant_under_scaling(self, seed):
        # D -> cD, lengths times sqrt(c). Absolute floors in the gluing code
        # once refused every one of these graphs at c = 1e-20.
        graph, _ = graph_from_configuration(np.random.default_rng(seed), 40, 3)
        assert complete_chordal(graph, 3).verdict == COMPLETED
        for c in (1e-20, 1e-10, 1e10, 1e20):
            scaled = scaled_lengths(graph, np.sqrt(c))
            result = complete_chordal(scaled, 3)
            assert result.verdict == COMPLETED, c
            assert verify_target_matrix(result.full_matrix, scaled, 3).satisfied

    def test_small_graphs_and_forests_complete(self, rng):
        cases = [(graph_from_configuration(rng, 7, 2)[0], 2) for _ in range(10)]
        # Forests: vertices 5-8 form a second component, which hangs off
        # clique 0 by an empty separator and inherits its parent's transport.
        # When the walk starts in the other component that transport is not
        # the identity.
        for _ in range(10):
            first, _ = graph_from_configuration(rng, 5, 3)
            second, _ = graph_from_configuration(rng, 4, 3)
            moved = tuple((u + 5, v + 5, length) for u, v, length in second.edges)
            cases.append((LengthGraph(9, first.edges + moved), 3))
        for g, n in cases:
            result = complete_chordal(g, n)
            assert result.verdict == COMPLETED
            assert verify_target_matrix(result.full_matrix, g, n).satisfied

    def test_verdict_invariant_under_relabelling(self):
        # In permutations 6 and 8 clique 0 sits at the end of a long tree
        # path; a walk rooted there compounds rounding along that path past
        # the edge tolerance, one rooted at the tree's center does not.
        from bench.inputs import chordal_graph

        instance = chordal_graph(np.random.default_rng(2027), 200)
        perms = np.random.default_rng(0)
        for _ in range(20):
            graph = relabelled(instance, perms.permutation(instance.vertices))
            result = complete_chordal(graph, 3)
            assert result.verdict == COMPLETED
            assert verify_target_matrix(result.full_matrix, graph, 3).satisfied

    def test_disconnected_components(self):
        g = LengthGraph(4, ((0, 1, 1.0), (2, 3, 2.0)))
        result = complete_chordal(g, 2)
        assert result.verdict == COMPLETED
        assert verify_target_matrix(result.full_matrix, g, 2).satisfied

    def test_isolated_vertex(self):
        g = LengthGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.5)))
        result = complete_chordal(g, 2)
        assert result.verdict == COMPLETED
        assert verify_target_matrix(result.full_matrix, g, 2).satisfied

    def test_zero_length_edges_complete(self):
        # A path with one zero edge: the shared-tangent pair plus a unit edge.
        g = LengthGraph(3, ((0, 1, 0.0), (1, 2, 1.0)))
        result = complete_chordal(g, 2)
        assert result.verdict == COMPLETED
        assert verify_target_matrix(result.full_matrix, g, 2).satisfied

    def test_degenerate_separator_with_compatible_ratios(self):
        # Two triangles glued along a zero-length edge. The separator vectors
        # are proportional nulls; gluing works exactly when the distance
        # ratios to the coincident pair agree across the cliques (1/4 = 9/36).
        g = LengthGraph(
            4, ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.0), (1, 3, 3.0), (2, 3, 6.0))
        )
        result = complete_chordal(g, 2)
        assert result.verdict == COMPLETED
        assert verify_target_matrix(result.full_matrix, g, 2).satisfied

    def test_degenerate_separator_with_incompatible_ratios(self):
        # Same shape with ratios 1/4 vs 9/25: every clique is feasible on its
        # own, but no global configuration exists, and the separator
        # alignment reports the inconsistency.
        g = LengthGraph(
            4, ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 0.0), (1, 3, 3.0), (2, 3, 5.0))
        )
        ok, _ = clique_feasible(g, 2)
        assert ok
        result = complete_chordal(g, 2)
        assert result.verdict == INFEASIBLE
        assert "gluing" in str(result.witness)


class TestOneDecisionPerClique:
    """Each clique is decided by one construct_embedding call, never by a
    second certificate."""

    def test_check_kissing_is_never_called(self, monkeypatch):
        import kissgeo.embed

        def forbidden(*args, **kwargs):
            raise AssertionError("completion ran check_kissing")

        monkeypatch.setattr(kissgeo.embed, "check_kissing", forbidden)
        assert not hasattr(completion, "check_kissing")
        triangle = complete_graph(3)
        unrealized = LengthGraph(3, ((0, 1, 1.0), (1, 2, 0.0), (0, 2, 0.0)))
        assert clique_feasible(triangle, 2)[0]
        assert complete_chordal(triangle, 2).verdict == COMPLETED
        # Refused on the line; certified but not realizable in the plane.
        for graph, n in ((triangle, 1), (unrealized, 2)):
            assert not clique_feasible(graph, n)[0]
            assert complete_chordal(graph, n).verdict == INFEASIBLE

    def test_off_cone_factor_row_is_a_clique_verdict(self):
        # Four realizable spheres whose last has distances of at most 6.5e-9
        # of max D: its factor row lies inside the factor's residual check
        # but off the cone relative to its own size.
        result = complete_chordal(far_sphere_graph(), 3)
        assert result.verdict == INFEASIBLE
        check = result.witness
        assert check.clique == (0, 1, 2, 3)
        assert check.certificate.embeddable and not check.realized
        assert check.diagnostic.startswith("factor row 3 is not a future null vector: ")
        ok, checks = clique_feasible(far_sphere_graph(), 3)
        assert not ok
        assert [c for c in checks if not c.realized] == [check]

    def test_a_genuine_eigenvalue_inside_the_cutoff_is_realized(self):
        # sm257: clique (1, 5, 6, 18) has a negative eigenvalue at 0.92 of the
        # cutoff, which the factor's free slot now takes.
        graph, _ = graph_from_configuration(np.random.default_rng(257), 38, 3)
        result = complete_chordal(graph, 3)
        assert result.verdict == COMPLETED
        assert verify_target_matrix(result.full_matrix, graph, 3).satisfied
        ok, checks = clique_feasible(graph, 3)
        assert ok and all(c.realized for c in checks)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("graph", [
        LengthGraph(2, ((0, 1, 0.0),)),
        LengthGraph(3, ((0, 1, 0.0), (1, 2, 0.0))),
        LengthGraph(4, ((0, 1, 0.0), (0, 2, 0.0), (0, 3, 0.0))),
        LengthGraph(3, ((0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0))),
    ], ids=["edge", "path", "star", "triangle"])
    def test_zero_data_completes_to_zero(self, graph, n):
        result = complete_chordal(graph, n)
        assert result.verdict == COMPLETED
        # Exact +0.0 entries: the spheres share one tangent point.
        assert not result.full_matrix.view(np.int64).any()
        assert verify_target_matrix(result.full_matrix, graph, n).satisfied


class TestPinnedGluings:
    """Realizable graphs glued by aligning each clique to its parent. On 261
    and 1020 a two-vertex separator has a small squared distance (0.0075 or
    0.051), and a polish bound not scaled by max|T|^2 spoils its alignment
    (residual 1.8e-7 and 9.8e-8 against 1e-8). The
    800-vertex graphs are the benchmark's completion inputs for their seeds;
    on 1017, 1034 and 1039 spheres lie near a plane, and from_lightcone must
    not snap them to planes."""

    @pytest.mark.parametrize("vertices, share, seed", [
        (40, 0.2, 261),
        (800, 0.03, 1020),
        (800, 0.03, 1009),
        (60, 0.1, 103),
    ])
    def test_small_separator_completes(self, vertices, share, seed):
        graph = shared_point_chordal_graph(np.random.default_rng(seed), vertices, shared_share=share)
        result = complete_chordal(graph, 3)
        assert result.verdict == COMPLETED
        assert verify_target_matrix(result.full_matrix, graph, 3).satisfied

    @pytest.mark.parametrize("seed", [1017, 1034, 1039])
    def test_near_plane_spheres_glue(self, seed):
        graph = shared_point_chordal_graph(np.random.default_rng(seed), 800, shared_share=0.03)
        result = complete_chordal(graph, 3)
        assert result.verdict == COMPLETED
        assert verify_target_matrix(result.full_matrix, graph, 3).satisfied

    def test_exact_alignment_is_not_spoiled_by_the_polish(self):
        # Separator vectors of a two-vertex separator in the benchmark graph
        # chordal_graph(default_rng(1020), 800). The two Gram matrices agree
        # to 1e-15 relative and the map has entries near 1.2e3, so rounding
        # in T^T eta T alone is about 1e-10: a polish bound of 1e-11 not
        # scaled by max|T|^2 runs all three rounds and leaves a residual of
        # 9.8e-8.
        source = np.array([
            [2.096981676700469, -0.15471198745512582, -0.0, 2.102681134047629],
            [5.002400955660712, 0.06493989723718174, -0.0, 5.002822454519887]])
        target = np.array([
            [2.4551461121075073, -0.12179374949412153, -0.09547976816097156, 2.4600188079241425],
            [5.750937096249831, 0.053939228526887546, 0.04060828189021714, 5.751333406954824]])
        transform = lorentz_align(source, target)
        assert is_lorentz(transform)
        residual = np.linalg.norm(source @ transform.T - target, axis=1).max()
        assert residual <= RESIDUAL * np.linalg.norm(target, axis=1).max()


class TestCenter:
    @pytest.mark.parametrize("length, middle", [(1, 0), (2, 1), (5, 2), (6, 3)])
    def test_path_of_cliques_is_rooted_in_the_middle(self, length, middle):
        # Cliques (i, i + 1) of a path graph form a path in the clique tree.
        graph = LengthGraph(length + 1, tuple((i, i + 1, 1.0) for i in range(length)))
        tree = is_chordal(graph).tree
        assert tree.cliques == tuple((i, i + 1) for i in range(length))
        neighbors = [[] for _ in tree.cliques]
        for i, j, separator in tree.edges:
            neighbors[i].append((j, separator))
            neighbors[j].append((i, separator))
        assert completion._center(neighbors) == middle

    def test_star_is_rooted_at_its_hub(self):
        neighbors = [[(3, ())], [(3, ())], [(3, ())], [(0, ()), (1, ()), (2, ()), (4, ())], [(3, ())]]
        assert completion._center(neighbors) == 3


class TestVerifyTargetMatrix:
    def test_completed_output_passes(self, rng):
        g, _ = graph_from_configuration(rng, 6, 2)
        result = complete_chordal(g, 2)
        assert verify_target_matrix(result.full_matrix, g, 2).satisfied

    def test_diagonal_violation(self):
        g = LengthGraph(2, ((0, 1, 1.0),))
        report = verify_target_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]), g, 2)
        assert not report.diagonal_ok
        assert not report.satisfied

    def test_checked_at_the_data_scale(self):
        g = complete_graph(3, 1e-5)
        result = complete_chordal(g, 2)
        assert result.verdict == COMPLETED
        assert verify_target_matrix(result.full_matrix, g, 2).satisfied
        report = verify_target_matrix(1.5 * result.full_matrix, g, 2)
        assert report.diagonal_ok and not report.edges_ok
        report = verify_target_matrix(result.full_matrix + 1e-14 * np.eye(3), g, 2)
        assert not report.diagonal_ok and report.edges_ok

    def test_a_wrong_largest_entry_is_refused_up_to_the_float_maximum(self):
        # The 3-4-5 triangle with max l^2 = top, whose largest entry comes back
        # 1.5 times too small; the allowance must not overflow to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for top in (1e300, 1e307, 1e308, 1.7e308):
                unit = math.sqrt(top) / 5.0
                g = LengthGraph(3, ((0, 1, 3.0 * unit), (1, 2, 4.0 * unit), (0, 2, 5.0 * unit)))
                d = np.zeros((3, 3))
                for u, v, length in g.edges:
                    d[u, v] = d[v, u] = length * length
                assert verify_target_matrix(d, g, 2).satisfied, top
                d[0, 2] = d[2, 0] = d[0, 2] / 1.5
                report = verify_target_matrix(d, g, 2)
                assert not report.edges_ok and report.failures[0].startswith("edge (0, 2) entry "), top

    def test_signature_violation_named(self):
        g = LengthGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        block = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = verify_target_matrix(np.kron(np.eye(2), block), g, 3)
        assert report.diagonal_ok and report.edges_ok and report.rank_ok
        assert not report.signature_ok
        assert report.failures == ("2 positive eigenvalues instead of one",)

    def test_rank_violation_named(self):
        g = complete_graph(3)
        report = verify_target_matrix(np.ones((3, 3)) - np.eye(3), g, 1)
        assert report.diagonal_ok and report.edges_ok and report.signature_ok
        assert not report.rank_ok
        assert report.failures == ("rank 3 exceeds n + 1 = 2",)

    def test_edge_violation_named(self):
        g = LengthGraph(2, ((0, 1, 2.0),))
        report = verify_target_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), g, 2)
        assert not report.edges_ok
        assert "(0, 1)" in " ".join(report.failures)

    def test_edge_failure_text_prints_plain_floats(self):
        g = LengthGraph(2, ((0, 1, 2.0),))
        report = verify_target_matrix(np.array([[0.0, 1e-17], [1e-17, 0.0]]), g, 2)
        assert report.failures == ("edge (0, 1) entry 1e-17 != squared length 4.0",)
        # A refused gluing of the zero pair (0, 1), which names a residual.
        zero_pair = LengthGraph(4, ((0, 1, 0.0), (0, 2, 1.0), (1, 2, 2.0), (0, 3, 1.0), (1, 3, 3.0)))
        result = complete_chordal(zero_pair, 2)
        assert result.verdict == INFEASIBLE
        assert "alignment residual " in result.witness
        assert "np.float64" not in result.witness


class TestEdgesAtTheDataScale:
    """The edge test is the round trip's closeness rule with top = max l^2,
    so a zero-length edge may come back as rounding at the data's own scale.
    The completion of the shared-point graph below returns its zero-length
    edge (2, 4) as about 4e-15; the floor min(1, max l^2) refused that matrix
    times 4^25 and 4^100."""

    POWERS = (-100, -25, 25, 100)

    @pytest.fixture(scope="class")
    def shared(self):
        graph = shared_point_chordal_graph(np.random.default_rng(7), 40, shared_share=0.2)
        result = complete_chordal(graph, 3)
        assert result.verdict == COMPLETED
        assert graph.length(2, 4) == 0.0 and result.full_matrix[2, 4] > 0.0
        return graph, result

    def test_report_commutes_with_exact_scaling(self, shared):
        graph, result = shared
        report = verify_target_matrix(result.full_matrix, graph, 3)
        assert report.satisfied
        for k in self.POWERS:
            scaled = scaled_lengths(graph, 2.0**k)
            assert verify_target_matrix(4.0**k * result.full_matrix, scaled, 3) == report, k

    def test_large_lengths_complete(self, shared):
        graph, _ = shared
        assert complete_chordal(scaled_lengths(graph, 1e5), 3).verdict == COMPLETED

    def test_a_wrong_diameter_is_refused_at_every_scale(self, shared):
        # Each sphere in turn has its diameter times 1.001. The matrix stays a
        # distance matrix of spheres, so the rank and the signature still
        # pass: only the edge test can refuse it.
        graph, result = shared
        for i in range(graph.vertex_count):
            spheres = from_lightcone(result.embedding)
            spheres[i] = Sphere(tangent=spheres[i].tangent, diameter=1.001 * spheres[i].diameter)
            wrong = distance_matrix(spheres)
            for k in (0, *self.POWERS):
                report = verify_target_matrix(4.0**k * wrong, scaled_lengths(graph, 2.0**k), 3)
                assert not report.edges_ok, (i, k)
                assert report.diagonal_ok and report.rank_ok and report.signature_ok, (i, k)

    def test_off_cone_placed_vector_is_a_silent_verdict(self):
        # Lengths times 2^200 of a graph with an all-zero clique, whose absolute
        # diameters do not scale: the maps into and out of its frame scale by
        # about 1e61, vertex 39's placed vector comes out off the cone, and
        # it is refused by vertex without a warning.
        graph = shared_point_chordal_graph(np.random.default_rng(4), 40, shared_share=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = complete_chordal(scaled_lengths(graph, 2.0**200), 3)
        assert result.verdict == INFEASIBLE
        assert result.witness == "placed vector of vertex 39: vector is not null to tolerance"

    @pytest.mark.parametrize("which", ["cli-complete [1, 3] draw 8", "bench800 37, relabel 2"])
    def test_benchmark_graphs_refused_only_by_a_capped_floor(self, which):
        from bench.inputs import chordal_graph

        if which.startswith("cli"):
            rng = np.random.default_rng([1, 3])
            for _ in range(8):
                instance = chordal_graph(rng, 800)
            graph = relabelled(instance)
        else:
            labels = np.random.default_rng([37, 77])
            labels.permutation(800)
            instance = chordal_graph(np.random.default_rng(1037), 800)
            graph = relabelled(instance, labels.permutation(800))
        result = complete_chordal(graph, 3)
        assert result.verdict == COMPLETED, result.witness
        # An independent check: numpy's eigvalsh, and edges within 1e-7 of max l^2.
        u, v, length = np.array(graph.edges).T
        expected = length**2
        error = np.abs(result.full_matrix[u.astype(int), v.astype(int)] - expected).max()
        assert error <= 1e-7 * expected.max()
        values = np.linalg.eigvalsh(result.full_matrix)
        values = values[np.abs(values) > 1e-9 * np.abs(values).max()]
        assert (values > 0).sum() == 1
        assert values.size <= 4


class TestReadOffTheSpheres:
    """The completed matrix is kissing.distance_matrix of the placed vectors'
    spheres, so a Completed matrix is realizable, and a placed vector that
    is not a future null vector is refused by vertex."""

    @pytest.mark.parametrize("c", [1e-20, 1e-10, 1.0, 1e10])
    def test_completed_means_realizable(self, c):
        # Lengths times sqrt(c) of the shared-point graphs, whose all-zero
        # cliques keep absolute diameters: at c = 1e-10 and 1e-20 some placed
        # vectors of s13, s16 and s18 come out off the cone or zero, and each
        # is refused by vertex, not returned in an unrealizable matrix.
        completed = 0
        for s in range(20):
            graph = shared_point_chordal_graph(np.random.default_rng(s), 40, shared_share=0.2)
            result = complete_chordal(scaled_lengths(graph, np.sqrt(c)), 3)
            if result.completed:
                completed += 1
                assert len(construct_embedding(result.full_matrix, 3)) == 40, s
        assert completed >= 14

    @pytest.mark.parametrize("graph, n", [
        (graph_from_configuration(np.random.default_rng(3), 12, 2)[0], 2),
        (shared_point_chordal_graph(np.random.default_rng(7), 40, shared_share=0.2), 3),
    ], ids=["configuration", "shared"])
    def test_full_matrix_is_the_spheres_distance_matrix(self, graph, n):
        result = complete_chordal(graph, n)
        assert result.verdict == COMPLETED
        expected = distance_matrix(from_lightcone(result.embedding))
        assert result.full_matrix.tobytes() == expected.tobytes()
        assert not np.diag(result.full_matrix).view(np.int64).any()

    def test_a_sheared_alignment_is_refused_by_vertex(self, monkeypatch):
        shear = np.eye(4)
        shear[0, 1] = 1e-3
        monkeypatch.setattr(completion, "lorentz_align", lambda x, y: lorentz_align(x, y) @ shear)
        graph, _ = graph_from_configuration(np.random.default_rng(5), 12, 3)
        result = complete_chordal(graph, 3)
        assert result.verdict == INFEASIBLE
        assert result.witness.startswith("placed vector of vertex ")

    def test_benchmark_graph_edges_to_rounding(self):
        # Rounding alone: the Gram product -X eta X^T of the same placed
        # vectors cancels and misses these edges by up to 4.3e-8 of max l^2.
        from bench.inputs import chordal_graph

        graph = relabelled(chordal_graph(np.random.default_rng(1039), 800))
        result = complete_chordal(graph, 3)
        assert result.verdict == COMPLETED
        u, v, length = np.array(graph.edges).T
        expected = length**2
        error = np.abs(result.full_matrix[u.astype(int), v.astype(int)] - expected).max()
        assert error <= 1e-10 * expected.max()


class TestNonChordalWitness:
    def test_four_cycle(self):
        g = cycle_graph(4)
        lengths = non_chordal_witness(g)
        values = sorted(length for _, _, length in lengths.edges)
        assert values == [0.0, 0.0, 0.0, 1.0]
        ok, _ = clique_feasible(lengths, 2)
        assert ok
        assert complete_chordal(lengths, 2).verdict == NOT_CHORDAL

    def test_five_cycle(self):
        lengths = non_chordal_witness(cycle_graph(5))
        values = sorted(length for _, _, length in lengths.edges)
        assert values == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_pendant_vertex_rule(self):
        # A pendant edge has exactly one end on the cycle, so it gets length 1.
        g = LengthGraph(
            5, ((0, 1, 9.0), (1, 2, 9.0), (2, 3, 9.0), (0, 3, 9.0), (0, 4, 9.0))
        )
        lengths = non_chordal_witness(g)
        cycle = is_chordal(g).cycle
        assert 4 not in cycle
        assert lengths.length(0, 4) == 1.0
        cycle_lengths = sorted(
            lengths.length(u, v) for u, v, _ in g.edges if u != 4 and v != 4
        )
        assert cycle_lengths == [0.0, 0.0, 0.0, 1.0]

    def test_chordal_input_rejected(self):
        with pytest.raises(ValueError, match="chordal"):
            non_chordal_witness(complete_graph(3))

    def test_zero_chain_connects_unit_edge_symbolically(self):
        # The zero-length edges of the cycle connect the endpoints of the unit
        # edge, which is the contradiction the witness encodes.
        for size in (4, 5, 6):
            g = cycle_graph(size)
            lengths = non_chordal_witness(g)
            unit_edges = [(u, v) for u, v, w in lengths.edges if w == 1.0]
            assert len(unit_edges) == 1
            u0, v0 = unit_edges[0]
            # Walk zero edges from u0; must reach v0.
            zero_adj = {i: set() for i in range(size)}
            for u, v, w in lengths.edges:
                if w == 0.0:
                    zero_adj[u].add(v)
                    zero_adj[v].add(u)
            seen = {u0}
            frontier = [u0]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in zero_adj[x]:
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            assert v0 in seen

    def test_witness_property_small_graphs(self, rng):
        # Random non-chordal graphs: cliques all feasible, graph refused.
        found = 0
        for _ in range(60):
            m = int(rng.integers(4, 8))
            pairs = list(combinations(range(m), 2))
            keep = rng.uniform(size=len(pairs)) < 0.5
            edges = tuple(
                (u, v, 1.0) for (u, v), k in zip(pairs, keep) if k
            )
            try:
                g = LengthGraph(m, edges)
            except ValueError:
                continue
            if is_chordal(g).chordal:
                continue
            found += 1
            lengths = non_chordal_witness(g)
            ok, _ = clique_feasible(lengths, 2)
            assert ok
            assert complete_chordal(lengths, 2).verdict == NOT_CHORDAL
        assert found >= 10
