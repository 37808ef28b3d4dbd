import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import (
    FAR_SPHERES,
    coincident_sphere_set,
    graph_from_configuration,
    random_sphere,
    random_sphere_set,
    round_trip_close,
)
from kissgeo.embed import (
    Certificate,
    InadmissiblePivotError,
    InertiaWitness,
    MinorWitness,
    RankWitness,
    RealizationError,
    cayley_menger,
    check_euclidean,
    check_kissing,
    construct_embedding,
    schur_embedding,
    verify_schur_relations,
)
from kissgeo import embed, numkernel
from kissgeo.completion import LengthGraph, clique_feasible, complete_chordal
from kissgeo.kissing import Plane, Sphere, distance_matrix
from kissgeo.numkernel import (
    EIG_ZERO,
    GramInfeasibleError,
    Inertia,
    SingularPivotError,
    gram_factor_lorentz,
    schur_complement,
)
from kissgeo.spheres import check_spheres

TANGENT_TRIPLE = np.ones((3, 3)) - np.eye(3)
TRIANGLE_345 = np.array([[0.0, 9.0, 25.0], [9.0, 0.0, 16.0], [25.0, 16.0, 0.0]])

# Single nonzero pair: the algebraic conditions pass but zero distances force
# shared tangent points that contradict the unit entry.
BOUNDARY_GAP = np.zeros((4, 4))
BOUNDARY_GAP[0, 1] = BOUNDARY_GAP[1, 0] = 1.0


class TestCayleyMenger:
    def test_single_point(self):
        assert np.array_equal(cayley_menger(np.zeros((1, 1))), [[0.0, 1.0], [1.0, 0.0]])

    def test_bordering(self):
        out = cayley_menger(np.array([[0.0, 9.0], [9.0, 0.0]]))
        assert np.array_equal(out, [[0.0, 9.0, 1.0], [9.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

    def test_triangle_determinant(self):
        # Heron scaffold: the 3-4-5 triangle has area 6, and the bordered
        # determinant of a k-simplex is (-1)^{k+1} 2^k (k!)^2 vol^2, so here
        # -4 * 4 * 36 = -576.
        area = math.sqrt(6 * (6 - 3) * (6 - 4) * (6 - 5))
        assert area == pytest.approx(6.0, rel=1e-15)
        det = np.linalg.det(cayley_menger(TRIANGLE_345))
        assert det == pytest.approx(-16.0 * area**2, rel=1e-9)
        assert det == pytest.approx(-576.0, rel=1e-9)


TRIANGLE = LengthGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))

# Every entry point that takes the dimension n, called on valid data.
DIMENSION_ENTRY_POINTS = {
    "check_kissing": lambda n: check_kissing(TANGENT_TRIPLE, n),
    "check_euclidean": lambda n: check_euclidean(TANGENT_TRIPLE, n),
    "construct_embedding": lambda n: construct_embedding(TANGENT_TRIPLE, n),
    "schur_embedding": lambda n: schur_embedding(TANGENT_TRIPLE, n, (0, 2)),
    "check_spheres": lambda n: check_spheres(-np.eye(2), n),
    "gram_factor_lorentz": lambda n: gram_factor_lorentz(TANGENT_TRIPLE, n),
    "complete_chordal": lambda n: complete_chordal(TRIANGLE, n),
    "clique_feasible": lambda n: clique_feasible(TRIANGLE, n),
}


class TestDimensionRule:
    """n must be an integer >= 1 at every entry point: numpy integers are
    integers, bools and fractional values are not."""

    @pytest.mark.parametrize("name", DIMENSION_ENTRY_POINTS)
    @pytest.mark.parametrize("n", [2.5, 2.0, True, 0, -1, "2", None])
    def test_refused(self, name, n):
        with pytest.raises(ValueError, match="^dimension n must be an integer >= 1"):
            DIMENSION_ENTRY_POINTS[name](n)

    @pytest.mark.parametrize("name", DIMENSION_ENTRY_POINTS)
    def test_numpy_integers_accepted(self, name):
        call = DIMENSION_ENTRY_POINTS[name]
        assert repr(call(np.int64(2))) == repr(call(np.int32(2))) == repr(call(2))


class TestPivotIntegers:
    @pytest.mark.parametrize("pivot", [(0, 1.5), (1.0, 2), (True, 0), (0, False)])
    def test_schur_routes_refuse_non_integer_pivots(self, pivot):
        with pytest.raises(ValueError, match="^pivot must be two distinct integer indices"):
            schur_embedding(TANGENT_TRIPLE, 2, pivot)
        with pytest.raises(ValueError, match="^pivot must be two distinct integer indices"):
            verify_schur_relations(TANGENT_TRIPLE, pivot)

    @pytest.mark.parametrize("pivots", [[0.7, 1], [True, 1], [0, 1.0]])
    def test_schur_complement_refuses_non_integer_indices(self, pivots):
        with pytest.raises(ValueError, match="^pivot indices must be integers$"):
            schur_complement(TANGENT_TRIPLE, pivots)

    def test_numpy_integer_pivots(self):
        pivot = (np.int64(0), np.int32(2))
        assert schur_embedding(TANGENT_TRIPLE, 2, pivot) == schur_embedding(TANGENT_TRIPLE, 2, (0, 2))
        assert verify_schur_relations(TANGENT_TRIPLE, pivot) == verify_schur_relations(
            TANGENT_TRIPLE, (0, 2))
        assert np.array_equal(schur_complement(TANGENT_TRIPLE, np.array([0, 2])),
                              schur_complement(TANGENT_TRIPLE, [0, 2]))


class TestCheckKissing:
    def test_tangent_pair_line(self):
        cert = check_kissing(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
        assert cert.embeddable
        # Realized by a hyperplane/sphere pair on the half-line.
        realized = [Plane(1.0), Sphere((), 1.0)]
        assert np.allclose(distance_matrix(realized), [[0.0, 1.0], [1.0, 0.0]])

    def test_tangent_triple_needs_the_plane(self):
        low = check_kissing(TANGENT_TRIPLE, 1)
        assert not low.embeddable
        assert low.witness == InertiaWitness(Inertia(1, 2, 0), "at most 1 negative eigenvalues")
        assert check_kissing(TANGENT_TRIPLE, 2).embeddable

    def test_negative_entry_rejected_at_validation(self):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            check_kissing(bad, 2)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            check_kissing(np.array([[1.0, 1.0], [1.0, 0.0]]), 2)

    @pytest.mark.parametrize("bad, match", [
        (1e-15 * (np.ones((3, 3)) - np.eye(3)) + 1e-13 * np.eye(3), "zero diagonal"),
        (1e-15 * np.array([[0.0, 1.0, -0.1], [1.0, 0.0, 1.0], [-0.1, 1.0, 0.0]]), "nonnegative"),
    ])
    def test_validation_at_the_data_scale(self, bad, match):
        with pytest.raises(ValueError, match=match):
            check_kissing(bad, 3)

    def test_minors_mode_matches(self):
        for n in (1, 2, 3):
            for d in (TANGENT_TRIPLE, TRIANGLE_345, BOUNDARY_GAP):
                assert (
                    check_kissing(d, n, "minors").verdict
                    == check_kissing(d, n, "inertia").verdict
                )

    def test_minors_witness_is_lexicographically_first(self):
        d = np.block(
            [[TANGENT_TRIPLE, np.zeros((3, 3))], [np.zeros((3, 3)), TANGENT_TRIPLE]]
        )
        cert = check_kissing(d, 1, "minors")
        assert not cert.embeddable
        assert isinstance(cert.witness, MinorWitness)
        # The first violating subset in lexicographic order spans both blocks:
        # det restricted to (0,1,2,3,4) is -2, so the signed minor is +2.
        assert cert.witness.subset == (0, 1, 2, 3, 4)
        assert cert.witness.signed_minor == pytest.approx(2.0, rel=1e-9)

    def test_minors_cap(self):
        # One cap, held by the subset walk, for every minors route.
        for call in (lambda: check_kissing(np.zeros((13, 13)), 2, "minors"),
                     lambda: check_spheres(-np.eye(13), 2, "minors"),
                     lambda: numkernel.principal_minor_sums(np.zeros((13, 13)))):
            with pytest.raises(ValueError, match="cap 12"):
                call()

    def test_zero_matrix_is_shared_point_family(self):
        # All-zero distances are realizable by spheres with one tangent point,
        # so both routes must agree on Embeddable.
        for order in (1, 2, 4):
            z = np.zeros((order, order))
            assert check_kissing(z, 1, "inertia").embeddable
            assert check_kissing(z, 1, "minors").embeddable

    def test_monotone_in_dimension(self, rng):
        for _ in range(20):
            d = distance_matrix(random_sphere_set(rng, 5, 2))
            for n in (2, 3, 4):
                assert check_kissing(d, n).embeddable

    def test_generative_completeness(self, rng):
        for n in (2, 3, 4):
            for _ in range(10):
                d = distance_matrix(random_sphere_set(rng, 6, n, plane_chance=0.2))
                assert check_kissing(d, n).embeddable


class TestCheckEuclidean:
    def test_triangle_in_plane(self):
        assert check_euclidean(TRIANGLE_345, 2).embeddable
        assert check_euclidean(TRIANGLE_345, 2, "minors").embeddable

    def test_triangle_not_on_line(self):
        cert = check_euclidean(TRIANGLE_345, 1, "minors")
        assert not cert.embeddable
        assert isinstance(cert.witness, RankWitness)
        assert cert.witness.rank == 4
        assert not check_euclidean(TRIANGLE_345, 1).embeddable

    def test_single_point(self):
        for n in (1, 2, 5):
            assert check_euclidean(np.zeros((1, 1)), n).embeddable
            assert check_euclidean(np.zeros((1, 1)), n, "minors").embeddable

    def test_repeated_points(self):
        assert check_euclidean(np.zeros((3, 3)), 2).embeddable

    def test_kissing_one_dimension_up_is_necessary(self, rng):
        # Realizable data passes the plain distance-matrix eigenvalue counts:
        # points in n-space are kissing spheres of one diameter in n + 1.
        for _ in range(20):
            points = rng.normal(size=(5, 3))
            d = np.array(
                [[float(np.sum((a - b) ** 2)) for b in points] for a in points]
            )
            assert check_kissing(d, 4).embeddable

    def test_methods_agree_on_random_instances(self, rng):
        for _ in range(40):
            if rng.uniform() < 0.5:
                points = rng.normal(size=(4, 2))
                d = np.array(
                    [[float(np.sum((a - b) ** 2)) for b in points] for a in points]
                )
            else:
                d = np.abs(rng.normal(size=(4, 4)))
                d = d + d.T
                np.fill_diagonal(d, 0.0)
            for n in (1, 2, 3):
                assert (
                    check_euclidean(d, n, "minors").verdict
                    == check_euclidean(d, n, "inertia").verdict
                )


    @pytest.mark.parametrize("check", [
        lambda d: check_euclidean(d, 3, "inertia"),
        lambda d: check_kissing(d, 4),
    ], ids=["inertia", "kissing_one_up"])
    def test_large_refusal_skips_sym_eigen(self, rng, monkeypatch, eigh_orders, check):
        # 120 points in 40 dimensions: rank far above n + 2 = 5.
        points = rng.normal(size=(120, 40))
        sq = np.sum(points * points, axis=1)
        d = np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0)
        np.fill_diagonal(d, 0.0)
        cert = check(d)
        assert eigh_orders == []
        assert not cert.embeddable and not cert.witness.exact
        assert cert.witness.requirement == "at most 4 negative eigenvalues"
        monkeypatch.setattr(numkernel, "_sketched_spectrum", lambda *args: None)
        exact = check(d).witness
        assert exact.exact and exact.requirement == cert.witness.requirement
        assert cert.witness.inertia.negative <= exact.inertia.negative


class TestConstructEmbedding:
    def test_tangent_pair(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        spheres = construct_embedding(d, 1)
        assert round_trip_close(distance_matrix(spheres), d)

    def test_tangent_triple(self):
        spheres = construct_embedding(TANGENT_TRIPLE, 2)
        assert round_trip_close(distance_matrix(spheres), TANGENT_TRIPLE)

    def test_boundary_gap_detected(self):
        # Both algebraic checks pass at every n >= 1, yet the configuration is
        # unrealizable; the factorization's zero rows expose it.
        for n in (1, 2, 3):
            assert check_kissing(BOUNDARY_GAP, n, "inertia").embeddable
            assert check_kissing(BOUNDARY_GAP, n, "minors").embeddable
        with pytest.raises(RealizationError, match="zero factor rows"):
            construct_embedding(BOUNDARY_GAP, 2)

    def test_infeasible_inertia_raises(self):
        with pytest.raises(GramInfeasibleError):
            construct_embedding(TANGENT_TRIPLE, 1)

    def test_zero_matrix_realized_directly(self):
        spheres = construct_embedding(np.zeros((3, 3)), 2)
        assert np.allclose(distance_matrix(spheres), 0.0)
        assert len({s.diameter for s in spheres}) == 3

    def test_round_trip_random(self, rng):
        for n in (2, 3):
            for _ in range(15):
                d = distance_matrix(random_sphere_set(rng, 6, n, plane_chance=0.15))
                spheres = construct_embedding(d, n)
                assert round_trip_close(distance_matrix(spheres), d)

    def test_partial_zero_pattern_realizable(self):
        # Two spheres at distance zero plus one at unit distance from both is
        # realizable (the pair coincides); the pipeline must succeed.
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        spheres = construct_embedding(d, 2)
        assert round_trip_close(distance_matrix(spheres), d)

    def test_off_cone_factor_row_is_a_realization_error(self):
        # Four realizable spheres at n = 3 whose last row is tiny: its factor
        # row passes the factor's residual check but not from_lightcone's
        # null test.
        d = distance_matrix(FAR_SPHERES)
        assert check_kissing(d, 3).embeddable
        with pytest.raises(RealizationError, match="^factor row 3 is not a future null vector: "):
            construct_embedding(d, 3)

    @pytest.mark.parametrize("clique", ["sm257", "35102"])
    def test_a_genuine_eigenvalue_inside_the_cutoff_fills_a_free_slot(self, clique):
        """Cliques of realizable graphs at n = 3 with a negative eigenvalue
        inside the cutoff but beyond the rounding bound m eps max|lambda|:
        the free slot takes it, where the factor once left its column zero
        and the row off the cone, and the clique is realized."""
        from bench.inputs import chordal_graph

        if clique == "sm257":
            graph, _ = graph_from_configuration(np.random.default_rng(257), 38, 3)
            vertices = (1, 5, 6, 18)
        else:
            item = chordal_graph(np.random.default_rng([35102, 1]), 3200)
            graph = LengthGraph(item.vertices, tuple((int(u), int(v), float(w)) for u, v, w in item.edges))
            vertices = (1, 51, 631, 3134)
        d = np.array([[graph.length(u, v) ** 2 if u != v else 0.0 for v in vertices]
                      for u in vertices])
        values = np.linalg.eigvalsh(d)
        top = float(np.abs(values).max())
        assert -EIG_ZERO * top < values[2] < -4 * np.finfo(float).eps * top
        assert check_kissing(d, 3).embeddable
        factor = gram_factor_lorentz(d, 3)
        assert np.all(np.abs(factor.vectors[:, :3]).max(axis=0) > 0.0)
        assert round_trip_close(distance_matrix(construct_embedding(d, 3)), d)

    def test_zero_row_contradiction_detected(self):
        # One point at distance zero from both ends of a unit pair cannot exist.
        d = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert check_kissing(d, 2).embeddable
        with pytest.raises(RealizationError):
            construct_embedding(d, 2)


class TestSchurEmbedding:
    def test_tangent_pair(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        spheres = schur_embedding(d, 1, (0, 1))
        assert spheres[1] == Plane(1.0)
        assert spheres[0] == Sphere((), 1.0)

    def test_tangent_triple(self):
        spheres = schur_embedding(TANGENT_TRIPLE, 2, (0, 2))
        assert round_trip_close(distance_matrix(spheres), TANGENT_TRIPLE)
        other = construct_embedding(TANGENT_TRIPLE, 2)
        assert round_trip_close(distance_matrix(other), distance_matrix(spheres))

    def test_zero_in_pivot_column(self):
        with pytest.raises(InadmissiblePivotError):
            schur_embedding(BOUNDARY_GAP, 2, (0, 3))

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_tangent_gram_not_semidefinite(self, scale):
        """J - I with one pair at 9 has a second positive eigenvalue, so the
        Schur complement P of (0, 3) is not negative semidefinite."""
        d = np.ones((4, 4)) - np.eye(4)
        d[0, 1] = d[1, 0] = 9.0
        with pytest.raises(RealizationError,
                           match="^tangent Gram -P/2 is not positive semidefinite to tolerance$"):
            schur_embedding(scale * d, 3, (0, 3))

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_tangent_rank_exceeds_the_boundary(self, scale):
        """Spheres with tangent points spanning a plane (ambient dimension 3)
        realized at n = 2, where the boundary is a line."""
        d = scale * distance_matrix(TestRoundTripGuards.SPHERES)
        with pytest.raises(RealizationError, match=r"^tangent rank 2 exceeds n - 1 = 1$"):
            schur_embedding(d, 2, (0, 4))

    def test_matches_construct_embedding(self, rng):
        for n in (2, 3):
            for _ in range(15):
                d = distance_matrix(random_sphere_set(rng, 5, n))
                if d[np.triu_indices(5, 1)].min() <= 0.0:
                    continue
                spheres = schur_embedding(d, n, (0, 4))
                assert round_trip_close(distance_matrix(spheres), d)

    @pytest.mark.parametrize("m", [12, 40, 127])
    def test_exact_dilation_by_powers_of_four(self, m):
        """schur_embedding(4^k D) is schur_embedding(D) with tangent points
        times 2^-k, diameters times 4^-k and the plane at height one, for D
        with max in [1, 4), also beyond [2^-400, 2^400], where the
        elimination runs on D itself."""
        from bench.inputs import N, embeddable_matrix

        d = embeddable_matrix(np.random.default_rng(m), m).d2
        d = np.ldexp(d, -2 * ((math.frexp(d.max())[1] - 1) // 2))
        assert 1.0 <= d.max() < 4.0
        base = schur_embedding(d, N, (0, 1))
        for k in (1, -1, 201, -201, 300, -300, 450, -450, 500, -500):
            want = [s if isinstance(s, Plane) else
                    Sphere(tuple(math.ldexp(t, -k) for t in s.tangent), math.ldexp(s.diameter, -2 * k))
                    for s in base]
            assert schur_embedding(math.ldexp(1.0, 2 * k) * d, N, (0, 1)) == want, k


class TestRoundTripGuards:
    """Each construction's last guard refuses a corrupted result at every
    scale: one realized sphere, or one factor row, is changed on the way."""

    # Four spheres and a plane in ambient dimension 3; every distance to the
    # plane (index 4) is positive, so (0, 4) is an admissible Schur pivot.
    SPHERES = [Sphere((0.0, 0.0), 1.0), Sphere((1.5, 0.5), 0.5), Sphere((-1.0, 1.0), 2.0),
               Sphere((0.5, -1.0), 1.5), Plane(1.0)]

    @pytest.fixture(params=[1e-20, 1.0, 1e20])
    def d(self, request):
        return request.param * distance_matrix(self.SPHERES)

    def test_construct_embedding_round_trip(self, d, monkeypatch):
        assert round_trip_close(distance_matrix(construct_embedding(d, 3)), d)
        real = embed.from_lightcone

        # Doubling a null vector keeps it null and future: row 0 becomes a
        # valid sphere of half the diameter, at the wrong distances.
        def double_row_zero(stack):
            stack = stack.copy()
            stack[0] *= 2.0
            return real(stack)

        monkeypatch.setattr(embed, "from_lightcone", double_row_zero)
        with pytest.raises(RealizationError, match="^round trip failed"):
            construct_embedding(d, 3)

    def test_mixed_time_orientations(self, d, monkeypatch):
        real = numkernel.gram_factor_lorentz

        def flip_row_zero(*args):
            factor = real(*args)
            vectors = factor.vectors.copy()
            vectors[0] = -vectors[0]
            return dataclasses.replace(factor, vectors=vectors)

        monkeypatch.setattr(numkernel, "gram_factor_lorentz", flip_row_zero)
        with pytest.raises(RealizationError, match=r"^factor row \d+ is not a future null vector: "
                                                   "vector is not future-directed$"):
            construct_embedding(d, 3)

    def test_schur_embedding_round_trip(self, d, monkeypatch):
        assert round_trip_close(distance_matrix(schur_embedding(d, 3, (0, 4))), d)
        real = numkernel.sym_eigen

        def stretch_row_zero(*args):
            values, vecs = real(*args)
            vecs = vecs.copy()
            vecs[0] *= 2.0
            return values, vecs

        monkeypatch.setattr(numkernel, "sym_eigen", stretch_row_zero)
        with pytest.raises(RealizationError, match="^round trip failed"):
            schur_embedding(d, 3, (0, 4))


def dilated(spheres, k):
    """The spheres whose squared distances are 4^k times theirs: diameters
    times 2^-k, heights times 2^k, tangent points unchanged."""
    return [Plane(math.ldexp(s.height, k)) if isinstance(s, Plane)
            else Sphere(s.tangent, math.ldexp(s.diameter, -k)) for s in spheres]


def proof_spy(monkeypatch, d, factors=()):
    """Record each _proves_round_trip outcome of construct_embedding on d in
    the returned list, and check that it implies _reproduces against the
    matrix it proves, d at numkernel.unit_scale, for the spheres given and
    for each copy with one sphere's diameter, first or last, times a factor."""
    real = embed._proves_round_trip
    outcomes = []
    unit = numkernel.unit_scale(d, float(d.max()))[0]

    def spy(spheres, x, top):
        outcomes.append(real(spheres, x, top))
        rows = [i for i in (0, len(spheres) - 1) if isinstance(spheres[i], Sphere)]
        variants = [spheres] + [spheres[:i] + [Sphere(spheres[i].tangent, f * spheres[i].diameter)]
                                + spheres[i + 1:] for i in rows for f in factors]
        for variant in variants:
            if real(variant, x, top):
                assert embed._reproduces(variant, unit, top)
        return outcomes[-1]

    monkeypatch.setattr(embed, "_proves_round_trip", spy)
    return outcomes


class TestRoundTripProof:
    """construct_embedding proves its round trip from the factor, and the
    tile walk runs only where the proof does not close: a closed proof must
    never accept what the walk refuses."""

    FACTORS = [1.0 + 10.0**-k for k in (3, 5, 6, 7, 8, 9, 11)]

    @pytest.mark.parametrize("m", [40, 127, 128, 129, 300, 2000])
    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e10])
    def test_a_closed_proof_implies_the_walk_on_benchmark_matrices(self, monkeypatch, m, scale):
        from bench.inputs import embeddable_matrix

        d = scale * embeddable_matrix(np.random.default_rng(m), m).d2
        outcomes = proof_spy(monkeypatch, d, self.FACTORS)
        construct_embedding(d, 3)
        assert outcomes == [True]

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e10])
    def test_a_closed_proof_implies_the_walk_on_random_sets(self, rng, monkeypatch, scale):
        for size, n in [(5, 2), (8, 3), (20, 2), (60, 4), (130, 3), (260, 3)]:
            spheres = coincident_sphere_set(rng, size, n, planes=2, shared=max(1, size // 10))
            d = scale * distance_matrix(spheres)
            outcomes = proof_spy(monkeypatch, d, self.FACTORS)
            construct_embedding(d, n)
            assert outcomes == [True], (size, n)
            monkeypatch.undo()

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e10])
    def test_a_wrong_diameter_is_refused(self, monkeypatch, scale):
        """One returned sphere's diameter times 1 + 1e-6 leaves the proof
        open, and the walk refuses it: either sphere of the largest distance,
        whose change, 1e-6 max D, is five times the rule's allowance."""
        from bench.inputs import embeddable_matrix

        d = scale * embeddable_matrix(np.random.default_rng(129), 129).d2
        real = embed.from_lightcone
        spheres = construct_embedding(d, 3)
        far = np.unravel_index(np.argmax(d), d.shape)
        rows = [int(i) for i in far if isinstance(spheres[i], Sphere)]
        assert rows
        for row in rows:
            def stretch(stack, row=row):
                spheres = real(stack)
                spheres[row] = Sphere(spheres[row].tangent, (1.0 + 1e-6) * spheres[row].diameter)
                return spheres

            monkeypatch.setattr(embed, "from_lightcone", stretch)
            outcomes = proof_spy(monkeypatch, d)
            with pytest.raises(RealizationError, match="^round trip failed"):
                construct_embedding(d, 3)
            assert outcomes == [False]
            monkeypatch.undo()

    @pytest.mark.parametrize("k", [-450, 450])
    @pytest.mark.parametrize("spheres", [TestRoundTripGuards.SPHERES, [Sphere((0.0, 0.0), 1.0), Plane(2.0)]],
                             ids=["spheres", "pair"])
    def test_the_proof_closes_beyond_the_window(self, monkeypatch, k, spheres):
        """Outside 2^-400 <= max D <= 2^400 the proof closes on D / 4^j, and
        the spheres are those of D dilated, a plane's height times 2^(k/2)
        (the pair comes back as a plane and a sphere)."""
        base = distance_matrix(spheres)
        want = dilated(construct_embedding(base, 3), k // 2)
        d = 2.0**k * base
        outcomes = proof_spy(monkeypatch, d)
        realized = construct_embedding(d, 3)
        assert outcomes == [True]
        assert realized == want
        assert round_trip_close(distance_matrix(realized), d)

    def test_the_walk_decides_where_a_dilated_size_is_not_normal(self, monkeypatch):
        """Where a dilated diameter or height would not be a normal float, the
        spheres are read from the factor at D's own scale and walked."""
        assert embed._dilated([Sphere((0.0,), 2.0**600)], -500) is None
        assert embed._dilated([Sphere((0.0,), 1.0), Plane(2.0**-600)], -500) is None
        assert embed._dilated([Sphere((0.0,), 1.0), Plane(2.0)], -500) == [
            Sphere((0.0,), 2.0**500), Plane(2.0**-499)]
        d = 2.0**-900 * distance_matrix(TestRoundTripGuards.SPHERES)
        monkeypatch.setattr(embed, "_dilated", lambda spheres, j: None)
        walks = []
        real = embed._reproduces
        monkeypatch.setattr(embed, "_reproduces", lambda *args: walks.append(1) or real(*args))
        assert round_trip_close(distance_matrix(construct_embedding(d, 3)), d)
        assert walks == [1]


class TestSchurRelations:
    def test_tangent_triple(self):
        report = verify_schur_relations(TANGENT_TRIPLE, (0, 2))
        assert report.inertia_full == (1, 2, 0)
        assert report.inertia_comp == (0, 1, 0)
        assert report.satisfied

    def test_empty_complement(self):
        report = verify_schur_relations(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1))
        assert report.inertia_full == (1, 1, 0)
        assert report.inertia_comp == (0, 0, 0)
        assert report.det_expected == pytest.approx(-1.0)
        assert report.satisfied

    def test_random_embeddable(self, rng):
        for _ in range(25):
            d = distance_matrix(random_sphere_set(rng, 5, 3))
            if d[np.triu_indices(5, 1)].min() <= 1e-12:
                continue
            assert verify_schur_relations(d, (0, 4)).satisfied

    def test_singular_pivot(self):
        with pytest.raises(SingularPivotError):
            verify_schur_relations(BOUNDARY_GAP, (0, 2))

    @pytest.mark.parametrize("c", [1e-20, 1e-6, 1.0, 1e6, 1e20])
    def test_wrong_complement_refused_at_every_scale(self, c, monkeypatch):
        # Four spheres at n = 3: twice the complement keeps its inertia and
        # rank, so only the determinant identity can refuse it.
        d = c * distance_matrix(TestRoundTripGuards.SPHERES[:4])
        report = verify_schur_relations(d, (0, 1))
        assert report.satisfied
        real = numkernel.schur_complement
        monkeypatch.setattr(numkernel, "schur_complement", lambda *args: 2.0 * real(*args))
        report = verify_schur_relations(d, (0, 1))
        assert report.inertia_ok and report.rank_ok
        assert not report.det_ok

    @pytest.mark.parametrize("c", [1e-10, 1.0, 1e10])
    def test_high_order_at_extreme_scales(self, rng, c):
        # At c = 1e10, (max D)^40 overflows unless the test rescales first.
        d = c * distance_matrix(random_sphere_set(rng, 40, 3))
        assert verify_schur_relations(d, (0, 1)).satisfied

    @pytest.mark.parametrize("top", [1e160, 1e300])
    def test_determinants_beyond_the_float_range(self, top):
        """The identity is decided on D / 2^e; the own-scale determinants,
        whose pivot entry squared overflows, are reported as numpy's inf,
        with no error or warning."""
        from bench.inputs import embeddable_matrix

        d = embeddable_matrix(np.random.default_rng(12), 12).d2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_schur_relations(top / d.max() * d, (0, 1))
        assert report.satisfied
        assert math.isinf(report.det_full) and math.isinf(report.det_expected)

    def test_order_beyond_the_float_range_of_max_d_to_the_m(self):
        """At m = 1100 and max D = 1.99, (max D)^m overflows: the identity
        is decided on log-determinants, with no error or warning."""
        from bench.inputs import embeddable_matrix

        d = embeddable_matrix(np.random.default_rng(3), 1100).d2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_schur_relations(1.99 / d.max() * d, (0, 1))
        assert report.satisfied


class TestDegenerationBridges:
    def test_unit_diameters_are_euclidean(self, rng):
        for _ in range(20):
            points = rng.normal(size=(5, 2))
            spheres = [Sphere(tuple(p), 1.0) for p in points]
            d = distance_matrix(spheres)
            euclid = np.array(
                [[float(np.sum((a - b) ** 2)) for b in points] for a in points]
            )
            assert np.abs(d - euclid).max() <= 1e-12 * max(1.0, euclid.max())

    def test_unit_set_plus_plane_is_cayley_menger(self, rng):
        for _ in range(20):
            points = rng.normal(size=(4, 2))
            spheres = [Sphere(tuple(p), 1.0) for p in points] + [Plane(1.0)]
            d = distance_matrix(spheres)
            euclid = np.array(
                [[float(np.sum((a - b) ** 2)) for b in points] for a in points]
            )
            bordered = cayley_menger(euclid)
            assert np.abs(d - bordered).max() <= 1e-12 * max(1.0, bordered.max())


class TestRoundTripRule:
    """embed._round_trip_excess: |actual - expected| <= 1e-7 (|expected| + max|expected|)."""

    def test_rejects_a_large_error_at_small_scale(self):
        expected = 1e-9 * TRIANGLE_345
        wrong = expected.copy()
        wrong[0, 1] = wrong[1, 0] = 1.5 * expected[0, 1]
        assert not round_trip_close(wrong, expected)
        assert round_trip_close(expected * (1.0 + 1e-9), expected)

    def test_zero_entries_match_to_the_matrix_scale(self):
        expected = 1e-12 * BOUNDARY_GAP
        near = expected.copy()
        near[2, 3] = near[3, 2] = 1e-20
        assert round_trip_close(near, expected)
        near[2, 3] = near[3, 2] = 1e-18
        assert not round_trip_close(near, expected)

    def test_floor_is_the_largest_entry_at_every_scale(self):
        """A zero entry may come back within 1e-7 of max D, however large D
        is, and the largest entry may sit past the first tile."""
        m = 300
        expected = np.full((m, m), 0.01)
        np.fill_diagonal(expected, 0.0)
        expected[0, 1] = expected[1, 0] = 0.0
        expected[m - 1, m - 2] = expected[m - 2, m - 1] = 10.0
        for k in range(-1000, 1001, 100):
            scale = math.ldexp(1.0, k)
            near = scale * expected
            near[0, 1] = near[1, 0] = 0.9e-6 * scale
            assert round_trip_close(near, scale * expected)
            near[0, 1] = near[1, 0] = 1.1e-6 * scale
            assert not round_trip_close(near, scale * expected)

    def test_a_wrong_largest_entry_is_refused_up_to_the_float_maximum(self):
        """The allowance is formed from halves, so it stays finite where
        |expected| + top overflows: a largest entry 1.5 times too small is
        refused, with no warning, where an inf allowance once let it pass."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for top in (1e300, 1e307, 1e308, 1.7e308):
                expected = top / 25.0 * TRIANGLE_345
                wrong = expected.copy()
                wrong[0, 2] = wrong[2, 0] = expected[0, 2] / 1.5
                assert round_trip_close(expected, expected), top
                assert not round_trip_close(wrong, expected), top

    def test_verdicts_commute_with_powers_of_two(self, rng):
        """Scaling both matrices by 2^k changes no verdict: a wrong entry 1.5
        times too large and a wrong pair in the last, partial tile are
        refused at every scale, and entries within 1e-9 relative pass."""
        m = 2 * numkernel.TILE + 44
        expected = distance_matrix(coincident_sphere_set(rng, m, 3, planes=2, shared=10))
        wrong = expected.copy()
        wrong[3, 5] = wrong[5, 3] = 1.5 * expected[3, 5]
        off_in_last_tile = expected.copy()
        at = (m - 2, m - 1)
        off_in_last_tile[at] = off_in_last_tile[at[::-1]] = 1.01 * expected[at] + 1e-3
        noisy = expected * (1.0 + rng.normal(scale=1e-7, size=(m, m)))
        noisy = (noisy + noisy.T) / 2.0
        verdict = round_trip_close(noisy, expected)
        for k in range(-1000, 1001, 100):
            scale = math.ldexp(1.0, k)
            assert round_trip_close(scale * expected * (1.0 + 1e-9), scale * expected)
            assert not round_trip_close(scale * wrong, scale * expected)
            assert not round_trip_close(scale * off_in_last_tile, scale * expected)
            assert round_trip_close(scale * noisy, scale * expected) == verdict


ROUTES = (
    (check_kissing, "inertia"),
    (check_kissing, "minors"),
    # The Euclidean necessary condition on the plain distance matrix.
    (lambda d, n, method: check_kissing(d, n + 1, method), "inertia"),
    (check_euclidean, "inertia"),
    (check_euclidean, "minors"),
)


def sample_squared_distances(rng, kind, size):
    """A mix of kissing, shared-point, Euclidean, raised and arbitrary inputs."""
    if kind == "spheres":
        return distance_matrix(random_sphere_set(rng, size, 3, plane_chance=0.3))
    if kind == "shared":
        return distance_matrix(coincident_sphere_set(rng, size, 3, planes=1, shared=2))
    if kind == "points":
        points = rng.normal(size=(size, 2))
        return ((points[:, None] - points[None]) ** 2).sum(axis=-1)
    if kind == "raised":
        d = distance_matrix(random_sphere_set(rng, size, 2))
        group = np.arange(size) < size // 2
        raised = np.outer(group, group).astype(float)
        np.fill_diagonal(raised, 0.0)
        return d + float(np.median(d)) * raised
    a = rng.uniform(0.0, 5.0, size=(size, size))
    d = a + a.T
    np.fill_diagonal(d, 0.0)
    return d


class TestScaleCovariance:
    def test_tiny_tangent_quadruple_is_not_embeddable_on_the_line(self):
        # J - I has inertia (1, 3, 0) at every positive scale; an absolute
        # zero floor used to read it as embeddable at 1e-15.
        for scale in (1.0, 1e-15, 1e-20, 1e20):
            d = scale * (np.ones((4, 4)) - np.eye(4))
            assert check_kissing(d, 1).witness.inertia == Inertia(1, 3, 0)
            for check, method in ROUTES:
                assert not check(d, 1, method).embeddable, (scale, method)

    def test_broken_triangle_rejected_at_every_scale(self):
        # Lengths 1, 1 and 2.001 break the triangle inequality. Its bordered
        # minor scales as c^(|J| - 1) = c^2 and the bordered inertia is read
        # with a border at the data's scale, so neither route can miss it.
        broken = np.array([[0.0, 1.0, 4.004], [1.0, 0.0, 1.0], [4.004, 1.0, 0.0]])
        for scale in (1e-4, 1.0, 1e4):
            for method in ("inertia", "minors"):
                assert not check_euclidean(scale * broken, 2, method).embeddable, (scale, method)
        signed = check_euclidean(1e4 * broken, 2, "minors").witness.signed_minor
        assert signed == pytest.approx(1e8 * check_euclidean(broken, 2, "minors").witness.signed_minor)

    def test_minors_route_does_not_overflow(self):
        d = distance_matrix(random_sphere_set(np.random.default_rng(1), 12, 3))
        # (max D)^12 overflows at 1e25 and underflows at 1e-25.
        for scale in [1e25, 1e-25] + [2.0**k for k in (-1000, -500, 0, 80, 300, 500, 1000)]:
            assert check_kissing(scale * d, 3, "minors").embeddable, scale
            assert check_kissing(scale * d, 3).embeddable, scale

    def test_minor_witness_under_dilation_by_powers_of_two(self):
        # Two tangent triples at distance zero from each other, refused by a
        # signed 5 x 5 minor; the kissing minor has degree 5 in D.
        triple = np.ones((3, 3)) - np.eye(3)
        d = np.block([[triple, np.zeros((3, 3))], [np.zeros((3, 3)), triple]])
        base = check_kissing(d, 1, "minors").witness
        assert base.subset == (0, 1, 2, 3, 4) and base.signed_minor > 0.0
        for k in (-200, -80, 80, 200):
            witness = check_kissing(2.0**k * d, 1, "minors").witness
            assert witness.subset == base.subset, k
            # The minor is the one numpy gives at the data's own scale, which
            # scales with c^5 up to numpy's rounding.
            scaled = 2.0**k * d[:5, :5]
            assert witness.signed_minor == -float(np.linalg.det(scaled))
            assert witness.signed_minor == pytest.approx(math.ldexp(base.signed_minor, 5 * k), rel=1e-12)
        # Beyond the float range the minor at the data's own scale rounds to
        # inf or zero. The witness is then the minor of D / 2^k, the data
        # divided by the power of two below max D, with the exponent 5k.
        for k in (1000, -1000):
            witness = check_kissing(2.0**k * d, 1, "minors").witness
            assert witness == MinorWitness(base.subset, base.signed_minor, 5 * k), k

    def test_bordered_minor_verdicts_under_dilation_by_powers_of_two(self):
        broken = np.array([[0.0, 1.0, 4.004], [1.0, 0.0, 1.0], [4.004, 1.0, 0.0]])
        base = check_euclidean(broken, 2, "minors").witness
        for k in (-1000, -500, 500, 1000):
            assert check_euclidean(2.0**k * broken, 2, "minors").witness.subset == base.subset, k
        # At 2^+-1000 the bordered minor, of degree 2, is inf or 0 at the data's
        # own scale; it is reported for D / 2^(k + 2), as the exponent 2(k + 2).
        quarter = check_euclidean(broken / 4.0, 2, "minors").witness.signed_minor
        for k in (-1000, 1000):
            witness = check_euclidean(2.0**k * broken, 2, "minors").witness
            assert witness == MinorWitness(base.subset, quarter, 2 * (k + 2)), k

    def test_sketch_witness_at_every_power_of_two(self, eigh_orders):
        """Where the sketch's squares would leave the float range, it runs on
        D divided by a power of two: the refusal keeps its counts and stays
        a lower bound (exact False), with no full eigensolve."""
        from bench.inputs import N, not_embeddable_matrix

        d = not_embeddable_matrix(np.random.default_rng(2), 200).d2
        base = check_kissing(d, N).witness
        assert not base.exact
        for scale in [1e-300, 1e154, 1e300] + [math.ldexp(1.0, k) for k in range(-1000, 1001, 100)]:
            assert check_kissing(scale * d, N).witness == base, scale
        assert eigh_orders == []

    def test_round_trip_floor_scales_with_the_data(self):
        """A shared tangent point's zero comes back as rounding at the scale
        of max D, which a floor capped at 1 refused from about 1e30 on. At
        4^k D, k from -500 to 500, where every entry is normal, the spheres
        are those of D with every diameter times 2^-k, bit for bit."""
        from bench.inputs import N, embeddable_matrix

        for seed, m in ((1, 127), (4, 300)):
            d = embeddable_matrix(np.random.default_rng(seed), m).d2
            for scale in [1e40] + [math.ldexp(1.0, k) for k in range(-1000, 1001, 100)]:
                spheres = construct_embedding(scale * d, N)
                assert round_trip_close(distance_matrix(spheres), scale * d), (seed, scale)
            base = construct_embedding(d, N)
            assert d[d > 0.0].min() >= 2.0**-20 and d.max() <= 2.0**20  # 4^k D stays normal
            for k in range(-500, 501, 20):
                assert construct_embedding(math.ldexp(1.0, 2 * k) * d, N) == dilated(base, k), (seed, k)

    # Largest entries near the float maximum, where eigenvalues and the
    # products that form them leave the float range unless divided first.
    NEAR_MAX = (1e306, 1e307, 5e307, 1e308, 1.7e308)

    @pytest.mark.parametrize("m", [5, 12, 20, 35, 40, 300])
    def test_certificates_near_the_float_maximum(self, m):
        """Both eigen routes, eigh (m < 36 at n = 3) and the sketch, decide D
        divided by a power of two, so near the largest double the verdicts and
        inertia witnesses are those at unit scale, with no warning: refusals
        no longer read as rank zero, nor raise numpy's LinAlgError."""
        from bench.inputs import N, embeddable_matrix, not_embeddable_matrix

        for make in (embeddable_matrix, not_embeddable_matrix):
            d = make(np.random.default_rng(m), m).d2
            want = [check_kissing(d, N), check_euclidean(d, N)]
            assert want[0].embeddable == (make is embeddable_matrix)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for top in self.NEAR_MAX:
                    scaled = top / d.max() * d
                    assert [check_kissing(scaled, N), check_euclidean(scaled, N)] == want, top

    def test_construction_near_the_float_maximum(self):
        """Up to the largest double the matrix is realized, with no warning,
        as the exact dilation of the realization of D / 4^j, the matrix at
        unit scale; gram_factor_lorentz returns 2^j times its factor."""
        from bench.inputs import N, embeddable_matrix

        for m, seed in ((40, 40), (300, 40), (300, 300)):
            d = embeddable_matrix(np.random.default_rng(seed), m).d2
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for top in self.NEAR_MAX:
                    scaled = top / d.max() * d
                    unit, j = numkernel.unit_scale(scaled, float(scaled.max()))
                    assert 1.0 <= unit.max() < 4.0
                    assert construct_embedding(scaled, N) == dilated(construct_embedding(unit, N), j), (m, top)
                factor = gram_factor_lorentz(scaled, N)
                assert np.array_equal(factor.vectors, np.ldexp(gram_factor_lorentz(unit, N).vectors, j))

    def test_schur_routes_near_the_float_maximum(self):
        """inertia, verify_schur_relations and schur_embedding count,
        eliminate and factor D / 4^j, the matrix at unit scale, so from
        1e-305 up to the largest double they work with no warning."""
        from bench.inputs import N, embeddable_matrix

        d = embeddable_matrix(np.random.default_rng(40), 40).d2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for top in (1e-305, 1e-300) + self.NEAR_MAX:
                scaled = top / d.max() * d
                assert numkernel.inertia(scaled) == (1, 3, 36), top
                assert verify_schur_relations(scaled, (0, 1)).satisfied, top
                spheres = schur_embedding(scaled, N, (0, 1))
                assert spheres[1] == Plane(1.0) and len(spheres) == 40, top

    def test_schur_diameters_beyond_the_float_range(self):
        """Where 1 / D[i, b] overflows, schur_embedding raises
        RealizationError with no warning, while the report holds."""
        from bench.inputs import N, embeddable_matrix

        d = embeddable_matrix(np.random.default_rng(40), 40).d2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for top in (1e-308, 2.0**-1040):
                scaled = top / d.max() * d
                assert verify_schur_relations(scaled, (0, 1)).satisfied, top
                with pytest.raises(RealizationError, match="^a diameter 1 / D"):
                    schur_embedding(scaled, N, (0, 1))

    def test_construct_embedding_at_extreme_scales(self, rng):
        for scale in (1e-20, 1e-10, 1e10, 1e20):
            for _ in range(10):
                d = scale * distance_matrix(random_sphere_set(rng, 6, 3, plane_chance=0.3))
                spheres = construct_embedding(d, 3)
                assert round_trip_close(distance_matrix(spheres), d)


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("spheres", "shared", "points", "raised", "random")),
    size=st.integers(4, 7),
    n=st.integers(1, 3),
    exponent=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=60)
def test_verdicts_invariant_under_scaling_and_relabelling(seed, kind, size, n, exponent):
    rng = np.random.default_rng(seed)
    d = sample_squared_distances(rng, kind, size)
    perm = rng.permutation(size)
    moved = 10.0**exponent * d[np.ix_(perm, perm)]
    for check, method in ROUTES:
        assert check(moved, n, method).verdict == check(d, n, method).verdict, method
