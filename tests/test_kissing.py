import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import coincident_sphere_set, random_inversion, random_plane, random_sphere
from kissgeo.kissing import (
    Dilation,
    InversionSphere,
    PairClass,
    Plane,
    Reflection,
    Sphere,
    Translation,
    _distance_tiles,
    apply_generator,
    classify_pair,
    distance,
    distance_matrix,
    distance_sq,
    invert,
    normalize_pair,
)

finite_coord = st.floats(min_value=-10.0, max_value=10.0)
diameter = st.floats(min_value=0.05, max_value=20.0)


class TestDistance:
    def test_finite_pair(self):
        p = Sphere(tangent=(0.0,), diameter=1.0)
        q = Sphere(tangent=(3.0,), diameter=4.0)
        assert distance(p, q) == pytest.approx(1.5, abs=1e-15)

    def test_plane_against_sphere(self):
        assert distance(Plane(4.0), Sphere((7.0,), 1.0)) == pytest.approx(2.0, abs=1e-15)

    def test_shared_tangent_point(self):
        assert distance(Sphere((0.0,), 1.0), Sphere((0.0,), 2.0)) == 0.0

    def test_two_planes(self):
        assert distance(Plane(1.0), Plane(5.0)) == 0.0

    def test_symmetry(self, rng):
        for _ in range(50):
            p, q = random_sphere(rng, 3), random_sphere(rng, 3)
            assert distance(p, q) == distance(q, p)
        assert distance(Plane(2.0), Sphere((1.0, 1.0), 3.0)) == distance(
            Sphere((1.0, 1.0), 3.0), Plane(2.0)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance(Sphere((0.0,), 1.0), Sphere((0.0, 0.0), 1.0))

    def test_conformality(self, rng):
        # distance * sqrt(phi_p phi_q) is exactly the tangent gap, so unit
        # diameters degenerate to the Euclidean distance of tangent points.
        for _ in range(30):
            p, q = random_sphere(rng, 3), random_sphere(rng, 3)
            gap = math.dist(p.tangent, q.tangent)
            assert distance(p, q) * math.sqrt(p.diameter * q.diameter) == pytest.approx(
                gap, rel=1e-12
            )
        unit_p = Sphere(p.tangent, 1.0)
        unit_q = Sphere(q.tangent, 1.0)
        assert distance(unit_p, unit_q) == pytest.approx(
            math.dist(p.tangent, q.tangent), rel=1e-15
        )


class TestClassifyPair:
    def test_tangent(self):
        p = Sphere((0.0,), 1.0)
        q = Sphere((1.0,), 1.0)
        assert classify_pair(p, q) is PairClass.TANGENT

    def test_disjoint(self):
        assert classify_pair(Sphere((0.0,), 1.0), Sphere((2.0,), 1.0)) is PairClass.DISJOINT

    def test_two_planes_share_point_at_infinity(self):
        assert classify_pair(Plane(1.0), Plane(2.0)) is PairClass.SHARED_TANGENT_POINT

    def test_intersecting(self):
        assert classify_pair(Sphere((0.0,), 1.0), Sphere((0.5,), 1.0)) is PairClass.INTERSECTING

    def test_matches_euclidean_tangency_criterion(self, rng):
        # Cross-check: external tangency of the actual spheres (centers at
        # height phi/2) against the distance threshold.
        hits = 0
        for _ in range(200):
            p, q = random_sphere(rng, 3), random_sphere(rng, 3)
            center_gap_sq = math.dist(p.tangent, q.tangent) ** 2 + (
                p.diameter / 2 - q.diameter / 2
            ) ** 2
            tangent_sq = (p.diameter / 2 + q.diameter / 2) ** 2
            geometric = abs(center_gap_sq - tangent_sq) <= 1e-9 * tangent_sq
            assert geometric == (classify_pair(p, q) is PairClass.TANGENT)
            # Constructed tangency: scale q so the pair becomes tangent.
            gap = math.dist(p.tangent, q.tangent)
            if gap > 0:
                tangent_q = Sphere(q.tangent, gap * gap / p.diameter)
                assert classify_pair(p, tangent_q) is PairClass.TANGENT
                hits += 1
        assert hits > 0


class TestInvert:
    def test_basic_image(self):
        s = InversionSphere(center=(0.0,), radius=1.0)
        image = invert(Sphere((2.0,), 1.0), s)
        assert image == Sphere((0.5,), 0.25)

    def test_fixed_sphere(self):
        s = InversionSphere(center=(0.0,), radius=1.0)
        p = Sphere((1.0,), 0.7)
        assert invert(p, s) == p

    def test_center_tangency_gives_plane_and_back(self):
        s = InversionSphere(center=(0.0,), radius=1.0)
        image = invert(Sphere((0.0,), 2.0), s)
        assert image == Plane(0.5)
        # Hyperplane-case inverse: inverting the image recovers the sphere.
        assert invert(image, s) == Sphere((0.0,), 2.0)

    def test_is_involution(self, rng):
        for _ in range(40):
            p = random_sphere(rng, 3)
            s = random_inversion(rng, 3, avoid=[p.tangent])
            back = invert(invert(p, s), s)
            assert np.allclose(back.tangent, p.tangent, atol=1e-9)
            assert back.diameter == pytest.approx(p.diameter, rel=1e-9)


class TestGenerators:
    def test_dilation(self):
        out = apply_generator(Sphere((1.0,), 1.0), Dilation(2.0))
        assert out == Sphere((2.0,), 2.0)

    def test_translation_fixes_plane(self):
        assert apply_generator(Plane(3.0), Translation((5.0,))) == Plane(3.0)

    def test_dilation_scales_and_reflection_fixes_plane(self):
        assert apply_generator(Plane(3.0), Dilation(2.0)) == Plane(6.0)
        assert apply_generator(Plane(3.0), Reflection(normal=(1.0,))) == Plane(3.0)

    def test_reflection(self):
        out = apply_generator(Sphere((1.0,), 1.0), Reflection(normal=(1.0,)))
        assert out == Sphere((-1.0,), 1.0)

    def test_dilation_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Dilation(0.0)
        with pytest.raises(ValueError):
            Dilation(-2.0)

    def test_offset_reflection_is_involution(self, rng):
        g = Reflection(normal=(1.0, 2.0), offset=0.7)
        p = random_sphere(rng, 3)
        back = apply_generator(apply_generator(p, g), g)
        assert np.allclose(back.tangent, p.tangent, atol=1e-12)


class TestNormalizePair:
    def test_worked_pair(self):
        p = Sphere((0.0,), 1.0)
        q = Sphere((3.0,), 4.0)
        s = normalize_pair(p, q)
        assert s == InversionSphere(center=(1.0,), radius=1.0)
        tp, tq = invert(p, s), invert(q, s)
        assert tp.diameter == pytest.approx(1.0, rel=1e-12)
        assert tq.diameter == pytest.approx(1.0, rel=1e-12)
        assert math.dist(tp.tangent, tq.tangent) == pytest.approx(distance(p, q), rel=1e-12)

    def test_shared_tangent_has_no_normalizer(self):
        assert normalize_pair(Sphere((0.0,), 1.0), Sphere((0.0,), 2.0)) is None

    def test_equal_diameters(self):
        p = Sphere((0.0,), 4.0)
        q = Sphere((4.0,), 4.0)
        s = normalize_pair(p, q)
        assert s == InversionSphere(center=(2.0,), radius=1.0)
        assert invert(p, s).diameter == pytest.approx(1.0, rel=1e-12)
        assert invert(q, s).diameter == pytest.approx(1.0, rel=1e-12)

    def test_two_planes(self):
        assert normalize_pair(Plane(1.0), Plane(2.0)) is None

    def test_plane_against_sphere(self, rng):
        for _ in range(25):
            plane, ball = random_plane(rng), random_sphere(rng, 3)
            s = normalize_pair(plane, ball)
            tp, tq = invert(plane, s), invert(ball, s)
            assert tp.diameter == pytest.approx(1.0, rel=1e-9)
            assert tq.diameter == pytest.approx(1.0, rel=1e-9)
            assert math.dist(tp.tangent, tq.tangent) == pytest.approx(
                distance(plane, ball), rel=1e-9
            )

    def test_plane_against_sphere_ambient_one(self):
        # The boundary of the half-line is a point; there is nowhere to put
        # the inversion center.
        assert normalize_pair(Plane(2.0), Sphere((), 1.0)) is None


class TestDistanceMatrix:
    def test_tangent_pair(self):
        d = distance_matrix([Sphere((0.0,), 1.0), Sphere((1.0,), 1.0)])
        assert np.array_equal(d, [[0.0, 1.0], [1.0, 0.0]])

    def test_single(self):
        assert np.array_equal(distance_matrix([Sphere((0.0,), 1.0)]), [[0.0]])

    def test_mixed_with_plane(self):
        d = distance_matrix([Plane(1.0), Sphere((0.0,), 1.0), Sphere((1.0,), 1.0)])
        assert np.allclose(d, [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

    def test_rejects_empty_and_mixed_dims(self):
        with pytest.raises(ValueError):
            distance_matrix([])
        with pytest.raises(ValueError):
            distance_matrix([Sphere((0.0,), 1.0), Sphere((0.0, 0.0), 1.0)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical_to_pairwise_loop_up_to_two_coordinates(self, rng, n):
        for _ in range(10):
            spheres = coincident_sphere_set(rng, 40, n)
            assert np.array_equal(distance_matrix(spheres), pairwise_distance_matrix(spheres))

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_matches_pairwise_loop_in_higher_dimensions(self, rng, n):
        # The loop sums squared gaps with fsum, the array form in order.
        for _ in range(10):
            spheres = coincident_sphere_set(rng, 40, n)
            want = pairwise_distance_matrix(spheres)
            got = distance_matrix(spheres)
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_exact_zeros_for_shared_points_and_plane_pairs(self):
        spheres = [Sphere((0.3, -1.2), 1.0), Plane(2.0), Sphere((0.3, -1.2), 5.0), Plane(0.5)]
        d = distance_matrix(spheres)
        assert d[0, 2] == d[2, 0] == 0.0
        assert d[1, 3] == d[3, 1] == 0.0
        assert d[1, 0] == 2.0 and d[3, 2] == 0.5 / 5.0

    def test_only_planes(self):
        assert np.array_equal(distance_matrix([Plane(1.0), Plane(3.0)]), np.zeros((2, 2)))


def pairwise_distance_matrix(spheres):
    """Reference for distance_matrix: distance_sq pair by pair."""
    m = len(spheres)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = distance_sq(spheres[i], spheres[j])
    return out


class TestMoebiusInvariance:
    def test_under_inversions(self, rng):
        for _ in range(150):
            p, q = random_sphere(rng, 3), random_sphere(rng, 3)
            s = random_inversion(rng, 3, avoid=[p.tangent, q.tangent])
            before = distance(p, q)
            after = distance(invert(p, s), invert(q, s))
            assert abs(after - before) <= 1e-9 * (1.0 + before)

    def test_under_all_generators(self, rng):
        generators = [
            Dilation(1.7),
            Translation((0.3, -2.0)),
            Reflection(normal=(1.0, 1.0), offset=0.25),
        ]
        for _ in range(50):
            p, q = random_sphere(rng, 3), random_sphere(rng, 3)
            for g in generators:
                before = distance(p, q)
                after = distance(apply_generator(p, g), apply_generator(q, g))
                assert abs(after - before) <= 1e-9 * (1.0 + before)

    def test_plane_cases_invariant_under_inversion(self, rng):
        for _ in range(50):
            plane, ball = random_plane(rng), random_sphere(rng, 3)
            s = random_inversion(rng, 3, avoid=[ball.tangent])
            before = distance(plane, ball)
            after = distance(invert(plane, s), invert(ball, s))
            assert abs(after - before) <= 1e-9 * (1.0 + before)


@given(
    t1=finite_coord, t2=finite_coord, d1=diameter, d2=diameter,
    scale=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=80)
def test_distance_scale_invariance(t1, t2, d1, d2, scale):
    p, q = Sphere((t1,), d1), Sphere((t2,), d2)
    g = Dilation(scale)
    before = distance(p, q)
    after = distance(apply_generator(p, g), apply_generator(q, g))
    assert abs(after - before) <= 1e-9 * (1.0 + before)


@given(t1=finite_coord, d1=diameter, d2=diameter)
@settings(max_examples=60)
def test_distance_sq_matches_distance(t1, d1, d2):
    p, q = Sphere((t1,), d1), Sphere((t1 + 1.0,), d2)
    assert distance_sq(p, q) == pytest.approx(distance(p, q) ** 2, rel=1e-12)


class TestExtremeScales:
    """Diameters whose product underflows, and distances beyond the float range."""

    def test_tiny_pair_is_disjoint(self):
        p, q = Sphere((1.0, 0.0), 1e-170), Sphere((2.0, 0.0), 1e-170)
        assert distance_sq(p, q) == math.inf
        assert classify_pair(p, q) is PairClass.DISJOINT

    def test_infinite_distance_is_not_tangent(self):
        # inf - 1 <= 1e-9 * inf would read it as Tangent.
        assert distance(Plane(1.0), Sphere((0.0,), 1e-310)) == math.inf
        assert classify_pair(Plane(1.0), Sphere((0.0,), 1e-310)) is PairClass.DISJOINT

    def test_diameters_far_apart_in_size(self):
        # Divided by the larger diameter, 1e-300 would underflow; the product
        # of the two diameters is formed at their mean exponent instead.
        p, q = Sphere((0.0,), 1e-300), Sphere((1.0,), 1e30)
        assert distance_sq(p, q) == distance_sq(q, p) == pytest.approx(1e270, rel=1e-15)
        assert classify_pair(p, q) is PairClass.DISJOINT
        d = distance_matrix([p, q])
        assert np.array_equal(d, pairwise_distance_matrix([p, q]))
        assert d[0, 1] == distance_sq(p, q)

    def test_coordinates_far_beyond_the_diameters(self):
        # 1e10 / 1e-299 overflows, so tangent points are not scaled before
        # the subtraction: the diagonal and a shared point stay exact zeros.
        assert distance_matrix([Sphere((1e10,), 1e-299)]).tolist() == [[0.0]]
        spheres = [Sphere((1e10,), 1e-299), Sphere((1e10,), 1e-299), Sphere((0.0,), 1.0)]
        d = distance_matrix(spheres)
        assert np.array_equal(d, pairwise_distance_matrix(spheres))
        assert d[0, 1] == d[1, 0] == 0.0 and not np.diag(d).any()
        assert d[0, 2] == math.inf

    @pytest.mark.parametrize("p, q", [
        # The sum of the squared gaps overflows inside fsum.
        (Sphere((0.0, 0.0), 1.0), Sphere((1.2e154, 1.2e154), 1.0)),
        # The gap over 2^h overflows in ldexp.
        (Sphere((0.0,), 1e-300), Sphere((1e10,), 1e-300)),
    ])
    def test_gaps_beyond_the_float_range_are_disjoint(self, p, q):
        assert distance_sq(p, q) == distance_sq(q, p) == math.inf
        assert classify_pair(p, q) is PairClass.DISJOINT
        d = distance_matrix([p, q])
        assert d[0, 1] == d[1, 0] == math.inf and not np.diag(d).any()

    def test_a_gap_beyond_the_float_range_with_a_finite_distance(self):
        """The gap 2e308 overflows, but the squared distance is 4: that gap
        is formed again from coordinates divided by 2^h before the
        subtraction, and the pair-by-pair and tiled kernels agree."""
        p, q = Sphere((-1e308,), 1e308), Sphere((1e308,), 1e308)
        assert distance_sq(p, q) == distance_sq(q, p) == 4.0
        assert distance_matrix([p, q]).tolist() == [[0.0, 4.0], [4.0, 0.0]]
        spheres = [Sphere((-1e308, 1.0), 1e308), Sphere((1e308, -2.0), 1e307),
                   Sphere((0.0, 0.0), 1.0), Plane(1.0)]
        d = distance_matrix(spheres)
        assert np.array_equal(d, pairwise_distance_matrix(spheres))
        assert d[0, 1] == pytest.approx(40.0, rel=1e-15)

    def test_floating_point_errors_stay_inside_each_tile(self):
        """Overflowing gaps and heights come out inf without a warning, and
        the caller's own error state holds between the tiles."""
        spheres = [Sphere((1e200,), 1e-200), Sphere((-1e200,), 1e-200), Plane(1e300)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = distance_matrix(spheres)
        assert d[0, 1] == d[0, 2] == math.inf and not np.diag(d).any()
        with np.errstate(over="raise"):
            for _ in _distance_tiles(spheres):
                with pytest.raises(FloatingPointError):
                    np.float64(1e308) * 10.0

    def test_a_tiny_sphere_moves_no_other_entry(self, rng):
        """A sphere 2^-300 times the largest diameter moves no other entry:
        each pair is scaled at its own mean exponent, whatever else the set
        holds, with squares summed in the same order (ten coordinates here)."""
        spheres = coincident_sphere_set(rng, 40, 11, planes=3, shared=3)
        top = max(s.diameter for s in spheres if isinstance(s, Sphere))
        want = distance_matrix(spheres)
        tiny = Sphere(tuple(rng.normal(size=10)), math.ldexp(top, -300))
        got = distance_matrix(spheres + [tiny])
        assert got[:-1, :-1].tobytes() == want.tobytes()
        assert got[:-1, -1].tobytes() == got[-1, :-1].tobytes()

    def test_pair_scaled_rows_with_planes(self, rng):
        # One sphere 1e250 times smaller than the rest, sharing a tangent
        # point: its pair is scaled at its own mean exponent and keeps the
        # exact zero, beside the hyperplanes' rows.
        spheres = coincident_sphere_set(rng, 40, 3, planes=3, shared=3)
        first = next(s for s in spheres if isinstance(s, Sphere))
        spheres.append(Sphere(first.tangent, 1e-250 * first.diameter))
        d = distance_matrix(spheres)
        assert np.array_equal(d, pairwise_distance_matrix(spheres))
        assert np.array_equal(d, d.T) and d[spheres.index(first), -1] == 0.0

    def test_tiny_shared_tangent_point_keeps_its_zero(self):
        spheres = [Sphere((0.0, 0.0), 1e-200), Sphere((0.0, 0.0), 1e-200), Sphere((1.0, 0.0), 1.0)]
        d = distance_matrix(spheres)
        assert np.array_equal(d, pairwise_distance_matrix(spheres))
        assert d[0, 1] == d[1, 0] == 0.0 and not np.diag(d).any()
        assert d[0, 2] == d[1, 2] == pytest.approx(1e200, rel=1e-15)

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_dilation_by_a_power_of_two_changes_no_entry(self, rng, k):
        spheres = coincident_sphere_set(rng, 40, 3)
        dilated = [apply_generator(s, Dilation(2.0**k)) for s in spheres]
        want = distance_matrix(spheres)
        assert distance_matrix(dilated).tobytes() == want.tobytes()
        assert pairwise_distance_matrix(dilated).tobytes() == want.tobytes()
