import math

import numpy as np
import pytest

from kissgeo import numkernel
from kissgeo.embed import InertiaWitness
from kissgeo.kissing import Sphere as TangentSphere
from kissgeo.kissing import distance as kissing_distance
from kissgeo.lightcone import minkowski_inner
from kissgeo.spheres import (
    EuclideanSphere,
    check_spheres,
    hyperboloid_embed,
    kissing_cone_embed,
    separation,
    separation_matrix,
)


def invert_circle(center, radius, pole, rho):
    """Image of a circle under inversion in the circle (pole, rho); the circle
    must not pass through the pole. Test-local oracle."""
    c = np.asarray(center, dtype=float)
    o = np.asarray(pole, dtype=float)
    power = float(np.sum((c - o) ** 2)) - radius * radius
    assert abs(power) > 1e-12
    factor = rho * rho / power
    return o + factor * (c - o), abs(factor) * radius


class TestSeparation:
    def test_external_tangency(self):
        p = EuclideanSphere((0.0, 0.0), 1.0)
        q = EuclideanSphere((2.0, 0.0), 1.0)
        assert separation(p, q) == 1.0

    def test_concentric(self):
        p = EuclideanSphere((0.0,), 1.0)
        q = EuclideanSphere((0.0,), 3.0)
        assert separation(p, q) == pytest.approx(-5.0 / 3.0, rel=1e-15)

    def test_orthogonal(self):
        p = EuclideanSphere((0.0,), 3.0)
        q = EuclideanSphere((5.0,), 4.0)
        assert separation(p, q) == 0.0

    def test_thresholds(self):
        base = EuclideanSphere((0.0, 0.0), 1.0)
        assert separation(base, EuclideanSphere((4.0, 0.0), 1.0)) > 1.0  # disjoint
        assert separation(base, EuclideanSphere((0.0, 0.0), 2.0)) < -1.0  # nested
        assert separation(base, EuclideanSphere((0.1, 0.0), 3.0)) < -1.0  # nested
        mid = separation(base, EuclideanSphere((1.0, 0.0), 1.0))
        assert -1.0 < mid < 1.0  # intersecting
        # Intersection angle: separation equals -cos(angle), with the center
        # gap given by the law of cosines d^2 = r1^2 + r2^2 - 2 r1 r2 cos(a).
        alpha = math.pi / 3
        gap_sq = 1.0 + 1.0 - 2.0 * math.cos(alpha)
        q = EuclideanSphere((math.sqrt(gap_sq), 0.0), 1.0)
        assert separation(base, q) == pytest.approx(-math.cos(alpha), rel=1e-12)

    def test_internal_tangency(self):
        outer = EuclideanSphere((0.0, 0.0), 2.0)
        inner = EuclideanSphere((1.0, 0.0), 1.0)
        assert separation(outer, inner) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            separation(EuclideanSphere((0.0,), 1.0), EuclideanSphere((0.0, 0.0), 1.0))


class TestSeparationMatrix:
    def test_diagonal(self):
        s = separation_matrix([EuclideanSphere((0.0,), 1.0), EuclideanSphere((5.0,), 2.0)])
        assert np.array_equal(np.diag(s), [-1.0, -1.0])
        assert s[0, 1] == s[1, 0] == separation(
            EuclideanSphere((0.0,), 1.0), EuclideanSphere((5.0,), 2.0)
        )


class TestHyperboloidEmbed:
    def test_unit_sphere_at_origin(self):
        x = hyperboloid_embed(EuclideanSphere((0.0,), 1.0))
        assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-15)
        assert minkowski_inner(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_shifted_sphere(self):
        x = hyperboloid_embed(EuclideanSphere((3.0,), 1.0))
        assert np.allclose(x, [-3.5, 3.0, 4.5], atol=1e-15)
        assert minkowski_inner(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_tangent_pair_product(self):
        x = hyperboloid_embed(EuclideanSphere((0.0, 0.0), 1.0))
        y = hyperboloid_embed(EuclideanSphere((2.0, 0.0), 1.0))
        assert -minkowski_inner(x, y) == pytest.approx(1.0, rel=1e-12)

    def test_products_recover_separations(self, rng):
        for _ in range(40):
            spheres = [
                EuclideanSphere(tuple(rng.normal(size=2) * 2.0), float(np.exp(rng.uniform(-1, 1))))
                for _ in range(5)
            ]
            vectors = [hyperboloid_embed(s) for s in spheres]
            s = separation_matrix(spheres)
            for i in range(5):
                assert minkowski_inner(vectors[i], vectors[i]) == pytest.approx(1.0, abs=1e-12)
                for j in range(5):
                    assert -minkowski_inner(vectors[i], vectors[j]) == pytest.approx(
                        s[i, j], rel=1e-9, abs=1e-9
                    )


class TestCheckSpheres:
    def test_tangent_pair_embeddable(self):
        s = np.array([[-1.0, 1.0], [1.0, -1.0]])
        # Eigenvalues are {0, -2}: at most one positive, one negative.
        assert sorted(np.linalg.eigvalsh(s)) == pytest.approx([-2.0, 0.0])
        for n in (1, 2, 3):
            assert check_spheres(s, n, "inertia").embeddable
            assert check_spheres(s, n, "minors").embeddable
        # Cross-check by construction: two externally tangent unit spheres.
        built = separation_matrix(
            [EuclideanSphere((0.0,), 1.0), EuclideanSphere((2.0,), 1.0)]
        )
        assert np.allclose(built, s)

    def test_random_spheres_embeddable(self, rng):
        for _ in range(20):
            spheres = [
                EuclideanSphere(tuple(rng.normal(size=2)), float(np.exp(rng.uniform(-1, 1))))
                for _ in range(4)
            ]
            s = separation_matrix(spheres)
            assert check_spheres(s, 2, "inertia").embeddable
            assert check_spheres(s, 2, "minors").embeddable

    def test_dimension_shortage_detected(self, rng):
        # Five spheres sampled in 3-space generically exceed the rank bound
        # n + 2 = 4 when certified at n = 2.
        rejected = 0
        for _ in range(20):
            spheres = [
                EuclideanSphere(tuple(rng.normal(size=3)), float(np.exp(rng.uniform(-1, 1))))
                for _ in range(5)
            ]
            s = separation_matrix(spheres)
            cert = check_spheres(s, 2, "inertia")
            if not cert.embeddable:
                rejected += 1
                assert isinstance(cert.witness, InertiaWitness)
                assert check_spheres(s, 3, "inertia").embeddable
        assert rejected >= 18

    def test_methods_agree(self, rng):
        for _ in range(60):
            if rng.uniform() < 0.5:
                spheres = [
                    EuclideanSphere(tuple(rng.normal(size=2)), float(np.exp(rng.uniform(-1, 1))))
                    for _ in range(rng.integers(2, 6))
                ]
                s = separation_matrix(spheres)
            else:
                order = int(rng.integers(2, 6))
                raw = rng.normal(size=(order, order)) * 2.0
                s = (raw + raw.T) / 2.0
                np.fill_diagonal(s, -1.0)
            for n in (1, 2, 3):
                assert (
                    check_spheres(s, n, "minors").verdict
                    == check_spheres(s, n, "inertia").verdict
                )

    def test_three_tangent_circles_with_a_zero_coefficient(self):
        # Mutually tangent unit circles: J - 2I, eigenvalues 1, -2, -2. Its
        # characteristic coefficients 1, 3, 0, -4 hold an interior zero,
        # which Descartes' rule skips.
        s = np.ones((3, 3)) - 2.0 * np.eye(3)
        built = separation_matrix([EuclideanSphere((0.0, 0.0), 1.0), EuclideanSphere((2.0, 0.0), 1.0),
                                   EuclideanSphere((1.0, math.sqrt(3.0)), 1.0)])
        assert np.allclose(built, s)
        assert numkernel.principal_minor_sums(s)[1] == 0.0
        for matrix in (s, built):
            assert check_spheres(matrix, 2, "minors").embeddable
            assert check_spheres(matrix, 2, "inertia").embeddable

    def test_diagonal_validation(self):
        with pytest.raises(ValueError, match="-1"):
            check_spheres(np.zeros((2, 2)), 2)


    def test_large_refusal_skips_sym_eigen(self, rng, monkeypatch, eigh_orders):
        # 120 spheres in 40 dimensions: rank 42, far above n + 2 = 5.
        items = [EuclideanSphere(tuple(rng.normal(size=40) * 3.0), float(rng.uniform(0.5, 1.5)))
                 for _ in range(120)]
        s = separation_matrix(items)
        cert = check_spheres(s, 3)
        assert eigh_orders == []
        assert not cert.embeddable and not cert.witness.exact
        assert cert.witness.requirement == "at most 4 negative eigenvalues (rank at most 5)"
        monkeypatch.setattr(numkernel, "_sketched_spectrum", lambda *args: None)
        exact = check_spheres(s, 3).witness
        assert exact.exact and exact.requirement == cert.witness.requirement
        assert cert.witness.inertia.negative <= exact.inertia.negative == 41


class TestKissingConeEmbed:
    def test_null_output(self):
        x_p = hyperboloid_embed(EuclideanSphere((0.0, 0.0), 1.0))
        x_q = hyperboloid_embed(EuclideanSphere((2.0, 0.0), 1.0))
        cone = kissing_cone_embed(x_p, x_q)
        assert abs(minkowski_inner(cone, cone)) <= 1e-12

    def test_self_pairing_rejected(self):
        x_p = hyperboloid_embed(EuclideanSphere((0.0, 0.0), 1.0))
        with pytest.raises(ValueError, match="tangent"):
            kissing_cone_embed(x_p, x_p)

    def test_non_unit_rejected(self):
        x_p = hyperboloid_embed(EuclideanSphere((0.0, 0.0), 1.0))
        with pytest.raises(ValueError, match="pseudosphere"):
            kissing_cone_embed(2.0 * x_p, x_p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        x_p = hyperboloid_embed(EuclideanSphere((0.0, 0.0), 1.0))
        x_q = hyperboloid_embed(EuclideanSphere((2.0, 0.0), 1.0))
        broken = x_q.copy()
        broken[0] = bad
        for anchor, vector in ((broken, x_q), (x_p, broken)):
            with pytest.raises(ValueError, match="^vectors must be finite$"):
                kissing_cone_embed(anchor, vector)

    def test_overflowed_products_are_refused(self):
        # Finite entries whose self-product overflows: inf - inf is NaN, which
        # fails the pseudosphere test instead of passing it.
        huge = np.array([1e200, 0.0, 0.0, 1e200])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="anchor is not on the unit pseudosphere"):
            kissing_cone_embed(huge, huge)

    def test_cross_model_consistency(self, rng):
        # Spheres tangent to a fixed anchor, seen two ways: cone images in the
        # anchor's pseudosphere model, and kissing spheres after a conformal
        # map sending the anchor to the boundary line. The pairwise distances
        # must agree.
        anchor = EuclideanSphere((0.0, 0.0), 1.0)
        x_anchor = hyperboloid_embed(anchor)
        angles = rng.uniform(-1.2, 1.2, size=4) + math.pi / 2.0
        radii = rng.uniform(0.2, 1.5, size=4)
        family = [
            EuclideanSphere(
                ((1.0 + s) * math.cos(a), (1.0 + s) * math.sin(a)), float(s)
            )
            for a, s in zip(angles, radii)
        ]
        for q in family:
            assert separation(anchor, q) == pytest.approx(1.0, rel=1e-12)
        cones = [kissing_cone_embed(x_anchor, hyperboloid_embed(q)) for q in family]

        # Conformal normalization: invert at the anchor's south pole so the
        # anchor becomes the x-axis; reflect so images sit in y >= 0.
        pole, rho = (0.0, -1.0), math.sqrt(2.0)
        images = []
        for q in family:
            center, radius = invert_circle(q.center, q.radius, pole, rho)
            assert center[1] < 0.0
            images.append(TangentSphere((float(center[0]),), 2.0 * radius))
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                gap_sq = -minkowski_inner(cones[i], cones[j])
                want = kissing_distance(images[i], images[j]) ** 2
                assert gap_sq == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestExtremeScales:
    """Radii and gaps whose squares or products leave the normal float range."""

    def test_tiny_radii(self):
        far = separation(EuclideanSphere((0.0, 0.0), 1e-200), EuclideanSphere((1.0, 0.0), 1e-200))
        assert far == math.inf
        near = separation(EuclideanSphere((0.0, 0.0), 1e-200), EuclideanSphere((3e-200, 0.0), 1e-200))
        assert near == pytest.approx(3.5, rel=1e-15)

    def test_radii_far_apart_in_size(self):
        # The small radius squared underflows, and so does its ratio to the
        # large one: the circles touch, and the separation rounds to zero.
        tiny, huge = EuclideanSphere((0.0, 0.0), 1e-300), EuclideanSphere((1e30, 0.0), 1e30)
        assert separation(tiny, huge) == separation(huge, tiny) == 0.0
        assert separation_matrix([tiny, huge]).tolist() == [[-1.0, 0.0], [0.0, -1.0]]

    def test_gap_whose_square_overflows(self):
        # The squared gap, 1e320, is beyond the float range; the separation is not.
        p, q = EuclideanSphere((0.0, 0.0), 1e100), EuclideanSphere((1e160, 0.0), 1e100)
        assert separation(p, q) == pytest.approx(5e119, rel=1e-15)
        assert separation(EuclideanSphere((-1e308,), 1.0), EuclideanSphere((1e308,), 1.0)) == math.inf
        # Its hyperboloid image: |c|^2 = 1e320 overflows, the image does not.
        image = hyperboloid_embed(q)
        assert image.tolist() == pytest.approx([-5e219, 1e60, 0.0, 5e219], rel=1e-15)

    def test_dilation_by_a_power_of_two(self, rng):
        spheres = [EuclideanSphere(tuple(rng.normal(size=3)), float(np.exp(rng.uniform(-1, 1))))
                   for _ in range(200)]

        def dilated(k):
            return separation_matrix([EuclideanSphere(tuple(2.0**k * c for c in s.center),
                                                      2.0**k * s.radius) for s in spheres])

        # Lengths are divided exactly by powers of two at every scale, so
        # these agree bit for bit.
        want = dilated(1000).tobytes()
        assert all(dilated(k).tobytes() == want for k in (-1000, -600, -7, 0, 7, 600))

    def test_minors_route_at_a_huge_separation_scale(self):
        # Separations near 1e61: their 12th power overflows a double.
        s = separation_matrix([EuclideanSphere((1e15 * i, 0.0, 0.0), 1e-15) for i in range(12)])
        assert check_spheres(s, 3, "minors").embeddable
        assert check_spheres(s, 3, "inertia").embeddable
