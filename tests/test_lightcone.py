import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gen import coincident_sphere_set, random_plane, random_sphere, random_sphere_set
from kissgeo.kissing import Plane, Sphere, distance, distance_sq
from kissgeo.lightcone import (
    SQRT2,
    AlignmentError,
    InverseMapError,
    _witt_map,
    from_lightcone,
    is_lorentz,
    lorentz_align,
    minkowski_inner,
    to_lightcone,
    to_lightcone_curved,
)
from kissgeo.numkernel import RESIDUAL, power_of_two_below, signature_form


def rotation(dim, i, j, angle):
    out = np.eye(dim)
    out[i, i] = out[j, j] = math.cos(angle)
    out[i, j] = -math.sin(angle)
    out[j, i] = math.sin(angle)
    return out


def boost(dim, axis, rapidity):
    out = np.eye(dim)
    out[axis, axis] = out[-1, -1] = math.cosh(rapidity)
    out[axis, -1] = out[-1, axis] = math.sinh(rapidity)
    return out


def random_lorentz(rng, dim):
    out = np.eye(dim)
    for axis in range(dim - 1):
        out = out @ boost(dim, axis, float(rng.uniform(-1.0, 1.0)))
        other = (axis + 1) % (dim - 1)
        if other != axis:
            out = out @ rotation(dim, axis, other, float(rng.uniform(0, 2 * math.pi)))
    return out


class TestInnerProduct:
    def test_null_self(self):
        x = np.array([1.0, 0.0, 1.0])
        assert minkowski_inner(x, x) == 0.0
        assert -minkowski_inner(x, x) == 0.0

    def test_cross_term(self):
        x = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
        y = np.array([0.0, SQRT2 / 2, SQRT2 / 2])
        assert minkowski_inner(x, y) == pytest.approx(-0.5, abs=1e-15)
        assert -minkowski_inner(x, y) == pytest.approx(0.5, abs=1e-15)

    def test_unit_timelike(self):
        x = np.array([0.0, 0.0, 1.0])
        assert minkowski_inner(x, x) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_inner(np.zeros(3), np.zeros(4))


class TestToLightcone:
    def test_unit_sphere_at_origin(self):
        out = to_lightcone(Sphere((0.0,), 1.0))
        assert np.allclose(out, [SQRT2 / 2, 0.0, SQRT2 / 2], atol=1e-15)

    def test_shifted_sphere(self):
        out = to_lightcone(Sphere((1.0,), 2.0))
        assert np.allclose(out, [0.0, SQRT2 / 2, SQRT2 / 2], atol=1e-15)
        other = to_lightcone(Sphere((0.0,), 1.0))
        assert -minkowski_inner(out, other) == pytest.approx(0.5, abs=1e-12)

    def test_plane(self):
        out = to_lightcone(Plane(3.0), n=2)
        assert np.allclose(out, [-3 * SQRT2 / 2, 0.0, 3 * SQRT2 / 2], atol=1e-15)

    def test_images_are_future_null(self, rng):
        for _ in range(60):
            p = random_plane(rng) if rng.uniform() < 0.2 else random_sphere(rng, 3)
            x = to_lightcone(p, n=3)
            assert abs(minkowski_inner(x, x)) <= 1e-12 * max(1.0, float(x @ x))
            assert x[-1] > 0.0

    def test_isometry(self, rng):
        for _ in range(120):
            kind = rng.uniform()
            p = random_plane(rng) if kind < 0.15 else random_sphere(rng, 3)
            q = random_plane(rng) if kind > 0.9 else random_sphere(rng, 3)
            got = -minkowski_inner(to_lightcone(p, 3), to_lightcone(q, 3))
            want = distance_sq(p, q)
            assert abs(got - want) <= 1e-9 * (1.0 + want)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            to_lightcone(Sphere((0.0,), 1.0), n=5)
        with pytest.raises(ValueError):
            to_lightcone(Plane(1.0))
        with pytest.raises(ValueError, match="^sphere has ambient dimension 3, not 2$"):
            to_lightcone([Sphere((0.0,), 1.0), Sphere((0.0, 1.0), 1.0)])
        with pytest.raises(ValueError, match="^ambient dimension is required"):
            to_lightcone([Plane(1.0), Plane(2.0)])
        assert to_lightcone([], 3).shape == (0, 4)
        # n equal to the spheres' own dimension may be any number type.
        spheres = [Sphere((1.0,), 2.0), Plane(1.0)]
        assert to_lightcone(spheres, 2.0).tobytes() == to_lightcone(spheres, np.int64(2)).tobytes()


def single_image(p, n):
    """The image of one kissing sphere, by the formula and association of the
    module docstring: 1-d t @ t and Python float products."""
    out = np.zeros(n + 1)
    if isinstance(p, Plane):
        out[0] = -p.height * SQRT2 / 2.0
        out[-1] = p.height * SQRT2 / 2.0
        return out
    t = np.asarray(p.tangent, dtype=float)
    norm_sq = float(t @ t)
    c = SQRT2 / (2.0 * p.diameter)
    out[0] = c * (1.0 - norm_sq)
    out[1:n] = 2.0 * c * t
    out[n] = c * (1.0 + norm_sq)
    return out


class TestToLightconeStack:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [-500, 0, 500])
    def test_rows_equal_single_calls_bit_for_bit(self, rng, n, k):
        """Each row of the stacked form is the single sphere's image, byte for
        byte, with hyperplanes and shared tangent points mixed in, at scales
        2^-500, 1 and 2^500 of the tangent points, diameters and heights."""
        spheres = coincident_sphere_set(rng, 40, n, planes=3, shared=5)
        spheres = [Plane(2.0**k * s.height) if isinstance(s, Plane)
                   else Sphere(tuple(2.0**k * c for c in s.tangent), 2.0**k * s.diameter)
                   for s in spheres]
        stack = to_lightcone(spheres, n)
        assert stack.shape == (40, n + 1)
        for row, p in zip(stack, spheres):
            assert row.tobytes() == to_lightcone(p, n).tobytes() == single_image(p, n).tobytes()
        assert to_lightcone(spheres[::-1], n)[::-1].tobytes() == stack.tobytes()
        assert to_lightcone(tuple(spheres), n).tobytes() == stack.tobytes()


class TestFromLightcone:
    def test_unit_sphere(self):
        assert from_lightcone([SQRT2 / 2, 0.0, SQRT2 / 2]) == Sphere((0.0,), 1.0)

    def test_plane(self):
        got = from_lightcone([-3 * SQRT2 / 2, 0.0, 3 * SQRT2 / 2])
        assert isinstance(got, Plane)
        assert got.height == pytest.approx(3.0, rel=1e-15)

    def test_shifted(self):
        got = from_lightcone([0.0, SQRT2 / 2, SQRT2 / 2])
        assert got.tangent == pytest.approx((1.0,))
        assert got.diameter == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(to_lightcone(got), [0.0, SQRT2 / 2, SQRT2 / 2], atol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(80):
            p = random_plane(rng) if rng.uniform() < 0.25 else random_sphere(rng, 4)
            back = from_lightcone(to_lightcone(p, 4))
            assert type(back) is type(p)
            if isinstance(p, Plane):
                assert back.height == pytest.approx(p.height, rel=1e-9)
            else:
                assert back.tangent == pytest.approx(p.tangent, abs=1e-9)
                assert back.diameter == pytest.approx(p.diameter, rel=1e-9)

    def test_near_plane_sphere_is_kept(self):
        spheres = [Sphere((2e6, 0.0), 1e12), Sphere((1.0, 0.0), 1.0), Sphere((0.0, 0.0), 1.0)]
        back = [from_lightcone(to_lightcone(s)) for s in spheres]
        assert all(isinstance(s, Sphere) for s in back)
        for p, q in zip(spheres, back):
            assert q.diameter == pytest.approx(p.diameter, rel=1e-15)
            assert q.tangent == pytest.approx(p.tangent, rel=1e-15)
        for i in range(3):
            for j in range(i + 1, 3):
                want = distance_sq(spheres[i], spheres[j])
                assert distance_sq(back[i], back[j]) == pytest.approx(want, rel=1e-15)

    def test_plane_only_at_zero_w(self):
        got = from_lightcone([-1.0, 0.0, 0.0, 1.0])
        assert got == Plane(SQRT2)
        assert isinstance(from_lightcone([-1.0, 1e-155, 0.0, 1.0]), Plane)
        assert isinstance(from_lightcone([-1.0, 1e-100, 0.0, 1.0]), Sphere)

    def test_null_test_is_scale_relative(self):
        for scale in (1.0, 1e-10, 1e10):
            with pytest.raises(ValueError, match="null"):
                from_lightcone(scale * np.array([1.0, 0.0, 1.1]))
        got = from_lightcone(1e-10 * np.array([SQRT2 / 2, 0.0, SQRT2 / 2]))
        assert got.diameter == pytest.approx(1e10, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e160])
    def test_null_test_holds_at_every_scale(self, scale):
        # Squared, 1e-170 underflows to zero and 1e160 overflows to inf; the
        # test reads the row divided exactly by a power of two instead.
        row = scale * np.array([1.0, 0.0, 1.1])
        with pytest.raises(InverseMapError, match="not null"):
            from_lightcone(row)
        with pytest.raises(AlignmentError, match="source vector 0: vector is not null"):
            lorentz_align(row, row)
        timelike = scale * np.array([1.0, 0.0, 2.0])
        with pytest.raises(InverseMapError, match="not null"):
            from_lightcone(timelike)

    def test_tiny_sphere_maps_back(self):
        # Its image has entries near 9e159, whose squares overflow.
        sphere = Sphere((0.5,), 1e-160)
        image = to_lightcone(sphere)
        assert float(np.abs(image).max()) > math.sqrt(np.finfo(float).max)
        got = from_lightcone(image)
        assert got.tangent == pytest.approx(sphere.tangent, rel=1e-15)
        assert got.diameter == pytest.approx(sphere.diameter, rel=1e-15)
        assert np.allclose(lorentz_align(image, image), np.eye(3), rtol=0.0, atol=1e-12)

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError, match="null"):
            from_lightcone([1.0, 0.0, 2.0])
        with pytest.raises(ValueError, match="future"):
            from_lightcone([SQRT2 / 2, 0.0, -SQRT2 / 2])
        with pytest.raises(ValueError, match="zero"):
            from_lightcone([0.0, 0.0, 0.0])


def reference_from_lightcone(x):
    """The per-vector rule as scalar code: from_lightcone before it took
    stacks, reading the vector in C order. The null test reads the vector
    divided exactly by 2^e, the power of two below its largest entry, and so
    do x_0 and t in the map. There w = w_r 2^p, with |mid|^2 formed at mid's
    own power of two 2^g when x_0 < 0, and each diameter and tangent
    coordinate is one quotient of entries near one, scaled by one ldexp."""
    v = np.ascontiguousarray(x, dtype=float)
    top = float(np.abs(v).max())
    if top == 0.0:
        raise ValueError("the zero vector is not on the future lightcone")
    e = math.frexp(top)[1] - 1
    u = v / math.ldexp(1.0, e)
    top_u = float(np.abs(u).max())
    if abs(minkowski_inner(u, u)) > RESIDUAL * top_u * top_u:
        raise ValueError("vector is not null to tolerance")
    x0, t, mid = float(u[0]), float(u[-1]), v[1:-1]
    if t <= 0.0:
        raise ValueError("vector is not future-directed")
    if x0 >= 0.0:
        w, p = x0 + t, 0
    else:
        g = math.frexp(float(np.abs(mid).max(initial=0.0)))[1] - 1
        scaled = mid / math.ldexp(1.0, g)
        w, p = float(scaled @ scaled) / (t - x0), 2 * (g - e)
    diameter = float(np.ldexp(SQRT2 / w, -p - e)) if w else math.inf
    if math.isinf(diameter):
        return Plane(height=SQRT2 * float(v[-1]))
    tangent = [float(np.ldexp(f / w, q - e - p)) for f, q in map(math.frexp, mid.tolist())]
    return Sphere(tangent=tuple(tangent), diameter=diameter)


def bits(p):
    """A kissing sphere's type and the bit patterns of its floats."""
    values = (p.height,) if isinstance(p, Plane) else (*p.tangent, p.diameter)
    return type(p).__name__, tuple(np.array(values).view(np.int64).tolist())


def row_by_row(rule, stack):
    """rule on each row in turn: the spheres, and (row, message) of the first refusal."""
    out = []
    for i, row in enumerate(stack):
        try:
            # Rows at 1e150 overflow on the way; the rule reads inf and nan as they come.
            with np.errstate(all="ignore"):
                out.append(bits(rule(row)))
        except ValueError as exc:
            return out, (i, str(exc))
    return out, None


def stacked(stack):
    try:
        return [bits(p) for p in from_lightcone(stack)], None
    except InverseMapError as exc:
        return None, (exc.row, str(exc))


SCALES = st.sampled_from([1e-150, 1e-20, 1e-3, 1.0, 1e3, 1e20, 1e150])


@st.composite
def lightcone_rows(draw, n):
    """Rows of n + 1 coordinates: sphere and plane images at every scale
    (x_0 < 0 when |t| > 1), the overflow row, and refusals of each kind."""
    kind = draw(st.sampled_from(["sphere", "sphere", "sphere", "plane", "overflow",
                                 "zero", "off cone", "past"]))
    scale = draw(SCALES)
    if kind == "plane" or (kind == "overflow" and n == 1):
        row = np.zeros(n + 1)
        row[0], row[-1] = -scale, scale
        return row
    if kind == "overflow":
        row = np.zeros(n + 1)
        row[0], row[1], row[-1] = -1.0, 1e-155, 1.0
        return row
    if kind == "zero":
        return np.zeros(n + 1)
    coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    tangent = draw(st.lists(coords, min_size=n - 1, max_size=n - 1))
    row = scale * to_lightcone(Sphere(tuple(tangent), draw(SCALES)), n)
    if kind == "off cone":
        row[draw(st.integers(0, n))] *= 1.0 + draw(st.sampled_from([1e-6, 1e-3, 0.5]))
    elif kind == "past":
        row = -row
    return row


@st.composite
def lightcone_stacks(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(lightcone_rows(n), min_size=1, max_size=12))
    # Rows of a Fortran-ordered stack are strided, and BLAS sums them in another order.
    return np.array(rows, order=draw(st.sampled_from("CF")))


class TestFromLightconeStack:
    """A stack maps row by row: the same spheres, bit for bit, and the first
    refused row with the reason a row-by-row loop gives."""

    @given(lightcone_stacks())
    @settings(max_examples=400)
    def test_stack_equals_row_by_row(self, stack):
        want = row_by_row(reference_from_lightcone, stack)
        assert row_by_row(from_lightcone, stack) == want
        spheres, refusal = stacked(stack)
        assert refusal == want[1]
        if refusal is None:
            assert spheres == want[0]

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_every_layout_maps_like_its_c_copy(self, rng, layout):
        # BLAS sums a strided row in another order than a contiguous one; read
        # in place, most of these stacks would move some sphere by an ulp.
        for _ in range(20):
            stack = np.stack([to_lightcone(random_sphere(rng, 5)) for _ in range(30)])
            if layout == "F":
                other = np.asfortranarray(stack)
            else:
                other = np.zeros((30, 12))[:, ::2]
                other[...] = stack
            assert stacked(other) == stacked(stack)
            for row, copy in zip(other, stack):
                assert bits(from_lightcone(row)) == bits(from_lightcone(copy))
                assert minkowski_inner(row, row) == minkowski_inner(copy, copy)

    @pytest.mark.parametrize("row, reason", [
        ([0.0, 0.0, 0.0, 0.0], "the zero vector is not on the future lightcone"),
        ([1.0, 0.0, 0.0, 2.0], "vector is not null to tolerance"),
        ([SQRT2 / 2, 0.0, 0.0, -SQRT2 / 2], "vector is not future-directed"),
    ])
    def test_refusal_names_the_first_bad_row(self, row, reason):
        good = to_lightcone(Sphere((1.0, 2.0), 0.5))
        stack = np.array([good, good, row, [0.0, 0.0, 0.0, 0.0], good])
        with pytest.raises(InverseMapError) as err:
            from_lightcone(stack)
        assert (err.value.row, str(err.value)) == (2, reason)
        with pytest.raises(InverseMapError) as err:
            from_lightcone(row)
        assert (err.value.row, str(err.value)) == (0, reason)

    def test_unrepresentable_sphere_names_its_row(self):
        # Null and future, and |mid|^2 overflows unscaled; at the row's own
        # scale it is the sphere at 1 + sqrt(2) of diameter (2 + sqrt(2)) 1e-300.
        good = [SQRT2 / 2, 0.0, SQRT2 / 2]
        small = from_lightcone(np.array([good, [-1e300, 1e300, SQRT2 * 1e300]]))[1]
        assert small.tangent == pytest.approx((1.0 + SQRT2,), rel=1e-15)
        assert small.diameter == pytest.approx((2.0 + SQRT2) * 1e-300, rel=1e-15)
        # A hyperplane whose height sqrt(2) * 1.5e308 overflows is no sphere at all.
        with pytest.raises(InverseMapError, match="^height must be a positive finite real$") as err:
            from_lightcone(np.array([good, [-1.5e308, 0.0, 1.5e308]]))
        assert err.value.row == 1

    def test_middle_entries_far_below_the_largest(self):
        # The image of Sphere((1e155,), 1e10): read at the row's scale, |mid|^2
        # would be subnormal and sqrt(2)/w would overflow.
        x = np.array([-7.0710678118654755e299, 1.4142135623730951e145, 7.0710678118654755e299])
        want = Sphere((float.fromhex("0x1.dd55745cbb7edp+514"),), float.fromhex("0x1.2a05f20000000p+33"))
        assert bits(from_lightcone(x)) == bits(want)
        stack = from_lightcone(np.stack([x, 2.0**-600 * x]))
        assert [bits(p) for p in stack] == [bits(want), bits(Sphere(want.tangent, want.diameter * 2.0**600))]

    def test_vectors_whose_squares_overflow(self):
        # Entries near 1.3e154: |mid|^2 read unscaled would overflow.
        x = to_lightcone(Sphere((3.0, 1.0), 0.5))
        assert bits(from_lightcone(x)) == bits(Sphere((3.0, 1.0), 0.5))
        want = Sphere((3.0, 1.0), 0.5 * 2.0**-512)
        assert bits(from_lightcone(2.0**512 * x)) == bits(want)
        stack = from_lightcone(np.stack([x, 2.0**512 * x]))
        assert [bits(p) for p in stack] == [bits(Sphere((3.0, 1.0), 0.5)), bits(want)]

    def test_shapes(self):
        assert from_lightcone(np.zeros((0, 3))) == []
        assert from_lightcone([[SQRT2 / 2, SQRT2 / 2]]) == [Sphere((), 1.0)]
        for bad in ([1.0], [[1.0], [2.0]], np.zeros((2, 2, 3)), 1.0):
            with pytest.raises(ValueError):
                from_lightcone(bad)


@st.composite
def image_stacks(draw):
    """to_lightcone stacks of 1 to 5 spheres and planes, n = 2 to 4, with
    tangent coordinates of magnitude 1e-3 to 1e3 and sizes e^-5 to e^5."""
    n = draw(st.integers(2, 4))
    sizes = st.floats(min_value=-5.0, max_value=5.0).map(math.exp)
    coords = st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                       st.floats(min_value=-3.0, max_value=3.0)).map(lambda f: f[0] * 10.0 ** f[1])
    items = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 4)) == 0:
            items.append(Plane(draw(sizes)))
        else:
            tangent = draw(st.lists(coords, min_size=n - 1, max_size=n - 1))
            items.append(Sphere(tuple(tangent), draw(sizes)))
    return to_lightcone(items, n)


class TestDilation:
    """x * 2^k maps to the spheres of x with each diameter times 2^-k and
    each height times 2^k, bit for bit, wherever those sizes are normal."""

    @given(image_stacks(), st.integers(-1000, 1000))
    @settings(max_examples=400)
    def test_dilated_stack_maps_to_the_dilated_spheres(self, stack, k):
        # The scaled stack is 2^k times the stack only where no entry overflows or loses bits.
        with np.errstate(over="ignore"):
            scaled = np.ldexp(stack, k)
        assume(np.array_equal(np.ldexp(scaled, -k), stack))
        base = from_lightcone(stack)
        planes = [isinstance(p, Plane) for p in base]
        sizes = np.ldexp([p.height if q else p.diameter for p, q in zip(base, planes)],
                         np.where(planes, k, -k))
        assume(np.all((sizes >= 2.0**-1022) & (sizes < math.inf)))
        want = [Plane(z) if q else Sphere(p.tangent, z) for p, q, z in zip(base, planes, sizes.tolist())]
        assert [bits(p) for p in from_lightcone(scaled)] == [bits(p) for p in want]
        assert [bits(from_lightcone(row)) for row in scaled] == [bits(p) for p in want]


@st.composite
def wide_images(draw):
    """Null images of spheres with tangent coordinates and diameters of
    magnitude 1e-160 to 1e160, each entry the exact image rounded once, so
    that a middle entry may be far below the largest, also as a square."""
    n = draw(st.integers(2, 4))
    mag = st.floats(min_value=-160.0, max_value=160.0).map(lambda e: 10.0**e)
    tangent = [Fraction(draw(st.sampled_from([-1.0, 1.0])) * draw(mag)) for _ in range(n - 1)]
    c = Fraction(SQRT2) / (2 * Fraction(draw(mag)))
    norm_sq = sum(a * a for a in tangent)
    exact = [c * (1 - norm_sq), *(2 * c * a for a in tangent), c * (1 + norm_sq)]
    assume(c * (1 + norm_sq) < Fraction(np.finfo(float).max))
    return np.array([float(a) for a in exact])


def ulps(a, b):
    assert math.copysign(1.0, a) == math.copysign(1.0, b)
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


class TestWideRows:
    """Each diameter and tangent coordinate is within a few units in the last
    place of the map's formula evaluated exactly on the given entries, also
    where the middle entries are far below the largest."""

    @given(wide_images())
    @settings(max_examples=300)
    def test_close_to_the_exact_formula(self, x):
        x0, t, mid = Fraction(x[0]), Fraction(x[-1]), [Fraction(a) for a in x[1:-1]]
        w = x0 + t if x0 >= 0 else sum(a * a for a in mid) / (t - x0)
        got = from_lightcone(x)
        assert ulps(got.diameter, float(Fraction(SQRT2) / w)) <= 4
        for a, b in zip(got.tangent, mid):
            assert ulps(a, float(b / w)) <= 4


@st.composite
def stacks_with_one_bad_row(draw):
    """A stack of to_lightcone images at one scale, (m, n+1) in either memory
    layout, with row k made zero, moved off the cone by scaling its time
    coordinate, or negated; with the stack before the change."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-20, 1e-3, 1.0, 1e3, 1e20]))
    coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    rows = []
    for _ in range(m):
        if draw(st.integers(0, 4)) == 0:
            p = Plane(draw(SCALES.filter(lambda h: 1e-20 <= h <= 1e20)))
        else:
            tangent = draw(st.lists(coords, min_size=n - 1, max_size=n - 1))
            p = Sphere(tuple(tangent), draw(st.sampled_from([1e-3, 0.5, 1.0, 2.0, 1e3])))
        rows.append(scale * to_lightcone(p, n))
    clean = np.array(rows)
    stack = clean.copy()
    k = draw(st.integers(0, m - 1))
    kind = draw(st.sampled_from(["zero", "off cone", "past"]))
    if kind == "zero":
        stack[k] = 0.0
    elif kind == "off cone":
        # The time coordinate is the largest entry of an image, and nonzero.
        stack[k, -1] *= 1.0 + draw(st.sampled_from([1e-6, 1e-3, 0.5]))
    else:
        stack[k] = -stack[k]
    order = draw(st.sampled_from("CF"))
    return np.array(clean, order=order), np.array(stack, order=order), k


class TestOneFutureNullRule:
    """from_lightcone and lorentz_align read a stack by one rule: the same
    first refused row, with the same reason."""

    @given(stacks_with_one_bad_row())
    @settings(max_examples=300)
    def test_both_refuse_the_same_row_for_the_same_reason(self, case):
        clean, stack, k = case
        with pytest.raises(InverseMapError) as err:
            from_lightcone(stack)
        assert err.value.row == k
        reason = str(err.value)
        with pytest.raises(AlignmentError) as err:
            lorentz_align(stack, stack)
        assert str(err.value) == f"source vector {k}: {reason}"
        with pytest.raises(AlignmentError) as err:
            lorentz_align(clean, stack)
        assert str(err.value) == f"target vector {k}: {reason}"


class TestCurvedMap:
    def test_infinite_diameter(self):
        out = to_lightcone_curved((1.0, 0.0), math.inf, 1.0)
        assert np.allclose(out, [SQRT2 / 2, 0.0, SQRT2 / 2], atol=1e-15)

    def test_finite_diameter(self):
        out = to_lightcone_curved((1.0, 0.0), 2.0, 1.0)
        assert np.allclose(out, [SQRT2, 0.0, SQRT2], atol=1e-15)

    def test_degenerate_locus_flagged(self):
        with pytest.raises(ValueError, match="degenerate"):
            to_lightcone_curved((1.0, 0.0), -2.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="curvature"):
            to_lightcone_curved((1.0, 0.0), 2.0, 0.0)
        with pytest.raises(ValueError, match="unit"):
            to_lightcone_curved((2.0, 0.0), 2.0, 1.0)

    def test_nan_refused(self):
        for direction in ((math.nan, 0.0), (math.inf, 0.0)):
            with pytest.raises(ValueError, match="^direction must be a unit vector$"):
                to_lightcone_curved(direction, 2.0, 1.0)
        for diameter, kappa in ((math.nan, 1.0), (2.0, math.nan)):
            with pytest.raises(ValueError, match="^curvature and diameter must not be NaN$"):
                to_lightcone_curved((1.0, 0.0), diameter, kappa)

    def test_images_are_null(self, rng):
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            out = to_lightcone_curved(direction, float(rng.uniform(0.5, 4.0)), 1.0)
            assert abs(minkowski_inner(out, out)) <= 1e-12 * max(1.0, float(out @ out))


class TestLorentzPredicates:
    def test_identity(self):
        assert is_lorentz(np.eye(4))

    def test_time_reversal_rejected(self):
        assert not is_lorentz(np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_rotation_and_boost(self):
        assert is_lorentz(rotation(3, 0, 1, 0.8))
        assert is_lorentz(boost(3, 0, 0.5))

    def test_non_preserving_rejected(self):
        assert not is_lorentz(2.0 * np.eye(3))

    def test_non_square_rejected(self):
        assert not is_lorentz(np.eye(3)[:2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for entry in ((0, 1), (2, 2)):
            m = np.eye(3)
            m[entry] = bad
            assert not is_lorentz(m)

    def test_entries_whose_square_overflows_are_rejected(self, rng):
        # max|T|^2 overflows, so the form cannot be checked there.
        wide = np.eye(3)
        wide[0, 1] = 2e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_lorentz(np.diag([1e200, 1.0, 1e200]))
            assert not is_lorentz(wide)
        assert is_lorentz(random_lorentz(rng, 4))

    def test_compose_and_inverse(self, rng):
        a = random_lorentz(rng, 4)
        b = random_lorentz(rng, 4)
        assert is_lorentz(a @ b)
        eta = signature_form(4)
        assert np.allclose(a @ (eta @ a.T @ eta), np.eye(4), atol=1e-9)

    def test_invariance_of_distance(self, rng):
        for _ in range(60):
            transform = random_lorentz(rng, 4)
            x = to_lightcone(random_sphere(rng, 3))
            y = to_lightcone(random_sphere(rng, 3))
            before = -minkowski_inner(x, y)
            after = -minkowski_inner(transform @ x, transform @ y)
            assert abs(after - before) <= 1e-9 * (1.0 + abs(before))


class TestLorentzAlign:
    def test_identity_on_equal_lists(self, rng):
        vectors = [to_lightcone(random_sphere(rng, 3)) for _ in range(4)]
        transform = lorentz_align(vectors, vectors)
        for x in vectors:
            assert np.allclose(transform @ x, x, atol=1e-9)
        assert is_lorentz(transform)

    def test_single_null_direction(self):
        x = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
        y = np.array([0.0, SQRT2 / 2, SQRT2 / 2])
        transform = lorentz_align([x], [y])
        assert is_lorentz(transform)
        assert np.allclose(transform @ x, y, atol=1e-12)

    def test_map_that_is_not_lorentz_is_refused(self, monkeypatch):
        """The Lorentz check guards the Witt map's result: a dilation by 2 is
        refused, not returned."""
        import kissgeo.lightcone

        monkeypatch.setattr(kissgeo.lightcone, "_witt_map", lambda x, y, gram, eta: 2.0 * np.eye(3))
        x = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
        with pytest.raises(AlignmentError, match="^alignment failed the Lorentz checks$"):
            lorentz_align([x], [x])

    def test_two_null_vectors(self, rng):
        spheres = [random_sphere(rng, 3) for _ in range(2)]
        x = [to_lightcone(s) for s in spheres]
        motion = random_lorentz(rng, 4)
        y = [motion @ v for v in x]
        transform = lorentz_align(x, y)
        assert is_lorentz(transform)
        for xi, yi in zip(x, y):
            assert np.allclose(transform @ xi, yi, atol=1e-8)

    def test_full_congruent_systems(self, rng):
        for count in (3, 5):
            spheres = [random_sphere(rng, 3) for _ in range(count)]
            x = np.stack([to_lightcone(s) for s in spheres])
            motion = random_lorentz(rng, 4)
            y = x @ motion.T
            transform = lorentz_align(x, y)
            assert is_lorentz(transform)
            assert np.allclose(x @ transform.T, y, atol=1e-8)

    def test_zero_rows_match_zero_rows(self):
        # A zero row is not a future null vector on either side, as in from_lightcone.
        x = np.array([[SQRT2 / 2, 0.0, SQRT2 / 2], [0.0, 0.0, 0.0]])
        good = np.array([[SQRT2 / 2, 0.0, SQRT2 / 2], [0.1, 0.0, 0.1]])
        zero = "vector 1: the zero vector is not on the future lightcone"
        with pytest.raises(AlignmentError, match=f"^source {zero}$"):
            lorentz_align(x, x.copy())
        with pytest.raises(AlignmentError, match=f"^target {zero}$"):
            lorentz_align(good, x)

    def test_gram_mismatch_rejected(self, rng):
        x = [to_lightcone(random_sphere(rng, 3)) for _ in range(2)]
        y = [x[0], 2.0 * x[1]]
        with pytest.raises(AlignmentError, match="Gram"):
            lorentz_align(x, y)

    def test_inconsistent_proportional_nulls_rejected(self):
        # Equal Grams (all zero products) but incompatible scale factors:
        # no linear map can reconcile the systems. The frames see only the
        # first vector, so only the final residual check refuses the map.
        x0 = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
        with pytest.raises(AlignmentError, match="residual"):
            lorentz_align([x0, 2.0 * x0], [x0, 3.0 * x0])

    def test_spacelike_source_rejected(self):
        # Matching Grams, but the vectors are spacelike, not null.
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(AlignmentError,
                           match="^source vector 0: vector is not null to tolerance$"):
            lorentz_align(x, x.copy())

    def test_past_directed_rejected(self):
        x = np.array([SQRT2 / 2, 0.0, SQRT2 / 2])
        with pytest.raises(AlignmentError, match="future|orientation"):
            lorentz_align([-x], [-x])

    @pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-12, 1e12, 1e20])
    def test_recovers_a_translation_at_every_scale(self, scale):
        # An absolute zero cutoff once read every vector at scale 1e-12 as
        # zero and returned the identity, 0.3 relative off the targets.
        spheres = [Sphere((0.0, 1.0), 1.0), Sphere((2.0, 0.5), 0.5), Sphere((-1.0, 1.0), 2.0)]
        moved = [Sphere((s.tangent[0] + 0.5, s.tangent[1]), s.diameter) for s in spheres]
        x = scale * np.stack([to_lightcone(s) for s in spheres])
        y = scale * np.stack([to_lightcone(s) for s in moved])
        transform = lorentz_align(x, y)
        assert is_lorentz(transform)
        assert np.abs(x @ transform.T - y).max() <= 1e-14 * np.abs(y).max()

    def test_all_zero_systems_give_the_identity(self):
        # The zero vector is not on the future lightcone.
        with pytest.raises(AlignmentError,
                           match="^source vector 0: the zero vector is not on the future"):
            lorentz_align(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_refused(self, bad):
        # Refused before any linear algebra reaches the entries.
        x = np.stack([to_lightcone(Sphere((0.0, 1.0), 1.0)), to_lightcone(Sphere((2.0, 0.5), 0.5))])
        y = x.copy()
        y[1, 0] = bad
        for source, target in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="^vectors must be finite$"):
                lorentz_align(source, target)

    def test_near_coincident_pair_is_aligned_or_refused(self):
        # Two unit spheres whose tangent points are delta apart, moved by 0.5,
        # at delta = 10^(-k/2). The frames have size about 1 / delta and
        # amplify rounding by its square, so middle gaps fail the residual
        # check; below the Gram cutoff the pair reads as one null line, whose
        # partner frame aligns it to about delta. No wrong map is returned.
        aligned = set()
        for k in range(4, 20):
            delta = 10.0 ** (-k / 2)
            spheres = [Sphere((0.0, 0.0), 1.0), Sphere((delta, 0.0), 1.0)]
            moved = [Sphere((s.tangent[0] + 0.5, s.tangent[1]), 1.0) for s in spheres]
            x = np.stack([to_lightcone(s) for s in spheres])
            y = np.stack([to_lightcone(s) for s in moved])
            try:
                transform = lorentz_align(x, y)
            except AlignmentError:
                continue
            assert is_lorentz(transform)
            norms = np.linalg.norm(np.vstack([x, y]), axis=1)
            residual = np.linalg.norm(x @ transform.T - y, axis=1).max()
            assert residual <= RESIDUAL * max(1.0, norms.max())
            aligned.add(k)
        # delta = 1e-2, 3e-3, 1e-3, 3e-4 and 3e-10 align.
        assert {4, 5, 6, 7, 19} <= aligned

    def test_gram_mismatch_above_residual_refused(self, rng):
        x = np.stack([to_lightcone(random_sphere(rng, 3)) for _ in range(3)])
        y = x.copy()
        y[2] *= 1.0 + 1e-4
        with pytest.raises(AlignmentError, match="^Gram mismatch between the vector systems$"):
            lorentz_align(x, y)
        # Below RESIDUAL the Grams match, and the map meets every target to rounding.
        y = x.copy()
        y[2] *= 1.0 + 1e-12
        transform = lorentz_align(x, y)
        assert np.abs(x @ transform.T - y).max() <= 1e-10 * np.abs(y).max()

    def test_dependent_sources_on_one_ray_that_map_inconsistently(self):
        # All products are zero on both sides, so the Grams match, but the
        # ratios 1 : 2 : 3 cannot become 1 : 2 : 5 under a linear map.
        a = to_lightcone(Sphere((0.5, -1.0), 2.0))
        moved = boost(4, 1, 0.4) @ rotation(4, 0, 1, 0.9) @ a
        with pytest.raises(AlignmentError, match="residual"):
            lorentz_align([a, 2.0 * a, 3.0 * a], [moved, 2.0 * moved, 5.0 * moved])
        transform = lorentz_align([a, 2.0 * a, 3.0 * a], [moved, 2.0 * moved, 3.0 * moved])
        assert np.allclose(transform @ a, moved, rtol=0.0, atol=1e-14)

    def test_preserves_form_on_complement(self, rng):
        # Uniqueness on the span plus a valid extension off it.
        spheres = [random_sphere(rng, 3) for _ in range(2)]
        x = [to_lightcone(s) for s in spheres]
        motion = random_lorentz(rng, 4)
        y = [motion @ v for v in x]
        transform = lorentz_align(x, y)
        eta = signature_form(4)
        assert np.abs(transform.T @ eta @ transform - eta).max() < 1e-9


class TestWittMap:
    """The kernel behind lorentz_align: stacks with equal Gram matrices and a
    nondegenerate span, not necessarily null, divided by a power of two."""

    @staticmethod
    def scaled(x, y):
        scale = power_of_two_below(max(np.abs(x).max(), np.abs(y).max()))
        return x / scale, y / scale

    def test_timelike_vector_next_to_null_ones(self):
        # The sum of four null images is future timelike; with three of the
        # images it spans the whole space, so the map is the motion itself.
        spheres = [Sphere((0.0, 1.0), 1.0), Sphere((2.0, 0.5), 0.5),
                   Sphere((-1.0, 1.0), 2.0), Sphere((0.5, -1.5), 1.5)]
        null = np.stack([to_lightcone(s) for s in spheres])
        x = np.vstack([null.sum(axis=0), null[:3]])
        eta = signature_form(4)
        assert x[0] @ eta @ x[0] < 0.0 < x[0, -1]
        motion = boost(4, 0, 0.7) @ rotation(4, 0, 1, 1.1) @ boost(4, 1, -0.3)
        x, y = self.scaled(x, x @ motion.T)
        transform = _witt_map(x, y, (x @ eta @ x.T + y @ eta @ y.T) / 2.0, eta)
        assert is_lorentz(transform)
        assert np.abs(x @ transform.T - y).max() <= 1e-13 * np.abs(y).max()
        assert np.abs(transform - motion).max() <= 1e-12 * np.abs(motion).max()

    def test_timelike_vector_and_one_null_vector(self):
        # A two-dimensional span: the map is fixed on it, and the complement
        # is completed orthonormally on both sides.
        null = np.stack([to_lightcone(Sphere((0.0, 1.0), 1.0)), to_lightcone(Sphere((2.0, 0.5), 0.5))])
        x = np.vstack([null.sum(axis=0), null[1]])
        eta = signature_form(4)
        motion = rotation(4, 1, 2, 0.4) @ boost(4, 2, 0.9)
        x, y = self.scaled(x, x @ motion.T)
        transform = _witt_map(x, y, (x @ eta @ x.T + y @ eta @ y.T) / 2.0, eta)
        assert is_lorentz(transform)
        assert np.abs(x @ transform.T - y).max() <= 1e-13 * np.abs(y).max()

    def test_one_null_vector_takes_the_partner_route(self):
        # A null vector's Gram is zero: the kernel keeps no eigenvalue, and
        # lorentz_align glues the vector with its null partner instead.
        x = np.array([[SQRT2 / 2, 0.0, 0.0, SQRT2 / 2]])
        eta = signature_form(4)
        assert _witt_map(x, x, x @ eta @ x.T, eta) is None
        y = x @ (boost(4, 0, 0.5) @ rotation(4, 1, 2, 0.3) @ boost(4, 1, 1.2)).T
        transform = lorentz_align(x, y)
        assert is_lorentz(transform)
        assert np.abs(x @ transform.T - y).max() <= 1e-14 * np.abs(y).max()


class TestNullHyperplaneDegeneration:
    def test_unit_diameter_slice(self, rng):
        # Images on the null hyperplane {x : -<x, y> = 1}, with y the image of
        # the unit-height hyperplane, are exactly the unit-diameter spheres,
        # and there the distance degenerates to the Euclidean tangent gap.
        reference = to_lightcone(Plane(1.0), n=3)
        points = rng.normal(size=(5, 2)) * 2.0
        spheres = [Sphere(tuple(p), 1.0) for p in points]
        images = [to_lightcone(s) for s in spheres]
        for x in images:
            assert -minkowski_inner(x, reference) == pytest.approx(1.0, abs=1e-12)
        for i in range(5):
            for j in range(i + 1, 5):
                gap = math.dist(points[i], points[j])
                assert distance(spheres[i], spheres[j]) == pytest.approx(gap, rel=1e-12)
        # Conversely a non-unit diameter leaves the hyperplane.
        off = to_lightcone(Sphere((0.0, 0.0), 2.0))
        assert abs(-minkowski_inner(off, reference) - 1.0) > 0.4
