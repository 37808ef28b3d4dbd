"""Kissing spheres in the upper half-space.

A sphere tangent to the boundary hyperplane of the half-space x_0 >= 0 is
coordinatized by its tangent point t in R^{n-1} and its diameter phi > 0; the
tangent point at infinity gives a horizontal hyperplane at height h > 0. The
distance between two finite spheres is |t_p - t_q| / sqrt(phi_p * phi_q),
against a hyperplane it is sqrt(h / phi), and two spheres sharing a tangent
point (or two hyperplanes) are at distance zero. This distance is a
pre-metric: symmetric, nonnegative, zero on the diagonal, no triangle
inequality. It is invariant under the boundary-preserving conformal maps
generated by translations, dilations, reflections, and sphere inversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .numkernel import tile_pairs


def _as_point(coords) -> tuple[float, ...]:
    point = tuple(map(float, coords))
    if not all(map(math.isfinite, point)):
        raise ValueError("coordinates must be finite")
    return point


@dataclass(frozen=True)
class Sphere:
    """Finite kissing sphere: boundary tangent point and diameter > 0."""

    tangent: tuple[float, ...]
    diameter: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tangent", _as_point(self.tangent))
        object.__setattr__(self, "diameter", float(self.diameter))
        if not (self.diameter > 0.0 and math.isfinite(self.diameter)):
            raise ValueError("diameter must be a positive finite real")

    @property
    def ambient_dim(self) -> int:
        return len(self.tangent) + 1


@dataclass(frozen=True)
class Plane:
    """Kissing sphere whose tangent point is at infinity: a hyperplane at height > 0."""

    height: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "height", float(self.height))
        if not (self.height > 0.0 and math.isfinite(self.height)):
            raise ValueError("height must be a positive finite real")


KissingSphere = Union[Sphere, Plane]


class PairClass(Enum):
    TANGENT = "Tangent"
    DISJOINT = "Disjoint"
    INTERSECTING = "Intersecting"
    SHARED_TANGENT_POINT = "SharedTangentPoint"


@dataclass(frozen=True)
class InversionSphere:
    """Inversion sphere centered on the boundary hyperplane."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be a positive finite real")


def _gap_sq(p: Sphere, q: Sphere, shift: int = 0) -> float:
    """|t_p - t_q|^2 / 4^shift, each gap divided by 2^shift after subtracting (before, if that overflows)."""
    if len(p.tangent) != len(q.tangent):
        raise ValueError("ambient dimensions differ")
    try:
        gaps = [math.ldexp(g, -shift) if math.isfinite(g := a - b)
                else math.ldexp(a, -shift) - math.ldexp(b, -shift)
                for a, b in zip(p.tangent, q.tangent)]
        # A product, not ** 2: pow need not round correctly, and distance_matrix squares by product.
        return math.fsum(g * g for g in gaps)
    except OverflowError:  # a gap, or the sum of squares, beyond the float range
        return math.inf


def distance_sq(p: KissingSphere, q: KissingSphere) -> float:
    """Squared distance; exact in the shared-tangent and hyperplane cases. Gaps
    are divided exactly by the power of two at the mean exponent of the two
    diameters, which leaves their product in [1/4, 2); beyond the float range: inf."""
    if isinstance(p, Plane) and isinstance(q, Plane):
        return 0.0
    if isinstance(p, Plane):
        return p.height / q.diameter
    if isinstance(q, Plane):
        return q.height / p.diameter
    (m_p, e_p), (m_q, e_q) = math.frexp(p.diameter), math.frexp(q.diameter)
    shift = (e_p + e_q) // 2
    return _gap_sq(p, q, shift) / math.ldexp(m_p * m_q, e_p + e_q - 2 * shift)


def distance(p: KissingSphere, q: KissingSphere) -> float:
    return math.sqrt(distance_sq(p, q))


def classify_pair(p: KissingSphere, q: KissingSphere) -> PairClass:
    """Combinatorial relation read off the distance by _pair_class."""
    return _pair_class(distance(p, q))


def _pair_class(d: float) -> PairClass:
    """The relation of a pair at distance d, the rule of classify_pair.

    The distance is 1 exactly at tangency, above 1 for disjoint pairs, below 1
    for intersecting ones, and 0 when the tangent points coincide; comparisons
    use the relative tolerance 1e-9; an infinite distance is Disjoint.
    """
    if d <= 1e-9:
        return PairClass.SHARED_TANGENT_POINT
    if d < math.inf and abs(d - 1.0) <= 1e-9 * max(1.0, d):
        return PairClass.TANGENT
    return PairClass.DISJOINT if d > 1.0 else PairClass.INTERSECTING


def invert(p: KissingSphere, s: InversionSphere) -> KissingSphere:
    """Image of a kissing sphere under inversion in s.

    The diameter rescales by r^2 / |o - t|^2 and the tangent point moves to
    distance r^2 / |o - t| along the ray from the center o through t. A sphere
    tangent exactly at o maps to the hyperplane at height r^2 / phi, and a
    hyperplane at height h maps to the sphere of diameter r^2 / h tangent at o.
    """
    r_sq = s.radius * s.radius
    if isinstance(p, Plane):
        return Sphere(tangent=s.center, diameter=r_sq / p.height)
    if len(p.tangent) != len(s.center):
        raise ValueError("ambient dimensions differ")
    offset = tuple(t - o for t, o in zip(p.tangent, s.center))
    gap_sq = math.fsum(c * c for c in offset)
    if gap_sq == 0.0:
        return Plane(height=r_sq / p.diameter)
    factor = r_sq / gap_sq
    image = tuple(o + factor * c for o, c in zip(s.center, offset))
    return Sphere(tangent=image, diameter=factor * p.diameter)


@dataclass(frozen=True)
class Translation:
    """Shift of the boundary hyperplane."""

    offset: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", _as_point(self.offset))


@dataclass(frozen=True)
class Dilation:
    """Scaling from the boundary origin by a strictly positive factor."""

    factor: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", float(self.factor))
        if not (self.factor > 0.0 and math.isfinite(self.factor)):
            raise ValueError("dilation factor must be positive")


@dataclass(frozen=True)
class Reflection:
    """Reflection in the vertical hyperplane {x : normal . x = offset}."""

    normal: tuple[float, ...]
    offset: float = 0.0

    def __post_init__(self) -> None:
        normal = _as_point(self.normal)
        norm = math.sqrt(math.fsum(c * c for c in normal))
        if norm == 0.0:
            raise ValueError("reflection normal must be nonzero")
        object.__setattr__(self, "normal", tuple(c / norm for c in normal))
        object.__setattr__(self, "offset", float(self.offset) / norm)


Generator = Union[Translation, Dilation, Reflection, InversionSphere]


def apply_generator(p: KissingSphere, g: Generator) -> KissingSphere:
    """Act on a kissing sphere by one boundary-preserving generator.

    Translations and reflections move tangent points and preserve diameters
    and heights; dilations scale tangent point, diameter, and height alike;
    inversions delegate to invert.
    """
    if isinstance(g, Translation):
        if isinstance(p, Plane):
            return p
        if len(g.offset) != len(p.tangent):
            raise ValueError("ambient dimensions differ")
        return Sphere(
            tangent=tuple(t + d for t, d in zip(p.tangent, g.offset)),
            diameter=p.diameter,
        )
    if isinstance(g, Dilation):
        if isinstance(p, Plane):
            return Plane(height=p.height * g.factor)
        return Sphere(
            tangent=tuple(g.factor * t for t in p.tangent),
            diameter=p.diameter * g.factor,
        )
    if isinstance(g, Reflection):
        if isinstance(p, Plane):
            return p
        if len(g.normal) != len(p.tangent):
            raise ValueError("ambient dimensions differ")
        shift = 2.0 * (math.fsum(u * t for u, t in zip(g.normal, p.tangent)) - g.offset)
        return Sphere(
            tangent=tuple(t - shift * u for t, u in zip(p.tangent, g.normal)),
            diameter=p.diameter,
        )
    if isinstance(g, InversionSphere):
        return invert(p, g)
    raise TypeError(f"unsupported generator {type(g).__name__}")


def normalize_pair(p: KissingSphere, q: KissingSphere) -> InversionSphere | None:
    """Inversion sphere whose action gives both spheres diameter one.

    For two finite spheres with distinct tangent points the center sits on the
    segment between the tangent points, at distance gap * sqrt(phi_p) /
    (sqrt(phi_p) + sqrt(phi_q)) from t(p), with radius gap / (sqrt(phi_p) +
    sqrt(phi_q)). For a hyperplane at height h against a finite sphere, any
    center at distance sqrt(h * phi_q) from t(q) with radius sqrt(h) works;
    the center is placed along the first boundary coordinate. Returns None
    when no normalizing map exists: a shared tangent point, two hyperplanes,
    or a hyperplane pair in ambient dimension one (the boundary then has no
    room to offset the center).
    """
    if isinstance(p, Plane) and isinstance(q, Plane):
        return None
    if isinstance(p, Plane) or isinstance(q, Plane):
        plane, ball = (p, q) if isinstance(p, Plane) else (q, p)
        if len(ball.tangent) == 0:
            return None
        reach = math.sqrt(plane.height * ball.diameter)
        center = (ball.tangent[0] + reach,) + ball.tangent[1:]
        return InversionSphere(center=center, radius=math.sqrt(plane.height))
    if p.tangent == q.tangent:
        return None
    gap = math.sqrt(_gap_sq(p, q))
    root_p = math.sqrt(p.diameter)
    root_q = math.sqrt(q.diameter)
    weight = root_p / (root_p + root_q)
    center = tuple(a + weight * (b - a) for a, b in zip(p.tangent, q.tangent))
    return InversionSphere(center=center, radius=gap / (root_p + root_q))


def distance_matrix(spheres: Sequence[KissingSphere]) -> np.ndarray:
    """Symmetric matrix of squared pairwise distances with zero diagonal.

    Whole-array form of distance_sq: each pair is scaled at the mean
    exponent of its two diameters (a dilation by 2^k changes no entry), the
    squared scaled tangent gaps accumulate one boundary coordinate at a
    time, then divide by the scaled diameter products; shared tangent points
    give an exact zero. Up to two coordinates the result is bit-identical to
    distance_sq. Rows and columns of hyperplanes are h / phi against spheres
    and zero against each other. Each pair of mirrored tiles
    (numkernel.tile_pairs) is formed once, by _distance_tiles, and copied to
    its place and its mirror, so the only full-size array is the result and
    it is bitwise symmetric: (t_i - t_j)^2 and phi_i phi_j are
    exactly (t_j - t_i)^2 and phi_j phi_i. A distance beyond the float range
    comes out inf, silently; the caller decides whether to refuse it.
    """
    items = list(spheres)
    out = np.empty((len(items), len(items)))
    # Both copies are written from the contiguous work tile: a mirror written
    # from out itself would first be copied by numpy.
    for rows, cols, tile, _ in _distance_tiles(items):
        out[rows, cols] = tile
        if cols.start > rows.start:
            out[cols, rows] = tile.T
    return out


def _distance_tiles(items: list[KissingSphere]):
    """(rows, cols, tile, scratch) for each upper tile of tile_pairs(m), tile
    holding the squared distances of the block (rows, cols) as
    distance_matrix returns them and scratch free for the caller; both are
    overwritten at the next step.

    The gaps of each pair are divided by 2^h and its diameter product, of
    mantissas, by 4^h, h its mean exponent, as in distance_sq; a gap whose
    subtraction overflows is formed from coordinates divided first. Each step's
    arithmetic ignores floating-point errors in its own errstate, which
    leaves the caller's code between steps alone.
    """
    if not items:
        raise ValueError("need at least one sphere")
    dims = {s.ambient_dim for s in items if isinstance(s, Sphere)}
    if len(dims) > 1:
        raise ValueError("mixed ambient dimensions")
    m = len(items)
    origin = (0.0,) * (dims.pop() - 1 if dims else 0)
    # Hyperplanes sit at the origin with diameter inf until their rows and
    # columns are written as h / phi, which is zero between two planes.
    points = np.array([origin if isinstance(s, Plane) else s.tangent for s in items]).reshape(m, len(origin))
    phi = np.array([math.inf if isinstance(s, Plane) else s.diameter for s in items])
    height = np.array([s.height if isinstance(s, Plane) else 0.0 for s in items])
    mantissa, exponent = np.frexp(phi)
    huge = bool(points.size) and float(np.abs(points).max()) >= 2.0**1023  # a gap may overflow
    for rows, cols, tile, scratch in tile_pairs(m):
        with np.errstate(all="ignore"):
            total = np.add.outer(exponent[rows], exponent[cols])
            half = total >> 1
            if not points.shape[1]:
                tile.fill(0.0)
            for k, coordinate in enumerate(points.T):
                # The first squared coordinate is written, not added to zero: 0 + x is x.
                gap = scratch if k else tile
                np.subtract.outer(coordinate[rows], coordinate[cols], out=gap)
                wide = np.nonzero(np.isinf(gap)) if huge else None
                np.ldexp(gap, -half, out=gap)
                if wide:
                    (i, j), h = wide, -half[wide]
                    gap[wide] = np.ldexp(coordinate[rows][i], h) - np.ldexp(coordinate[cols][j], h)
                np.multiply(gap, gap, out=gap)
                if k:
                    tile += gap
            np.multiply.outer(mantissa[rows], mantissa[cols], out=scratch)
            np.ldexp(scratch, total - 2 * half, out=scratch)
            tile /= scratch
            for i in np.flatnonzero(height[rows]):
                np.divide(height[rows.start + i], phi[cols], out=tile[i])
            for j in np.flatnonzero(height[cols]):
                np.divide(height[cols.start + j], phi[rows], out=tile[:, j])
        yield rows, cols, tile, scratch
