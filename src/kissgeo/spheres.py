"""Separation geometry for Euclidean spheres.

The separation of two spheres, (|c_p - c_q|^2 - r_p^2 - r_q^2) / (2 r_p r_q),
is the signed analogue of a squared distance: 1 at external tangency, -1 at
internal tangency, 0 at orthogonal intersection, above 1 for externally
disjoint pairs, below -1 for nested ones, and -cos(angle) in between. A
sphere embeds onto the unit pseudosphere of signature (n+1, 1) where minus
the inner product of two images recovers the separation; spheres tangent to a
fixed one land on a lightcone through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numkernel
from .embed import Certificate, _inertia_certificate, _spectrum_certificate
from .lightcone import SQRT2, minkowski_inner
from .numkernel import EIG_ZERO, RESIDUAL, Inertia


@dataclass(frozen=True)
class EuclideanSphere:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        center = tuple(float(c) for c in self.center)
        if not all(math.isfinite(c) for c in center):
            raise ValueError("center coordinates must be finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be a positive finite real")

    @property
    def dim(self) -> int:
        return len(self.center)


def separation(p: EuclideanSphere, q: EuclideanSphere) -> float:
    """Signed separation; never square-rooted (it may be negative). The
    numerator is divided exactly by 4^e, for the power of two 2^e above the
    largest length, and squares by product, which rounds correctly; the
    denominator is divided by the powers of two above each radius. The
    quotient is scaled back, to +-inf beyond the float range, so a dilation
    by 2^k that keeps every length normal changes no bit."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    gaps = [a - b for a, b in zip(p.center, q.center)]
    e = math.frexp(max([p.radius, q.radius, *map(abs, gaps)]))[1]
    r_p, r_q, *scaled = (math.ldexp(x, -e) for x in (p.radius, q.radius, *gaps))
    numerator = math.fsum(g * g for g in scaled) - r_p * r_p - r_q * r_q
    (m_p, e_p), (m_q, e_q) = math.frexp(p.radius), math.frexp(q.radius)
    try:
        return math.ldexp(numerator / (2.0 * m_p * m_q), 2 * e - e_p - e_q)
    except OverflowError:
        return math.copysign(math.inf, numerator)


def separation_matrix(spheres: Sequence[EuclideanSphere]) -> np.ndarray:
    """Pairwise separations with the self-separation -1 on the diagonal."""
    items = list(spheres)
    if not items:
        raise ValueError("need at least one sphere")
    if len({s.dim for s in items}) > 1:
        raise ValueError("mixed dimensions")
    m = len(items)
    out = -np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = separation(items[i], items[j])
    return out


def validate_separation_matrix(matrix) -> np.ndarray:
    """Check symmetry and the diagonal -1; return the clean matrix, read-only.

    Input that is exactly symmetric with a diagonal of exactly -1 comes back
    as numkernel.as_symmetric returns it: a view of the input, with no m x m
    allocation. Otherwise a copy with the diagonal set to -1 is made. The
    scale of the diagonal test is read from as_symmetric's pass; the input
    is never written. Measured with tracemalloc at m = 600 on clean input,
    this function allocates no m x m array and check_spheres holds under a
    fifth of one beyond its input.
    """
    return _validated_separations(matrix)[0]


def _validated_separations(matrix) -> tuple[np.ndarray, float]:
    """validate_separation_matrix with the input's max|S| (the diagonal moves it only near 1)."""
    a, high, low = numkernel.symmetric_extent(matrix)
    diagonal = np.diagonal(a)
    if float(np.abs(diagonal + 1.0).max()) > 1e-12 * max(high, -low):
        raise ValueError("separation matrix must have diagonal -1")
    if np.all(diagonal == -1.0):
        return a, max(high, -low)
    out = a.copy()
    np.fill_diagonal(out, -1.0)
    out.setflags(write=False)
    return out, max(high, -low)


@np.errstate(over="ignore")
def hyperboloid_embed(sphere: EuclideanSphere) -> np.ndarray:
    """Unit-pseudonorm vector of signature (n+1, 1) representing the sphere.

    Minus the inner product of two images equals their separation; the
    self-product is one. c and r are first divided exactly by 2^e, the power
    of two above the largest length or 1 if that is smaller, the 1 by 4^e,
    and the first and last entries are multiplied back by 2^e.
    """
    c = np.asarray(sphere.center, dtype=float)
    r = sphere.radius
    e = max(0, math.frexp(float(np.abs(c).max(initial=r)))[1])
    c, r, one = np.ldexp(c, -e), math.ldexp(r, -e), math.ldexp(1.0, -2 * e)
    norm_sq = float(c @ c)
    out = np.empty(c.size + 2)
    out[0] = one - norm_sq + r * r
    out[1:-1] = 2.0 * c
    out[-1] = one + norm_sq - r * r
    out /= 2.0 * r
    out[[0, -1]] = np.ldexp(out[[0, -1]], e)
    return out


def _descartes_inertia(minor_sums: np.ndarray, order: int, scale: float) -> Inertia:
    """Eigenvalue sign counts from sums of principal minors.

    The characteristic polynomial of a symmetric matrix has only real roots,
    so Descartes' rule counts its positive roots exactly, and the trailing
    nonzero coefficient pins the rank.
    """
    coeffs = [1.0]
    for k in range(1, order + 1):
        value = float(minor_sums[k - 1])
        cutoff = EIG_ZERO * math.comb(order, k) * scale**k
        if abs(value) <= cutoff:
            value = 0.0
        coeffs.append(value if k % 2 == 0 else -value)
    rank = 0
    for k in range(order, 0, -1):
        if coeffs[k] != 0.0:
            rank = k
            break
    positive = 0
    last_sign = 1.0
    for k in range(1, rank + 1):
        if coeffs[k] == 0.0:
            continue
        if coeffs[k] * last_sign < 0.0:
            positive += 1
        last_sign = coeffs[k]
    return Inertia(positive, rank - positive, order - rank)


def check_spheres(matrix, n: int, method: str = "inertia") -> Certificate:
    """Certify that a separation matrix is realizable by spheres in n-space.

    The matrix must have at most one positive eigenvalue and at most n + 1
    negative ones (so rank at most n + 2). The minors route recovers the same
    counts purely from determinant sums via Descartes' rule and is capped at
    order 12; it reads S divided exactly by the power of two below max|S|.
    """
    s, top = _validated_separations(matrix)
    n = numkernel.dimension(n)
    if method == "inertia":
        return _spectrum_certificate(s, top, n + 1, method, exactly_one=False)
    if method != "minors":
        raise ValueError(f"unknown method {method!r}")
    s = s / numkernel.power_of_two_below(numkernel.max_abs(s))
    sums = numkernel.principal_minor_sums(s)
    counts = _descartes_inertia(sums, s.shape[0], numkernel.max_abs(s))
    return _inertia_certificate(counts, n + 1, method, exactly_one=False)


def kissing_cone_embed(anchor, vector) -> np.ndarray:
    """Null image of a sphere tangent to the anchor sphere.

    Both arguments are pseudosphere vectors with self-product one and mutual
    product -1 (tangency); sqrt(2)/2 times their sum is then null, which
    places all spheres tangent to the anchor on a lightcone.
    """
    a = np.asarray(anchor, dtype=float)
    v = np.asarray(vector, dtype=float)
    if a.shape != v.shape or a.ndim != 1:
        raise ValueError("dimension mismatch")
    if not (np.isfinite(a).all() and np.isfinite(v).all()):
        raise ValueError("vectors must be finite")
    scale = max(1.0, float(a @ a), float(v @ v))
    # Written so that a NaN (an overflowed product) fails each test.
    if not abs(minkowski_inner(a, a) - 1.0) <= RESIDUAL * scale:
        raise ValueError("anchor is not on the unit pseudosphere")
    if not abs(minkowski_inner(v, v) - 1.0) <= RESIDUAL * scale:
        raise ValueError("vector is not on the unit pseudosphere")
    if not abs(minkowski_inner(v, a) + 1.0) <= RESIDUAL * scale:
        raise ValueError("vectors are not tangent: mutual product must be -1")
    return (SQRT2 / 2.0) * (a + v)
