"""Certificates and constructions for squared-distance matrices.

A matrix of pairwise squared distances is realizable by kissing spheres in
ambient dimension n exactly when it has one positive eigenvalue and at most n
negative ones; equivalently, all signed principal minors (-1)^{|J|} det D_J
are nonpositive and the rank is at most n + 1. The Euclidean counterpart runs
the classical tests on the bordered (Cayley-Menger) matrix. Constructions go
through the null-vector factorization or through Schur elimination of a pivot
pair, and always re-validate themselves by a round trip because the algebraic
conditions admit false positives on degenerate zero-distance patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkernel
from .kissing import KissingSphere, Plane, Sphere, _distance_tiles
from .lightcone import InverseMapError, from_lightcone, to_lightcone
from .numkernel import _EPS, EIG_ZERO, RESIDUAL, GramInfeasibleError, Inertia

EMBEDDABLE = "Embeddable"
NOT_EMBEDDABLE = "NotEmbeddable"

ROUND_TRIP_RTOL = 1e-7


class RealizationError(RuntimeError):
    """Algebraic certificates passed but no sphere realization exists."""


class InadmissiblePivotError(ValueError):
    """Pivot pair unusable: the hyperplane column must be strictly positive."""


@dataclass(frozen=True)
class MinorWitness:
    """The subset whose signed minor breaks the sign rule; the minor is
    signed_minor * 2**exponent, and exponent is 0 unless the minor at the
    data's own scale is inf, nan or 0."""

    subset: tuple[int, ...]
    signed_minor: float
    exponent: int = 0


@dataclass(frozen=True)
class RankWitness:
    rank: int
    bound: int


@dataclass(frozen=True)
class InertiaWitness:
    """The eigenvalue counts and the requirement they break. When exact is
    False, the positive and negative counts are proven lower bounds."""

    inertia: Inertia
    requirement: str
    exact: bool = True


@dataclass(frozen=True)
class Certificate:
    verdict: str
    method: str
    witness: object = None

    @property
    def embeddable(self) -> bool:
        return self.verdict == EMBEDDABLE


def validate_squared_distances(matrix) -> np.ndarray:
    """Check symmetry, zero diagonal, and nonnegative entries; return the clean matrix.

    The result is read-only. Clean input, exactly symmetric with a diagonal
    of +0.0 and no entry carrying the sign bit, comes back as
    numkernel.as_symmetric returns it: a view of the input, with no m x m
    allocation. Otherwise a corrected copy is made, with the diagonal set to
    +0.0 and negative entries and -0.0 raised to +0.0; when as_symmetric
    had to symmetrize, its private copy is corrected in place. The scale of
    both tests is read from as_symmetric's pass; the input is never written.
    Measured with tracemalloc at m = 600 on clean input, this function
    allocates no m x m array, and check_kissing and construct_embedding
    each hold about a fifth of one beyond their input: the round trip forms
    its realized distances tile by tile.
    """
    return _validated(matrix)[0]


def _validated(matrix) -> tuple[np.ndarray, float]:
    """validate_squared_distances with max D, which symmetric_extent measures."""
    a, high, low = numkernel.symmetric_extent(matrix)
    scale = max(high, -low)
    diagonal = np.diagonal(a)
    if float(np.abs(diagonal).max()) > 1e-12 * scale:
        raise ValueError("squared-distance matrix must have a zero diagonal")
    if low < -1e-12 * scale:
        raise ValueError("squared-distance entries must be nonnegative")
    if not np.signbit(low) and not diagonal.any():
        return a, high
    # A new array from symmetric_extent is private, so it is clipped in place.
    private = a.flags.owndata
    if private:
        a.setflags(write=True)
    out = np.maximum(a, 0.0, out=a if private else None)
    np.fill_diagonal(out, 0.0)
    out.setflags(write=False)
    return out, high


def _border(d: np.ndarray, edge: float) -> np.ndarray:
    """d bordered by a constant row and column equal to edge, zero corner."""
    m = d.shape[0]
    out = np.full((m + 1, m + 1), edge)
    out[:m, :m] = d
    out[m, m] = 0.0
    return out


def cayley_menger(matrix) -> np.ndarray:
    """Border the squared-distance matrix with an all-ones row/column, zero corner."""
    return _border(validate_squared_distances(matrix), 1.0)


def _inertia_certificate(found: Inertia, max_negative: int, method: str, exact: bool = True,
                         exactly_one: bool = True) -> Certificate:
    """The certificate for found under signature_violation(found, max_negative,
    exactly_one); exact=False marks found as lower bounds."""
    violation = numkernel.signature_violation(found, max_negative, exactly_one, exact)
    if violation is not None:
        return Certificate(NOT_EMBEDDABLE, method, InertiaWitness(found, violation, exact))
    return Certificate(EMBEDDABLE, method)


def _spectrum_certificate(matrix: np.ndarray, top: float, max_negative: int, method: str,
                          exactly_one: bool = True) -> Certificate:
    """The inertia certificate of a matrix, decided by certified_eigen at
    numkernel.unit_scale; top is max|matrix|, or 0 for a border of 1."""
    spectrum = numkernel.certified_eigen(numkernel.unit_scale(matrix, top)[0], max_negative + 1)
    return _inertia_certificate(spectrum.inertia, max_negative, method, spectrum.exact,
                                exactly_one)


def refusal(exc: GramInfeasibleError) -> Certificate:
    """The inertia certificate of a matrix that construct_embedding refused:
    the error carries check_kissing's witness, so the rule is not run again."""
    return Certificate(NOT_EMBEDDABLE, "inertia", InertiaWitness(exc.inertia, exc.reason, exc.exact))


def _signed_minor(d: np.ndarray, subset: tuple[int, ...], bordered: bool) -> float:
    """(-1)^|J| det M_J, where M_J is D_J, bordered with ones if bordered."""
    block = d[np.ix_(subset, subset)]
    minor = float(np.linalg.det(_border(block, 1.0) if bordered else block))
    return minor if len(subset) % 2 == 0 else -minor


def _minors_certificate(d: np.ndarray, top: float, rank_bound: int, bordered: bool) -> Certificate:
    """The minors route: signed principal minors, then the rank.

    Over the nonempty subsets J in lexicographic order
    (numkernel.principal_subsets, capped at order 12), M_J is D_J or D_J
    bordered with ones, and (-1)^order(M_J) det M_J must not exceed
    EIG_ZERO * (max D)^k, where k is the degree of homogeneity of the minor
    in D: |J|, or |J| - 1 when bordered. The first violation is reported
    with its signed minor (-1)^|J| det M_J; a single point's D_J is [0] and
    never violates. Then the rank of D, or of D bordered at its own scale,
    must be at most rank_bound. All tests run on D divided exactly by 2^e,
    the power of two below top = max D, so no power of max D leaves the
    float range. The minor is reported at the data's own scale, or for
    D / 2^e, with e times its degree, where that is not finite and nonzero.
    """
    unit = numkernel.power_of_two_below(top)
    scaled = d / unit
    top /= unit
    shift = 1 if bordered else 0
    for subset in numkernel.principal_subsets(d.shape[0]):
        signed = _signed_minor(scaled, subset, bordered)
        degree = len(subset) - shift
        if (-signed if bordered else signed) > EIG_ZERO * top**degree:
            with np.errstate(all="ignore"):
                own = _signed_minor(d, subset, bordered)
            if math.isfinite(own) and own != 0.0:
                return Certificate(NOT_EMBEDDABLE, "minors", MinorWitness(subset, own))
            exponent = degree * (math.frexp(unit)[1] - 1)
            return Certificate(NOT_EMBEDDABLE, "minors", MinorWitness(subset, signed, exponent))
    # Bordered at the data's own scale (see check_euclidean).
    rank = numkernel.inertia(_border(scaled, top or 1.0) if bordered else scaled).rank
    if rank > rank_bound:
        return Certificate(NOT_EMBEDDABLE, "minors", RankWitness(rank, rank_bound))
    return Certificate(EMBEDDABLE, "minors")


def check_kissing(matrix, n: int, method: str = "inertia") -> Certificate:
    """Certify embeddability into kissing spheres of ambient dimension n.

    The inertia route demands exactly one positive eigenvalue and at most n
    negative ones (the identically zero matrix is the degenerate shared-point
    family and passes). The minors route checks (-1)^{|J|} det D_J <= 0 over
    every principal subset of size >= 2 plus rank <= n + 1, and reports the
    lexicographically first violation; it is capped at order 12.
    """
    d, top = _validated(matrix)
    n = numkernel.dimension(n)
    if method == "inertia":
        return _spectrum_certificate(d, top, n, method)
    if method != "minors":
        raise ValueError(f"unknown method {method!r}")
    return _minors_certificate(d, top, n + 1, bordered=False)


def check_euclidean(matrix, n: int, method: str = "inertia") -> Certificate:
    """Certify embeddability into Euclidean n-space.

    Minors and inertia both act on the bordered matrix: signed bordered minors
    (-1)^{|J|} det M_J >= 0 over point subsets with rank(M) <= n + 2, or
    exactly one positive and at most n + 1 negative eigenvalues of M. Inertia
    and rank are taken on the matrix bordered at the data's own scale, which
    has the inertia of the Cayley-Menger matrix. On the plain distance matrix
    the counts, a necessary condition only, are check_kissing(matrix, n + 1).
    """
    d, top = _validated(matrix)
    n = numkernel.dimension(n)
    if method == "inertia":
        # The border at top = max D (1 if zero) is congruent to cayley_menger(d)
        # through diag(1, ..., 1, max D), so by Sylvester's law it has the same
        # inertia and rank, while every entry scales with the data.
        return _spectrum_certificate(_border(d, top or 1.0), top, n + 1, method)
    if method != "minors":
        raise ValueError(f"unknown method {method!r}")
    return _minors_certificate(d, top, n + 2, bordered=True)


def _round_trip_excess(actual: np.ndarray, expected: np.ndarray, top: float,
                       allowed: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """|actual - expected| - ROUND_TRIP_RTOL * (|expected| + top), written into
    excess, with allowed as scratch; both have expected's shape.

    The one closeness rule: an entry matches where this is at most zero, and
    a NaN never does. With top the largest entry of the data given, the rule
    commutes with D -> cD. The allowance is formed as (|expected| / 2 +
    top / 2) (2 ROUND_TRIP_RTOL), which is finite up to the float maximum
    and equals the plain product wherever |expected| + top is finite, but
    for a halving's rounding of a subnormal.
    """
    np.abs(expected, out=allowed)
    allowed *= 0.5
    allowed += 0.5 * top
    allowed *= 2.0 * ROUND_TRIP_RTOL
    np.subtract(actual, expected, out=excess)
    np.abs(excess, out=excess)
    excess -= allowed
    return excess


def _reproduces(spheres: list[KissingSphere], d: np.ndarray, top: float) -> bool:
    """The round trip: _round_trip_excess is at most zero on each upper tile
    of the spheres' squared distances (kissing._distance_tiles) against d's,
    top = max D, checked as each tile is formed, up to the first tile with a
    violation or a NaN. This is exact, not a looser test: both matrices are
    bitwise symmetric, so entry (j, i) has the excess and allowance of (i, j).
    """
    for rows, cols, tile, scratch in _distance_tiles(spheres):
        if not float(_round_trip_excess(tile, d[rows, cols], top, scratch, tile).max()) <= 0.0:
            return False
    return True


def _proves_round_trip(spheres: list[KissingSphere], x: np.ndarray, top: float) -> bool:
    """True when every pair of the spheres provably passes _reproduces against
    d, the validated matrix that gram_factor_lorentz factored as x (rows
    oriented as given to from_lightcone, with spheres = from_lightcone(x)),
    top = max D, in [2^-400, 2^400] as numkernel.unit_scale leaves it; O(m n)
    work. False means only that the proof did not close.

    It rests on gram_factor_lorentz raising unless its computed residual
    max|a - x (-eta) x^T| is at most RESIDUAL * max|a|, here RESIDUAL * top.
    With u = 2^-53, gamma_k = k u / (1 - k u), N = n + 1 and
    g = (n + 10) eps >= gamma_{2n+20}:
    - Y = to_lightcone(spheres, n) is formed in at most n + 3 roundings, and
      its factor c = sqrt(2) / (2 phi), subnormal for the largest diameters,
      is off by at most u + 2^-50.5. So the exact images of the spheres lie
      within g M of Y entrywise, M the largest |entry| of x and Y. With
      e_0 = max|Y - x| entrywise, e = sqrt(N) (e_0 + g M)(1 + g) bounds every
      row's |Y_i - x_i|_2, and R = sqrt(N) M (1 + g) every |x_i|_2 and
      |Y_i|_2, exact images included; the factor 1 + g also covers the
      rounding of e_0 and of these products.
    - The isometry makes delta_ij = -<Y_i, Y_j> the exact squared distance of
      spheres i and j, and |<p, q>| <= |p|_2 |q|_2 gives
      |delta_ij + <x_i, x_j>| <= 2 e R + e^2.
    - Each residual entry is an N-term dot, off by at most gamma_N R^2, then
      one subtraction, and the threshold is rounded once: so
      |D_ij + <x_i, x_j>| <= RESIDUAL top (1 + g) + g R^2.
    - The tile kernel forms delta_ij with at most n + 3 roundings, so within
      g delta_ij, plus underflow: its mantissa product lies in [1/4, 2), so
      the underflowed squares and quotient are off by at most n 2^-1072 in
      all, far inside n 2^-270 top, which also covers the rule's 2^-1074.
    - _round_trip_excess accepts when |d - D| <= ROUND_TRIP_RTOL (D + top)
      (1 - 3u) - 2^-1074: it rounds the difference once and the allowance
      twice, and halving a subnormal D rounds by at most 2^-1075.
    With B = 2 e R + e^2 + g R^2 + RESIDUAL top (1 + g), the kernel's
    distances are within (1 + g) B + g D + n 2^-270 top of D. That is inside
    the rule when g <= ROUND_TRIP_RTOL / 2 and
    (1 + g)^2 ((1 + g) B + n 2^-270 top) <= ROUND_TRIP_RTOL top, the squared
    factor covering 1 - 3u and the rounding of this test. The range of top
    bounds M^2 >= top / (2N) from below, so no underflow of the other steps
    matters, and keeps R^2, which the test bounds by ROUND_TRIP_RTOL top / g,
    far from overflow, so the residual was finite when it was checked. A NaN
    or an inf fails the test.
    """
    n = x.shape[1] - 1
    images = to_lightcone(spheres, n)
    with np.errstate(all="ignore"):
        drift = float(np.abs(images - x).max())
        reach = max(float(np.abs(x).max()), float(np.abs(images).max()))
        g = (n + 10) * _EPS
        e = math.sqrt(n + 1) * (drift + g * reach) * (1.0 + g)
        r = math.sqrt(n + 1) * reach * (1.0 + g)
        bound = 2.0 * e * r + e * e + g * r * r + RESIDUAL * top * (1.0 + g)
        total = (1.0 + g) ** 2 * ((1.0 + g) * bound + n * 2.0**-270 * top)
    return g <= ROUND_TRIP_RTOL / 2.0 and total <= ROUND_TRIP_RTOL * top


def _normal_sizes(spheres: list[KissingSphere]) -> bool:
    """True when every diameter and height is a normal float."""
    return all((s.height if isinstance(s, Plane) else s.diameter) >= 2.0**-1022 for s in spheres)


def construct_embedding(matrix, n: int) -> list[KissingSphere]:
    """Kissing spheres realizing the matrix, via null-vector factorization.

    Certifying and realizing are one computation, so the outcome is the
    inertia-route verdict of check_kissing. A matrix that breaks the
    signature rule raises GramInfeasibleError, whose inertia, reason and
    exact are check_kissing's InertiaWitness. Identically zero data, which
    the rule lets pass at rank zero, is realized directly by spheres sharing
    one tangent point. Otherwise the factor columns are oriented to the
    future (a global sign flip when every time coordinate is negative),
    mapped back to spheres by one from_lightcone call on the whole factor,
    and held to the round trip at 1e-7 relative. All of this, and the
    O(m n) proof _proves_round_trip, resting on gram_factor_lorentz raising
    when its residual exceeds RESIDUAL * max|a|, runs on D / 4^j, D at
    numkernel.unit_scale; the spheres are then read from the factor times
    2^j, which from_lightcone maps to their exact dilation wherever that
    product is exact and the sizes are normal (_normal_sizes). So the result
    for 4^k D is that for D with diameters times 2^-k and heights times 2^k,
    wherever these are normal. Only where the proof does not close, that
    product is not exact or a size is not normal does the tile walk
    _reproduces hold them to D, with no m x m array. A zero factor row, a
    factor row that is off the future cone or not future-directed, or a
    failed round trip raise RealizationError: the certificate passed, but
    the factor gives no sphere set, as on the degenerate zero-distance
    patterns the signature rule does not exclude.
    """
    d, top = _validated(matrix)
    n = numkernel.dimension(n)
    m = d.shape[0]
    # After _validated, max D is zero exactly when every entry is +0.0.
    if top == 0.0:
        origin = (0.0,) * (n - 1)
        return [Sphere(tangent=origin, diameter=float(i + 1)) for i in range(m)]
    unit, j = numkernel.unit_scale(d, top)
    factor = numkernel.gram_factor_lorentz(unit, n)
    if factor.degenerate_rows:
        raise RealizationError(
            f"degenerate zero-distance pattern: zero factor rows {factor.degenerate_rows}"
        )
    vectors = factor.vectors
    if np.all(vectors[:, -1] < 0.0):
        vectors = -vectors
    try:
        spheres = from_lightcone(vectors)
        proved = _proves_round_trip(spheres, vectors, math.ldexp(top, -2 * j))
        if j:
            scaled = np.ldexp(vectors, j)
            proved = proved and _normal_sizes(spheres) and np.array_equal(np.ldexp(scaled, -j), vectors)
            spheres = from_lightcone(scaled)
            proved = proved and _normal_sizes(spheres)
    except InverseMapError as exc:
        raise RealizationError(f"factor row {exc.row} is not a future null vector: {exc}") from exc
    if not (proved or _reproduces(spheres, d, top)):
        raise RealizationError("round trip failed: realized distances do not reproduce the input")
    return spheres


def schur_embedding(matrix, n: int, pivot: tuple[int, int]) -> list[KissingSphere]:
    """Realize the matrix by Schur elimination of a pivot pair (a, b).

    Index b becomes the hyperplane at height one and index a the sphere of
    diameter 1 / D[a, b] tangent at the boundary origin. The remaining
    diameters are phi_i = 1 / D[i, b]; tangent points come from a Euclidean
    factorization of -P/2, where P is the Schur complement of the pivot pair,
    which must be positive semidefinite of rank at most n - 1. Requires
    D[i, b] > 0 for every i != b, and re-validates by a round trip. The
    elimination and the factorization run on D / 4^j, D at
    numkernel.unit_scale, and each point is scaled back by phi_i 2^j, so
    the result for 4^k D is that for D with tangent points times 2^-k and
    diameters times 4^-k, wherever these are normal. A diameter beyond the
    float range raises RealizationError.
    """
    d, top = _validated(matrix)
    n = numkernel.dimension(n)
    m = d.shape[0]
    a, b = _pivot(pivot, m)
    column = np.delete(d[:, b], b)
    if column.size and float(column.min()) <= 0.0:
        raise InadmissiblePivotError("every distance to the pivot hyperplane index must be positive")
    rest = [i for i in range(m) if i not in (a, b)]
    with np.errstate(over="ignore"):  # refused below, with no warning
        phi = 1.0 / d[rest + [a], b]
    if not np.all(phi < math.inf):
        raise RealizationError("a diameter 1 / D[i, b] is beyond the float range")
    unit, j = numkernel.unit_scale(d, top)
    points = np.zeros((len(rest), n - 1))
    if rest:
        values, vecs = numkernel.sym_eigen(-numkernel.schur_complement(unit, (a, b)) / 2.0)
        counts = numkernel.inertia_of_values(values)
        if counts.negative:
            raise RealizationError("tangent Gram -P/2 is not positive semidefinite to tolerance")
        if counts.positive > n - 1:
            raise RealizationError(f"tangent rank {counts.positive} exceeds n - 1 = {n - 1}")
        points[:, :counts.positive] = vecs[:, :counts.positive] * np.sqrt(values[:counts.positive])
    points *= np.ldexp(phi[:-1], j)[:, None]
    out: list[KissingSphere] = [None] * m  # type: ignore[list-item]
    out[b] = Plane(height=1.0)
    out[a] = Sphere(tangent=(0.0,) * (n - 1), diameter=phi[-1])
    for i, point, diameter in zip(rest, points, phi):
        out[i] = Sphere(tangent=point, diameter=diameter)
    if not _reproduces(out, d, top):
        raise RealizationError("round trip failed: Schur construction does not reproduce the input")
    return out


def _pivot(pivot, m: int) -> tuple[int, int]:
    """The pivot pair (a, b): two distinct integer indices in range(m)."""
    a, b = pivot
    if not (numkernel.is_integer(a) and numkernel.is_integer(b) and a != b
            and 0 <= a < m and 0 <= b < m):
        raise ValueError("pivot must be two distinct integer indices in range")
    return int(a), int(b)


def _det(sign: float, logdet: float) -> float:
    """sign * exp(logdet), the double numpy's det forms from the factorization
    slogdet reads, or +-inf where the exponential overflows."""
    try:
        return float(sign) * math.exp(logdet)
    except OverflowError:
        return float(sign) * math.inf


@dataclass(frozen=True)
class SchurReport:
    """Determinant, inertia, and rank identities tying a matrix to the Schur
    complement of a pivot pair. The empty complement has determinant one."""

    det_full: float
    det_expected: float
    det_ok: bool
    inertia_full: Inertia
    inertia_comp: Inertia
    inertia_ok: bool
    rank_full: int
    rank_comp: int
    rank_ok: bool

    @property
    def satisfied(self) -> bool:
        return self.det_ok and self.inertia_ok and self.rank_ok


def verify_schur_relations(matrix, pivot: tuple[int, int]) -> SchurReport:
    """Self-test of the three pivot identities.

    det D = -det P * D[a, b]^2, inertia D = (1, 1, 0) + inertia P, and
    rank D = rank P + 2, where P is the Schur complement of the pair {a, b}.
    P, the log-determinants and both inertias are formed from D / 4^j, D at
    numkernel.unit_scale, where no entry of P leaves the float range. The
    determinant identity is tested in the log domain (slogdet), so that no
    determinant or power of max D overflows at any order. Its residual,
    normalized by the larger determinant or by that matrix's (max D)^m,
    the natural scale of a determinant, must be at most ROUND_TRIP_RTOL,
    so that rank-deficient instances compare their (near-zero) determinants
    at noise level. det_full and det_expected are reported at the data's
    own scale, from the log-determinants grown by log 4^j per order (_det),
    so inside [2^-400, 2^400] they are numpy's det bit for bit; beyond the
    float range they are +-inf or 0.
    """
    d, top = _validated(matrix)
    m = d.shape[0]
    a, b = _pivot(pivot, m)
    unit, j = numkernel.unit_scale(d, top)
    comp = numkernel.schur_complement(unit, (a, b))
    s_full, l_full = np.linalg.slogdet(unit)
    s_comp, l_comp = np.linalg.slogdet(comp)
    # At D's own scale each log-determinant grows by log 4^j per order.
    grow = 2 * j * math.log(2.0)
    det_full = _det(s_full, l_full + m * grow)
    with np.errstate(all="ignore"):  # beyond the float range: +-inf (or 0), unannounced
        det_expected = float(-_det(s_comp, l_comp + (m - 2) * grow) * np.square(d[a, b]))
    # Each side of the identity is divided by the largest of the two determinants
    # and (max D)^m; the pivot D[a, b] is nonzero, or schur_complement would have raised.
    l_expected = l_comp + 2.0 * math.log(abs(unit[a, b]))
    scale = max(l_full, l_expected, m * math.log(math.ldexp(top, -2 * j)))
    det_ok = abs(s_full * math.exp(l_full - scale) + s_comp * math.exp(l_expected - scale)) <= ROUND_TRIP_RTOL
    inertia_full = numkernel.inertia(unit)
    inertia_comp = numkernel.inertia(comp) if comp.size else Inertia(0, 0, 0)
    inertia_ok = inertia_full == Inertia(
        inertia_comp.positive + 1, inertia_comp.negative + 1, inertia_comp.zero
    )
    rank_ok = inertia_full.rank == inertia_comp.rank + 2
    return SchurReport(
        det_full=det_full,
        det_expected=det_expected,
        det_ok=det_ok,
        inertia_full=inertia_full,
        inertia_comp=inertia_comp,
        inertia_ok=inertia_ok,
        rank_full=inertia_full.rank,
        rank_comp=inertia_comp.rank,
        rank_ok=rank_ok,
    )
