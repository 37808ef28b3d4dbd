"""Signature-aware dense linear algebra.

Symmetric eigendecomposition, inertia counting, Schur complements, and Gram
factorization into Minkowski signature (n, 1). Everything operates on plain
numpy arrays; inputs are validated and exactly symmetrized on entry, and
never written. All functions are pure and safe to call concurrently.
Every whole-matrix pass takes its tiles and work tiles from tile_pairs, and
_residual_tiles reads every residual a - L R^T of a low-rank product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np


class NonConvergenceError(RuntimeError):
    """The symmetric eigensolver failed or violated its residual contract."""


class SingularPivotError(ValueError):
    """Schur pivot block is singular to tolerance; callers should re-pivot."""


class GramInfeasibleError(ValueError):
    """Inertia incompatible with a signature-(n, 1) Gram factorization."""

    def __init__(self, inertia: "Inertia", reason: str, exact: bool = True):
        super().__init__(reason)
        self.inertia = inertia
        self.reason = reason
        self.exact = exact


# The numerical policy shared across the library. EIG_ZERO is the relative
# cutoff below which an eigenvalue counts as zero (scaled by the largest
# absolute eigenvalue); RESIDUAL bounds acceptable factorization and
# reconstruction residuals, relative to the data's own scale.
EIG_ZERO = 1e-9
RESIDUAL = 1e-8


class Inertia(NamedTuple):
    positive: int
    negative: int
    zero: int

    @property
    def rank(self) -> int:
        return self.positive + self.negative

    @property
    def order(self) -> int:
        return self.positive + self.negative + self.zero


def is_integer(value) -> bool:
    """An int or a numpy integer that is not a bool, which Python counts as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def dimension(n) -> int:
    """The dimension n as an int; n must be an integer >= 1 (see is_integer)."""
    if not (is_integer(n) and n >= 1):
        raise ValueError(f"dimension n must be an integer >= 1, got {n!r}")
    return int(n)


# Side of the square tiles in which whole-matrix passes read an m x m matrix:
# 128 x 128 doubles (128 KiB), so that a tile, its mirror and a work tile stay
# in a typical L2 cache.
TILE = 128


def tile_pairs(m: int):
    """(rows, cols, work, scratch) for each TILE x TILE tile on and above the
    diagonal of an m x m matrix, whose mirror is the tile at (cols, rows), so
    a pass over a symmetric matrix visits each pair of mirrored entries once.
    work and scratch are contiguous float tiles of the tile's shape from one
    buffer per pass, overwritten at each step; one-tile passes ignore scratch."""
    buffers = np.empty((2, min(m, TILE) ** 2))
    for i in range(0, m, TILE):
        for j in range(i, m, TILE):
            shape = (min(TILE, m - i), min(TILE, m - j))
            size = shape[0] * shape[1]
            yield (slice(i, i + TILE), slice(j, j + TILE),
                   buffers[0, :size].reshape(shape), buffers[1, :size].reshape(shape))


def _residual_tiles(a: np.ndarray, left: np.ndarray, right: np.ndarray):
    """(rows, cols, tile) for each tile of tile_pairs, tile holding
    a[rows, cols] - left[rows] right[cols]^T: the product, formed in scratch,
    is subtracted from a contiguous copy of a's tile, which no ufunc buffers."""
    for rows, cols, tile, product in tile_pairs(a.shape[0]):
        # An inf or NaN stays in the tile, for the caller's test to refuse, unannounced.
        with np.errstate(all="ignore"):
            np.copyto(tile, a[rows, cols])
            tile -= np.matmul(left[rows], right[cols].T, out=product)
        yield rows, cols, tile


def max_abs(a: np.ndarray) -> float:
    """max|a| of a nonempty array, without forming |a|."""
    return max(float(a.max()), -float(a.min()))


def power_of_two_below(x: float) -> float:
    """The greatest power of two at most |x| (1 for zero): |x| divided by it is in [1, 2)."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1) if x else 1.0


def unit_scale(a: np.ndarray, top: float) -> tuple[np.ndarray, int]:
    """(a, 0) when top = max|a| is 0 or in [2^-400, 2^400], else (a / 4^j, j)
    with max in [1, 4), exact but for entries that underflow: the one scale
    rule of every route that counts, factors or eliminates an m x m matrix
    (inertia, the eigen routes, the Gram factor, the round-trip proof and the
    Schur routes). power_of_two_below serves only small stacks: minors of
    order at most MINORS_MAX_ORDER and lorentz_align's vectors."""
    if top == 0.0 or 2.0**-400 <= top <= 2.0**400:
        return a, 0
    j = (math.frexp(top)[1] - 1) // 2
    return np.ldexp(a, -2 * j), j


def _extent(block: np.ndarray) -> tuple[float, float]:
    """max and min of a block's entries, the min being -0.0 when the least
    entry is a zero and some zero carries the sign bit."""
    top, bottom = float(block.max()), float(block.min())
    # With no entry below zero, only -0.0 has the sign bit of an int64.
    if bottom == 0.0 and int(block.view(np.int64).min()) < 0:
        bottom = -0.0
    return top, bottom


def _least(x: float, y: float) -> float:
    """The lesser of x and y, counting -0.0 below +0.0."""
    return y if y < x or (y == x and math.copysign(1.0, y) < 0.0) else x


def _widened(high: float, low: float, block: np.ndarray) -> tuple[float, float]:
    """high and low widened by the extent of block, whose entries must be finite."""
    top, bottom = _extent(block)
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("matrix entries must be finite")
    return max(high, top), _least(low, bottom)


def symmetric_extent(matrix, rtol: float = 1e-8) -> tuple[np.ndarray, float, float]:
    """The finite square matrix, if max|a - a^T| <= rtol * max|a|, exactly
    symmetric and read-only, with its largest and least entries (see _extent
    for the sign of a zero minimum).

    One read-only pass over pairs of mirrored TILE x TILE tiles (tile_pairs)
    compares each tile with its mirror bit for bit and gathers the extent
    of the upper tile, which is its mirror's while the pair is equal. From
    the first pair that differs on, it gathers the extent of both tiles and
    measures max|a - a^T|. A non-finite entry raises as soon as its tile's
    extent is read, and asymmetry only after the whole pass, so finiteness
    outranks an asymmetry anywhere. A bitwise symmetric matrix is returned
    as a read-only view of the input, or of its transpose if
    Fortran-ordered, with no full-size allocation; only a non-contiguous
    one is copied, to C order. Any other matrix takes a second tiled pass,
    which writes (a + a^T) / 2, bit for bit wherever a + a^T is finite and
    as a / 2 + a^T / 2 where it overflows, into a new read-only array and
    gathers the extent of that. Only that array owns its data
    (flags.owndata), so a caller may correct it in place.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a square matrix of order >= 1, got shape {a.shape}")
    m = a.shape[0]
    # A Fortran-ordered array is read as its transpose, which is C-ordered,
    # symmetric exactly when a is, and has the same mean (a + a^T) / 2.
    if a.flags.f_contiguous:
        a = a.T
    high, low = -math.inf, math.inf
    skew = 0.0
    mirrored = True
    for rows, cols, upper, scratch in tile_pairs(m):
        # The upper tile is copied to a work tile, where the compare and its
        # extent read it from cache; the mirror is read along its own rows,
        # against the work tile's transpose.
        np.copyto(upper, a[rows, cols])
        lower = a[cols, rows]
        # Bit patterns, so that +0.0 opposite -0.0 counts as a difference;
        # after the first difference they are not compared again. The flags
        # fill the scratch tile's first bytes as a contiguous bool tile: an
        # int64 XOR into the whole tile made this pass 10% slower.
        flags = scratch.reshape(-1).view(bool)[:scratch.size].reshape(lower.shape)
        if mirrored and not np.not_equal(lower.view(np.int64), upper.T.view(np.int64),
                                         out=flags).any():
            high, low = _widened(high, low, upper)
            continue
        mirrored = False
        # Both extents first, so that an inf refuses before it is subtracted.
        high, low = _widened(*_widened(high, low, upper), lower)
        with np.errstate(over="ignore"):  # an overflowed difference is an inf skew, refused below
            skew = max(skew, max_abs(np.subtract(lower, upper.T, out=scratch.reshape(lower.shape))))
    del upper, scratch, flags  # views of this pass's buffer, freed before a second pass allocates its own
    if skew > rtol * max(high, -low):
        raise ValueError("matrix is not symmetric")
    if mirrored:
        out = np.ascontiguousarray(a).view()
    else:
        out = np.empty((m, m))
        high, low = -math.inf, math.inf
        for rows, cols, half, _ in tile_pairs(m):
            # Both copies are written from the work tile: a mirror written
            # from out itself would first be copied by numpy.
            with np.errstate(over="ignore"):
                np.add(a[rows, cols], a[cols, rows].T, out=half)
            half /= 2.0
            top, bottom = _extent(half)
            if math.isinf(top) or math.isinf(bottom):  # finite entries whose sum overflowed
                wide = np.isinf(half)
                half[wide] = a[rows, cols][wide] / 2.0 + a[cols, rows].T[wide] / 2.0
                top, bottom = _extent(half)
            out[rows, cols] = half
            if cols.start > rows.start:
                out[cols, rows] = half.T
            high, low = max(high, top), _least(low, bottom)
    out.setflags(write=False)
    return out, high, low


def as_symmetric(matrix) -> np.ndarray:
    """symmetric_extent's matrix at rtol 1e-8: a view of an exactly symmetric
    input, else a new (a + a^T) / 2; the input is never written."""
    return symmetric_extent(matrix)[0]


def signature_form(dim: int) -> np.ndarray:
    """Diagonal form of signature (dim - 1, 1): +1 spatial entries, -1 time last."""
    if dim < 2:
        raise ValueError("signature (n, 1) needs dimension >= 2")
    eta = np.eye(dim)
    eta[-1, -1] = -1.0
    return eta


def sym_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order with matching orthonormal eigenvector
    columns, which must reconstruct the matrix to RESIDUAL * max|a| on every
    entry or raise NonConvergenceError; a NaN residual, as from eigenvalues
    that overflow at the matrix's own scale, raises too."""
    a, high, low = symmetric_extent(matrix)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    scale = max(high, -low)
    with np.errstate(all="ignore"):  # an overflowed eigenvalue is the residual test's to refuse
        left = vectors * values
    # max|a - (V diag(values)) V^T| over the upper tiles, which np.max keeps
    # NaN: the exact residual is symmetric, and a computed entry is its
    # mirror's up to rounding far below RESIDUAL.
    residual = float(np.max([max_abs(tile) for _, _, tile in _residual_tiles(a, left, vectors)]))
    if not residual <= RESIDUAL * scale:
        raise NonConvergenceError(
            f"reconstruction residual {residual:.3g} exceeds {RESIDUAL * scale:.3g}"
        )
    return values, vectors


def eigen_cutoff(values) -> float:
    arr = np.asarray(values, dtype=float)
    top = float(np.abs(arr).max()) if arr.size else 0.0
    return EIG_ZERO * top


def inertia_of_values(values) -> Inertia:
    arr = np.asarray(values, dtype=float)
    cutoff = eigen_cutoff(arr)
    positive = int(np.sum(arr > cutoff))
    negative = int(np.sum(arr < -cutoff))
    return Inertia(positive, negative, int(arr.size) - positive - negative)


def inertia(matrix) -> Inertia:
    """Counts of positive, negative, and zero eigenvalues under the relative
    cutoff, read from sym_eigen on the validated matrix at unit_scale: the
    counts of a / 4^j are those of a, and no eigenvalue of a matrix whose
    largest entry is in [1, 4) leaves the float range."""
    a, high, low = symmetric_extent(matrix)
    values, _ = sym_eigen(unit_scale(a, max(high, -low))[0])
    return inertia_of_values(values)


def signature_violation(found: Inertia, max_negative: int, exactly_one: bool = True,
                        exact: bool = True) -> str | None:
    """The requirement of the signature rule that found breaks, or None.

    The rule behind every certificate: exactly one positive eigenvalue and
    at most max_negative negative ones. When exactly_one is False, at most
    one positive eigenvalue is asked for, so the rank is at most
    max_negative + 1, and the negative-count requirement says so. Rank zero,
    the identically zero matrix, always passes: its shared-point realization
    needs no positive eigenvalue. When exact is False, found holds proven lower
    bounds on the counts, which can break only the upper limits: more than
    one positive, or more than max_negative negative eigenvalues.
    """
    if found.rank == 0:
        return None
    if found.positive > 1 or (exact and exactly_one and found.positive == 0):
        return "exactly one positive eigenvalue" if exactly_one else "at most one positive eigenvalue"
    if found.negative > max_negative:
        rank = "" if exactly_one else f" (rank at most {max_negative + 1})"
        return f"at most {max_negative} negative eigenvalues{rank}"
    return None


@dataclass(frozen=True)
class Spectrum:
    """Inertia of a symmetric matrix with the eigenpairs that decide it.

    route names what decided: "sketch" (the Weyl certificate), "interlacing"
    (a refusal proven from the sketch's Ritz values) or "eigh" (the full
    decomposition). values (descending) and the matching orthonormal columns
    of vectors are the full eigendecomposition on route "eigh" and the Ritz
    pairs otherwise. inertia counts values against cutoff, the zero
    threshold. On routes "sketch" and "eigh" the counts are exact and every
    eigenvalue not listed counts as zero; on route "interlacing" the positive
    and negative counts are proven lower bounds.
    """

    values: np.ndarray
    vectors: np.ndarray
    cutoff: float
    inertia: Inertia
    route: str

    @property
    def exact(self) -> bool:
        return self.route != "interlacing"


# Gaussian test columns beyond the target rank (Halko, Martinsson & Tropp,
# SIAM Rev. 2011), and a fixed seed so that the route and its result repeat.
SKETCH_OVERSAMPLE = 8
SKETCH_SEED = 20110509
_EPS = float(np.finfo(float).eps)


def certified_eigen(matrix, rank: int) -> Spectrum:
    """Inertia and decisive eigenpairs, in O(m^2 rank) when a sketch certifies them.

    A range sketch of width w = rank + SKETCH_OVERSAMPLE gives Ritz pairs
    (mu, U) and the residual E = A - U diag(mu) U^T, whose Frobenius norm
    is read tile by tile without forming E (_sketch_residual). By Weyl's
    inequality every eigenvalue of A lies within delta >= |E|_2 of the multiset
    mu + {0}^(m - w), so the cutoff of inertia() is known to lie in a band
    [c_lo, c_hi]. When delta < c_lo and every mu clears the band by delta,
    the counts equal those of inertia() in exact arithmetic and the sketch
    decides (route "sketch"). When the sketch misses too much of A for that,
    interlacing may still prove that A breaks signature_violation's rule
    with max_negative = rank - 1, the convention of every caller (route
    "interlacing", lower-bound counts). Otherwise, and for m < 3 w, sym_eigen
    decides exactly as inertia() does (route "eigh"). matrix must be exactly
    symmetric, as as_symmetric returns it; it is not validated again.

    max|A| must be 0 or in [2^-400, 2^400], as unit_scale leaves it, so that
    no product, eigenvalue or squared cutoff of either route leaves the
    normal range.
    """
    if matrix.shape[0] >= 3 * (rank + SKETCH_OVERSAMPLE):
        found = _sketched_spectrum(matrix, rank)
        if found is not None:
            return found
    values, vectors = sym_eigen(matrix)
    return Spectrum(values, vectors, eigen_cutoff(values), inertia_of_values(values), "eigh")


def _sketched_spectrum(a: np.ndarray, rank: int) -> Spectrum | None:
    """The certified Spectrum from a range sketch of a, or None; a NaN
    anywhere refuses the certificate."""
    norm_sq = float(np.vdot(a, a))
    m = a.shape[0]
    width = rank + SKETCH_OVERSAMPLE
    omega = np.random.default_rng(SKETCH_SEED).standard_normal((m, width))
    # a is exactly symmetric, so a @ b is (b^T @ a)^T, which BLAS forms
    # faster; aq is kept C-ordered, as ritz and tail_sq read it.
    q, _ = np.linalg.qr((omega.T @ a).T)
    aq = np.ascontiguousarray((q.T @ a).T)
    ritz = q.T @ aq
    mu, v = np.linalg.eigh((ritz + ritz.T) / 2.0)
    mu, v = mu[::-1], v[:, ::-1]
    top = float(np.abs(mu).max())
    c_mid = EIG_ZERO * top
    # |A - Q Q^T A Q Q^T|_F^2 >= |A|_F^2 - |AQ|_F^2. The rounding slack is
    # generous: a needless rejection only hands the matrix to sym_eigen.
    tail_sq = norm_sq - float(np.vdot(aq, aq)) - (m + width) ** 2 * _EPS * norm_sq
    if tail_sq > c_mid * c_mid:
        return _interlacing_refusal(q, mu, v, norm_sq, rank)
    u = q @ v
    residual = _sketch_residual(a, u, mu)
    loss = float(np.linalg.norm(u.T @ u - np.eye(width)))
    # delta bounds |A - U diag(mu) U^T|_2 in exact arithmetic plus the
    # distance of U diag(mu) U^T's spectrum from mu + {0}: the computed
    # Frobenius norm over tile pairs with its summation error (see
    # _sketch_residual), the rounding in forming E (inner dimension w, then
    # one subtraction), and U's departure from orthonormality, |U^T U - I|,
    # including the rounding in forming U^T U.
    delta = (residual * (1.0 + m * m * _EPS)
             + (width + 3) * _EPS * (math.sqrt(norm_sq) + 2.0 * float(np.abs(mu).sum()))
             + top * (loss + (m + 2) * width * _EPS))
    c_lo = EIG_ZERO * (top - delta)
    c_hi = EIG_ZERO * (top + delta)
    size = np.abs(mu)
    # Written so that a NaN fails: each mu must clear the band by delta.
    if not (delta < c_lo and np.all((size > c_hi + delta) | (size < c_lo - delta))):
        return None
    positive = int(np.sum(mu > c_hi))
    negative = int(np.sum(mu < -c_hi))
    return Spectrum(mu, u, c_hi, Inertia(positive, negative, m - positive - negative), "sketch")


def _sketch_residual(a: np.ndarray, u: np.ndarray, mu: np.ndarray) -> float:
    """The computed |A - U diag(mu) U^T|_F of a symmetric a, with no m x m array.

    Each tile of _residual_tiles has its squares summed, a diagonal tile once
    and an off-diagonal tile twice, for itself and its mirror. This bounds
    what the m x m E would give: the exact E is symmetric, as A and U diag(mu)
    U^T both are, and every computed entry, whichever of a mirrored pair it
    stands for, keeps the rounding bound of forming it (inner dimension w,
    then one subtraction) that delta allows for. The factor (1 + m^2 eps) in
    delta covers the summation error of the m^2 squares in any order.
    """
    total = 0.0
    for rows, cols, tile in _residual_tiles(a, u * mu, u):
        square = float(np.vdot(tile, tile))
        total += square if cols.start == rows.start else 2.0 * square
    return math.sqrt(total)


def _interlacing_refusal(q: np.ndarray, mu: np.ndarray, v: np.ndarray, norm_sq: float,
                         rank: int) -> Spectrum | None:
    """The lower-bound Spectrum that refuses A, or None.

    mu (descending) with eigenvectors v are the Ritz values of A on the
    computed basis q, and norm_sq is the computed |A|_F^2. For an exactly
    orthonormal basis the Poincare separation theorem gives
    lambda_k(A) >= mu_k and lambda_{m-w+k}(A) <= mu_k. Since |A|_2 <= |A|_F,
    a Ritz value beyond EIG_ZERO * |A|_F proves an eigenvalue of its sign
    beyond inertia()'s cutoff EIG_ZERO * max|lambda|. A refuses when these
    lower bounds break the signature rule with max_negative = rank - 1.
    """
    m, width = q.shape
    loss = float(np.linalg.norm(q.T @ q - np.eye(width))) + (m + 2) * width * _EPS
    # frob bounds |A|_F from above despite the summation error in norm_sq.
    # The allowance bounds the distance of the computed mu from the Ritz
    # values on the orthonormal polar factor of q: loss (2 + loss) |A|_2 for
    # q's departure from orthonormality (loss bounds |q^T q - I|, including
    # the rounding in forming q^T q), plus the rounding in forming q^T A q
    # (inner dimension m, then w) and in its symmetric eigensolve.
    frob = math.sqrt(norm_sq) * (1.0 + m * m * _EPS)
    allowance = frob * (loss * (2.0 + loss) + 2.0 * (m + width) * width * _EPS)
    cutoff = EIG_ZERO * frob + allowance
    positive = int(np.sum(mu > cutoff))
    negative = int(np.sum(mu < -cutoff))
    found = Inertia(positive, negative, m - positive - negative)
    if signature_violation(found, rank - 1, exactly_one=False, exact=False) is None:
        return None
    return Spectrum(mu, q @ v, cutoff, found, "interlacing")


def schur_complement(matrix, pivot_indices: Iterable[int]) -> np.ndarray:
    """Eliminate the pivot block: A - B D^{-1} B^T over the remaining indices.

    The pivot indices must be integers (is_integer). The remaining indices
    keep their original relative order. A pivot block
    that is singular to tolerance raises SingularPivotError; it is never
    silently regularized.
    """
    a = as_symmetric(matrix)
    m = a.shape[0]
    given = list(pivot_indices)
    if not all(is_integer(i) for i in given):
        raise ValueError("pivot indices must be integers")
    pivots = sorted({int(i) for i in given})
    if pivots and (pivots[0] < 0 or pivots[-1] >= m):
        raise ValueError("pivot index out of range")
    rest = [i for i in range(m) if i not in set(pivots)]
    if not pivots:
        return a.copy()
    if not rest:
        return np.zeros((0, 0))
    block = a[np.ix_(pivots, pivots)]
    singular_values = np.linalg.svd(block, compute_uv=False)
    if singular_values[-1] <= RESIDUAL * float(singular_values[0]):
        raise SingularPivotError(f"pivot block {tuple(pivots)} is singular to tolerance")
    cross = a[np.ix_(pivots, rest)]
    solved = np.linalg.solve(block, cross)
    comp = a[np.ix_(rest, rest)] - cross.T @ solved
    return (comp + comp.T) / 2.0


MINORS_MAX_ORDER = 12


def principal_subsets(order: int):
    """Every nonempty subset of range(order) as a sorted tuple, in lexicographic
    order: (0,), (0, 1), (0, 1, 2), ..., (0, 2), ..., (order - 1,). An order
    above MINORS_MAX_ORDER raises ValueError when the walk starts."""
    if order > MINORS_MAX_ORDER:
        raise ValueError(
            f"order {order} exceeds the minors-mode cap {MINORS_MAX_ORDER}; use the inertia method"
        )
    yield from sorted(subset for size in range(1, order + 1)
                      for subset in itertools.combinations(range(order), size))


def principal_minor_sums(matrix) -> np.ndarray:
    """Sums of k-by-k principal minors for k = 1..m, for m up to MINORS_MAX_ORDER.

    These are the elementary symmetric functions of the eigenvalues, i.e. the
    unsigned characteristic polynomial coefficients, computed by determinant
    enumeration only. Each sum adds its minors in principal_subsets order,
    which for one size is that of itertools.combinations.
    """
    a = as_symmetric(matrix)
    sums = [0.0] * a.shape[0]
    for subset in principal_subsets(a.shape[0]):
        idx = np.asarray(subset)
        sums[len(subset) - 1] += float(np.linalg.det(a[np.ix_(idx, idx)]))
    return np.array(sums)


@dataclass(frozen=True)
class GramFactor:
    """Factorization result: row i is the Minkowski vector of index i
    (spatial coordinates first, time last). Rows whose input row was
    numerically zero are listed as degenerate."""

    vectors: np.ndarray
    degenerate_rows: tuple[int, ...]


def gram_factor_lorentz(matrix, n: int) -> GramFactor:
    """Vectors x_i in signature (n, 1) with -<x_i, x_j> equal to the input.

    Requires the signature rule at n: exactly one positive eigenvalue and at
    most n negative ones, or rank zero, where every row is zero and flagged
    degenerate. The single positive eigendirection is placed in the time
    coordinate; negative directions fill spatial slots in order of magnitude.
    On the eigh route, slots that the eigenvalues below -cutoff leave free
    take the most negative remaining eigenvalues below -m eps max|lambda|.
    That is a rounding bound: eigh's eigenvalues are exact for a matrix
    within a small multiple of m eps max|lambda| of a in norm, so beyond it
    an eigenvalue is data, not rounding, and dropping it leaves a factor row
    off the cone that a genuine eigenvalue just inside the cutoff would put
    on it. The counts, and so the certificate, do not change; the sketch
    route keeps its slots. Column signs are left to callers. All of it runs
    on a / 4^j, a at unit_scale, and the vectors are returned times 2^j.
    """
    a, high, low = symmetric_extent(matrix)
    n = dimension(n)
    m = a.shape[0]
    a, j = unit_scale(a, max(high, -low))
    scale = math.ldexp(max(high, -low), -2 * j)
    spectrum = certified_eigen(a, n + 1)
    violation = signature_violation(spectrum.inertia, n, exact=spectrum.exact)
    if violation is not None:
        raise GramInfeasibleError(spectrum.inertia, violation, spectrum.exact)
    values, vectors = spectrum.values, spectrum.vectors
    floor = m * _EPS * max_abs(values) if spectrum.route == "eigh" else spectrum.cutoff
    negatives = np.flatnonzero(values < -floor)
    negatives = negatives[np.argsort(values[negatives], kind="stable")][:n]
    x = np.zeros((m, n + 1))
    x[:, n] = math.sqrt(values[0]) * vectors[:, 0]
    x[:, :negatives.size] = vectors[:, negatives] * np.sqrt(-values[negatives])
    left = x @ -signature_form(n + 1)
    # max|a - (x (-eta)) x^T| = max|x eta x^T + a| over the upper tiles, NaN
    # kept: (x (-eta))_ik = -+x_ik exactly, so the products for (i, j) and
    # (j, i) are bitwise equal, and the exact residual is symmetric.
    residual = float(np.max([max_abs(tile) for _, _, tile in _residual_tiles(a, left, x)]))
    if not residual <= RESIDUAL * scale:
        raise NonConvergenceError(f"factorization residual {residual:.3g} out of tolerance")
    # A row is degenerate when max|a_i| <= EIG_ZERO * max|a|. Its first TILE
    # entries exceed that bound on almost every row, and only a row whose
    # first entries lie within it is read whole.
    bound = EIG_ZERO * scale
    head = a[:, :TILE]
    near_zero = np.flatnonzero(np.maximum(head.max(axis=1), -head.min(axis=1)) <= bound)
    return GramFactor(np.ldexp(x, j), tuple(int(i) for i in near_zero if max_abs(a[i]) <= bound))
