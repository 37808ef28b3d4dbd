"""Null-vector model of kissing spheres.

A finite sphere (t, phi) maps to the future-directed null vector

    sqrt(2) / (2 phi) * (1 - |t|^2, 2 t, 1 + |t|^2)

in R^{n,1} (coordinate layout: n spatial coordinates, time last); a hyperplane
at height h maps to sqrt(2)/2 * (-h, 0, ..., 0, h). Minus the Minkowski inner
product of two images equals the squared sphere distance, so the map is an
isometry onto the future lightcone, and orthochronous Lorentz maps play the
role of the boundary-preserving conformal maps.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .kissing import KissingSphere, Plane, Sphere
from .numkernel import EIG_ZERO, RESIDUAL, power_of_two_below, signature_form

SQRT2 = math.sqrt(2.0)


class AlignmentError(ValueError):
    """No orthochronous Lorentz map reconciles the two vector systems."""


def _as_vector(x) -> np.ndarray:
    # Contiguous, so that BLAS sums a strided vector in the order of its copy.
    v = np.ascontiguousarray(x, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("expected a Minkowski vector with at least 2 coordinates")
    return v


def minkowski_inner(x, y) -> float:
    vx, vy = _as_vector(x), _as_vector(y)
    if vx.size != vy.size:
        raise ValueError("dimension mismatch")
    return float(vx[:-1] @ vy[:-1] - vx[-1] * vy[-1])


def is_future(x) -> bool:
    return float(_as_vector(x)[-1]) > 0.0


def to_lightcone(p: KissingSphere | Sequence[KissingSphere], n: int | None = None) -> np.ndarray:
    """Null image of a kissing sphere, or the (m, n+1) stack of the images of
    a sequence of m of them, as from_lightcone reads one; n is required when
    no finite sphere gives it, and every finite sphere must have it.

    Each row is the single sphere's image bit for bit, whatever the rest of
    the stack holds: |t|^2 is _self_dots's BLAS dot, which t @ t also takes,
    and every product keeps the association of the formula in the module
    docstring, c = sqrt(2) / (2 phi) times 1 - |t|^2, 2c times t and c times
    1 + |t|^2, or -h * sqrt(2) / 2 and h * sqrt(2) / 2 for a hyperplane.
    """
    single = isinstance(p, (Sphere, Plane))
    items = [p] if single else list(p)
    balls = [s for s in items if isinstance(s, Sphere)]
    dims = sorted({s.ambient_dim for s in balls})
    if n is None:
        if not dims:
            raise ValueError("ambient dimension is required for a hyperplane")
        n = dims[0]
    for dim in dims:
        if dim != n:
            raise ValueError(f"sphere has ambient dimension {dim}, not {n}")
    # n may be any number equal to the spheres' dimension, which is an int.
    n = dims[0] if dims else n
    ball = np.array([isinstance(s, Sphere) for s in items], dtype=bool)
    t = np.array([s.tangent for s in balls], dtype=float).reshape(len(balls), n - 1)
    heights = np.array([s.height for s in items if not isinstance(s, Sphere)], dtype=float)
    phi = np.array([s.diameter for s in balls], dtype=float)
    out = np.zeros((len(items), n + 1))
    with np.errstate(all="ignore"):
        norm_sq = _self_dots(t)
        c = SQRT2 / (2.0 * phi)
        out[ball, 0] = c * (1.0 - norm_sq)
        out[ball, 1:n] = (2.0 * c)[:, None] * t
        out[ball, n] = c * (1.0 + norm_sq)
        out[~ball, 0] = -heights * SQRT2 / 2.0
        out[~ball, n] = heights * SQRT2 / 2.0
    return out[0] if single else out


class InverseMapError(ValueError):
    """from_lightcone refused a vector; row is its index in the stack (0 for
    a single vector), and the message is the reason alone."""

    def __init__(self, reason: str, row: int):
        super().__init__(reason)
        self.row = row


def _self_dots(rows: np.ndarray) -> np.ndarray:
    """row @ row for each row, bit for bit: a stacked (1, k) @ (k, 1) matmul
    takes the same BLAS dot as a 1-d row @ row, where an elementwise sum
    rounds differently."""
    return (rows[:, None, :] @ rows[:, :, None]).reshape(-1)


def _first_refused(v: np.ndarray) -> tuple[int, str | None]:
    """The first row of a C-ordered stack that is zero, off the cone at its own
    scale (|x_s . x_s - t^2| > RESIDUAL * max|row|^2) or not future (t <= 0),
    with the reason; (len(v), None) when there is none. The null test reads
    each row divided exactly by the power of two below its largest entry, so
    that no square overflows or underflows."""
    t = v[:, -1]
    top = np.abs(v).max(axis=1)
    zero = top == 0.0
    unit = np.ldexp(1.0, np.frexp(top)[1] - 1)
    u, top_u = v / unit[:, None], top / unit
    t_u = u[:, -1]
    # Non-finite rows give NaN here and are refused when their spheres are built.
    with np.errstate(invalid="ignore"):
        off_cone = np.abs(_self_dots(u[:, :-1]) - t_u * t_u) > RESIDUAL * top_u * top_u
    refused = zero | off_cone | (t <= 0.0)
    if not refused.any():
        return len(v), None
    i = int(np.argmax(refused))
    if zero[i]:
        return i, "the zero vector is not on the future lightcone"
    if off_cone[i]:
        return i, "vector is not null to tolerance"
    return i, "vector is not future-directed"


def from_lightcone(x) -> KissingSphere | list[KissingSphere]:
    """Kissing sphere whose null image is x; requires a future null vector.

    x is one vector, giving one sphere, or an (m, n+1) stack of them, giving
    a list of m spheres; each row is read by the same rule, in whole-array
    operations. With mid the middle coordinates, the sphere has diameter
    sqrt(2)/w and tangent point mid/w, where w = x_0 + t. For x_0 < 0 that
    sum cancels, so w is read from the null relation instead,
    w = |mid|^2 / (t - x_0); the two agree on the cone and neither cancels
    on its own side. The vector is the hyperplane at height sqrt(2) * t
    only when w is zero, which is exactly the image to_lightcone gives a
    Plane, or when sqrt(2)/w overflows. The null test is relative to the
    vector's own scale. A refusal raises InverseMapError for the first row
    refused, as a loop over the rows would. The stack is read in C order, so
    that a vector maps bit for bit alike in every memory layout.
    """
    v = np.asarray(x, dtype=float)
    single = v.ndim == 1
    if single:
        v = _as_vector(v)[None, :]
    elif v.ndim != 2 or v.shape[1] < 2:
        raise ValueError("expected a Minkowski vector or an (m, n+1) stack of them, n >= 1")
    v = np.ascontiguousarray(v)
    stop, reason = _first_refused(v)
    x0, mid, t = v[:, 0], v[:, 1:-1], v[:, -1]
    with np.errstate(all="ignore"):
        w = np.where(x0 >= 0.0, x0 + t, _self_dots(mid) / (t - x0))
        diameter = SQRT2 / w
        tangent = mid / w[:, None]
        height = SQRT2 * t
    plane = (w == 0.0) | np.isinf(diameter)
    planes, heights = plane.tolist(), height.tolist()
    points, diameters = tangent.tolist(), diameter.tolist()
    out: list[KissingSphere] = []
    for i in range(stop):
        try:
            out.append(Plane(height=heights[i]) if planes[i]
                       else Sphere(tangent=points[i], diameter=diameters[i]))
        except ValueError as exc:
            raise InverseMapError(str(exc), i) from exc
    if reason is not None:
        raise InverseMapError(reason, stop)
    return out[0] if single else out


def to_lightcone_curved(direction, diameter: float, kappa: float) -> np.ndarray:
    """Null image of a sphere kissing a reference ball of curvature kappa.

    The diameter is signed (negative when the sphere surrounds the reference
    ball) and may be infinite, in which case the coefficient reduces to
    sqrt(2)/2. The locus kappa * diameter == -2 collapses to the zero vector;
    it is flagged with a warning rather than assigned a meaning.
    """
    if kappa == 0.0:
        raise ValueError("zero curvature: use to_lightcone")
    if math.isnan(kappa) or math.isnan(diameter):
        raise ValueError("curvature and diameter must not be NaN")
    u = np.asarray(direction, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("direction must be a nonempty vector")
    if not abs(float(u @ u) - 1.0) <= RESIDUAL:
        raise ValueError("direction must be a unit vector")
    if diameter == 0.0:
        raise ValueError("diameter must be nonzero")
    if math.isinf(diameter):
        coeff = SQRT2 / 2.0
    else:
        coeff = SQRT2 / 2.0 + SQRT2 / (kappa * diameter)
    if abs(coeff) <= 1e-12:
        warnings.warn(
            "degenerate curved image: curvature * diameter == -2 collapses to zero",
            RuntimeWarning,
            stacklevel=2,
        )
    return coeff * np.append(u, 1.0)


def lorentz_inverse(transform) -> np.ndarray:
    mat = np.asarray(transform, dtype=float)
    eta = signature_form(mat.shape[0])
    return eta @ mat.T @ eta


def is_lorentz(transform) -> bool:
    """True when the map is finite and preserves the signature form and the direction of time."""
    mat = np.asarray(transform, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
        return False
    if not np.isfinite(mat).all():
        return False
    eta = signature_form(mat.shape[0])
    scale = max(1.0, float(np.abs(mat).max()) ** 2)
    if float(np.abs(mat.T @ eta @ mat - eta).max()) > RESIDUAL * scale:
        return False
    return bool(mat[-1, -1] > 0.0)


def _null_partner(v: np.ndarray) -> np.ndarray:
    """Future null partner w of a future null v with <v, w> = -1."""
    t = float(v[-1])
    return np.append(-v[:-1], t) / (2.0 * t * t)


def _complement_frame(frame: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Basis of the orthogonal complement (w.r.t. the form) of the frame's
    column span, as columns of norm +1 under the form. The span holds a
    timelike direction, as every frame _witt_map keeps does, so the form is
    positive definite on the complement; a value that is not positive gives
    a NaN or inf column, silently, which is_lorentz refuses."""
    _, _, vt = np.linalg.svd(frame.T @ eta)
    null_basis = vt[frame.shape[1]:].T
    restricted = null_basis.T @ eta @ null_basis
    values, vecs = np.linalg.eigh((restricted + restricted.T) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return null_basis @ vecs / np.sqrt(values)


def _witt_map(x: np.ndarray, y: np.ndarray, gram: np.ndarray, eta: np.ndarray) -> np.ndarray | None:
    """Orthochronous Lorentz map T with x @ T.T = y, for two stacks with
    entries of order one whose common Gram matrix is gram and whose span is
    nondegenerate; None when every eigenvalue of gram is at or below
    EIG_ZERO times its scale.

    By Witt's theorem the Gram matrix fixes the map on the span. With
    (lambda, V) the kept eigenpairs, C = V |lambda|^-1/2 makes x^T C and
    y^T C orthonormal under the form with the signs of lambda. Completed
    by bases of their complements of norm +1 (_complement_frame) to frames
    F_x and F_y with the signs S, F_x^-1 is S F_x^T eta, so
    T = F_y S F_x^T eta. Up to three polish
    steps then remove form drift.
    """
    values, vecs = np.linalg.eigh(gram)
    keep = np.abs(values) > EIG_ZERO * max(1.0, float(np.abs(gram).max()))
    if not keep.any():
        return None
    coefficients = vecs[:, keep] / np.sqrt(np.abs(values[keep]))
    base_x, base_y = x.T @ coefficients, y.T @ coefficients
    comp_x, comp_y = _complement_frame(base_x, eta), _complement_frame(base_y, eta)
    frame_x = np.column_stack([base_x, comp_x])
    frame_y = np.column_stack([base_y, comp_y])
    signs = np.concatenate([np.sign(values[keep]), np.ones(comp_x.shape[1])])
    transform = (frame_y * signs) @ frame_x.T @ eta

    identity = np.eye(len(eta))
    for _ in range(3):
        drift = transform.T @ eta @ transform - eta
        # Relative to max|T|^2, the scale is_lorentz tests at: rounding in
        # T^T eta T alone is about max|T|^2 times the machine epsilon.
        size = max(1.0, float(np.abs(transform).max()) ** 2)
        if float(np.abs(drift).max()) <= RESIDUAL * 1e-3 * size:
            break
        transform = transform @ (1.5 * identity - 0.5 * (eta @ transform.T @ eta @ transform))
    return transform


def lorentz_align(source, target) -> np.ndarray:
    """Orthochronous Lorentz map sending each source vector to its target.

    Inputs must be equally long stacks of finite future null vectors, as
    from_lightcone reads them, with matching pairwise Gram matrices. Both
    stacks are divided by one power of two, and the map is the one Witt's
    theorem gives: the eigenvectors of the common Gram matrix
    (G_x + G_y) / 2, scaled by |lambda|^-1/2, make both frames orthonormal
    under the form with the same signs, so each frame's inverse is its
    transpose between the forms and no matrix is inverted. When the sources
    lie on one null line, every eigenvalue is below EIG_ZERO times the Gram
    scale, and the first source and its future null partner (product -1)
    span the frames instead. Up to three polish steps remove form drift; the
    map must then pass is_lorentz and reproduce every target to RESIDUAL,
    which also refuses dependent sources that map inconsistently.
    """
    x = np.array(source, dtype=float, ndmin=2, order="C")
    y = np.array(target, dtype=float, ndmin=2, order="C")
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] == 0:
        raise AlignmentError("need equally many source and target vectors")
    dim = x.shape[1]
    if dim < 2:
        raise ValueError("vectors must have at least 2 coordinates")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("vectors must be finite")
    for rows, label in ((x, "source"), (y, "target")):
        i, reason = _first_refused(rows)
        if reason is not None:
            raise AlignmentError(f"{label} vector {i}: {reason}")
    eta = signature_form(dim)
    # An exact division by one power of two puts every threshold below at the data's scale.
    scale = power_of_two_below(max(float(np.abs(x).max()), float(np.abs(y).max())))
    x, y = x / scale, y / scale

    gram_x = x @ eta @ x.T
    gram_y = y @ eta @ y.T
    gram_scale = max(1.0, float(np.abs(gram_x).max()), float(np.abs(gram_y).max()))
    if float(np.abs(gram_x - gram_y).max()) > RESIDUAL * gram_scale:
        raise AlignmentError("Gram mismatch between the vector systems")
    transform = _witt_map(x, y, (gram_x + gram_y) / 2.0, eta)
    if transform is None:
        # One null line: on each side, its first vector and that vector's
        # partner span a plane of Gram [[0, -1], [-1, 0]]. That Gram is given,
        # not formed: a short vector's partner is long, and the partner's own
        # product would be rounding at its length.
        pair_x, pair_y = (np.stack([rows[0], _null_partner(rows[0])]) for rows in (x, y))
        transform = _witt_map(pair_x, pair_y, np.array([[0.0, -1.0], [-1.0, 0.0]]), eta)
    if not is_lorentz(transform):
        raise AlignmentError("alignment failed the Lorentz checks")
    vec_scale = max(float(np.linalg.norm(x, axis=1).max()), float(np.linalg.norm(y, axis=1).max()))
    residual = float(np.linalg.norm(x @ transform.T - y, axis=1).max())
    if residual > RESIDUAL * vec_scale:
        raise AlignmentError(f"alignment residual {residual * scale:.3g} out of tolerance")
    return transform
