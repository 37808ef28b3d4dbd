"""Independent correctness checks for the benchmark.

Every check recomputes what it needs with plain numpy and never calls kissgeo,
so a defect in the program cannot hide behind the same defect in its checker.
Each check returns None when the output is correct and a one-line reason
otherwise.
"""

from __future__ import annotations

import json

import numpy as np

# Distances recomputed from a realization must match the input within this
# share of the input's largest entry.
DISTANCE_RTOL = 1e-7
# Eigenvalues of a completed matrix count as zero below this share of its
# largest eigenvalue magnitude.
EIG_RTOL = 1e-8


def pair_squared_distances(tangent, diameter, height, u, v) -> np.ndarray:
    """Squared kissing distances between rows u and v (index arrays that broadcast).

    Row i is a hyperplane at height ``height[i]`` when that is positive, and
    otherwise the sphere with tangent point ``tangent[i]`` and diameter
    ``diameter[i]``. Sphere pairs give |t_i - t_j|^2 / (phi_i phi_j), a plane
    and a sphere give h / phi, two planes give zero. Swapping u and v gives
    bit-identical results.
    """
    t = np.asarray(tangent, dtype=float)
    h = np.asarray(height, dtype=float)
    plane = h > 0.0
    inv = np.where(plane, 0.0, 1.0 / np.where(plane, 1.0, np.asarray(diameter, dtype=float)))
    t = np.where(plane[:, None], 0.0, t)
    gap = 0.0
    for k in range(t.shape[1]):
        diff = t[u, k] - t[v, k]
        gap = gap + diff * diff
    return gap * (inv[u] * inv[v]) + (h[u] * inv[v] + inv[u] * h[v])


def squared_distances(tangent, diameter, height) -> np.ndarray:
    """Full squared-distance matrix; exactly symmetric with a zero diagonal."""
    rows = np.arange(len(height))
    return pair_squared_distances(tangent, diameter, height, rows[:, None], rows[None, :])


def sphere_arrays(items, n: int):
    """(tangent, diameter, height) arrays from a realization.

    Accepts kissgeo ``Sphere``/``Plane`` objects (read by attribute) and the
    CLI's JSON items ({"t", "phi"} or {"h"}). Raises ValueError on anything
    that is not a well-formed kissing sphere of ambient dimension n.
    """
    m = len(items)
    tangent = np.zeros((m, n - 1))
    diameter = np.ones(m)
    height = np.zeros(m)
    for i, item in enumerate(items):
        if isinstance(item, dict):
            h, t, phi = item.get("h"), item.get("t"), item.get("phi")
        else:
            h = getattr(item, "height", None)
            t, phi = getattr(item, "tangent", None), getattr(item, "diameter", None)
        if h is not None:
            if not (np.isfinite(h) and h > 0.0):
                raise ValueError(f"item {i}: plane height {h!r} is not positive")
            height[i] = h
            continue
        if t is None or phi is None or len(t) != n - 1:
            raise ValueError(f"item {i}: not a kissing sphere of dimension {n}")
        if not (np.isfinite(phi) and phi > 0.0) or not np.all(np.isfinite(t)):
            raise ValueError(f"item {i}: diameter {phi!r} or tangent point is not valid")
        tangent[i] = t
        diameter[i] = phi
    return tangent, diameter, height


def check_realization(items, d_input: np.ndarray, n: int) -> str | None:
    """The realization has one sphere per row and reproduces the input distances."""
    if len(items) != d_input.shape[0]:
        return f"realization has {len(items)} spheres for an order-{d_input.shape[0]} matrix"
    try:
        arrays = sphere_arrays(items, n)
    except ValueError as exc:
        return f"malformed realization: {exc}"
    error = float(np.abs(squared_distances(*arrays) - d_input).max())
    limit = DISTANCE_RTOL * float(np.abs(d_input).max())
    if not error <= limit:
        return f"realized distances off by {error:.3g} (limit {limit:.3g})"
    return None


def check_completion(full, vertices: int, edges: np.ndarray, n: int) -> str | None:
    """A completed matrix is symmetric with a zero diagonal, agrees with every
    edge, and has one positive eigenvalue and rank at most n + 1.

    ``edges`` is a (k, 3) array of (u, v, length). Entries are compared against
    the largest squared edge length, the data's own scale.
    """
    try:
        d = np.asarray(full, dtype=float)
    except (TypeError, ValueError):
        return "completed matrix is not a numeric square array"
    if d.shape != (vertices, vertices):
        return f"completed matrix has shape {d.shape}, expected ({vertices}, {vertices})"
    if not np.all(np.isfinite(d)):
        return "completed matrix has non-finite entries"
    scale = max(float((edges[:, 2] ** 2).max()) if edges.size else 0.0, 1.0)
    if float(np.abs(d - d.T).max()) > DISTANCE_RTOL * scale:
        return "completed matrix is not symmetric"
    if float(np.abs(np.diag(d)).max()) > DISTANCE_RTOL * scale:
        return "completed matrix has a nonzero diagonal"
    u = edges[:, 0].astype(int)
    v = edges[:, 1].astype(int)
    want = edges[:, 2] ** 2
    error = float(np.abs(d[u, v] - want).max()) if want.size else 0.0
    limit = DISTANCE_RTOL * scale
    if not error <= limit:
        return f"completed matrix misses an edge by {error:.3g} (limit {limit:.3g})"
    values = np.linalg.eigvalsh(d)
    cutoff = EIG_RTOL * float(np.abs(values).max())
    positive = int(np.sum(values > cutoff))
    rank = int(np.sum(np.abs(values) > cutoff))
    if positive != 1:
        return f"completed matrix has {positive} positive eigenvalues"
    if rank > n + 1:
        return f"completed matrix has rank {rank} > n + 1 = {n + 1}"
    return None


def check_verdict(actual, expected: str) -> str | None:
    if actual != expected:
        return f"verdict {actual!r}, expected {expected!r}"
    return None


def check_cli_output(kind: str, code: int, stdout: bytes, reference: bytes | None,
                     expected, n: int) -> str | None:
    """One ``kissgeo embed`` or ``kissgeo complete`` run on an input whose
    expected outcome is success.

    The exit code must be 0, stdout must equal the first run's bytes on the
    same input (``reference``; None for the first run), and the parsed
    document must pass the same checks as the library result.
    """
    if code != 0:
        return f"cli {kind} exited with {code}: {stdout[:200].decode(errors='replace')}"
    if reference is not None and stdout != reference:
        return f"cli {kind} stdout differs from the first run on the same input"
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"cli {kind} stdout is not JSON: {exc}"
    if not isinstance(payload, dict):
        return f"cli {kind} stdout is not a JSON object"
    if kind == "embed":
        if payload.get("n") != n or not isinstance(payload.get("spheres"), list):
            return "cli embed output lacks 'n' or 'spheres'"
        return check_realization(payload["spheres"], expected, n)
    if payload.get("verdict") != "Completed" or "d2" not in payload:
        return f"cli complete verdict {payload.get('verdict')!r}, expected 'Completed'"
    return check_completion(payload["d2"], expected.vertices, expected.edges, n)
