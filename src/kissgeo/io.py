"""JSON schemas for sphere sets, matrices, graphs, and vector lists.

All output is written by the standard JSON encoder: each number is its
shortest round-trip repr, so round trips are lossless at double precision and
serialization is deterministic.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from . import numkernel
from .completion import LengthGraph
from .kissing import KissingSphere, Plane, Sphere
from .numkernel import is_integer
from .spheres import EuclideanSphere


class SchemaError(ValueError):
    """Input does not conform to the expected JSON schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _number(value, message: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), message)
    try:
        out = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise SchemaError(message) from None
    _require(math.isfinite(out), message)
    return out


_PLAIN_NUMBERS = {int, float}


def _fill_rows(out: np.ndarray, rows: list, row_message, entry_message) -> np.ndarray:
    """Copy rows of plain JSON numbers into out, one whole row at a time, and return it.

    On a row that is not a list of out's width, an entry that is not an int
    or float (bools, strings and null included), an integer beyond the float
    range, or a non-finite value, a per-entry loop raises SchemaError at the
    first bad row i, with row_message(i), or entry (i, j), with
    entry_message(i, j).
    """
    width = out.shape[1]
    try:
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == width and set(map(type, row)) <= _PLAIN_NUMBERS):
                break
            out[i] = row
        else:
            if np.isfinite(out).all():
                return out
    except OverflowError:
        pass
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == width, row_message(i))
        for j, value in enumerate(row):
            out[i, j] = _number(value, entry_message(i, j))
    return out


def _header(obj, what: str, least: int, key: str) -> tuple[int, list]:
    """The "n" and the list under key of a document that must be an object
    (what names it), with "n" an integer >= least and the list nonempty."""
    _require(isinstance(obj, dict), f"{what} must be a JSON object")
    n = obj.get("n")
    _require(is_integer(n) and n >= least, f'"n" must be an integer >= {least}')
    raw = obj.get(key)
    _require(isinstance(raw, list) and raw, f'"{key}" must be a nonempty list')
    return n, raw


def load_sphere_set(obj) -> tuple[int, list[KissingSphere]]:
    """{"n": int >= 2, "spheres": [{"t": [...], "phi": real} | {"h": real}, ...]}"""
    n, raw = _header(obj, "sphere set", 2, "spheres")
    spheres: list[KissingSphere] = []
    for i, item in enumerate(raw):
        _require(isinstance(item, dict), f"sphere {i} must be an object")
        if "h" in item:
            _require(set(item) == {"h"}, f"sphere {i}: a hyperplane has only the key 'h'")
            height = _number(item["h"], f"sphere {i}: 'h' must be a finite number")
            _require(height > 0.0, f"sphere {i}: 'h' must be positive")
            spheres.append(Plane(height=height))
            continue
        _require(set(item) == {"t", "phi"}, f"sphere {i}: expected keys 't' and 'phi'")
        tangent = item["t"]
        _require(isinstance(tangent, list) and len(tangent) == n - 1,
                 f"sphere {i}: 't' must list {n - 1} coordinates")
        coords = tuple(_number(c, f"sphere {i}: tangent coordinates must be numbers") for c in tangent)
        phi = _number(item["phi"], f"sphere {i}: 'phi' must be a finite number")
        _require(phi > 0.0, f"sphere {i}: 'phi' must be positive")
        spheres.append(Sphere(tangent=coords, diameter=phi))
    return n, spheres


def dump_sphere_set(n: int, spheres: Sequence[KissingSphere]) -> dict:
    items = []
    for s in spheres:
        if isinstance(s, Plane):
            items.append({"h": s.height})
        else:
            items.append({"t": list(s.tangent), "phi": s.diameter})
    return {"n": n, "spheres": items}


def load_matrix(obj, diagonal: float = 0.0) -> tuple[list[str] | None, np.ndarray]:
    """{"labels": [...] optional, "d2": [[...]], "diag": -1 marker for separations}.

    Validates symmetry to 1e-12 relative, max|d2 - d2^T| <= 1e-12 * max|d2|,
    and the expected diagonal to the same relative tolerance, so that the
    contract holds at every scale of the data. Asymmetric input is rejected,
    never silently symmetrized: only rounding-level asymmetry passes, and the
    exactly symmetric (d2 + d2^T) / 2 is returned.
    """
    _require(isinstance(obj, dict), "matrix input must be a JSON object")
    rows = obj.get("d2")
    _require(isinstance(rows, list) and rows, '"d2" must be a nonempty list of rows')
    matrix = _fill_rows(np.zeros((len(rows), len(rows))), rows, lambda i: '"d2" must be square',
                        lambda i, j: f'"d2"[{i}][{j}] must be a finite number')
    labels = obj.get("labels")
    if labels is not None:
        _require(isinstance(labels, list) and all(isinstance(x, str) for x in labels),
                 '"labels" must be a list of strings')
        _require(len(labels) == matrix.shape[0], '"labels" length must match the matrix order')
    if diagonal == -1.0:
        marker = obj.get("diag")
        _require(marker == -1, 'separation input must carry the marker "diag": -1')
    try:
        matrix, high, low = numkernel.symmetric_extent(matrix, rtol=1e-12)
    except ValueError:
        raise SchemaError("matrix must be symmetric (1e-12 relative)") from None
    _require(float(np.abs(np.diag(matrix) - diagonal).max()) <= 1e-12 * max(high, -low),
             f"matrix diagonal must be {diagonal:g}")
    return labels, matrix


def load_graph(obj) -> LengthGraph:
    """{"vertices": int, "edges": [{"u": int, "v": int, "len": real}, ...]}; LengthGraph checks it."""
    _require(isinstance(obj, dict), "graph input must be a JSON object")
    raw = obj.get("edges")
    _require(isinstance(raw, list), '"edges" must be a list')
    edges = []
    for i, item in enumerate(raw):
        _require(isinstance(item, dict) and {"u", "v", "len"} <= set(item),
                 f"edge {i} must carry 'u', 'v', 'len'")
        length = _number(item["len"], f"edge {i}: 'len' must be a finite number")
        edges.append((item["u"], item["v"], length))
    try:
        return LengthGraph(obj.get("vertices"), tuple(edges))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def dump_graph(graph: LengthGraph) -> dict:
    return {
        "vertices": graph.vertex_count,
        "edges": [{"u": u, "v": v, "len": length} for u, v, length in graph.edges],
    }


def load_vectors(obj) -> tuple[int, np.ndarray]:
    """{"n": int >= 1, "vectors": [[n+1 coordinates], ...]}"""
    n, raw = _header(obj, "vector input", 1, "vectors")
    return n, _fill_rows(np.zeros((len(raw), n + 1)), raw,
                         lambda i: f"vector {i} must list {n + 1} coordinates",
                         lambda i, j: f"vector coordinate [{i}][{j}] must be a finite number")


def dump_vectors(n: int, vectors) -> dict:
    return {"n": n, "vectors": np.asarray(vectors, dtype=float).tolist()}


def load_euclidean_spheres(obj) -> tuple[int, list[EuclideanSphere]]:
    """{"n": int >= 1, "spheres": [{"c": [...], "r": real}, ...]}"""
    n, raw = _header(obj, "sphere input", 1, "spheres")
    spheres = []
    for i, item in enumerate(raw):
        _require(isinstance(item, dict) and {"c", "r"} <= set(item),
                 f"sphere {i} must carry 'c' and 'r'")
        center = item["c"]
        _require(isinstance(center, list) and len(center) == n,
                 f"sphere {i}: 'c' must list {n} coordinates")
        coords = tuple(_number(c, f"sphere {i}: center coordinates must be numbers") for c in center)
        radius = _number(item["r"], f"sphere {i}: 'r' must be a finite number")
        _require(radius > 0.0, f"sphere {i}: 'r' must be positive")
        spheres.append(EuclideanSphere(center=coords, radius=radius))
    return n, spheres


def format_json(value) -> str:
    """Deterministic single-document rendering; non-finite numbers are refused."""
    return json.dumps(value, allow_nan=False)
