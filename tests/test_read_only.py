"""No public matrix entry point writes to its input.

Each entry point gets exactly symmetric input and inputs that validation must
correct (a -1e-14 entry, a -0.0 entry, a diagonal of 1e-14, one ulp of
asymmetry, and asymmetry with a -1e-14 entry), both read-only and writeable,
and must leave the caller's array bit for bit as it was. The validators return clean input as a read-only view
and corrected input as a new read-only array with the corrected bits.
"""

import json

import numpy as np
import pytest

from gen import random_sphere
from kissgeo import LengthGraph, io, numkernel
from kissgeo.completion import verify_target_matrix
from kissgeo.embed import (
    check_euclidean,
    check_kissing,
    construct_embedding,
    schur_embedding,
    validate_squared_distances,
    verify_schur_relations,
)
from kissgeo.kissing import Plane, Sphere, distance_matrix
from kissgeo.spheres import EuclideanSphere, check_spheres, separation_matrix, validate_separation_matrix

SIZES = [8, 60]


def kissing_matrix(m):
    """m - 2 random spheres, a sphere sharing sphere 0's tangent point (a zero
    distance at (0, m - 2)) and a plane last, so that every distance to the
    plane is positive and (0, m - 1) is an admissible Schur pivot."""
    rng = np.random.default_rng(m)
    spheres = [random_sphere(rng, 3) for _ in range(m - 2)]
    spheres += [Sphere(spheres[0].tangent, 1.7), Plane(1.3)]
    return distance_matrix(spheres)


def one_ulp_asymmetry(a):
    a[1, 2] = np.nextafter(a[1, 2], np.inf)
    return a


def with_pair(a, value):
    a[0, -2] = a[-2, 0] = value
    return a


def with_diagonal(a, value):
    np.fill_diagonal(a, value)
    return a


DISTANCE_INPUTS = {
    "clean": lambda a: a,
    "negative entry": lambda a: with_pair(a, -1e-14),
    "negative zero": lambda a: with_pair(a, -0.0),
    "diagonal": lambda a: with_diagonal(a, 1e-14),
    "asymmetric": one_ulp_asymmetry,
    "asymmetric and negative": lambda a: one_ulp_asymmetry(with_pair(a, -1e-14)),
}


def separation_input(m):
    rng = np.random.default_rng(m)
    return separation_matrix([EuclideanSphere(tuple(rng.normal(size=3)), float(rng.uniform(0.2, 1.0)))
                              for _ in range(m)])


SEPARATION_INPUTS = {
    "clean": lambda a: a,
    "diagonal": lambda a: with_diagonal(a, -1.0 + 1e-14),
    "asymmetric": one_ulp_asymmetry,
}


def complete_graph(d):
    m = d.shape[0]
    return LengthGraph(m, tuple((i, j, float(np.sqrt(d[i, j])))
                                for i in range(m) for j in range(i + 1, m)))


DISTANCE_CALLS = {
    "check_kissing": lambda d: check_kissing(d, 3),
    "check_kissing minors": lambda d: check_kissing(d, 3, "minors"),
    "check_euclidean": lambda d: check_euclidean(d, 3),
    "check_kissing one dimension up": lambda d: check_kissing(d, 4),
    "check_euclidean minors": lambda d: check_euclidean(d, 3, "minors"),
    "construct_embedding": lambda d: construct_embedding(d, 3),
    "schur_embedding": lambda d: schur_embedding(d, 3, (0, d.shape[0] - 1)),
    "verify_schur_relations": lambda d: verify_schur_relations(d, (0, d.shape[0] - 1)),
    "gram_factor_lorentz": lambda d: numkernel.gram_factor_lorentz(d, 3),
    "sym_eigen": numkernel.sym_eigen,
    "inertia": numkernel.inertia,
    "verify_target_matrix": lambda d: verify_target_matrix(d, complete_graph(kissing_matrix(d.shape[0])), 3),
    "validate_squared_distances": validate_squared_distances,
}

SEPARATION_CALLS = {
    "check_spheres": lambda s: check_spheres(s, 3),
    "check_spheres minors": lambda s: check_spheres(s, 3, "minors"),
    "validate_separation_matrix": validate_separation_matrix,
}


def cases(calls):
    """(m, name) pairs; the minors routes are capped at order 12."""
    return [(m, name) for m in SIZES for name in calls if m <= 12 or "minors" not in name]


def assert_untouched(call, matrix, writeable):
    given = matrix.copy()
    given.setflags(write=writeable)
    before = given.tobytes()
    call(given)
    assert given.tobytes() == before
    assert given.flags.writeable == writeable


@pytest.mark.parametrize("writeable", [False, True])
@pytest.mark.parametrize("kind", list(DISTANCE_INPUTS))
@pytest.mark.parametrize("m, name", cases(DISTANCE_CALLS))
def test_distance_entry_points_leave_their_input(m, name, kind, writeable):
    assert_untouched(DISTANCE_CALLS[name], DISTANCE_INPUTS[kind](kissing_matrix(m)), writeable)


@pytest.mark.parametrize("writeable", [False, True])
@pytest.mark.parametrize("kind", list(SEPARATION_INPUTS))
@pytest.mark.parametrize("m, name", cases(SEPARATION_CALLS))
def test_separation_entry_points_leave_their_input(m, name, kind, writeable):
    assert_untouched(SEPARATION_CALLS[name], SEPARATION_INPUTS[kind](separation_input(m)), writeable)


@pytest.mark.parametrize("kind", list(DISTANCE_INPUTS))
def test_load_matrix_leaves_its_input(kind):
    obj = {"d2": DISTANCE_INPUTS[kind](kissing_matrix(SIZES[-1])).tolist()}
    before = json.dumps(obj)
    _, matrix = io.load_matrix(obj)
    assert json.dumps(obj) == before
    assert not matrix.flags.writeable


class TestValidatorResults:
    """Clean input comes back as itself; corrected input as the bits of
    max((a + a^T) / 2, 0) with the diagonal set, in a new array."""

    @pytest.mark.parametrize("kind", list(DISTANCE_INPUTS))
    @pytest.mark.parametrize("m", SIZES)
    def test_squared_distances(self, m, kind):
        given = DISTANCE_INPUTS[kind](kissing_matrix(m))
        given.setflags(write=False)
        got = validate_squared_distances(given)
        assert not got.flags.writeable
        want = np.maximum((given + given.T) / 2.0, 0.0)
        np.fill_diagonal(want, 0.0)
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, given) == (kind == "clean")

    @pytest.mark.parametrize("kind", list(SEPARATION_INPUTS))
    @pytest.mark.parametrize("m", SIZES)
    def test_separations(self, m, kind):
        given = SEPARATION_INPUTS[kind](separation_input(m))
        given.setflags(write=False)
        got = validate_separation_matrix(given)
        assert not got.flags.writeable
        want = (given + given.T) / 2.0
        np.fill_diagonal(want, -1.0)
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, given) == (kind == "clean")

    def test_fortran_ordered_input_is_read_in_place(self):
        given = np.asfortranarray(kissing_matrix(SIZES[-1]))
        got = numkernel.as_symmetric(given)
        assert np.shares_memory(got, given) and got.flags.c_contiguous
        assert got.tobytes() == given.tobytes(order="C")

    def test_strided_input_comes_back_contiguous(self):
        given = kissing_matrix(2 * SIZES[-1])[::2, ::2]
        got = numkernel.as_symmetric(given)
        assert got.flags.c_contiguous and not got.flags.writeable
        assert got.tobytes() == given.tobytes(order="C")

    def test_signed_zeros_opposite_each_other_are_symmetrized(self):
        given = with_pair(kissing_matrix(SIZES[0]), 0.0)
        given[-2, 0] = -0.0
        got = numkernel.as_symmetric(given)
        assert not np.shares_memory(got, given)
        assert got.tobytes() == ((given + given.T) / 2.0).tobytes()
