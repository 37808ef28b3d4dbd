"""Input refusals of the public functions that no other test reaches: one row
per refusal, with the exception type it raises and its whole message."""

import math
import re

import pytest

from kissgeo import completion, embed, lightcone, numkernel, spheres
from kissgeo.completion import LengthGraph
from kissgeo.kissing import (
    InversionSphere,
    Plane,
    Reflection,
    Sphere,
    Translation,
    apply_generator,
    invert,
)
from kissgeo.spheres import EuclideanSphere

TRIPLE = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
SEPARATIONS = [[-1.0, 1.0], [1.0, -1.0]]
PATH = LengthGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
# The unit circle about the origin on the pseudosphere of signature (2, 1).
ANCHOR = [1.0, 0.0, 0.0]
ON_LINE = Sphere((0.0,), 1.0)

REFUSALS = [
    # embed
    (lambda: embed.check_kissing(TRIPLE, 2, "cholesky"), ValueError, "unknown method 'cholesky'"),
    (lambda: embed.check_euclidean(TRIPLE, 2, "cholesky"), ValueError, "unknown method 'cholesky'"),
    # Method names are matched exactly; the plain distance-matrix counts are check_kissing at n + 1.
    (lambda: embed.check_kissing(TRIPLE, 2, "Inertia"), ValueError, "unknown method 'Inertia'"),
    (lambda: embed.check_euclidean(TRIPLE, 2, "MINORS"), ValueError, "unknown method 'MINORS'"),
    (lambda: embed.check_euclidean(TRIPLE, 2, "distance_inertia"),
     ValueError, "unknown method 'distance_inertia'"),
    # spheres
    (lambda: spheres.check_spheres(SEPARATIONS, 2, "cholesky"), ValueError, "unknown method 'cholesky'"),
    (lambda: spheres.check_spheres(SEPARATIONS, 2, "Minors"), ValueError, "unknown method 'Minors'"),
    (lambda: spheres.separation_matrix([]), ValueError, "need at least one sphere"),
    (lambda: spheres.separation_matrix([EuclideanSphere((0.0,), 1.0), EuclideanSphere((0.0, 0.0), 1.0)]),
     ValueError, "mixed dimensions"),
    (lambda: EuclideanSphere((math.inf, 0.0), 1.0), ValueError, "center coordinates must be finite"),
    (lambda: EuclideanSphere((0.0,), 0.0), ValueError, "radius must be a positive finite real"),
    (lambda: spheres.kissing_cone_embed(ANCHOR, [1.0, 0.0]), ValueError, "dimension mismatch"),
    (lambda: spheres.kissing_cone_embed(ANCHOR, [2.0, 0.0, 0.0]),
     ValueError, "vector is not on the unit pseudosphere"),
    # kissing
    (lambda: Sphere((math.nan,), 1.0), ValueError, "coordinates must be finite"),
    (lambda: Plane(0.0), ValueError, "height must be a positive finite real"),
    (lambda: InversionSphere((0.0,), -1.0), ValueError, "radius must be a positive finite real"),
    (lambda: Reflection((0.0, 0.0)), ValueError, "reflection normal must be nonzero"),
    (lambda: invert(ON_LINE, InversionSphere((0.0, 0.0), 1.0)), ValueError, "ambient dimensions differ"),
    (lambda: apply_generator(ON_LINE, Translation((1.0, 0.0))), ValueError, "ambient dimensions differ"),
    (lambda: apply_generator(ON_LINE, Reflection((1.0, 0.0))), ValueError, "ambient dimensions differ"),
    (lambda: apply_generator(ON_LINE, object()), TypeError, "unsupported generator object"),
    # lightcone
    (lambda: lightcone.to_lightcone_curved([], 1.0, 1.0), ValueError, "direction must be a nonempty vector"),
    (lambda: lightcone.to_lightcone_curved([1.0, 0.0], 0.0, 1.0), ValueError, "diameter must be nonzero"),
    (lambda: lightcone.lorentz_align([[1.0, 0.0, 1.0]], [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
     lightcone.AlignmentError, "need equally many source and target vectors"),
    (lambda: lightcone.lorentz_align([[1.0]], [[1.0]]), ValueError, "vectors must have at least 2 coordinates"),
    # numkernel
    (lambda: numkernel.symmetric_extent([[0.0, 1.0]]),
     ValueError, "expected a square matrix of order >= 1, got shape (1, 2)"),
    (lambda: numkernel.signature_form(1), ValueError, "signature (n, 1) needs dimension >= 2"),
    (lambda: numkernel.schur_complement(TRIPLE, [3]), ValueError, "pivot index out of range"),
    # completion
    (lambda: completion.maximal_cliques(PATH, (0, 1, 1)),
     ValueError, "elimination ordering must be a permutation of the vertices"),
    (lambda: completion.verify_target_matrix([[0.0, 1.0], [1.0, 0.0]], PATH, 2),
     ValueError, "matrix order must equal the vertex count"),
    # The dimension is checked first, as in check_kissing and complete_chordal.
    (lambda: completion.verify_target_matrix(TRIPLE, PATH, 0),
     ValueError, "dimension n must be an integer >= 1, got 0"),
    (lambda: completion.verify_target_matrix(TRIPLE, PATH, 2.5),
     ValueError, "dimension n must be an integer >= 1, got 2.5"),
    (lambda: completion.verify_target_matrix(TRIPLE, PATH, True),
     ValueError, "dimension n must be an integer >= 1, got True"),
    (lambda: completion.verify_target_matrix(TRIPLE, PATH, "x"),
     ValueError, "dimension n must be an integer >= 1, got 'x'"),
    # A length must be a real number other than a bool, and finite as a float.
    (lambda: LengthGraph(2, ((0, 1, "1.5"),)), ValueError, "edge lengths must be real numbers"),
    (lambda: LengthGraph(2, ((0, 1, True),)), ValueError, "edge lengths must be real numbers"),
    (lambda: LengthGraph(2, ((0, 1, None),)), ValueError, "edge lengths must be real numbers"),
    (lambda: LengthGraph(2, ((0, 1, 10**400),)), ValueError, "edge lengths must be finite and nonnegative"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert caught.type is error
