import dataclasses
import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import coincident_sphere_set, round_trip_close
from kissgeo import embed, numkernel
from kissgeo.embed import (
    RealizationError,
    check_euclidean,
    check_kissing,
    construct_embedding,
    validate_squared_distances,
)
from kissgeo.kissing import Sphere, distance_matrix
from kissgeo.spheres import check_spheres
from kissgeo.numkernel import (
    EIG_ZERO,
    RESIDUAL,
    SKETCH_OVERSAMPLE,
    TILE,
    GramInfeasibleError,
    Inertia,
    NonConvergenceError,
    SingularPivotError,
    as_symmetric,
    certified_eigen,
    gram_factor_lorentz,
    inertia,
    principal_minor_sums,
    principal_subsets,
    schur_complement,
    signature_form,
    signature_violation,
    sym_eigen,
)


def char_poly_roots(matrix):
    """Independent eigenvalue oracle: characteristic coefficients from brute
    determinant sums over principal subsets, then polynomial roots."""
    a = np.asarray(matrix, dtype=float)
    m = a.shape[0]
    coeffs = [1.0]
    for k in range(1, m + 1):
        total = sum(
            np.linalg.det(a[np.ix_(s, s)]) for s in combinations(range(m), k)
        )
        coeffs.append((-1.0) ** k * total)
    return np.sort(np.roots(coeffs).real)[::-1]


def sym_from_flat(values, order):
    out = np.zeros((order, order))
    idx = np.triu_indices(order)
    out[idx] = values
    return out + np.triu(out, 1).T


class TestSymEigen:
    def test_diagonal(self):
        values, _ = sym_eigen(np.diag([3.0, 1.0, -2.0]))
        assert np.allclose(values, [3.0, 1.0, -2.0])

    def test_all_off_diagonal_ones(self):
        # Oracle: brute-force characteristic polynomial of J - I.
        m = np.ones((3, 3)) - np.eye(3)
        expected = char_poly_roots(m)
        assert np.allclose(expected, [2.0, -1.0, -1.0], atol=1e-9)
        values, vectors = sym_eigen(m)
        assert np.allclose(values, expected, atol=1e-9)
        assert np.allclose(vectors.T @ vectors, np.eye(3), atol=1e-12)

    def test_zero_matrix(self):
        values, _ = sym_eigen(np.zeros((4, 4)))
        assert np.allclose(values, 0.0)

    def test_reconstruction_contract(self, rng):
        m = rng.normal(size=(6, 6))
        a = as_symmetric(m + m.T)
        values, vectors = sym_eigen(a)
        recon = (vectors * values) @ vectors.T
        assert np.abs(a - recon).max() <= RESIDUAL * np.abs(a).max()

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_eigensolver_failure_is_nonconvergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(numkernel.np.linalg, "eigh", fail)
        with pytest.raises(NonConvergenceError, match="^eigensolver did not converge"):
            sym_eigen(np.diag([3.0, 1.0, -2.0]))

    def test_reconstruction_residual_is_nonconvergence(self, monkeypatch):
        real = np.linalg.eigh

        def off_by_a_millionth(a):
            values, vectors = real(a)
            return values * (1.0 + 1e-6), vectors

        monkeypatch.setattr(numkernel.np.linalg, "eigh", off_by_a_millionth)
        with pytest.raises(NonConvergenceError, match="^reconstruction residual"):
            sym_eigen(np.diag([3.0, 1.0, -2.0]))

    def test_nan_in_a_later_tile_is_nonconvergence(self, rng, monkeypatch):
        """A NaN in the last eigenvector row reaches only the tiles after the
        first; the residual keeps it, and a NaN fails the test."""
        real = np.linalg.eigh

        def nan_last_row(a):
            values, vectors = real(a)
            vectors[-1] = np.nan
            return values, vectors

        monkeypatch.setattr(numkernel.np.linalg, "eigh", nan_last_row)
        with pytest.raises(NonConvergenceError, match="^reconstruction residual nan"):
            sym_eigen(embeddable(rng, TILE + 1, 3))

    @pytest.mark.parametrize("m", [5, 20, 40])
    def test_overflowed_eigenvalues_are_nonconvergence(self, m):
        """At max D = 1.7e308 the eigenvalues leave the float range and
        sym_eigen's residual is not a number: that fails, silently, where a
        NaN once passed and read as rank zero. inertia counts the matrix at
        unit_scale, where they do not, and returns the counts of D / 4^j."""
        from bench.inputs import not_embeddable_matrix

        d = not_embeddable_matrix(np.random.default_rng(m), m).d2
        # A block whose eigenvalue 2 * 1.7e308 overflows, beside one whose
        # eigenvectors are exactly zero on it: inf times zero is a NaN.
        blocks = np.zeros((m, m))
        blocks[:3, :3] = 1.7e308 * (np.ones((3, 3)) - np.eye(3))
        blocks[3, 4] = blocks[4, 3] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, counts in ((1.7e308 / d.max() * d, inertia(d)), (blocks, (1, 2, m - 3))):
                with pytest.raises(NonConvergenceError, match="^reconstruction residual"):
                    sym_eigen(a)
                assert inertia(a) == counts

    def test_rejects_asymmetric_at_small_scale(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigen(1e-15 * np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestInertia:
    def test_all_off_diagonal_ones(self):
        assert inertia(np.ones((3, 3)) - np.eye(3)) == (1, 2, 0)

    def test_diag(self):
        assert inertia(np.diag([1.0, -1.0])) == (1, 1, 0)

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_zero_matrix(self, order):
        assert inertia(np.zeros((order, order))) == (0, 0, order)

    def test_counts_sum_to_order(self, rng):
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            a = as_symmetric(m + m.T)
            found = inertia(a)
            assert found.order == 5

    def test_sylvester_congruence_invariance(self, rng):
        # Inertia survives congruence by any invertible matrix.
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            a = as_symmetric(m + m.T)
            while True:
                s = rng.normal(size=(5, 5))
                if abs(np.linalg.det(s)) > 1e-3:
                    break
            assert inertia(s.T @ a @ s) == inertia(a)

    def test_relative_threshold(self):
        # A tiny eigenvalue relative to the top one counts as zero.
        a = np.diag([1.0, 1e-12])
        assert inertia(a) == (1, 0, 1)
        assert inertia(np.diag([1.0, 1e-8])) == (2, 0, 0)


class TestSchurComplement:
    def test_two_by_two(self):
        out = schur_complement(np.array([[2.0, 1.0], [1.0, 2.0]]), {1})
        assert np.allclose(out, [[1.5]])

    def test_zero_diagonal_pivot_is_singular(self):
        # The 1-by-1 pivot block of a zero-diagonal matrix is singular and is
        # reported, never regularized.
        with pytest.raises(SingularPivotError):
            schur_complement(np.array([[0.0, 1.0], [1.0, 0.0]]), {1})

    def test_tangent_triple(self):
        # Direct elimination on the all-off-diagonal-ones matrix.
        d = np.ones((3, 3)) - np.eye(3)
        out = schur_complement(d, {0, 2})
        assert np.allclose(out, [[-2.0]])

    def test_empty_pivot_returns_matrix(self):
        a = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.allclose(schur_complement(a, set()), a)

    def test_full_pivot_returns_empty(self):
        out = schur_complement(np.array([[2.0, 1.0], [1.0, 2.0]]), {0, 1})
        assert out.shape == (0, 0)

    def test_determinant_identity(self, rng):
        # det M = det(pivot block) * det(Schur complement).
        for _ in range(25):
            m = rng.normal(size=(6, 6))
            a = as_symmetric(m + m.T)
            pivots = sorted(rng.choice(6, size=2, replace=False).tolist())
            block = a[np.ix_(pivots, pivots)]
            if np.linalg.svd(block, compute_uv=False)[-1] < 1e-6:
                continue
            comp = schur_complement(a, pivots)
            lhs = np.linalg.det(a)
            rhs = np.linalg.det(block) * np.linalg.det(comp)
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(lhs), abs(rhs))


class TestGramFactorLorentz:
    def test_tangent_pair(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        factor = gram_factor_lorentz(d, 1)
        eta = signature_form(2)
        x = factor.vectors
        assert not factor.degenerate_rows
        # Verify the contract by substitution.
        assert abs(-(x[0] @ eta @ x[1]) - 1.0) < 1e-12
        assert abs(x[0] @ eta @ x[0]) < 1e-12
        assert abs(x[1] @ eta @ x[1]) < 1e-12

    def test_zero_matrix_degenerate(self):
        factor = gram_factor_lorentz(np.zeros((2, 2)), 1)
        assert factor.degenerate_rows == (0, 1)
        assert np.allclose(factor.vectors, 0.0)

    def test_two_positive_eigenvalues_infeasible(self):
        d = np.array(
            [[0.0, 1.0, 0.0, 0.0],
             [1.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, 0.0, 1.0],
             [0.0, 0.0, 1.0, 0.0]]
        )
        block = np.block([[d[:2, :2], np.zeros((2, 2))], [np.zeros((2, 2)), d[2:, 2:]]])
        assert inertia(block).positive == 2
        with pytest.raises(GramInfeasibleError) as err:
            gram_factor_lorentz(block, 3)
        assert err.value.inertia.positive == 2

    def test_too_many_negatives_infeasible(self):
        d = np.ones((4, 4)) - np.eye(4)
        with pytest.raises(GramInfeasibleError, match="negative"):
            gram_factor_lorentz(d, 2)

    def test_reason_is_the_certificate_requirement(self):
        d = np.ones((4, 4)) - np.eye(4)
        for scale in (1.0, 1e-15):
            with pytest.raises(GramInfeasibleError) as err:
                gram_factor_lorentz(scale * d, 2)
            assert err.value.reason == check_kissing(scale * d, 2).witness.requirement
            assert err.value.reason == "at most 2 negative eigenvalues"

    @pytest.mark.parametrize("at", [0, TILE + 1, -1])
    def test_residual_is_checked_in_every_diagonal_tile(self, rng, monkeypatch, at):
        """One diagonal entry off the factor's product fails the residual
        test, in the first, a middle or the last partial diagonal tile."""
        m = 2 * TILE + 44
        assert m % TILE
        d = embeddable(rng, m, 3)
        real = numkernel.certified_eigen
        monkeypatch.setattr(numkernel, "certified_eigen", lambda a, rank: real(d, rank))
        assert not gram_factor_lorentz(d, 3).degenerate_rows
        bumped = d.copy()
        bumped[at, at] = 1e-6 * d.max()
        with pytest.raises(NonConvergenceError, match="^factorization residual"):
            gram_factor_lorentz(bumped, 3)

    def test_nan_factor_row_is_nonconvergence(self, rng, monkeypatch):
        """A NaN in the last row of the factor reaches only the tiles after
        the first; the residual keeps it, and a NaN fails the test."""
        real = numkernel.certified_eigen

        def nan_last_row(a, rank):
            found = real(a, rank)
            vectors = found.vectors.copy()
            vectors[-1] = np.nan
            return dataclasses.replace(found, vectors=vectors)

        monkeypatch.setattr(numkernel, "certified_eigen", nan_last_row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="^factorization residual nan"):
                gram_factor_lorentz(embeddable(rng, TILE + 1, 3), 3)

    def test_degenerate_rows_read_past_the_first_tile(self, rng):
        """Rows that are zero in their first TILE columns but not beyond are
        not degenerate; a zero row is, wherever it lies."""
        m = TILE + 40
        tangent = rng.normal(size=(m, 2))
        tangent[:TILE + 1] = tangent[0]
        diameter = np.exp(rng.uniform(-1.0, 1.0, size=m))
        d = distance_matrix([Sphere(tuple(t), p) for t, p in zip(tangent, diameter)])
        assert not d[:TILE + 1, :TILE].any()
        assert gram_factor_lorentz(d, 3).degenerate_rows == ()
        for row in (0, TILE, m - 1):
            zeroed = d.copy()
            zeroed[row] = zeroed[:, row] = 0.0
            assert gram_factor_lorentz(zeroed, 3).degenerate_rows == (row,)

    @pytest.mark.parametrize("m", [40, TILE + 40, 300])
    def test_degenerate_rows_follow_the_full_row_rule(self, m):
        """degenerate_rows is max|a_i| <= EIG_ZERO * max|a| on every row.
        Scaling a row and its column keeps the inertia (a congruence), so
        the rows scaled by 0 and 1e-12 are degenerate and the factor exists."""
        from bench.inputs import embeddable_matrix

        d = embeddable_matrix(np.random.default_rng(m), m).d2.copy()
        for row, c in ((0, 0.0), (m // 2, 1e-12), (m - 1, 1e-8)):
            d[row] *= c
            d[:, row] *= c
        extent = np.abs(d).max(axis=1)
        want = tuple(int(i) for i in np.flatnonzero(extent <= EIG_ZERO * extent.max()))
        assert want[:2] == (0, m // 2)
        assert gram_factor_lorentz(d, 3).degenerate_rows == want

    def test_reconstruction(self, rng):
        from gen import random_sphere_set

        for _ in range(10):
            d = distance_matrix(random_sphere_set(rng, 5, 3))
            x = gram_factor_lorentz(d, 3).vectors
            eta = signature_form(4)
            assert np.abs(-(x @ eta @ x.T) - d).max() <= RESIDUAL * max(1.0, d.max())


def embeddable(rng, m, n):
    return distance_matrix(coincident_sphere_set(rng, m, n, planes=max(1, m // 50), shared=m // 10))


def raised_within_group(rng, m, n):
    """Distances inside a random half S raised by c: c (1_S 1_S^T - diag(1_S))
    has rank |S|, about m / 2, and makes a second positive eigenvalue."""
    d = embeddable(rng, m, n)
    inside = (rng.random(m) < 0.5).astype(float)
    block = np.outer(inside, inside)
    np.fill_diagonal(block, 0.0)
    return d + float(np.median(d)) * block


def raised_between_groups(rng, m, n):
    """Distances between disjoint groups S and T raised by c: the zero
    diagonal rules out a rank-one term, c (1_S 1_T^T + 1_T 1_S^T) has rank two."""
    d = embeddable(rng, m, n)
    side = rng.integers(3, size=m)
    term = np.outer(side == 0, side == 1).astype(float)
    return d + float(np.median(d)) * (term + term.T)


def one_dimension_too_many(rng, m, n):
    """Rank n + 2: spheres in ambient dimension n + 1."""
    return embeddable(rng, m, n + 1)


def low_rank(rng, m, spectrum):
    basis, _ = np.linalg.qr(rng.normal(size=(m, len(spectrum))))
    return (basis * np.asarray(spectrum)) @ basis.T


def assert_proven_refusal(found, requirement, exact, max_negative):
    """found holds lower bounds on exact, and requirement is one that the
    exact counts break too."""
    assert found.positive <= exact.positive and found.negative <= exact.negative
    if "positive" in requirement:
        assert found.positive > 1 and exact.positive > 1
    else:
        assert requirement.startswith(f"at most {max_negative} negative eigenvalues")
        assert found.negative > max_negative and exact.negative > max_negative


class TestCertifiedEigen:
    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    @pytest.mark.parametrize("m, n", [(40, 2), (160, 3), (400, 4)])
    @pytest.mark.parametrize("kind, low", [
        (embeddable, True),
        (raised_between_groups, True),
        (one_dimension_too_many, True),
        (raised_within_group, False),
    ])
    def test_same_verdict_and_witness_as_sym_eigen(self, rng, monkeypatch, eigh_orders,
                                                   kind, low, m, n, scale):
        d = scale * kind(rng, m, n)
        spectrum = certified_eigen(d, n + 1)
        got = check_kissing(d, n)
        # The sketch decides low-rank data, and interlacing refuses high-rank
        # data, with lower-bound counts; neither runs a full eigensolve.
        assert eigh_orders == []
        assert spectrum.route == ("sketch" if low else "interlacing")
        exact = inertia(d)
        if low:
            assert spectrum.inertia == exact
        else:
            assert not got.embeddable and not got.witness.exact
            assert got.witness.inertia == spectrum.inertia
            assert_proven_refusal(spectrum.inertia, got.witness.requirement, exact, n)
        monkeypatch.setattr(numkernel, "_sketched_spectrum", lambda *args: None)
        forced = check_kissing(d, n)
        assert got == forced if low else got.verdict == forced.verdict

    def test_sketch_decides_certificate_and_construction(self, rng, eigh_orders):
        d = embeddable(rng, 200, 3)
        assert certified_eigen(d, 4).route == "sketch"
        assert check_kissing(d, 3).embeddable
        spheres = construct_embedding(d, 3)
        assert eigh_orders == []
        assert round_trip_close(distance_matrix(spheres), d)

    def test_high_rank_refusal_skips_sym_eigen(self, rng, eigh_orders):
        d = raised_within_group(rng, 120, 3)
        found = certified_eigen(d, 4)
        with pytest.raises(GramInfeasibleError) as err:
            gram_factor_lorentz(d, 3)
        assert eigh_orders == []
        assert found.route == "interlacing" and not found.exact
        assert err.value.inertia == found.inertia and not err.value.exact
        assert_proven_refusal(found.inertia, err.value.reason, inertia(d), 3)

    @pytest.mark.parametrize("spectrum, noise", [
        # An eigenvalue on the cutoff itself.
        ((1.0, -0.5, -0.25, 1e-9), 0.0),
        # Every sketched eigenvalue clears the cutoff, but full-rank noise
        # too small for the early rejection leaves the others unknown.
        ((1.0, -0.5, -0.25, 0.2, -0.1, 0.1, -0.05, 0.05, -0.02, 0.02, -0.01, 0.01), 1e-10),
    ])
    def test_cutoff_band_goes_to_sym_eigen(self, rng, eigh_orders, spectrum, noise):
        a = low_rank(rng, 100, spectrum)
        jitter = rng.normal(size=(100, 100))
        a += noise * (jitter + jitter.T)
        found = certified_eigen(a, 4)
        assert eigh_orders == [100]
        assert found.inertia == inertia(a)

    @pytest.mark.parametrize("small, want", [(1.001e-9, (2, 2, 96)), (0.999e-9, (1, 2, 97))])
    def test_sketch_decides_just_outside_the_band(self, rng, eigh_orders, small, want):
        a = low_rank(rng, 100, (1.0, -0.5, -0.25, small))
        assert certified_eigen(a, 4).inertia == want
        assert eigh_orders == []
        assert inertia(a) == want

    def test_small_order_goes_to_sym_eigen(self, rng, eigh_orders):
        m = 3 * (4 + SKETCH_OVERSAMPLE) - 1
        d = embeddable(rng, m, 3)
        assert certified_eigen(d, 4).inertia == (1, 3, m - 4)
        assert eigh_orders == [m]

    def test_ritz_values_inside_the_cutoff_prove_nothing(self, rng):
        # A second positive and four negative Ritz values would break the rule
        # with max_negative = 3 beyond the threshold EIG_ZERO |A|_F, here about
        # EIG_ZERO, but at half of it they prove no eigenvalue beyond the cutoff.
        m, width = 100, 4 + SKETCH_OVERSAMPLE
        q, _ = np.linalg.qr(rng.normal(size=(m, width)))
        small = np.array([1.0] * 3 + [0.0] * (width - 8) + [-1.0] * 4)

        def refusal(factor):
            mu = np.concatenate([[1.0], factor * EIG_ZERO * small])
            return numkernel._interlacing_refusal(q, mu, np.eye(width), 1.0, 4)

        assert refusal(0.5) is None
        assert refusal(2.0).route == "interlacing"

    def test_high_rank_without_refusal_goes_to_eigh(self, rng, monkeypatch, eigh_orders):
        d = raised_within_group(rng, 120, 3)
        tried = []
        monkeypatch.setattr(numkernel, "_interlacing_refusal", lambda *args: tried.append(args))
        found = certified_eigen(d, 4)
        assert len(tried) == 1 and eigh_orders == [120]
        assert found.route == "eigh" and found.exact
        assert found.inertia == inertia(d)

    @pytest.mark.parametrize("k", [-1000, -420, 420, 1000])
    def test_scale_is_decided_once_before_the_sketch(self, monkeypatch, k):
        """Where max|A| leaves [2^-400, 2^400], unit_scale divides A exactly
        by the power of four that leaves it in [1, 4); the one sketch runs on
        that matrix, with the route and inertia of A at scale one, and
        check_kissing goes the same way."""
        from bench.inputs import not_embeddable_matrix

        d = not_embeddable_matrix(np.random.default_rng(2), 200).d2
        base = certified_eigen(d, 4)
        certificate = check_kissing(d, 3)
        seen = []
        real = numkernel._sketched_spectrum

        def spy(a, *rest):
            seen.append(float(a.max()))
            return real(a, *rest)

        monkeypatch.setattr(numkernel, "_sketched_spectrum", spy)
        scaled = math.ldexp(1.0, k) * d
        unit, j = numkernel.unit_scale(scaled, float(scaled.max()))
        assert np.array_equal(unit, math.ldexp(1.0, k - 2 * j) * d)
        found = certified_eigen(unit, 4)
        assert len(seen) == 1 and 1.0 <= seen[0] < 4.0
        assert (found.route, found.inertia) == (base.route, base.inertia)
        assert check_kissing(scaled, 3) == certificate
        assert len(seen) == 2 and seen[1] == seen[0]

    def test_nan_residual_refuses_the_sketch(self, rng, monkeypatch, eigh_orders):
        """A residual that is not a number proves no bound: sym_eigen decides."""
        d = embeddable(rng, 120, 3)
        monkeypatch.setattr(numkernel, "_sketch_residual", lambda *args: math.nan)
        found = certified_eigen(d, 4)
        assert found.route == "eigh" and eigh_orders == [120]
        assert found.inertia == inertia(d)

    def test_zero_matrix_is_not_rescaled(self):
        """max|A| = 0 has no power of four to divide by: unit_scale leaves
        the zero matrix as it is."""
        assert numkernel.unit_scale(np.zeros((40, 40)), 0.0)[1] == 0
        spectrum = certified_eigen(np.zeros((40, 40)), 4)
        assert spectrum.route == "eigh" and spectrum.inertia == Inertia(0, 0, 40)
        assert check_kissing(np.zeros((40, 40)), 3).embeddable


def random_nonnegative(rng, m):
    upper = np.triu(rng.random((m, m)), 1)
    return upper + upper.T


class TestInterlacingRefusal:
    SCALES = [1e-20, 1e-10, 1.0, 1e10, 1e20]

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("make", [
        pytest.param(lambda rng: raised_within_group(rng, 120, 3), id="raised_within_group"),
        pytest.param(lambda rng: random_nonnegative(rng, 120), id="random_nonnegative"),
    ])
    def test_cutoff_is_at_least_the_frobenius_threshold(self, rng, make, scale):
        # Poincare separation bounds A's eigenvalues by the Ritz values, and
        # eig_zero |A|_F is at least inertia()'s cutoff eig_zero |A|_2; a
        # smaller threshold, such as eig_zero max|mu|, is unsound.
        a = scale * make(rng)
        found = certified_eigen(a, 4)
        assert found.route == "interlacing"
        assert found.cutoff >= EIG_ZERO * np.linalg.norm(a)
        counts = found.inertia
        assert np.all(found.values[:counts.positive] > found.cutoff)
        assert np.all(found.values[found.values.size - counts.negative:] < -found.cutoff)
        assert counts.positive > 1 or counts.negative > 3

    def test_no_proven_positive_is_not_a_broken_exactly_one(self, rng):
        # -I + 1.001 e e^T has inertia (1, 99, 0), but the sketch's Ritz values
        # are all negative: a lower bound of 0 positives refuses only by the
        # negative count.
        e = rng.normal(size=100)
        e /= np.linalg.norm(e)
        a = as_symmetric(1.001 * np.outer(e, e) - np.eye(100))
        found = certified_eigen(a, 4)
        assert found.route == "interlacing" and found.inertia.positive == 0
        with pytest.raises(GramInfeasibleError) as err:
            gram_factor_lorentz(a, 3)
        assert err.value.reason == "at most 3 negative eigenvalues"
        assert inertia(a) == (1, 99, 0)

    @pytest.fixture(scope="class")
    def corpus(self):
        """A seeded differential corpus: (matrix, n) pairs of every kind."""
        rng = np.random.default_rng(7)
        out = []
        for m, n in ((40, 1), (72, 2), (120, 3)):
            out += [(raised_within_group(rng, m, n), n), (raised_between_groups(rng, m, n), n),
                    (one_dimension_too_many(rng, m, n), n), (random_nonnegative(rng, m), n),
                    (np.ones((m, m)) - np.eye(m), n)]
        return out

    @pytest.mark.parametrize("scale", SCALES)
    def test_verdicts_match_sym_eigen_route(self, monkeypatch, corpus, scale):
        """The three inertia entry points give the forced sym_eigen verdicts."""
        refused_by_interlacing = 0
        for d0, n in corpus:
            d = scale * d0
            s = d.copy()
            np.fill_diagonal(s, -1.0)
            calls = [(lambda: check_kissing(d, n), n),
                     (lambda: check_euclidean(d, n, "inertia"), n + 1),
                     (lambda: check_kissing(d, n + 1), n + 1),
                     (lambda: check_spheres(s, n), n + 1)]
            for call, max_negative in calls:
                got = call()
                with monkeypatch.context() as patch:
                    patch.setattr(numkernel, "_sketched_spectrum", lambda *args: None)
                    want = call()
                if got.witness is not None and not got.witness.exact:
                    refused_by_interlacing += 1
                    assert got.verdict == want.verdict
                    assert_proven_refusal(got.witness.inertia, got.witness.requirement,
                                          want.witness.inertia, max_negative)
                else:
                    assert got == want
        assert refused_by_interlacing > 0


# Orders at which a tile-pair pass has one partial tile, one whole tile, a
# whole tile and a one-row tile, and three tiles the last of which is partial.
TILE_ORDERS = [1, 2, TILE - 1, TILE, TILE + 1, 2 * TILE + 44]


def spheres_across_tiles(rng, m):
    """m kissing spheres in ambient dimension 3 with planes and shared tangent
    points, as many of each as m allows."""
    planes = min(2, m - 1)
    return coincident_sphere_set(rng, m, 3, planes=planes, shared=min(10, max(0, m - planes - 1)))


def reference_distance_matrix(spheres):
    """distance_matrix by whole-matrix broadcasting, with the same operation
    on each entry: squared gaps summed one coordinate at a time onto zero,
    divided by the diameter product; plane rows h / phi, zero between planes."""
    m = len(spheres)
    planes = [i for i, s in enumerate(spheres) if not isinstance(s, Sphere)]
    tangent = np.array([(0.0, 0.0) if i in planes else s.tangent for i, s in enumerate(spheres)])
    diameter = np.array([1.0 if i in planes else s.diameter for i, s in enumerate(spheres)])
    out = np.zeros((m, m))
    for coordinate in tangent.T:
        gap = np.subtract.outer(coordinate, coordinate)
        out += gap * gap
    out /= np.multiply.outer(diameter, diameter)
    for i in planes:
        out[i] = out[:, i] = spheres[i].height / diameter
    out[np.ix_(planes, planes)] = 0.0
    return out


class TestTiledPasses:
    """as_symmetric, the sketch, factor and eigendecomposition residuals,
    distance_matrix and the round trip read the TILE x TILE tiles on and
    above the diagonal.
    An off-by-one hides at the tile edges and in the last, partial tile, so
    the orders straddle TILE."""

    @pytest.mark.parametrize("m", TILE_ORDERS)
    def test_distance_matrix_is_bitwise_symmetric(self, rng, m):
        """The round trip compares upper tiles only, which is exact because
        this output equals its transpose bit for bit."""
        spheres = spheres_across_tiles(rng, m)
        d = distance_matrix(spheres)
        assert d.tobytes() == d.T.tobytes(order="C")
        assert d.tobytes() == reference_distance_matrix(spheres).tobytes()

    @pytest.mark.parametrize("m", TILE_ORDERS)
    def test_round_trip_sees_the_last_partial_tile(self, rng, monkeypatch, m):
        """A realized distance matrix whose only wrong pair lies in the last
        tile fails the round-trip rule, and construct_embedding refuses
        spheres whose only wrong row is the last one, which only the last
        column's tiles hold, or a plane's row."""
        spheres = spheres_across_tiles(rng, m)
        d = distance_matrix(spheres)
        at = (max(0, m - 2), m - 1)
        off = d.copy()
        off[at] = off[at[::-1]] = 1.01 * d[at] + 1e-3
        assert round_trip_close(d.copy(), d)
        assert not round_trip_close(off, d)
        if m == 1:
            return
        assert round_trip_close(distance_matrix(construct_embedding(d, 3)), d)
        real = embed.from_lightcone
        planes = [i for i, s in enumerate(spheres) if not isinstance(s, Sphere)]
        for row in sorted({m - 1, *planes}):
            # Doubling a null vector keeps it null and future, at the wrong distances.
            def double_row(stack, row=row):
                stack = stack.copy()
                stack[row] *= 2.0
                return real(stack)

            monkeypatch.setattr(embed, "from_lightcone", double_row)
            with pytest.raises(RealizationError, match="^round trip failed"):
                construct_embedding(d, 3)

    @pytest.mark.parametrize("m", [TILE + 1, 2 * TILE + 44])
    def test_residual_is_checked_in_the_last_off_diagonal_tile(self, rng, monkeypatch, m):
        """A mirrored pair off the factor's product, placed only in the last
        off-diagonal tile pair, fails the factor residual test."""
        d = embeddable(rng, m, 3)
        real = numkernel.certified_eigen
        monkeypatch.setattr(numkernel, "certified_eigen", lambda a, rank: real(d, rank))
        assert not gram_factor_lorentz(d, 3).degenerate_rows
        last = (m - 1) // TILE * TILE
        bumped = d.copy()
        bumped[last - 1, m - 1] = bumped[m - 1, last - 1] = d[last - 1, m - 1] + 1e-6 * d.max()
        with pytest.raises(NonConvergenceError, match="^factorization residual"):
            gram_factor_lorentz(bumped, 3)

    def test_eigen_residual_is_checked_in_the_last_partial_tile(self, rng, monkeypatch):
        """An eigendecomposition with one eigenvector entry off in the last
        row, which the last, partial tiles of the upper tile pairs hold in
        their last column, fails the reconstruction residual test."""
        m = 2 * TILE + 44
        assert m % TILE
        s = rng.normal(size=(m, m))
        a = s + s.T
        sym_eigen(a)
        real = np.linalg.eigh

        def one_entry_off(matrix):
            values, vectors = real(matrix)
            vectors = vectors.copy()
            vectors[m - 1, np.argmax(np.abs(values))] += 1e-6
            return values, vectors

        monkeypatch.setattr(numkernel.np.linalg, "eigh", one_entry_off)
        with pytest.raises(NonConvergenceError, match="^reconstruction residual"):
            sym_eigen(a)

    @pytest.mark.parametrize("m", TILE_ORDERS)
    @pytest.mark.parametrize("near", [False, True])
    def test_sketch_residual_matches_the_dense_norm(self, rng, m, near):
        """The tile-pair |A - U diag(mu) U^T|_F equals the norm of the m x m
        residual within the rounding the sketch's delta allows for: forming
        each entry, twice, and the summation of m^2 squares, twice."""
        width = min(m, 5)
        u, _ = np.linalg.qr(rng.normal(size=(m, width)))
        mu = rng.normal(size=width) * 10.0
        s = rng.normal(size=(m, m))
        noise = 1e-9 if near else 1.0
        a = as_symmetric((u * mu) @ u.T + noise * (s + s.T))
        got = numkernel._sketch_residual(a, u, mu)
        want = float(np.linalg.norm(a - (u * mu) @ u.T))
        eps = np.finfo(float).eps
        allowance = (2.0 * (width + 3) * eps * (np.linalg.norm(a) + 2.0 * np.abs(mu).sum())
                     + m * m * eps * (got + want))
        assert abs(got - want) <= allowance

    @pytest.mark.parametrize("m", TILE_ORDERS)
    def test_as_symmetric_is_bit_identical_to_the_mean(self, rng, m):
        s = rng.normal(size=(m, m))
        a = (s + s.T) * (1.0 + 1e-12 * rng.normal(size=(m, m)))
        want = ((a + a.T) / 2.0).tobytes()
        assert as_symmetric(a).tobytes() == want
        assert as_symmetric(np.asfortranarray(a)).tobytes() == want

    @pytest.mark.parametrize("at", [(TILE - 1, TILE), (TILE, TILE - 1), (0, 2 * TILE),
                                    (2 * TILE + 43, 2 * TILE - 1), (2 * TILE + 42, 2 * TILE + 43),
                                    (2 * TILE + 43, 0)])
    def test_single_entry_is_refused_at_tile_edges(self, rng, at):
        m = 2 * TILE + 44
        s = rng.random((m, m)) + 1.0
        a = s + s.T
        # A NaN mirrored bit for bit passes the compare, and is still refused.
        nan = a.copy()
        nan[at] = nan[at[::-1]] = np.nan
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_symmetric(nan)
        # -0.0 opposite +0.0 differs bit for bit: the mean is a new array,
        # and its least entry is that pair's +0.0. A mirrored -0.0 is a view,
        # and the least entry; a Fortran-ordered one is a view of its transpose.
        zeros = a.copy()
        zeros[at], zeros[at[::-1]] = -0.0, 0.0
        out, high, low = numkernel.symmetric_extent(zeros)
        assert out.flags.owndata and out.tobytes() == ((zeros + zeros.T) / 2.0).tobytes()
        assert high == zeros.max() and low == 0.0 and math.copysign(1.0, low) == 1.0
        zeros[at[::-1]] = -0.0
        for given in (zeros, np.asfortranarray(zeros)):
            out, high, low = numkernel.symmetric_extent(given)
            assert np.shares_memory(out, given) and out.flags.c_contiguous and not out.flags.writeable
            assert out.tobytes() == zeros.tobytes()
            assert high == zeros.max() and low == 0.0 and math.copysign(1.0, low) == -1.0
        # A near-maximum pair one ulp apart: the sum overflows, the mean of
        # the halves does not. Opposite signs, the difference overflows and is refused.
        big = a.copy()
        big[at], big[at[::-1]] = 1.7e308, np.nextafter(1.7e308, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, high, low = numkernel.symmetric_extent(big)
            assert out.tobytes() == (big / 2.0 + big.T / 2.0).tobytes()
            assert high == out[at] == out[at[::-1]] == 1.7e308
            big[at[::-1]] = -1.7e308
            with pytest.raises(ValueError, match="^matrix is not symmetric$"):
                as_symmetric(big)
        # A subnormal pair, 2^-1074 and 5 * 2^-1074: its halves round to 0
        # and 2^-1073, so the mean is 2^-1073, where (a + a^T) / 2 is 3 * 2^-1074.
        tiny = a.copy()
        tiny[at], tiny[at[::-1]] = 2.0**-1074, 5 * 2.0**-1074
        out, high, low = numkernel.symmetric_extent(tiny)
        assert out[at] == out[at[::-1]] == 2.0**-1073
        want = (tiny + tiny.T) / 2.0
        want[at] = want[at[::-1]] = 2.0**-1073
        assert out.tobytes() == want.tobytes() == (tiny / 2.0 + tiny.T / 2.0).tobytes()
        a[at] *= 2.0
        for given in (a, np.asfortranarray(a)):
            with pytest.raises(ValueError, match="^matrix is not symmetric$"):
                as_symmetric(given)
        # A non-finite entry outranks an asymmetry anywhere else.
        a[1, 0] *= 2.0
        a[at] = np.inf
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_symmetric(a)

    def test_round_trip_rule_sees_the_last_partial_tile(self, rng):
        """Both matrices are symmetric, so each wrong pair is mirrored."""
        m = 2 * TILE + 44
        last = (m - 1) // TILE * TILE
        assert m % TILE
        expected = distance_matrix(coincident_sphere_set(rng, m, 3, planes=2, shared=10))
        assert round_trip_close(expected.copy(), expected)
        for at in [(m - 1, 0), (last, m - 1), (m - 1, m - 1)]:
            actual = expected.copy()
            actual[at] = actual[at[::-1]] = 1.01 * actual[at] + 1e-3
            assert not round_trip_close(actual, expected)

    @pytest.mark.parametrize("row", [0, -1])
    def test_round_trip_rule_fails_on_nan(self, rng, row):
        expected = distance_matrix(coincident_sphere_set(rng, 300, 3, planes=2, shared=10))
        broken = expected.copy()
        broken[row, 1] = broken[1, row] = np.nan
        assert not round_trip_close(broken, expected)
        assert not round_trip_close(expected, broken)

    @pytest.mark.parametrize("name", ["as_symmetric", "as_symmetric rounded", "distance_matrix",
                                      "round trip", "check_kissing", "gram_factor_lorentz",
                                      "construct_embedding", "sym_eigen"])
    def test_no_full_size_temporary(self, rng, name):
        """Peak allocation stays below the m x m arrays the call returns or
        holds at once, plus less than one more. An exactly symmetric input is
        validated in place, and the sketch's residual and the round trip's
        realized distances are formed tile by tile, so check_kissing,
        gram_factor_lorentz, the round trip and construct_embedding hold under
        half an m x m array. sym_eigen holds its eigenvectors and
        V diag(values), and reads its reconstruction residual tile by tile."""
        import tracemalloc

        m = 600
        full = m * m * 8
        spheres = coincident_sphere_set(rng, m, 3, planes=2, shared=10)
        d = distance_matrix(spheres)
        assert d.tobytes() == d.T.tobytes(order="C")
        near = d * (1.0 + 1e-9)
        rounded = d * (1.0 + 1e-15 * rng.normal(size=(m, m)))
        call, bound = {"as_symmetric": (lambda: as_symmetric(d), full),
                       "as_symmetric rounded": (lambda: as_symmetric(rounded), 2 * full),
                       "distance_matrix": (lambda: distance_matrix(spheres), 2 * full),
                       "round trip": (lambda: embed._reproduces(spheres, near, float(near.max())),
                                      full / 2),
                       "check_kissing": (lambda: check_kissing(d, 3), full / 2),
                       "gram_factor_lorentz": (lambda: gram_factor_lorentz(d, 3), full / 2),
                       "construct_embedding": (lambda: construct_embedding(d, 3), full / 2),
                       "sym_eigen": (lambda: sym_eigen(d), 2.5 * full)}[name]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


    def test_clipping_corrects_the_symmetrized_copy(self, rng):
        """Input that needs both symmetrizing and clipping costs the one m x m
        array validation returns, not a second copy for the clip."""
        import tracemalloc

        m = 600
        full = m * m * 8
        d = distance_matrix(coincident_sphere_set(rng, m, 3, planes=2, shared=10))
        rounded = d * (1.0 + 1e-15 * rng.normal(size=(m, m)))
        rounded[0, 1] = rounded[1, 0] = -1e-14
        tracemalloc.start()
        try:
            got = validate_squared_distances(rounded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * full
        want = np.maximum((rounded + rounded.T) / 2.0, 0.0)
        np.fill_diagonal(want, 0.0)
        assert got.tobytes() == want.tobytes() and not got.flags.writeable


class TestPrincipalMinorSums:
    def test_matches_elementary_symmetric(self, rng):
        m = rng.normal(size=(5, 5))
        a = as_symmetric(m + m.T)
        values = np.linalg.eigvalsh(a)
        sums = principal_minor_sums(a)
        for k in range(1, 6):
            expected = sum(
                np.prod(values[list(s)]) for s in combinations(range(5), k)
            )
            assert abs(sums[k - 1] - expected) < 1e-8 * max(1.0, abs(expected))

    def test_each_sum_adds_its_minors_in_combinations_order(self, rng):
        for m in (1, 4, 9):
            raw = rng.normal(size=(m, m))
            a = as_symmetric(raw + raw.T)
            want = []
            for k in range(1, m + 1):
                total = 0.0
                for subset in combinations(range(m), k):
                    total += float(np.linalg.det(a[np.ix_(subset, subset)]))
                want.append(total)
            assert principal_minor_sums(a).tobytes() == np.array(want).tobytes()

    def test_subsets_in_lexicographic_order(self):
        for m in range(5):
            everything = [s for k in range(1, m + 1) for s in combinations(range(m), k)]
            assert list(principal_subsets(m)) == sorted(everything)


@given(
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=6, max_size=6),
)
@settings(max_examples=60)
def test_inertia_sums_to_order_property(flat):
    a = sym_from_flat(np.array(flat), 3)
    found = inertia(a)
    assert found.positive + found.negative + found.zero == 3


class TestSignatureViolation:
    def test_requirements(self):
        assert signature_violation(Inertia(1, 2, 0), 2) is None
        assert signature_violation(Inertia(1, 3, 0), 2) == "at most 2 negative eigenvalues"
        assert signature_violation(Inertia(2, 0, 1), 2) == "exactly one positive eigenvalue"
        assert signature_violation(Inertia(0, 1, 1), 2) == "exactly one positive eigenvalue"

    def test_at_most_one_positive(self):
        assert signature_violation(Inertia(0, 3, 0), 3, exactly_one=False) is None
        assert signature_violation(Inertia(2, 0, 1), 3, exactly_one=False) == (
            "at most one positive eigenvalue"
        )
        assert signature_violation(Inertia(1, 4, 0), 3, exactly_one=False) == (
            "at most 3 negative eigenvalues (rank at most 4)"
        )

    def test_rank_zero_passes(self):
        assert signature_violation(Inertia(0, 0, 5), 1) is None
        assert inertia(np.zeros((3, 3))) == Inertia(0, 0, 3)
        assert inertia(1e-300 * (np.ones((3, 3)) - np.eye(3))) == Inertia(1, 2, 0)


def test_numerical_policy():
    assert EIG_ZERO == 1e-9 and RESIDUAL == 1e-8
