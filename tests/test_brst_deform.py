import numpy as np
import pytest

from opalg.brst import (DeformedVectorState, LiftObstructionError,
                        NotNilpotentError, NotNormalizedError, deform_check,
                        deformation_generators, gupta_bleuler_toy,
                        inner_product_series, lift_vector,
                        physical_space, solve_image_membership, two_pair_model,
                        validate_deformation)
from opalg.krein import krein_adjoint
from opalg.series import FormalSeries, is_positive, series_mul, series_star


def rescaled_charge(B, order):
    coeffs = [B.Q, B.Q] + [np.zeros_like(B.Q)] * (order - 1)
    return validate_deformation(B, FormalSeries(coeffs[: order + 1]))


def solved_charge(B, order, seed=42):
    gens = deformation_generators(B)
    assert gens, "model admits no first-order correction"
    rng = np.random.default_rng(seed)
    Q1 = sum(w * g for w, g in zip(rng.normal(size=len(gens)), gens))
    assert np.max(np.abs(Q1)) > 1e-8
    coeffs = [B.Q, Q1] + [np.zeros_like(B.Q)] * (order - 1)
    return validate_deformation(B, FormalSeries(coeffs[: order + 1]))


class TestValidation:
    def test_rescaling_accepted(self):
        D = rescaled_charge(two_pair_model(), 4)
        assert D.order == 4

    def test_constraint_solved_accepted(self):
        D = solved_charge(two_pair_model(), 3)
        assert D.order == 3

    def test_generators_satisfy_constraints(self):
        B = two_pair_model()
        K = B.space.krein
        for g in deformation_generators(B):
            assert np.max(np.abs(B.Q @ g + g @ B.Q)) < 1e-10
            assert np.max(np.abs(g - krein_adjoint(K, g))) < 1e-10

    def test_nilpotency_violation_rejected_at_construction(self):
        B = two_pair_model()
        bad = np.zeros((6, 6), dtype=complex)
        bad[3, 2] = 1.0  # maps a ghost onto its partner: anticommutator nonzero
        assert np.max(np.abs(B.Q @ bad + bad @ B.Q)) > 0.5
        with pytest.raises(NotNilpotentError):
            validate_deformation(B, FormalSeries([B.Q, bad]))

    def test_wrong_leading_coefficient_rejected(self):
        B = two_pair_model()
        with pytest.raises(ValueError):
            validate_deformation(B, FormalSeries([2 * B.Q, np.zeros_like(B.Q)]))


class TestLifts:
    def test_kernel_basis_lifts_and_annihilates(self):
        D = solved_charge(two_pair_model(), 3)
        quotient = physical_space(D.base)
        for j in range(quotient.ker_basis.shape[1]):
            phi = lift_vector(D, quotient.ker_basis[:, j])
            np.testing.assert_allclose(phi.coeffs[0], quotient.ker_basis[:, j])
            residual = series_mul(D.Q_series, phi)
            assert residual.max_abs() < 1e-9

    def test_membership_solver_roundtrip(self):
        D = solved_charge(two_pair_model(), 3)
        rng = np.random.default_rng(0)
        w = FormalSeries([rng.normal(size=6) + 1j * rng.normal(size=6)
                          for _ in range(4)])
        phi = series_mul(D.Q_series, w)
        x = solve_image_membership(D, phi)
        recon = series_mul(D.Q_series, x)
        assert (recon - phi).max_abs() < 1e-9

    def test_membership_fails_outside_image(self):
        D = solved_charge(two_pair_model(), 3)
        quotient = physical_space(D.base)
        phys = quotient.quotient_reps[:, 0]  # nonzero class: not in the image
        phi = FormalSeries([phys] + [np.zeros(6, dtype=complex)] * 3)
        with pytest.raises(LiftObstructionError) as err:
            solve_image_membership(D, phi)
        assert err.value.order == 0

    def test_lift_rejects_non_kernel_seed(self):
        D = solved_charge(two_pair_model(), 3)
        with pytest.raises(ValueError):
            lift_vector(D, np.array([0, 0, 0, 1.0, 0, 0]))


class TestStabilityItems:
    def test_rescaling_passes_all_items(self):
        report = deform_check(rescaled_charge(two_pair_model(), 4),
                              samples=20, rng=np.random.default_rng(1))
        assert report.all_passed
        assert report.lift_residual < 1e-9

    def test_solved_deformation_passes_all_items(self):
        report = deform_check(solved_charge(two_pair_model(), 3),
                              samples=25, rng=np.random.default_rng(2))
        assert report.all_passed
        assert report.positivity_checked == 25
        assert report.observables_checked > 0
        assert report.faithfulness_min_norm > 1e-3

    def test_gupta_bleuler_rescaling(self):
        report = deform_check(rescaled_charge(gupta_bleuler_toy(), 3),
                              samples=15, rng=np.random.default_rng(3))
        assert report.all_passed

    def test_formal_norms_are_positive_series(self):
        D = solved_charge(two_pair_model(), 3)
        quotient = physical_space(D.base)
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = rng.normal(size=4) + 1j * rng.normal(size=4)
            phi = lift_vector(D, quotient.ker_basis @ w, rng=rng)
            norm2 = inner_product_series(D.base.space, phi, phi)
            verdict = is_positive(norm2, tol=1e-8)
            assert verdict.positive
            redone = series_mul(series_star(verdict.witness), verdict.witness)
            assert (redone - norm2).max_abs() < 1e-8


class TestDeformedStates:
    def _observable_series(self, D, rng):
        # physical-sector observable, deformation-independent lift
        M = np.zeros((6, 6), dtype=complex)
        M[:2, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        zeros = np.zeros_like(M)
        return FormalSeries([M] + [zeros] * D.order)

    def test_unit_and_linearity(self):
        D = solved_charge(two_pair_model(), 3)
        quotient = physical_space(D.base)
        phi = lift_vector(D, quotient.quotient_reps[:, 0])
        omega = DeformedVectorState(D, phi)
        one = FormalSeries([np.eye(6, dtype=complex)]
                           + [np.zeros((6, 6), dtype=complex)] * 3)
        val = omega(one)
        assert abs(val.coeffs[0] - 1.0) < 1e-9

    def test_positivity_of_squares(self):
        D = solved_charge(two_pair_model(), 3)
        quotient = physical_space(D.base)
        phi = lift_vector(D, quotient.quotient_reps[:, 1])
        omega = DeformedVectorState(D, phi)
        rng = np.random.default_rng(5)
        K = D.base.space.krein
        for _ in range(20):
            A = self._observable_series(D, rng)
            A_star = FormalSeries([krein_adjoint(K, c) for c in A.coeffs])
            verdict = is_positive(omega(series_mul(A_star, A)), tol=1e-8)
            assert verdict.positive

    def test_star_compatibility(self):
        D = solved_charge(two_pair_model(), 3)
        quotient = physical_space(D.base)
        phi = lift_vector(D, quotient.quotient_reps[:, 0])
        omega = DeformedVectorState(D, phi)
        rng = np.random.default_rng(6)
        K = D.base.space.krein
        A = self._observable_series(D, rng)
        A_star = FormalSeries([krein_adjoint(K, c) for c in A.coeffs])
        lhs = omega(A_star)
        rhs = series_star(omega(A))
        assert (lhs - rhs).max_abs() < 1e-9

    def test_unnormalized_rejected(self):
        D = solved_charge(two_pair_model(), 3)
        quotient = physical_space(D.base)
        phi = lift_vector(D, 2.0 * quotient.quotient_reps[:, 0])
        with pytest.raises(NotNormalizedError):
            DeformedVectorState(D, phi)
