import re

import numpy as np
import pytest

import opalg.series
from opalg import brst
from opalg.brst import (DeformedBRST, LiftObstructionError, NotNilpotentError,
                        NullNotExactError, PositivityViolatedAtOrderError,
                        deform_check, deformation_generators, gupta_bleuler_toy,
                        null_pair_toy, observable_algebra, physical_space, two_pair_model,
                        validate_brst, validate_deformation)
from opalg.krein import krein_adjoint
from opalg.series import FormalSeries, is_positive, series_mul, series_star

from oracles import (GradedOperator, deform_check_reference, leading_class_norms,
                     quotient_basis, representation_matrix, unliftable_reference)

MODELS = {"null_pair": null_pair_toy, "gupta_bleuler": gupta_bleuler_toy,
          "two_pair": two_pair_model}


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


def obstructed_charge(B):
    """Q1 e0 = e0 on the Gupta-Bleuler model: Q1 e0 is off the image, so the
    lift of e0 is obstructed at order 1."""
    Q1 = np.zeros((3, 3), dtype=complex)
    Q1[0, 0] = 1.0
    return DeformedBRST(base=B, Q_series=FormalSeries([B.Q, Q1]))


def lift_jets(D, seeds):
    """The forward pass of deform_check on the lifts of the seed columns,
    without noise: the jets, the residual and the failures per order."""
    Qs = brst._nonzero(D.Q_series.coeffs)
    Z = np.zeros((D.order + 1,) + seeds.shape, dtype=complex)
    Z[0] = seeds
    return brst._forward(Qs, D.base._pinv, Z=Z)


def solve_jets(D, phi):
    """The forward pass of deform_check on the minimum-norm solve of Q~ X =
    phi: the jets X, the residual and the failures per order."""
    return brst._forward(brst._nonzero(D.Q_series.coeffs), D.base._pinv, Y=phi)


def lift_seed(D, phi0):
    """The jet lift of deform_check on the one seed phi0, raising its first
    failure."""
    brst._raise_first(lift_jets(D, phi0[:, None])[2])


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

    @pytest.mark.parametrize("cut", ["2x2", "1x3", "vector", "scalar"])
    def test_coefficient_shape_must_be_the_charge_shape(self, cut):
        # (1, 3) and (3,) would broadcast against the 3x3 charge
        B = gupta_bleuler_toy()
        Q0 = {"2x2": B.Q[:2, :2], "1x3": B.Q[:1], "vector": B.Q[0], "scalar": B.Q[0, 1]}[cut]
        message = f"shape {np.shape(Q0)}, the undeformed charge (3, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_deformation(B, FormalSeries([Q0, np.zeros_like(Q0)]))


class TestLifts:
    """The order-by-order jet solve of deform_check, on the lifts of kernel
    vectors and on formal preimages."""

    def test_kernel_basis_lifts_and_annihilates(self):
        D = solved_charge(two_pair_model(), 3)
        ker = physical_space(D.base).ker_basis
        lift = lift_jets(D, ker)[0]  # seeds the kernel basis, no noise
        np.testing.assert_allclose(lift[0], ker)
        assert np.max(np.abs(brst._cauchy(D.Q_series.coeffs, lift))) < 1e-9

    def test_membership_solver_roundtrip(self):
        D = solved_charge(two_pair_model(), 3)
        Qs = D.Q_series.coeffs
        rng = np.random.default_rng(0)
        phi = brst._cauchy(Qs, rng.normal(size=(4, 6, 1)) + 1j * rng.normal(size=(4, 6, 1)))
        assert np.max(np.abs(brst._cauchy(Qs, solve_jets(D, phi)[0]) - phi)) < 1e-9

    def test_membership_fails_outside_image(self):
        D = solved_charge(two_pair_model(), 3)
        phi = np.zeros((4, 6, 1), dtype=complex)
        phi[0, :, 0] = physical_space(D.base).quotient_reps[:, 0]  # nonzero class
        with pytest.raises(LiftObstructionError) as err:
            brst._raise_first(solve_jets(D, phi)[2])
        assert err.value.order == 0

    def test_lift_rejects_non_kernel_seed(self):
        D = solved_charge(two_pair_model(), 3)
        with pytest.raises(ValueError):
            lift_seed(D, np.array([0, 0, 0, 1.0, 0, 0]))

    def test_kernel_check_comes_before_the_lift(self):
        # e0 + e2 is off the kernel, and Q1 e0 = e0 is off the image too:
        # the seed check fails first, as it runs first; deform_check lifts
        # only kernel vectors, and meets the obstruction of e0
        D = obstructed_charge(gupta_bleuler_toy())
        with pytest.raises(LiftObstructionError):
            lift_seed(D, np.array([1.0, 0, 0]))
        with pytest.raises(ValueError, match="not in the kernel"):
            lift_seed(D, np.array([1.0, 0, 1.0]))
        with pytest.raises(LiftObstructionError,
                           match=r"lift equation unsolvable at order 1 \(residual 1.000e\+00\)"):
            deform_check(D, samples=25, rng=np.random.default_rng(1))

    def test_solved_order_16_lifts_for_every_seed(self):
        # the explicit solve map's blocks grew like rho^m, and its residual
        # with them: it reported a false LiftObstructionError for 5 of these
        # 30 generator weights; forward substitution solves each order for
        # its own right-hand side
        B = two_pair_model()
        for seed in range(30):
            report = deform_check(solved_charge(B, 16, seed), samples=25,
                                  rng=np.random.default_rng(16))
            assert report.all_passed, seed

    @pytest.mark.parametrize("coefficient", [1, 2, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_charge_fails_items_ii_and_iii(self, bad, coefficient):
        # the scale, and with it every solve past order 0, is not finite:
        # no residual is within its bound and none exceeds it, so nothing is
        # raised; a lift keeps its finite seed at order 0, where pinv 0
        # would be NaN, so item (i) meets no NaN at order 0
        B = two_pair_model()
        coeffs = rescaled_charge(B, 6).Q_series.coeffs.copy()
        coeffs[coefficient, 2, 3] = bad
        D = DeformedBRST(base=B, Q_series=FormalSeries(coeffs))
        with np.errstate(all="ignore"):
            report = deform_check(D, samples=25, rng=np.random.default_rng(6))
        assert report.items_passed == (True, False, False, True)


class TestStabilityItems:
    def test_rescaling_passes_all_items(self):
        report = deform_check(rescaled_charge(two_pair_model(), 4),
                              samples=20, rng=np.random.default_rng(1))
        assert report.all_passed
        assert report.lift_residual < 1e-9

    def test_jets_stay_coefficient_stacks(self):
        # at order 200 one dense (L n)^2 jet map would take 23 MB; the
        # check keeps to (L, n, S) jet stacks
        import tracemalloc
        D = rescaled_charge(two_pair_model(), 200)
        tracemalloc.start()
        try:
            report = deform_check(D, samples=4, rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed
        assert peak < 10 * 2 ** 20

    def test_solved_deformation_passes_all_items(self):
        report = deform_check(solved_charge(two_pair_model(), 3),
                              samples=25, rng=np.random.default_rng(2))
        assert report.all_passed
        assert report.observables_checked > 0

    def test_gupta_bleuler_rescaling(self):
        report = deform_check(rescaled_charge(gupta_bleuler_toy(), 3),
                              samples=15, rng=np.random.default_rng(3))
        assert report.all_passed

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_stacked_action_is_representation_matrix(self, model):
        # the harmonic basis acts on the physical quotient as one stacked
        # product R^H A R over the representatives R
        B = MODELS[model]()
        quotient = physical_space(B)
        ops = quotient_basis(observable_algebra(B, "even_ghost"))
        R = quotient.quotient_reps
        got = R.conj().T @ ops @ R
        assert got.shape == (len(ops), quotient.dim, quotient.dim)
        for A0, pi0 in zip(ops, got):
            want = representation_matrix(B, quotient, GradedOperator(A0, 0))
            np.testing.assert_allclose(pi0, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["solved", "rescale"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_lifted_observables_move_a_class_of_norm_one(self, model, mode):
        # item (iv) counts the quotient-basis observables that lift; the
        # one-at-a-time reference finds the class of A0 phi0, for the
        # representative phi0 each moves most, at norm 1, a matrix unit's column
        B = MODELS[model]()
        D = (rescaled_charge if mode == "rescale" else solved_charge)(B, ORDER)
        norms = leading_class_norms(D)
        report = deform_check(D, samples=5, rng=np.random.default_rng(6))
        assert len(norms) == report.observables_checked == physical_space(B).dim ** 2
        assert all(abs(norm - 1.0) <= 1e-12 for norm in norms)

    def test_formal_norms_are_positive_series(self):
        D = solved_charge(two_pair_model(), 3)
        ker = physical_space(D.base).ker_basis
        rng = np.random.default_rng(4)
        # ten lifts, each of a random kernel seed with random kernel noise
        shape = (D.order + 1, ker.shape[1], 10)
        noise = ker @ (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        jets = brst._forward(D.Q_series.coeffs, D.base._pinv, Z=noise)[0]
        for column in brst._formal_norms(D.base.space.krein.gram, jets).T:
            norm2 = FormalSeries(list(column))
            verdict = is_positive(norm2, tol=1e-8)
            assert verdict.positive
            redone = series_mul(series_star(verdict.witness), verdict.witness)
            assert (redone - norm2).max_abs() < 1e-8


COUNTS = ("lifted_kernel_dim", "null_vectors_checked", "observables_checked")
RESIDUALS = ("positivity_worst_defect", "null_membership_residual", "lift_residual")


def assert_same_report(got, want):
    """Equal items and counts; residuals to 1e-12, since a column's products
    round differently with the width of its block (BLAS picks its kernels by
    shape) and the reference runs one column at a time."""
    assert got.items_passed == want.items_passed
    assert all(type(item) is bool for item in got.items_passed)
    for name in COUNTS:
        assert getattr(got, name) == getattr(want, name), name
    for name in RESIDUALS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is float
        assert abs(a - b) <= 1e-12 or max(a, b) <= np.sqrt(1e-9), (name, a, b)


# a smaller draw budget than series._DRAWS, so that block edges fall at
# sample counts the one-at-a-time reference checks quickly
BUDGET = 1024
ORDER = 3


def straddling_counts(model):
    """1, and each side of the first block edge of item (ii), and past the
    second.  Item (ii) draws (N+1) * 2 * dim numbers per sample, item (i)
    (N+1) * 2 * dim(ker Q); the last count also passes item (i)'s first
    edge, since dim < 2 dim(ker Q) + 2 on every model."""
    edge = BUDGET // ((ORDER + 1) * 2 * MODELS[model]().dim)
    return [1, edge - 1, edge, edge + 1, 2 * edge + 2]


class TestBlocksAgainstPerSampleReference:
    """deform_check runs its samples in blocks of at most series._DRAWS
    random numbers; the reference runs them one at a time.  Sample counts
    straddle the block edges."""

    @pytest.mark.parametrize("mode", ["solved", "rescale"])
    @pytest.mark.parametrize("model, samples", [
        (model, samples) for model in sorted(MODELS) for samples in straddling_counts(model)])
    def test_same_report_and_stream(self, monkeypatch, model, mode, samples):
        monkeypatch.setattr(opalg.series, "_DRAWS", BUDGET)
        B = MODELS[model]()
        D = (rescaled_charge if mode == "rescale" else solved_charge)(B, ORDER)
        rng, rng_ref = np.random.default_rng(samples), np.random.default_rng(samples)
        got = deform_check(D, samples=samples, rng=rng)
        assert_same_report(got, deform_check_reference(D, samples, rng_ref))
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_counts_straddle_both_items(self, monkeypatch, model):
        monkeypatch.setattr(opalg.series, "_DRAWS", BUDGET)
        B = MODELS[model]()
        counts = straddling_counts(model)
        item_i, item_ii = ([len(opalg.series._blocks(samples, (ORDER + 1) * 2 * dim))
                            for samples in counts]
                           for dim in (physical_space(B).ker_basis.shape[1], B.dim))
        assert item_ii == [1, 1, 1, 2, 3]
        assert item_i[0] == 1 and item_i[-1] == 2

    @pytest.mark.parametrize("mode", ["solved", "rescale"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_one_block_and_one_sample_per_block(self, monkeypatch, model, mode):
        D = (rescaled_charge if mode == "rescale" else solved_charge)(MODELS[model](), ORDER)
        runs = []
        for budget in (1, 10 ** 9):
            monkeypatch.setattr(opalg.series, "_DRAWS", budget)
            rng = np.random.default_rng(7)
            runs.append((deform_check(D, samples=37, rng=rng), rng.bit_generator.state))
        assert_same_report(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]


class ScriptedNormals:
    """Stands in for a generator: normal() hands out a fixed sequence in
    order, whatever the shapes it is asked for."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def normal(self, size):
        count = int(np.prod(size))
        out = self.values[self.used:self.used + count]
        self.used += count
        return out.reshape(size)


class TestFailureInsideBlock:
    """One sample in the middle of a block fails: the block check raises what
    the per-sample reference raises, for the same sample."""

    SAMPLES = 130

    def check_both(self, D, values, expected):
        with pytest.raises(expected) as want:
            deform_check_reference(D, self.SAMPLES, ScriptedNormals(values))
        with pytest.raises(expected) as got:
            deform_check(D, samples=self.SAMPLES, rng=ScriptedNormals(values))
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "order", None) == getattr(want.value, "order", None)

    @pytest.mark.parametrize("first_order", [1, 3])
    @pytest.mark.parametrize("early", [30, 100])
    def test_first_failing_sample_is_raised(self, early, first_order):
        # Q1 e1 = e1 keeps every lift solvable, but the null kernel vector
        # e1 as seed gives the norm -2g (not positive at order 1), and the
        # zero seed with e1 added at order 1 gives -2g^3 (order 3); two
        # samples of one block fail, ten apart
        B = gupta_bleuler_toy()
        Q1 = np.zeros((3, 3), dtype=complex)
        Q1[1, 1] = 1.0
        zeros = np.zeros_like(Q1)
        D = DeformedBRST(base=B, Q_series=FormalSeries([B.Q, Q1, zeros, zeros]))
        ker = physical_space(B).ker_basis
        e1 = ker.conj().T @ np.array([0.0, 1.0, 0.0])
        draws = np.random.default_rng(7).normal(size=(self.SAMPLES, 4, 2, 2))
        at_order_1, at_order_3 = (early, early + 10) if first_order == 1 \
            else (early + 10, early)
        draws[at_order_1, 0] = e1.real, e1.imag
        draws[at_order_3, 0] = 0.0
        draws[at_order_3, 1] = e1.real, e1.imag
        self.check_both(D, draws.ravel(), PositivityViolatedAtOrderError)
        with pytest.raises(PositivityViolatedAtOrderError) as err:
            deform_check(D, samples=self.SAMPLES, rng=ScriptedNormals(draws.ravel()))
        assert err.value.order == first_order

    @pytest.mark.parametrize("bad", [30, 100])
    def test_null_check_fails_for_one_image_sample(self, bad):
        # Q1 e2 = e0: Q~ w has the norm |w0_2|^2 g^2, so only samples with an
        # e2 component are not null
        B = gupta_bleuler_toy()
        Q1 = np.zeros((3, 3), dtype=complex)
        Q1[0, 2] = 1.0
        D = DeformedBRST(base=B, Q_series=FormalSeries([B.Q, Q1, np.zeros_like(Q1)]))
        rng = np.random.default_rng(9)
        kernel_draws = rng.normal(size=(self.SAMPLES, 3, 2, 2))
        image_draws = rng.normal(size=(self.SAMPLES, 3, 2, 3))
        image_draws[np.arange(self.SAMPLES) != bad, :, :, 2] = 0.0
        values = np.concatenate([kernel_draws.ravel(), image_draws.ravel()])
        self.check_both(D, values, NullNotExactError)


class TestUnitsOfTheCharge:
    """deform_check decides on the charge series divided by its largest
    entry: a multiple of the charge changes neither verdict nor report."""

    @pytest.mark.parametrize("exponent", range(-12, 13))
    def test_report_independent_of_the_units(self, exponent):
        lam, rng = 10.0 ** exponent, np.random.default_rng
        B = two_pair_model()
        base = validate_brst(B.space, lam * B.Q)
        D = rescaled_charge(B, 3)
        got = deform_check(validate_deformation(base, FormalSeries(lam * D.Q_series.coeffs)),
                           samples=25, rng=rng(1))
        assert got.all_passed
        assert_same_report(got, deform_check(D, samples=25, rng=rng(1)))
        # the lifts of item (iv): a random Q1 lifts no harmonic observable
        Q1 = rng(5).normal(size=(6, 6, 2)) @ [1, 1j]
        D = DeformedBRST(base=base, Q_series=FormalSeries([lam * B.Q, lam * Q1]))
        reps = quotient_basis(observable_algebra(B, "even_ghost"))
        assert unliftable_reference(D, reps).all()
        B = gupta_bleuler_toy()
        obstructed = DeformedBRST(base=validate_brst(B.space, lam * B.Q),
                                  Q_series=FormalSeries(lam * obstructed_charge(B).Q_series.coeffs))
        with pytest.raises(LiftObstructionError) as err:
            deform_check(obstructed, samples=25, rng=rng(1))
        assert err.value.order == 1
