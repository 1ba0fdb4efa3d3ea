import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opalg import brst
from opalg.brst import (GradeViolationError, NonHomogeneousError,
                        NotKreinSelfAdjointError, NotNilpotentError,
                        NotObservableError, NullNotExactError,
                        PositivityViolatedError, gupta_bleuler_toy,
                        make_graded_space, null_pair_toy, observable_algebra,
                        operator_grade, physical_space, two_pair_model, validate_brst)
from opalg.krein import fundamental_symmetry, krein_adjoint
from opalg.series import FormalSeries, series_mul

from oracles import (GradedOperator, block_toeplitz, brst_derivation, class_coordinates,
                     closure_certificate_dense, closure_pairwise, deformation_generators_loop,
                     derivation_svd, graded_sign_split, leading_class_norms,
                     lstsq_series_solve, observable_dims_svd, physical_space_svd,
                     physical_space_three_step, quartet_model, quotient_basis, quotient_oracle,
                     quotient_reps, rank, representation_matrix, s_preimage, s_preimage_svd,
                     super_commutator_matrix, svd_column_space, svd_null_space,
                     unliftable_reference)

TOYS = {
    "null_pair": (null_pair_toy, 0),
    "gupta_bleuler": (gupta_bleuler_toy, 1),
    "two_pair": (two_pair_model, 2),
}


def unit(n, i, j):
    E = np.zeros((n, n), dtype=complex)
    E[i, j] = 1.0
    return E


def ghost_pair_model():
    """Null pair of ghost number zero coupled to a ghost/antighost pair.

    The Gram pairs ghost number g with -g, so the Krein adjoint of a
    homogeneous operator is again homogeneous (of opposite ghost number).
    """
    gram = np.zeros((4, 4))
    gram[0, 1] = gram[1, 0] = 1
    gram[2, 3] = gram[3, 2] = 1
    space = make_graded_space(gram, [0, 0, 1, -1])
    Q = np.zeros((4, 4), dtype=complex)
    Q[2, 1] = 1   # second null vector -> ghost
    Q[0, 3] = 1   # antighost -> first null vector
    return validate_brst(space, Q)


class TestGrading:
    def test_operator_grade_of_charge(self):
        B = gupta_bleuler_toy()
        assert operator_grade(B.space, B.Q) == 1

    def test_zero_matrix_has_no_grade(self):
        B = gupta_bleuler_toy()
        assert operator_grade(B.space, np.zeros((3, 3))) is None

    def test_inhomogeneous_detected(self):
        B = gupta_bleuler_toy()
        M = unit(3, 1, 2) + unit(3, 0, 0)  # shifts 1 and 0 mixed
        with pytest.raises(NonHomogeneousError):
            operator_grade(B.space, M)

    @pytest.mark.parametrize("scale", [1e-14, 1e-11, 1.0, 1e8])
    def test_grade_independent_of_scale(self, scale):
        B = gupta_bleuler_toy()
        assert operator_grade(B.space, scale * B.Q) == 1
        with pytest.raises(NonHomogeneousError):
            operator_grade(B.space, scale * (unit(3, 1, 2) + unit(3, 0, 0)))

    def test_wrong_grade_count_rejected(self):
        with pytest.raises(ValueError):
            make_graded_space(np.eye(3), [0, 1])


class TestValidation:
    def test_null_toy_charge_valid(self):
        B = null_pair_toy()  # Q = [[0,1],[0,0]] against the swap Gram
        np.testing.assert_allclose(B.Q, [[0, 1], [0, 0]])

    def test_identity_not_nilpotent(self):
        space = make_graded_space(np.eye(3), [0, 0, 0])
        with pytest.raises(NotNilpotentError):
            validate_brst(space, np.eye(3))

    def test_tiny_charge_not_nilpotent(self):
        # neither nilpotent nor homogeneous, whatever its size
        space = make_graded_space(np.eye(2), [0, 1])
        with pytest.raises(NotNilpotentError):
            validate_brst(space, 1e-11 * np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_minkowski_charge_not_selfadjoint(self):
        space = make_graded_space(np.diag([1.0, -1.0]), [1, 0])
        with pytest.raises(NotKreinSelfAdjointError):
            validate_brst(space, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDerivation:
    def test_identity_in_kernel(self):
        B = gupta_bleuler_toy()
        out = brst_derivation(B, GradedOperator(np.eye(3, dtype=complex), 0))
        assert np.max(np.abs(out.matrix)) == 0
        assert out.ghost == 1

    def test_physical_projector_in_kernel(self):
        B = gupta_bleuler_toy()
        out = brst_derivation(B, GradedOperator(unit(3, 0, 0), 0))
        assert np.max(np.abs(out.matrix)) == 0

    def test_charge_maps_to_zero(self):
        B = gupta_bleuler_toy()
        out = brst_derivation(B, GradedOperator(B.Q, 1))
        assert np.max(np.abs(out.matrix)) < 1e-14

    def test_non_homogeneous_rejected(self):
        B = gupta_bleuler_toy()
        with pytest.raises(NonHomogeneousError):
            brst_derivation(B, GradedOperator(unit(3, 1, 2) + unit(3, 0, 0), 0))

    def _random_homogeneous(self, B, ghost, rng):
        g = np.asarray(B.space.ghost_grades)
        mask = (g[:, None] - g[None, :]) == ghost
        M = (rng.normal(size=mask.shape) + 1j * rng.normal(size=mask.shape)) * mask
        return GradedOperator(M, ghost)

    def test_graded_leibniz(self):
        B = two_pair_model()
        rng = np.random.default_rng(0)
        for ga, gb in [(0, 0), (0, 1), (1, 0), (-1, 1), (1, -1)]:
            A = self._random_homogeneous(B, ga, rng)
            Bop = self._random_homogeneous(B, gb, rng)
            sign = -1.0 if ga % 2 else 1.0
            lhs = brst_derivation(B, GradedOperator(A.matrix @ Bop.matrix,
                                                    ga + gb)).matrix
            rhs = brst_derivation(B, A).matrix @ Bop.matrix \
                + sign * A.matrix @ brst_derivation(B, Bop).matrix
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_derivation_squares_to_zero(self):
        B = two_pair_model()
        rng = np.random.default_rng(1)
        for ghost in (-1, 0, 1):
            F = self._random_homogeneous(B, ghost, rng)
            once = brst_derivation(B, F)
            twice = brst_derivation(B, once)
            np.testing.assert_allclose(twice.matrix, 0, atol=1e-10)

    def test_star_compatibility(self):
        # s(F^*) = -(-1)^d s(F)^* with the Krein adjoint.  Needs a pairing
        # that matches ghost number g with -g so that the adjoint of a
        # homogeneous operator is homogeneous; the ghost/antighost model
        # below has that property (the pinned toys do not).
        B = ghost_pair_model()
        rng = np.random.default_rng(2)
        K = B.space.krein
        for ghost in (-1, 0, 1):
            F = self._random_homogeneous(B, ghost, rng)
            star = krein_adjoint(K, F.matrix)
            # the adjoint keeps the ghost shift (so Q* = Q is consistent)
            assert operator_grade(B.space, star) in (None, ghost)
            lhs = brst_derivation(B, GradedOperator(star, ghost)).matrix
            sign = -1.0 if ghost % 2 == 0 else 1.0
            rhs = sign * krein_adjoint(K, brst_derivation(B, F).matrix)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestPhysicalSpace:
    @pytest.mark.parametrize("name", sorted(TOYS))
    def test_matches_row_reduction_oracle(self, name):
        make, expected_dim = TOYS[name]
        B = make()
        quotient = physical_space(B)
        ker_dim, im_dim, quot_dim, gram = quotient_oracle(B.Q, B.space.krein.gram)
        assert quotient.ker_basis.shape[1] == ker_dim
        assert quotient.im_basis.shape[1] == im_dim
        assert quotient.dim == quot_dim == expected_dim
        np.testing.assert_allclose(quotient.induced_gram, gram, atol=1e-10)

    def test_positive_definite_induced_gram(self):
        for make, _ in TOYS.values():
            quotient = physical_space(make())
            if quotient.dim:
                assert np.min(np.linalg.eigvalsh(quotient.induced_gram)) > 0

    def test_one_rank_cut_for_every_quotient(self):
        # a second pair coupled at 1e-7 of the first lies below the Hodge
        # cut (an SVD cut near 1e-5): all three quotients see the harmonic
        # vectors e_0, e_3 and e_4, and e_3, e_4 span a null pair
        gram = np.eye(5)
        gram[1:3, 1:3] = gram[3:5, 3:5] = [[0, 1], [1, 0]]
        Q = np.zeros((5, 5), dtype=complex)
        Q[1, 2], Q[3, 4] = 1, 1e-7
        B = validate_brst(make_graded_space(gram, [0, 1, 0, 1, 0]), Q)
        with pytest.raises(PositivityViolatedError):
            physical_space(B)
        assert observable_algebra(B, "full").quotient_dim == 9
        assert observable_algebra(B, "even_ghost").quotient_dim == 5

    def test_negative_norm_kernel_vector_rejected(self):
        space = make_graded_space(np.diag([1.0, -1.0]), [0, 0])
        B = validate_brst(space, np.zeros((2, 2)))
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(PositivityViolatedError):
                physical_space(B)

    @pytest.mark.parametrize("name", sorted(TOYS))
    def test_built_once_per_structure(self, name):
        B = TOYS[name][0]()
        quotient = physical_space(B)
        assert physical_space(B) is quotient
        observable_algebra(B, "even_ghost")
        assert physical_space(B) is quotient
        for a in (quotient.ker_basis, quotient.im_basis, quotient.quotient_reps,
                  quotient.induced_gram):
            assert not a.flags.writeable

    def test_null_kernel_vectors_are_exact(self):
        # condition (ii): isotropic kernel vectors lie in the image
        for make, _ in TOYS.values():
            B = make()
            quotient = physical_space(B)
            G = B.space.krein.gram
            restricted = quotient.ker_basis.conj().T @ G @ quotient.ker_basis
            eigs, vecs = np.linalg.eigh((restricted + restricted.conj().T) / 2)
            im = quotient.im_basis
            for j in np.where(np.abs(eigs) <= 1e-10)[0]:
                v = quotient.ker_basis @ vecs[:, j]
                res = np.linalg.norm(v - im @ (im.conj().T @ v)) if im.size else \
                    np.linalg.norm(v)
                assert res < 1e-8

    def test_gram_independent_of_representatives(self):
        B = gupta_bleuler_toy()
        quotient = physical_space(B)
        rng = np.random.default_rng(3)
        G = B.space.krein.gram
        for _ in range(20):
            shift = quotient.im_basis @ (
                rng.normal(size=quotient.im_basis.shape[1])
                + 1j * rng.normal(size=quotient.im_basis.shape[1]))
            reps = quotient.quotient_reps + shift[:, None]
            gram = reps.conj().T @ G @ reps
            np.testing.assert_allclose(gram, quotient.induced_gram, atol=1e-10)


class TestObservableAlgebra:
    @pytest.mark.parametrize("name", sorted(TOYS))
    def test_dims_match_supercommutator_oracle(self, name):
        make, _ = TOYS[name]
        B = make()
        n = B.dim
        S = super_commutator_matrix(B.Q, B.space.ghost_grades)
        grades = np.asarray(B.space.ghost_grades)
        parity = ((grades[:, None] - grades[None, :]) % 2).ravel()
        even_cols = np.where(parity == 0)[0]
        odd_cols = np.where(parity == 1)[0]

        ker_even = even_cols.size - rank(S[:, even_cols])
        im_even = rank(S[:, odd_cols])
        assert observable_algebra(B, "even_ghost").quotient_dim == ker_even - im_even
        assert observable_algebra(B, "full").quotient_dim == n * n - 2 * rank(S)

    def test_gupta_bleuler_quotient_generated_by_projector(self):
        B = gupta_bleuler_toy()
        alg = observable_algebra(B, "even_ghost")
        assert alg.quotient_dim == 1
        assert np.max(np.abs(represented(B, quotient_basis(alg)[0]))) > 1e-8

    @pytest.mark.parametrize("name", sorted(TOYS))
    def test_quotient_basis_is_one_read_only_stack(self, name):
        B = TOYS[name][0]()
        U, inverse, _ = B._hodge
        for variant in ("even_ghost", "full"):
            algebra = observable_algebra(B, variant)
            basis = quotient_basis(algebra)
            assert isinstance(basis, np.ndarray)
            assert basis.shape == (algebra.quotient_dim, B.dim, B.dim)
            with pytest.raises(ValueError, match="read-only"):
                basis[...] = 0.0
            # each read builds a new stack, bit for bit the one the dense
            # certificate was given
            keep = inverse == 0
            if variant == "even_ghost":
                keep &= brst._same_parity(B.space)
            i, j = np.nonzero(keep)
            assert quotient_basis(algebra) is not basis
            assert np.array_equal(basis, U.T[i, :, None] * U.conj().T[j, None, :])
            assert all(np.array_equal(got, want) for got, want in
                       zip(algebra.pairs, harmonic_pairs(B, variant == "full")))
            assert algebra.factors is U
            for a in algebra.pairs:
                assert not a.flags.writeable

    def test_no_dense_stack_unless_the_basis_is_read(self):
        # n = 176 and K = 256: the stack would take 127 MB
        import tracemalloc
        B = quartet_model(16, 40, 1)
        B._hodge, physical_space(B)
        stack = 256 * B.dim ** 2 * 16
        for variant in ("even_ghost", "full"):
            tracemalloc.start()
            try:
                algebra = observable_algebra(B, variant)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert algebra.quotient_dim == 256
            assert peak < stack / 10

    def test_trivial_charge_gives_full_matrix_algebra(self):
        space = make_graded_space(np.eye(2), [0, 0])
        B = validate_brst(space, np.zeros((2, 2)))
        for variant in ("even_ghost", "full"):
            assert observable_algebra(B, variant).quotient_dim == 4

    def test_kernel_and_image_star_closed_full_variant(self):
        # the oracle's kernel and image, and the representatives in the kernel
        B = two_pair_model()
        n, K, grades = B.dim, B.space.krein, B.space.ghost_grades
        ker = derivation_svd(B.Q, grades, "full")[0]
        im = svd_column_space(super_commutator_matrix(B.Q, grades)).T.reshape(-1, n, n)
        reps = quotient_basis(observable_algebra(B, "full"))
        for span, ops in ((ker, ker), (im, im), (ker, reps)):
            vecs = span.reshape(len(span), -1).T
            proj = vecs @ np.linalg.pinv(vecs)
            for op in ops:
                adj = krein_adjoint(K, op).ravel()
                assert np.linalg.norm(adj - proj @ adj) < 1e-8

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            observable_algebra(gupta_bleuler_toy(), "both")

    @pytest.mark.parametrize("name", sorted(TOYS))
    def test_closure_fails_once_a_column_leaves_the_kernel(self, name):
        B = TOYS[name][0]()
        rng = np.random.default_rng(0)
        for full in (False, True):
            brst._verify_closure(B, B._hodge[0], *harmonic_pairs(B, full), full)
            V, c = push_off_harmonic(B, rng)
            with pytest.raises(NotObservableError, match="products"):
                brst._verify_closure(B, V, *harmonic_pairs(B, full, c), full)
        # the dense twin: a unit vector orthogonal to ker s replaces the first
        # kernel column; on null_pair the pairwise adjoint test maps it back
        # into the span
        ker = derivation_svd(B.Q, B.space.ghost_grades, "full")[0]
        closure_certificate_dense(B, ker, full=True)
        vecs = ker.reshape(len(ker), -1).T
        pushed = ker.copy()
        pushed[0] = np.linalg.svd(vecs.conj().T)[2][len(ker)].conj().reshape(B.dim, B.dim)
        with pytest.raises(NotObservableError):
            closure_certificate_dense(B, pushed, full=True)


def harmonic_pairs(B, full, extra=()):
    """The column pairs (i, j) of B's U over its harmonic columns and the
    columns extra, of equal parity unless full: observable_algebra's pairs
    when extra is empty."""
    cols = np.union1d(np.flatnonzero(B._hodge[2] == 0), extra).astype(int)
    parity = B.space.parities()[cols]
    a, b = np.nonzero(np.ones((len(cols),) * 2, dtype=bool) if full
                      else parity[:, None] == parity)
    return cols[a], cols[b]


def push_off_harmonic(B, rng):
    """B's U with one column, the first harmonic one (column 0 if there is
    none), replaced by a random unit vector of the span of the others off
    ker Q and ker Q^H, mixing the degrees; and that column's index."""
    U, _, sign = B._hodge
    c = int(np.argmin(np.abs(sign)))
    others = U[:, sign != 0]
    off = others @ (rng.normal(size=others.shape[1]) + 1j * rng.normal(size=others.shape[1]))
    V = U.copy()
    V[:, c] = off / np.linalg.norm(off)
    return V, c


def represented(B, A):
    """The matrix R^H A R of [A] on the physical quotient: the
    representatives R are orthonormal and orthogonal to im Q."""
    R = physical_space(B).quotient_reps
    return R.conj().T @ A @ R


def assert_matrix_units(B):
    """Each even-ghost quotient-basis observable u_a u_b^H acts on the
    physical quotient, by the checked twin, as the matrix unit E_ab within
    1e-12, and no two as the same one."""
    quotient = physical_space(B)
    units = set()
    for A0 in quotient_basis(observable_algebra(B, "even_ghost")):
        pi = representation_matrix(B, quotient, GradedOperator(A0, 0))
        a, b = np.unravel_index(np.argmax(np.abs(pi)), pi.shape)
        E = np.zeros_like(pi)
        E[a, b] = 1.0
        assert np.max(np.abs(pi - E)) <= 1e-12
        units.add((a, b))
    assert len(units) == observable_algebra(B, "even_ghost").quotient_dim


class TestRepresentation:
    """The action R^H A R of certified observables on the physical
    quotient, against the checked twin in tests/oracles.py."""

    def test_projector_acts_as_identity_class(self):
        pi = represented(gupta_bleuler_toy(), unit(3, 0, 0))
        np.testing.assert_allclose(pi @ [1.0], [1.0], atol=1e-10)

    def test_identity_operator(self):
        pi = represented(two_pair_model(), np.eye(6, dtype=complex))
        np.testing.assert_allclose(pi, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("charge, operator", [(1e-9, 1.0), (1.0, 1e10), (1e6, 1e-6)])
    def test_matrix_scales_with_the_operator(self, charge, operator):
        # r X r^H G is in ker s for representatives r: Q r = 0 = r^H G Q
        B = random_pair_model(2, 2, 7)
        reps = physical_space(B).quotient_reps
        M = reps @ np.array([[1.0, 2.0 - 1j], [0.5j, -3.0]]) @ reps.conj().T \
            @ B.space.krein.gram
        want = representation_matrix(B, physical_space(B), GradedOperator(M, 0))
        scaled = validate_brst(B.space, charge * B.Q)
        pi = represented(scaled, operator * M)
        # the scaled structure may pick other representatives: compare spectra
        np.testing.assert_allclose(np.sort_complex(np.linalg.eigvals(pi)),
                                   operator * np.sort_complex(np.linalg.eigvals(want)),
                                   rtol=1e-8, atol=0)

    def test_class_independent_of_representative(self):
        B = two_pair_model()
        quotient = physical_space(B)
        A = unit(6, 0, 1)
        rng = np.random.default_rng(4)
        coords = np.array([0.3 + 0.1j, -0.7])
        base_vec = quotient.quotient_reps @ coords
        reference = represented(B, A) @ coords
        for _ in range(10):
            shift = quotient.im_basis @ (rng.normal(size=2) + 1j * rng.normal(size=2))
            got = class_coordinates(quotient, A @ (base_vec + shift))
            np.testing.assert_allclose(got, reference, atol=1e-10)

    @pytest.mark.parametrize("name", sorted(TOYS))
    def test_harmonic_observables_act_as_matrix_units(self, name):
        assert_matrix_units(TOYS[name][0]())

    def test_adjoint_compatibility_on_physical_sector(self):
        # pi(A^Krein-adjoint) equals the induced-Gram adjoint of pi(A)
        B = two_pair_model()
        quotient = physical_space(B)
        K = B.space.krein
        gram = quotient.induced_gram
        rng = np.random.default_rng(5)
        M = np.zeros((6, 6), dtype=complex)
        M[:2, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ops = np.array([M, krein_adjoint(K, M)])
        pi, pi_star = represented(B, ops)
        for op, got in zip(ops, (pi, pi_star)):
            want = representation_matrix(B, quotient, GradedOperator(op, 0))
            np.testing.assert_allclose(got, want, atol=1e-10)
        expected = np.linalg.inv(gram) @ pi.conj().T @ gram
        np.testing.assert_allclose(pi_star, expected, atol=1e-10)


def random_pair_model(physical, pairs, seed):
    """Physical modes plus null pairs as in two_pair_model, in a basis turned
    by a random unitary within each ghost sector (so W = G J stays I)."""
    n = physical + 2 * pairs
    grades = np.array([0] * physical + [1, 0] * pairs)
    gram = np.zeros((n, n), dtype=complex)
    gram[:physical, :physical] = np.eye(physical)
    Q = np.zeros((n, n), dtype=complex)
    for a in range(physical, n, 2):
        gram[a, a + 1] = gram[a + 1, a] = 1
        Q[a, a + 1] = 1
    rng = np.random.default_rng(seed)
    U = np.zeros((n, n), dtype=complex)
    for g in (0, 1):
        idx = np.flatnonzero(grades == g)
        Z = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(size=(idx.size, idx.size))
        U[np.ix_(idx, idx)] = np.linalg.qr(Z)[0]
    space = make_graded_space(U.conj().T @ gram @ U, grades)
    return validate_brst(space, U.conj().T @ Q @ U)


pair_models = st.builds(random_pair_model, physical=st.integers(0, 2),
                        pairs=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))


def assert_rel_close(got, want, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= rtol * scale


class TestScaleInvariance:
    """Rank decisions are relative: Q -> lam Q changes no quotient."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(TOYS)), exponent=st.floats(-12.0, 6.0))
    def test_quotients_unchanged_under_rescaled_charge(self, name, exponent):
        B = TOYS[name][0]()
        scaled = validate_brst(B.space, 10.0 ** exponent * B.Q)
        want, got = physical_space(B), physical_space(scaled)
        assert got.dim == want.dim
        np.testing.assert_allclose(got.induced_gram, want.induced_gram, atol=1e-12)
        for variant in ("even_ghost", "full"):
            assert observable_algebra(scaled, variant).quotient_dim == \
                observable_algebra(B, variant).quotient_dim


    @settings(max_examples=25, deadline=None)
    @given(B=pair_models, exponent=st.integers(-14, 10))
    def test_pair_models_unchanged_under_rescaled_charge(self, B, exponent):
        scaled = validate_brst(B.space, 10.0 ** exponent * B.Q)
        assert physical_space(scaled).dim == physical_space(B).dim
        for variant in ("even_ghost", "full"):
            assert observable_algebra(scaled, variant).quotient_dim == \
                observable_algebra(B, variant).quotient_dim


    @settings(max_examples=25, deadline=None)
    @given(B=pair_models, seed=st.integers(0, 2**32 - 1), exponent=st.integers(-6, 6))
    def test_deformation_verdict_unchanged_under_rescaled_series(self, B, seed, exponent):
        gens = brst.deformation_generators(B)
        weights = np.random.default_rng(seed).normal(size=len(gens))
        Q1 = sum((w * g for w, g in zip(weights, gens)), np.zeros_like(B.Q))
        lam = 10.0 ** exponent
        scaled = validate_brst(B.space, lam * B.Q)
        D = brst.validate_deformation(
            scaled, FormalSeries([lam * B.Q, lam * Q1, np.zeros_like(B.Q)]))
        assert D.order == 2
        if gens:  # i Q1 is Krein anti-self-adjoint at every scale
            with pytest.raises(NotKreinSelfAdjointError, match="coefficient 1"):
                brst.validate_deformation(scaled, FormalSeries([lam * B.Q, 1j * lam * Q1]))


def change_basis(B, S):
    """The structure in the basis S: G -> S^H G S, Q -> S^-1 Q S."""
    G = B.space.krein.gram
    space = make_graded_space(S.conj().T @ G @ S, B.space.ghost_grades)
    return validate_brst(space, np.linalg.solve(S, B.Q @ S))


def conditioned(rng, size, cond):
    """Random complex size x size matrix with singular values in [1, cond]."""
    def unitary():
        Z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        return np.linalg.qr(Z)[0]
    return unitary() @ np.diag(rng.uniform(1.0, cond, size=size)) @ unitary()


def ghost_preserving(rng, B):
    """A random change of basis within each ghost degree of B, each block
    of condition number at most 10."""
    grades = np.asarray(B.space.ghost_grades)
    S = np.zeros((B.dim, B.dim), dtype=complex)
    for g in np.unique(grades):
        idx = np.flatnonzero(grades == g)
        S[np.ix_(idx, idx)] = conditioned(rng, idx.size, 10.0)
    return S


models = st.one_of(st.sampled_from([make for make, _ in TOYS.values()]).map(lambda m: m()),
                   pair_models)
quartet_models = st.builds(quartet_model, physical=st.integers(0, 2),
                           quartets=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
moved_pair_models = st.builds(
    lambda B, seed: change_basis(B, ghost_preserving(np.random.default_rng(seed), B)),
    pair_models, st.integers(0, 2**32 - 1))


def coupled_gram_model(even, odd, coupling, seed):
    """Q = 0 on `even` modes of ghost 0 and `odd` of ghost 1, whose Gram
    matrix couples the two parities by a random block of norm |coupling|."""
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(even, odd)) + 1j * rng.normal(size=(even, odd))
    G = np.eye(even + odd, dtype=complex)
    G[:even, even:] = coupling * C / np.linalg.norm(C, 2)
    G[even:, :even] = G[:even, even:].conj().T
    n = even + odd
    return validate_brst(make_graded_space(G, [0] * even + [1] * odd), np.zeros((n, n)))


def coupled_quartet_model(quartets, coupling, seed):
    """oracles.quartet_model with one physical mode r, and a physical mode
    e of ghost 1 after it, with (r, e) = coupling."""
    B = quartet_model(1, quartets, seed)
    U, _, sign = B._hodge
    n = B.dim
    G = np.eye(n + 1, dtype=complex)
    G[:n, :n] = B.space.krein.gram
    G[:n, n:] = coupling * U[:, sign == 0]  # G r = r for the harmonic r
    G[n:, :n] = G[:n, n:].conj().T
    Q = np.zeros((n + 1, n + 1), dtype=complex)
    Q[:n, :n] = B.Q
    return validate_brst(make_graded_space(G, B.space.ghost_grades + (1,)), Q)


def scaled_coupled_model(even, odd, coupling, seed):
    """coupled_gram_model with basis vector i scaled by sqrt(w_i), for w_i
    drawn log-uniformly from [1e-8, 1]: the Gram matrix has the diagonal w,
    and the cosines of its coupling are those of the unscaled model."""
    B = coupled_gram_model(even, odd, coupling, seed)
    w = 10.0 ** np.random.default_rng([seed, 1]).uniform(-8, 0, size=B.dim)
    return change_basis(B, np.diag(np.sqrt(w)).astype(complex))


def rank_one_stack(V, i, j):
    """The (K, n, n) stack of the operators v_i v_j^H."""
    return V.T[i, :, None] * V.conj().T[j, None, :]


couplings = st.builds(lambda scale, turn: scale * np.exp(2j * np.pi * turn),
                      st.sampled_from([0.0, 1e-12, 1e-6, 0.3]), st.floats(0, 1))
closure_models = st.one_of(
    models, quartet_models, moved_pair_models,
    st.builds(coupled_gram_model, st.integers(1, 2), st.integers(1, 2), couplings,
              st.integers(0, 2**32 - 1)),
    st.builds(coupled_quartet_model, st.integers(1, 3), couplings, st.integers(0, 2**32 - 1)))
scaled_coupled_models = st.builds(scaled_coupled_model, st.integers(1, 2), st.integers(1, 2),
                                  couplings, st.integers(0, 2**32 - 1))


class TestChangeOfBasis:
    """Quotients are basis independent, for bases that respect ghost number."""

    @settings(max_examples=30, deadline=None)
    @given(B=models, seed=st.integers(0, 2**32 - 1))
    def test_dimensions_unchanged(self, B, seed):
        moved = change_basis(B, ghost_preserving(np.random.default_rng(seed), B))
        assert physical_space(moved).dim == physical_space(B).dim
        for variant in ("even_ghost", "full"):
            assert observable_algebra(moved, variant).quotient_dim == \
                observable_algebra(B, variant).quotient_dim

    @pytest.mark.parametrize("name", ["gupta_bleuler", "two_pair"])
    def test_generic_basis_breaks_the_grading(self, name):
        B = TOYS[name][0]()
        S = conditioned(np.random.default_rng(8), B.dim, 10.0)
        with pytest.raises(GradeViolationError):
            change_basis(B, S)


def verdict(check, *args):
    """The error type a check raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return type(exc)
    return None


def assert_same_generators(B):
    """The stacked build of the generators is bit-identical to the loop."""
    got, want = brst.deformation_generators(B), deformation_generators_loop(B)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestOracleTwins:
    """The cached Hodge decomposition against the SVD-per-question reference
    and the row-reduction oracles, on randomly rotated pair and quartet
    models."""

    @settings(max_examples=40, deadline=None)
    @given(B=st.one_of(pair_models, quartet_models))
    def test_signed_laplacian_against_svd(self, B):
        # on quartets Delta_Q has the exact B and the coexact A at one
        # eigenvalue, so only the sign of Q Q^H - Q^H Q tells them apart
        U, _, sign = B._hodge
        for got, want in ((U[:, sign >= 0], svd_null_space(B.Q)),
                          (U[:, sign > 0], svd_column_space(B.Q))):
            assert got.shape == want.shape
            assert np.allclose(got @ got.conj().T, want @ want.conj().T, rtol=0, atol=1e-12)
        assert np.allclose(B._pinv, np.linalg.pinv(B.Q), rtol=0, atol=1e-12)
        assert np.max(np.linalg.norm(B.Q @ U[:, sign >= 0], axis=0), initial=0.0) <= 1e-12
        assert np.max(np.linalg.norm(B.Q.conj().T @ U[:, sign <= 0], axis=0),
                      initial=0.0) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(B=moved_pair_models)
    def test_laplacian_of_s_is_kunneth(self, B):
        # s s^H + s^H s = Delta_Q (x) 1 + 1 (x) Delta_Q^T, row-major
        S = super_commutator_matrix(B.Q, B.space.ghost_grades)
        lap, eye = B.Q @ B.Q.conj().T + B.Q.conj().T @ B.Q, np.eye(B.dim)
        assert_rel_close(S @ S.conj().T + S.conj().T @ S,
                         np.kron(lap, eye) + np.kron(eye, lap.T))

    @settings(max_examples=20, deadline=None)
    @given(B=moved_pair_models, seed=st.integers(0, 2**32 - 1))
    def test_s_preimage(self, B, seed):
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(2, B.dim, B.dim)) + 1j * rng.normal(size=(2, B.dim, B.dim))
        got = s_preimage(B, R)
        for r, x in zip(R, got):
            assert_rel_close(x, s_preimage_svd(B.Q, B.space.ghost_grades, r))

    @settings(max_examples=20, deadline=None)
    @given(B=moved_pair_models)
    def test_quotient_counts_harmonic_vectors(self, B):
        # h_p = dim ker Q - dim im Q on the vectors of parity p
        par = B.space.parities()
        h = [int(np.sum(par == p)) - rank(B.Q[:, par == p]) - rank(B.Q[par == p])
             for p in (0, 1)]
        assert observable_algebra(B, "full").quotient_dim == sum(h) ** 2
        assert observable_algebra(B, "even_ghost").quotient_dim == h[0] ** 2 + h[1] ** 2

    @settings(max_examples=20, deadline=None)
    @given(B=st.one_of(models, moved_pair_models))
    def test_certificate_floor(self, B):
        for variant in ("even_ghost", "full"):
            want = derivation_svd(B.Q, B.space.ghost_grades, variant)[1]
            assert np.isclose(brst._floor(B, variant == "full"), want, rtol=1e-12)

    @pytest.mark.parametrize("B, want", [
        (null_pair_toy(), np.sqrt(2)),  # no harmonic vector: the least pair sum is 2
        (validate_brst(make_graded_space(np.eye(2), [0, 0]), np.zeros((2, 2))), np.inf),
    ])
    def test_floor_without_harmonic_pairs_or_without_charge(self, B, want):
        for variant in ("even_ghost", "full"):
            assert derivation_svd(B.Q, B.space.ghost_grades, variant)[1] == pytest.approx(want)
            assert brst._floor(B, variant == "full") == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(TOYS))
    def test_deformation_generators_against_the_loop(self, name):
        assert_same_generators(TOYS[name][0]())

    @settings(max_examples=20, deadline=None)
    @given(B=pair_models)
    def test_deformation_generators_of_pair_models_against_the_loop(self, B):
        assert_same_generators(B)

    @settings(max_examples=20, deadline=None)
    @given(B=pair_models)
    def test_physical_space(self, B):
        G = B.space.krein.gram
        W = G @ fundamental_symmetry(B.space.krein).matrix
        quotient = physical_space(B)
        ker, im, reps, gram = physical_space_svd(B.Q, G, W)
        assert (quotient.ker_basis.shape[1], quotient.im_basis.shape[1], quotient.dim) \
            == (ker.shape[1], im.shape[1], reps.shape[1])
        assert_rel_close(quotient.induced_gram, gram)
        ker_dim, im_dim, quot_dim, oracle_gram = quotient_oracle(B.Q, G)
        assert (ker.shape[1], im.shape[1], quotient.dim) == (ker_dim, im_dim, quot_dim)
        # the oracle's representatives, in the coordinates of ours
        oracle_reps = quotient_reps(B.Q)
        C = np.array([class_coordinates(quotient, v) for v in oracle_reps.T]) \
            .reshape(oracle_reps.shape[1], quotient.dim).T
        assert_rel_close(C.conj().T @ quotient.induced_gram @ C, oracle_gram, rtol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(B=pair_models)
    def test_observable_algebra(self, B):
        grades = B.space.ghost_grades
        S = super_commutator_matrix(B.Q, grades)
        g = np.asarray(grades)
        parity = ((g[:, None] - g[None, :]) % 2).ravel()
        r_even, r_odd = rank(S[:, parity == 0]), rank(S[:, parity == 1])
        oracle = {"even_ghost": (int(np.sum(parity == 0)) - r_even, r_odd),
                  "full": (S.shape[1] - rank(S), rank(S))}
        for variant, (ker_dim, im_dim) in oracle.items():
            got = observable_algebra(B, variant).quotient_dim
            assert observable_dims_svd(B.Q, grades, variant) == (ker_dim, im_dim, got)
            assert got == ker_dim - im_dim

    @settings(max_examples=20, deadline=None)
    @given(B=models, seed=st.integers(0, 2**32 - 1))
    def test_closure_certificate_against_pairwise(self, B, seed):
        n, tol = B.dim, brst.RANK_TOL
        rng = np.random.default_rng(seed)
        for variant in ("even_ghost", "full"):
            full = variant == "full"
            ops = derivation_svd(B.Q, B.space.ghost_grades, variant)[0]
            represented = None if full else quotient_basis(observable_algebra(B, variant))
            assert verdict(brst._verify_closure, B, B._hodge[0], *harmonic_pairs(B, full),
                           full) is None
            assert verdict(closure_certificate_dense, B, ops, full) is None
            assert verdict(closure_pairwise, B, ops, represented, tol) is None
            # a harmonic column pushed off ker Q and ker Q^H: the certificate
            # sees it in the factors
            V, c = push_off_harmonic(B, rng)
            assert verdict(brst._verify_closure, B, V, *harmonic_pairs(B, full, c),
                           full) is NotObservableError
            # one column of the kernel basis pushed off the kernel along a
            # random direction of its complement: the dense certificate always
            # sees it; the pairwise loops see it at least for the full
            # variant.  A basis vector of the complement will not do: in the
            # one-pair model it may be E_10, and {E_10, 1} is closed under
            # products and the Krein adjoint
            vecs = ops.reshape(len(ops), -1).T
            complement = np.linalg.svd(vecs.conj().T)[2][vecs.shape[1]:].conj()
            off = complement.T @ (rng.normal(size=len(complement))
                                  + 1j * rng.normal(size=len(complement)))
            ops[0] = (off / np.linalg.norm(off)).reshape(n, n)
            assert verdict(closure_certificate_dense, B, ops, full) is NotObservableError
            if full:
                assert verdict(closure_pairwise, B, ops, None, tol) is NotObservableError

    @settings(max_examples=90, deadline=None)
    @given(case=st.one_of(st.tuples(closure_models, st.just(False)),
                          st.tuples(scaled_coupled_models, st.just(True))))
    def test_closure_verdicts_agree(self, case):
        # the factor certificate, the dense one it replaced and the pairwise
        # gate, on the harmonic representatives and on the kernel of s; the
        # dense certificate reads the parity coupling in the basis, and is
        # not compared on the basis-scaled family
        B, scaled = case
        for variant in ("even_ghost", "full"):
            full = variant == "full"
            reps = rank_one_stack(B._hodge[0], *harmonic_pairs(B, full))
            ops = derivation_svd(B.Q, B.space.ghost_grades, variant)[0]
            want = verdict(closure_pairwise, B, ops, None if full else reps)
            assert verdict(observable_algebra, B, variant) is want
            if not scaled:
                assert verdict(closure_certificate_dense, B, reps, full) is want

    @pytest.mark.parametrize("stretch, want", [(1.0, None), (1e2, NotObservableError),
                                               (1e4, NotObservableError)])
    def test_full_adjoint_check_decides_on_a_stretched_gram(self, stretch, want):
        # the harmonic column moved 1e-6 off ker Q and ker Q^H stays within
        # the product bound, but G of condition stretch^2 moves its Krein
        # adjoints further, so the adjoint check alone decides; the dense
        # twin, given the rank-one stack, agrees
        B = change_basis(gupta_bleuler_toy(), np.diag([1.0, stretch, stretch]).astype(complex))
        U, _, sign = B._hodge
        c = int(np.flatnonzero(sign == 0)[0])
        off = U[:, sign != 0].sum(axis=1)
        V = U.copy()
        V[:, c] += 1e-6 * off / np.linalg.norm(off)
        V[:, c] /= np.linalg.norm(V[:, c])
        i, j = harmonic_pairs(B, True, c)
        assert verdict(brst._verify_closure, B, V, i, j, True) is want
        assert verdict(closure_certificate_dense, B, rank_one_stack(V, i, j), True) is want
        if want:
            with pytest.raises(NotObservableError, match="adjoint"):
                brst._verify_closure(B, V, i, j, True)

    @pytest.mark.parametrize("weight", [1.0, 1e-4, 1e-8])
    def test_parity_coupling_is_read_free_of_the_basis(self, weight):
        # the second ghost-0 mode is the unit one rescaled by sqrt(weight),
        # so the cosine of its coupling to the ghost-1 mode stays 1e-6 (a
        # pass), 0.01 or 0.3 (rejections).  max|H_mixed| / max|H| would pass
        # 0.01 at weight 1e-8; the dense certificate reads the coupling in
        # the basis, and rejects 1e-6 from weight 1e-4 on, while the pairwise
        # gate reads it in coordinates orthonormal for H and agrees
        for cosine, want in ((1e-6, None), (0.01, NotObservableError),
                             (0.3, NotObservableError)):
            G = np.eye(3, dtype=complex)
            G[1, 1] = weight
            G[1, 2] = G[2, 1] = cosine * np.sqrt(weight)
            B = validate_brst(make_graded_space(G, [0, 0, 1]), np.zeros((3, 3)))
            assert verdict(observable_algebra, B, "even_ghost") is want
            reps = rank_one_stack(B._hodge[0], *harmonic_pairs(B, False))
            ops = derivation_svd(B.Q, B.space.ghost_grades, "even_ghost")[0]
            assert verdict(closure_pairwise, B, ops, reps) is want

    @settings(max_examples=30, deadline=None)
    @given(B=closure_models, k=st.integers(-6, 6), exponent=st.integers(-12, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_closure_verdicts_invariant(self, B, k, exponent, seed):
        # rejections included: G -> 10^k G, Q -> 10^exponent Q and a change
        # of basis within each ghost degree keep both variants' verdicts
        def verdicts(C):
            return [verdict(observable_algebra, C, v) for v in ("even_ghost", "full")]
        want = verdicts(B)
        G, grades = B.space.krein.gram, B.space.ghost_grades
        for moved in (validate_brst(make_graded_space(10.0 ** k * G, grades), B.Q),
                      validate_brst(B.space, 10.0 ** exponent * B.Q),
                      change_basis(B, ghost_preserving(np.random.default_rng(seed), B))):
            assert verdicts(moved) == want

    def test_closure_on_a_gram_matrix_that_mixes_parity(self):
        # Q = 0 and a positive Gram matrix pairing ghost 0 with ghost 1: the
        # kernel is everything, but the represented even quotient (the
        # diagonal operators) is not closed under the induced adjoint
        B = validate_brst(make_graded_space([[1.0, 0.5], [0.5, 1.0]], [0, 1]),
                          np.zeros((2, 2)))
        for variant, want in (("even_ghost", NotObservableError), ("full", None)):
            assert verdict(observable_algebra, B, variant) is want
        diagonal = np.array([unit(2, 0, 0), unit(2, 1, 1)])
        assert verdict(closure_pairwise, B, diagonal, diagonal) is NotObservableError

    @pytest.mark.parametrize("gram, want", [
        ((1.0, -1.0), PositivityViolatedError),  # the negative-norm model
        # nonsingular relative to 1e-3, yet within RANK_TOL of null
        ((1e-3, 5e-11), NullNotExactError),
        ((1e-3, -5e-11), NullNotExactError),
    ])
    def test_physical_decision_on_degenerate_products(self, gram, want):
        B = validate_brst(make_graded_space(np.diag(gram), [0, 0]), np.zeros((2, 2)))
        W = B.space.krein.gram @ fundamental_symmetry(B.space.krein).matrix
        assert verdict(physical_space_three_step, svd_null_space(B.Q), svd_column_space(B.Q),
                       B.space.krein.gram, W) is want
        assert verdict(physical_space, B) is want

    @settings(max_examples=20, deadline=None)
    @given(B=models)
    def test_physical_decision(self, B):
        W = B.space.krein.gram @ fundamental_symmetry(B.space.krein).matrix
        assert verdict(physical_space_three_step, svd_null_space(B.Q), svd_column_space(B.Q),
                       B.space.krein.gram, W) is None
        assert verdict(physical_space, B) is None

    @settings(max_examples=20, deadline=None)
    @given(B=pair_models, seed=st.integers(0, 2**32 - 1))
    def test_lifts(self, B, seed):
        # the lifts and minimum-norm solves of deform_check's forward pass,
        # against a least-squares solve per order
        rng = np.random.default_rng(seed)
        gens = brst.deformation_generators(B)
        Q1 = sum(w * gen for w, gen in zip(rng.normal(size=len(gens)), gens))
        zeros = np.zeros_like(B.Q)
        D = brst.validate_deformation(B, FormalSeries([B.Q, Q1, zeros, zeros]))
        Qs, n, L = D.Q_series.coeffs, B.dim, 4
        ker = physical_space(B).ker_basis
        seeds = np.zeros((L, n, ker.shape[1]), dtype=complex)
        seeds[0] = ker  # no noise
        lift = brst._forward(brst._nonzero(Qs), B._pinv, Z=seeds)[0]
        for phi0, phi in zip(ker.T, np.moveaxis(lift, 2, 0)):
            want, res = lstsq_series_solve(list(Qs), [np.zeros(n)] * L, first=phi0)
            assert res < 1e-9
            for got_n, want_n in zip(phi, want):
                assert_rel_close(got_n, want_n)
        target = brst._cauchy(Qs, rng.normal(size=(L, n, 1)) + 1j * rng.normal(size=(L, n, 1)))
        x = brst._forward(brst._nonzero(Qs), B._pinv, Y=target)[0]
        want, res = lstsq_series_solve(list(Qs), list(target[..., 0]))
        assert res < 1e-9
        for got_n, want_n in zip(x[..., 0], want):
            assert_rel_close(got_n, want_n)
        assert np.max(np.abs(brst._cauchy(Qs, x) - target)) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(B=pair_models, seed=st.integers(0, 2**32 - 1), solved=st.booleans())
    def test_unliftable_observables(self, B, seed, solved):
        # at order 1, A0 lifts iff -(Q1 A0 - Gamma(A0) Q1) lies in the image
        # of s; a solved Q1 lifts every harmonic observable, a random one none
        rng = np.random.default_rng(seed)
        n = B.dim
        if solved:
            gens = brst.deformation_generators(B)
            Q1 = sum((w * g for w, g in zip(rng.normal(size=len(gens)), gens)),
                     np.zeros((n, n), dtype=complex))
        else:
            Q1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        D = brst.DeformedBRST(base=B, Q_series=FormalSeries([B.Q, Q1]))
        reps = quotient_basis(observable_algebra(B, "even_ghost"))
        S = super_commutator_matrix(B.Q, B.space.ghost_grades)
        want = []
        for A0 in reps:
            rhs = -(Q1 @ A0 - graded_sign_split(B.space, A0) @ Q1).ravel()
            res = np.linalg.norm(S @ np.linalg.lstsq(S, rhs, rcond=None)[0] - rhs)
            want.append(res > 1e-9 * max(1.0, np.linalg.norm(rhs)))
        assert unliftable_reference(D, reps).tolist() == want
        assert not any(want) if solved else all(want)

    @settings(max_examples=20, deadline=None)
    @given(B=st.one_of(pair_models, quartet_models))
    def test_harmonic_observables_act_as_matrix_units(self, B):
        assert_matrix_units(B)

    @settings(max_examples=20, deadline=None)
    @given(B=st.one_of(pair_models, quartet_models), seed=st.integers(0, 2**32 - 1))
    def test_lifted_observables_move_a_class_of_norm_one(self, B, seed):
        # item (iv) of deform_check counts the even-ghost observables that
        # lift; the one-at-a-time reference finds each moving a
        # representative to a class of norm 1
        gens = brst.deformation_generators(B)
        weights = np.random.default_rng(seed).normal(size=len(gens))
        Q1 = sum((w * g for w, g in zip(weights, gens)), np.zeros_like(B.Q))
        D = brst.DeformedBRST(base=B, Q_series=FormalSeries([B.Q, Q1, np.zeros_like(B.Q)]))
        reps = quotient_basis(observable_algebra(B, "even_ghost"))
        norms = leading_class_norms(D)
        assert len(norms) == np.count_nonzero(~unliftable_reference(D, reps))
        assert all(abs(norm - 1.0) <= 1e-12 for norm in norms)

    @settings(max_examples=30, deadline=None)
    @given(B=pair_models, order=st.integers(0, 64), seed=st.integers(0, 2**32 - 1))
    def test_cauchy_is_series_mul(self, B, order, seed):
        # the charge's stack applied to two jets, against series_mul and the
        # dense Toeplitz twin; any coefficients past Q0; rounding is bounded
        # by 1e-15 of the largest sum of absolute products
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)
        charge = FormalSeries([B.Q] + [draw(B.dim, B.dim) for _ in range(order)])
        x = draw(order + 1, B.dim, 2)
        got = brst._cauchy(charge.coeffs, x)
        T = block_toeplitz(charge.coeffs)
        flat = x.reshape(-1, 2)
        bound = 1e-15 * np.max(np.abs(T) @ np.abs(flat))
        assert np.max(np.abs(got.reshape(-1, 2) - T @ flat)) <= bound
        assert np.max(np.abs(got - series_mul(charge, FormalSeries(x)).coeffs)) <= bound


def _projector(basis):
    return basis @ basis.conj().T


SPLIT_MODELS = {
    "null_pair": (null_pair_toy, 1),
    "gupta_bleuler": (gupta_bleuler_toy, 1),
    "two_pair": (two_pair_model, 2),
    "ghost_pair": (ghost_pair_model, 2),
    "zero_charge": (lambda: validate_brst(make_graded_space(np.diag([1.0, -1.0]), [0, 0]),
                                          np.zeros((2, 2))), 0),
    "pairs-2-5": (lambda: random_pair_model(2, 5, 7), 5),
    "pairs-0-3": (lambda: random_pair_model(0, 3, 11), 3),
    "quartets-0-1": (lambda: quartet_model(0, 1, 3), 2),
    "quartets-1-2": (lambda: quartet_model(1, 2, 9), 4),
    "quartets-2-3": (lambda: quartet_model(2, 3, 5), 6),
}


class TestHodgeSplit:
    """Kernel, image, rank and pseudo-inverse read off the signed-Laplacian
    eigh, against a fresh full SVD per question and numpy's pseudo-inverse,
    on fixed models: shipped, zero, rotated pair and rotated quartet."""

    @pytest.mark.parametrize("name", sorted(SPLIT_MODELS))
    def test_spans_rank_and_pinv(self, name):
        make, rank_ = SPLIT_MODELS[name]
        B = make()
        U, _, sign = B._hodge
        image, kernel = svd_column_space(B.Q), svd_null_space(B.Q)
        assert U[:, sign > 0].shape == image.shape == (B.dim, rank_)
        assert U[:, sign >= 0].shape == kernel.shape == (B.dim, B.dim - rank_)
        assert np.allclose(_projector(U[:, sign > 0]), _projector(image), rtol=0, atol=1e-12)
        assert np.allclose(_projector(U[:, sign >= 0]), _projector(kernel), rtol=0, atol=1e-12)
        assert np.allclose(B._pinv, np.linalg.pinv(B.Q), rtol=0, atol=1e-12)


def deformation(B, mode, order, exponent, seed):
    """A deformation of B of the given order, with B's charge and the series
    scaled by 10^exponent: Q + t Q1 for a solved Q1 (a random combination of
    deformation_generators), the rescaling Q + t Q, or the conjugation
    e^{tX} Q e^{-tX} truncated at the order, for X of ghost 0 and Krein
    anti-self-adjoint; None where validate_deformation refuses it (Q1^2 is
    not 0 on every quartet model)."""
    rng = np.random.default_rng(seed)
    if mode == "conjugated":
        grades = np.asarray(B.space.ghost_grades)
        M = np.zeros((B.dim, B.dim), dtype=complex)
        for g in np.unique(grades):
            block = np.ix_(*(np.flatnonzero(grades == g),) * 2)
            M[block] = rng.normal(size=M[block].shape + (2,)) @ [1, 1j]
        X = M - krein_adjoint(B.space.krein, M)
        X /= np.linalg.norm(X, 2)
        coeffs = [B.Q]
        for k in range(1, order + 1):  # ad_X^k(Q) / k!
            coeffs.append((X @ coeffs[-1] - coeffs[-1] @ X) / k)
    else:
        gens = brst.deformation_generators(B)
        Q1 = B.Q if mode == "rescaled" else \
            sum((w * g for w, g in zip(rng.normal(size=len(gens)), gens)), np.zeros_like(B.Q))
        coeffs = ([B.Q, Q1] + [np.zeros_like(B.Q)] * order)[:order + 1]
    lam = 10.0 ** exponent
    try:
        return brst.validate_deformation(validate_brst(B.space, lam * B.Q),
                                         FormalSeries(lam * np.array(coeffs)))
    except NotNilpotentError:
        return None


def deformations(models, modes):
    return st.builds(deformation, models, st.sampled_from(modes), st.integers(1, 6),
                     st.integers(-6, 6), st.integers(0, 2**32 - 1))


deformed_models = st.one_of(
    deformations(st.one_of(pair_models, quartet_models, moved_pair_models),
                 ["solved", "rescaled"]),
    deformations(quartet_models, ["conjugated"]))


def lifted_observables(D):
    """For each even-ghost quotient-basis observable u_a u_b^H, the Cauchy
    product a~ (G c~)^H of the jet lifts a~ of u_a and c~ of G^-1 u_b, on
    the series over its scale as deform_check solves it: an (L, K, n, n)
    array, order first; raises item (iii)'s first lift failure."""
    B, L, scale = D.base, D.order + 1, brst._scale(D)
    G, ker = B.space.krein.gram, physical_space(B).ker_basis
    basis = np.zeros((L,) + ker.shape, dtype=complex)
    basis[0] = ker
    lift, _, failures = brst._forward(brst._nonzero(D.Q_series.coeffs) / scale,
                                      B._pinv * scale, Z=basis)
    brst._raise_first(failures)
    # the lifts are linear in their seeds: kernel coordinates pick them
    U, (i, j) = B._hodge[0], observable_algebra(B, "even_ghost").pairs
    seeds = ker.conj().T @ np.concatenate([U[:, i], np.linalg.solve(G, U[:, j])], axis=1)
    a, c = np.split(lift @ seeds, 2, axis=2)
    Gc = G @ c
    return np.stack([sum(np.einsum("ik,jk->kij", a[p], Gc[m - p].conj())
                         for p in range(m + 1)) for m in range(L)])


class TestItemIVFromItemIII:
    """deform_check's item (iv) is read off item (iii): once every kernel
    vector lifts, every even-ghost quotient-basis observable lifts too."""

    @settings(max_examples=150, deadline=None)
    @given(D=deformed_models)
    def test_item_iv_follows_from_item_iii(self, D):
        assume(D is not None)
        try:
            report = brst.deform_check(D, samples=3, rng=np.random.default_rng(0))
        except brst.LiftObstructionError:
            return  # item (iii) fails, and item (iv) is not reached
        algebra = observable_algebra(D.base, "even_ghost")
        assert report.observables_checked == algebra.quotient_dim
        assert not unliftable_reference(D, quotient_basis(algebra)).any()

    def test_deform_check_forms_no_operator_stack(self):
        # n = 176 and K = 256: the operator-level lift of the stack of the
        # u_a u_b^H peaked at 1.43 GB, the stack alone takes 127 MB
        import tracemalloc
        B = quartet_model(16, 40, 1)
        zeros = np.zeros_like(B.Q)
        D = brst.validate_deformation(B, FormalSeries([B.Q, B.Q, zeros, zeros]))
        tracemalloc.start()
        try:
            report = brst.deform_check(D, samples=20, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed and report.observables_checked == 256
        assert peak < 256 * B.dim ** 2 * 16 / 2

    @settings(max_examples=60, deadline=None)
    @given(D=deformed_models)
    def test_lifted_products_lie_in_the_deformed_kernel(self, D):
        assume(D is not None)
        try:
            F = lifted_observables(D)
        except brst.LiftObstructionError:
            return
        Qs = D.Q_series.coeffs / brst._scale(D)
        # s~(F) = Q~ F - F Q~ on even operators, order by order
        moved = np.stack([sum(Qs[k] @ F[m - k] - F[m - k] @ Qs[k] for k in range(m + 1))
                          for m in range(len(Qs))])
        assert np.max(np.abs(moved), initial=0.0) \
            <= brst.LIFT_TOL * np.max(np.abs(F), initial=0.0)
        assert_rel_close(F[0], quotient_basis(observable_algebra(D.base, "even_ghost")),
                         rtol=brst.LIFT_TOL)
