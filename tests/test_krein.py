import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.krein import (NotHermitianError, SingularGramError,
                         fundamental_symmetry, krein_adjoint, make_krein,
                         wick_rotate)

from oracles import (InvalidSymmetryError, is_krein_selfadjoint, krein_adjoint_solve,
                     validate_symmetry)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
_M = np.random.default_rng(11).normal(size=(3, 3))
GRAMS = {"minkowski": np.diag([1.0, -1.0]), "null": SWAP,
         "mixed": _M @ np.diag([1.0, 2.0, -0.5]) @ _M.T}


def adjoint_oracle(G, A):
    return np.linalg.inv(G) @ np.asarray(A).conj().T @ G


class TestMakeKrein:
    def test_minkowski_signature(self):
        assert make_krein(np.diag([1.0, -1.0])).signature == (1, 1)

    def test_null_basis_signature(self):
        assert make_krein(SWAP).signature == (1, 1)

    def test_degenerate_rejected(self):
        with pytest.raises(SingularGramError):
            make_krein(np.diag([1.0, 0.0]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            make_krein([[1.0, 1.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            make_krein(np.ones((2, 3)))


class TestScaleInvariance:
    """Validation is relative: G -> mu G keeps the verdict and the adjoint."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(GRAMS)), exponent=st.floats(-12.0, 6.0))
    def test_rescaled_gram(self, name, exponent):
        G = GRAMS[name]
        mu = 10.0 ** exponent
        K, scaled = make_krein(G), make_krein(mu * G)
        assert scaled.signature == K.signature
        A = np.random.default_rng(12).normal(size=(3, K.dim, K.dim))
        want = krein_adjoint(K, A)
        got = krein_adjoint(scaled, A)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        with pytest.raises(SingularGramError):
            make_krein(mu * np.diag([1.0, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), digits=st.floats(0.0, 8.0),
           seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-6, 6))
    def test_inverse_of_random_hermitian_grams(self, n, digits, seed, k):
        # np.linalg.inv is the twin of the inverse: G and mu G agree with it
        # to cond(G) times the machine epsilon, and keep the signature
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        signs = rng.choice([-1.0, 1.0], n)
        G = (U * (signs * np.logspace(0, -digits, n))) @ U.conj().T
        G = (G + G.conj().T) / 2
        bound = 10 * n * np.linalg.cond(G) * np.finfo(float).eps
        for mu in (1.0, 10.0 ** k):
            K = make_krein(mu * G)
            assert K.signature == (int(np.sum(signs > 0)), int(np.sum(signs < 0)))
            want = np.linalg.inv(G) / mu
            assert np.max(np.abs(K.gram_inverse - want)) <= bound * np.max(np.abs(want))

    def test_tiny_minkowski_accepted(self):
        assert make_krein(np.diag([1e-11, -1e-11])).signature == (1, 1)


class TestFundamentalSymmetry:
    def test_diagonal(self):
        K = make_krein(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(fundamental_symmetry(K).matrix,
                                   np.diag([1.0, -1.0]), atol=1e-12)

    def test_null_basis(self):
        K = make_krein(SWAP)
        np.testing.assert_allclose(fundamental_symmetry(K).matrix, SWAP,
                                   atol=1e-12)

    def test_positive_definite_gives_identity_signs(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        K = make_krein(M @ M.conj().T + 4 * np.eye(4))
        eigs = np.linalg.eigvalsh(fundamental_symmetry(K).matrix)
        np.testing.assert_allclose(eigs, np.ones(4), atol=1e-10)

    def test_validate_rejects_non_involution(self):
        K = make_krein(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidSymmetryError):
            validate_symmetry(K, np.diag([2.0, 1.0]))

    def test_validate_rejects_wrong_sign(self):
        # an involution commuting with G but with G J indefinite
        K = make_krein(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidSymmetryError):
            validate_symmetry(K, np.diag([1.0, 1.0]))


class TestAdjoint:
    def test_identity(self):
        K = make_krein(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(krein_adjoint(K, np.eye(2)), np.eye(2),
                                   atol=1e-12)

    def test_minkowski_nilpotent(self):
        K = make_krein(np.diag([1.0, -1.0]))
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(krein_adjoint(K, A),
                                   [[0.0, 0.0], [-1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(krein_adjoint(K, A), adjoint_oracle(K.gram, A),
                                   atol=1e-12)

    def test_null_basis_projector(self):
        K = make_krein(SWAP)
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(krein_adjoint(K, A),
                                   [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_defining_identity_on_random_vectors(self):
        rng = np.random.default_rng(1)
        K = make_krein(np.diag([1.0, 1.0, -1.0]))
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        adj = krein_adjoint(K, A)
        for _ in range(20):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert abs(np.vdot(A @ u, K.gram @ v) - np.vdot(u, K.gram @ adj @ v)) < 1e-10

    def test_shape_mismatch(self):
        K = make_krein(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            krein_adjoint(K, np.eye(3))

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (4, 3, 2), (5, 2, 3, 3)])
    def test_stack_shape_mismatch(self, shape):
        with pytest.raises(ValueError):
            krein_adjoint(make_krein(np.diag([1.0, -1.0])), np.ones(shape))

    def test_stack_equals_per_matrix(self):
        rng = np.random.default_rng(2)
        K = make_krein(np.diag([1.0, 1.0, -1.0]))
        A = rng.normal(size=(4, 5, 3, 3)) + 1j * rng.normal(size=(4, 5, 3, 3))
        stacked = krein_adjoint(K, A)
        assert stacked.shape == A.shape
        for index in np.ndindex(4, 5):
            np.testing.assert_array_equal(stacked[index], krein_adjoint(K, A[index]))


class TestAdjointAgainstSolve:
    """krein_adjoint multiplies by the cached G^{-1}; the twin solves with G."""

    @pytest.mark.parametrize("n", [2, 5, 9])
    @pytest.mark.parametrize("condition", [1e2, 1e5, 1e8])
    def test_random_hermitian_grams(self, n, condition):
        rng = np.random.default_rng(int(n * np.log10(condition)))
        for _ in range(20):
            U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            eigs = np.logspace(0, -np.log10(condition), n) * rng.choice([-1.0, 1.0], n)
            K = make_krein((U * eigs) @ U.conj().T)
            A = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
            want = krein_adjoint_solve(K, A)
            assert np.max(np.abs(krein_adjoint(K, A) - want)) \
                <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("signature", [(1, 1), (3, 2), (1, 8), (0, 4)])
    def test_sign_diagonal_grams_bit_for_bit(self, signature):
        K = make_krein(np.diag([1.0] * signature[0] + [-1.0] * signature[1]))
        rng = np.random.default_rng(sum(signature))
        A = rng.normal(size=(6, K.dim, K.dim)) + 1j * rng.normal(size=(6, K.dim, K.dim))
        assert np.array_equal(krein_adjoint(K, A), krein_adjoint_solve(K, A))

    def test_inverse_is_taken_once(self):
        K = make_krein(GRAMS["mixed"])
        assert K.gram_inverse is K.gram_inverse
        np.testing.assert_allclose(K.gram_inverse @ K.gram, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("signature", [(1, 1), (2, 1), (2, 2)])
class TestInvariants:
    def gram(self, signature, rng):
        # random Hermitian with the requested inertia
        n = sum(signature)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Qm, _ = np.linalg.qr(M)
        diag = np.array([1.0] * signature[0] + [-1.0] * signature[1])
        return Qm @ np.diag(diag * rng.uniform(0.5, 2.0, size=n)) @ Qm.conj().T

    def test_involution_and_antimultiplicativity(self, signature):
        rng = np.random.default_rng(sum(signature))
        K = make_krein(self.gram(signature, rng))
        n = K.dim
        for _ in range(50):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert np.max(np.abs(krein_adjoint(K, krein_adjoint(K, A)) - A)) < 1e-10
            lhs = krein_adjoint(K, A @ B)
            rhs = krein_adjoint(K, B) @ krein_adjoint(K, A)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_wick_rotation_positive(self, signature):
        rng = np.random.default_rng(10 + sum(signature))
        K = make_krein(self.gram(signature, rng))
        J = fundamental_symmetry(K)
        W = wick_rotate(K, J)
        np.testing.assert_allclose(W, W.conj().T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh((W + W.conj().T) / 2)) > 0
        for _ in range(100):
            u = rng.normal(size=K.dim) + 1j * rng.normal(size=K.dim)
            assert (np.conj(u) @ W @ u).real > 0

    def test_selfadjointness_detection(self, signature):
        rng = np.random.default_rng(20 + sum(signature))
        K = make_krein(self.gram(signature, rng))
        A = rng.normal(size=(K.dim, K.dim)) + 1j * rng.normal(size=(K.dim, K.dim))
        sym = A + krein_adjoint(K, A)
        assert is_krein_selfadjoint(K, sym)
        assert not is_krein_selfadjoint(K, sym + np.eye(K.dim) * 1j)


class TestNullToySelfadjointness:
    def test_nilpotent_charge_selfadjoint_in_null_basis(self):
        K = make_krein(SWAP)
        Q = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert is_krein_selfadjoint(K, Q)

    def test_offdiagonal_not_selfadjoint_in_minkowski(self):
        K = make_krein(np.diag([1.0, -1.0]))
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert not is_krein_selfadjoint(K, A)
        np.testing.assert_allclose(krein_adjoint(K, A), -A, atol=1e-12)


def cayley_krein_unitary(K, rng, scale=0.3):
    """Krein unitary via the Cayley transform of an anti-selfadjoint X."""
    n = K.dim
    Y = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    X = (Y - krein_adjoint(K, Y)) / 2
    return np.linalg.solve(np.eye(n) + X, np.eye(n) - X)


class TestNormEquivalence:
    def test_bounded_ratio_between_symmetries(self):
        rng = np.random.default_rng(7)
        K = make_krein(np.diag([1.0, 1.0, -1.0, -1.0]))
        J1 = fundamental_symmetry(K)
        T = cayley_krein_unitary(K, rng)
        J2 = validate_symmetry(K, T @ J1.matrix @ np.linalg.inv(T))
        W1, W2 = wick_rotate(K, J1), wick_rotate(K, J2)
        bound = np.sqrt(np.max(np.linalg.eigvalsh(W1))
                        / np.min(np.linalg.eigvalsh(W2)))
        for _ in range(200):
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            n1 = np.sqrt((np.conj(u) @ W1 @ u).real)
            n2 = np.sqrt((np.conj(u) @ W2 @ u).real)
            assert n1 <= bound * n2 * (1 + 1e-12)
