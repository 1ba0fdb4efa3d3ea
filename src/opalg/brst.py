"""Graded matrix algebras with a nilpotent charge and their quotients.

The ambient field algebra at desk scale is the full matrix algebra of a
finite-dimensional Krein space whose basis vectors carry integer ghost
numbers.  A validated charge Q (nilpotent, Krein self-adjoint, raising the
ghost number by one) induces the graded derivation s(F) = QF - (-1)^d FQ,
the physical quotient ker Q mod im Q with its positive inner product, two
observable-algebra quotients, and an order-by-order verifier for
one-parameter deformations of Q.  Quotients are checked through the
structure of Q and s (Krein self-adjointness, Leibniz rule).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .krein import KreinSpace, krein_adjoint, make_krein
from .series import (FormalSeries, _blocks, _cauchy, _positive_columns, _require_finite,
                     _roundtrip_defects)

__all__ = [
    "GhostGradedSpace",
    "BRSTStructure",
    "BRSTQuotient",
    "ObservableAlgebra",
    "DeformedBRST",
    "DeformationReport",
    "NonHomogeneousError",
    "NotNilpotentError",
    "NotKreinSelfAdjointError",
    "GradeViolationError",
    "PositivityViolatedError",
    "NullNotExactError",
    "NotObservableError",
    "LiftObstructionError",
    "PositivityViolatedAtOrderError",
    "make_graded_space",
    "operator_grade",
    "validate_brst",
    "physical_space",
    "observable_algebra",
    "validate_deformation",
    "deform_check",
    "deformation_generators",
    "null_pair_toy",
    "gupta_bleuler_toy",
    "two_pair_model",
]

RANK_TOL = 1e-10
# relative residual of an order-by-order solve; deform_check's bound is its root
LIFT_TOL = 1e-9


class NonHomogeneousError(ValueError):
    """Operator does not shift every basis grade by the same amount."""


class NotNilpotentError(ValueError):
    pass


class NotKreinSelfAdjointError(ValueError):
    pass


class GradeViolationError(ValueError):
    pass


class PositivityViolatedError(ValueError):
    """A kernel vector has negative norm (condition (i) fails)."""


class NullNotExactError(ValueError):
    """A null kernel vector is not in the image (condition (ii) fails)."""


class NotObservableError(ValueError):
    pass


class LiftObstructionError(RuntimeError):
    """Order-by-order linear solve hit an unsolvable order."""

    def __init__(self, order: int, residual: float, what: str):
        self.order = order
        self.residual = residual
        super().__init__(f"{what} equation unsolvable at order {order} "
                         f"(residual {residual:.3e})")


class PositivityViolatedAtOrderError(RuntimeError):
    def __init__(self, order: Optional[int]):
        self.order = order
        super().__init__(f"formal positivity fails at order {order}")


# ---------------------------------------------------------------------------
# graded spaces and operators


class GhostGradedSpace(NamedTuple):
    krein: KreinSpace
    ghost_grades: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.krein.dim

    def parities(self) -> np.ndarray:
        return np.asarray(self.ghost_grades) % 2


def make_graded_space(gram, ghost_grades: Sequence[int]) -> GhostGradedSpace:
    K = make_krein(gram)
    grades = tuple(int(g) for g in ghost_grades)
    if len(grades) != K.dim:
        raise ValueError(f"need {K.dim} ghost numbers, got {len(grades)}")
    return GhostGradedSpace(krein=K, ghost_grades=grades)


def operator_grade(space: GhostGradedSpace, matrix) -> Optional[int]:
    """Ghost shift of a homogeneous matrix; None for the zero matrix.

    Entries at most RANK_TOL times the largest count as zero; raises
    NonHomogeneousError when the others disagree on the shift.
    """
    M = np.abs(np.asarray(matrix, dtype=complex))
    g = np.asarray(space.ghost_grades)
    shifts = g[:, None] - g[None, :]
    present = set(shifts[M > RANK_TOL * np.max(M, initial=0.0)].tolist())
    if not present:
        return None
    if len(present) > 1:
        raise NonHomogeneousError(f"entries carry ghost shifts {sorted(present)}")
    return present.pop()


def _raise_first(stages: Sequence[Dict[int, Exception]]):
    """Raise the failure of the lowest failing column.

    Each stage maps columns to the error one check found, and the stages
    come in the order a single column runs its checks, so the column's
    first failure is raised, as a sample-by-sample loop would.
    """
    first: Dict[int, Exception] = {}
    for stage in stages:
        for col, err in stage.items():
            first.setdefault(col, err)
    if first:
        raise first[min(first)]


# ---------------------------------------------------------------------------
# BRST structure and derivation


class BRSTStructure:
    """A validated charge Q on a graded space; its one decomposition, and
    what is read off it, is taken on first use and kept, read-only, as one
    structure may serve many callers."""

    def __init__(self, space: GhostGradedSpace, Q: np.ndarray):
        self.space, self.Q = space, Q

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def _quotient(self) -> "BRSTQuotient":
        """physical_space; a failing check is raised again on every
        access, since nothing is cached then."""
        return _physical_space(self)

    @cached_property
    def _hodge(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U, 1 / (d_i + d_j) (0 on harmonic pairs) and the sign of each
        column, from one eigh per ghost degree of Q Q^H - Q^H Q = U diag(e)
        U^H, so column i of U has the degree of basis vector i.  As Q^2 = 0
        the two terms have orthogonal ranges: U diagonalizes Delta_Q = Q Q^H
        + Q^H Q with d = |e|, and a column is exact (sign 1) for e > 0,
        coexact (sign -1) for e < 0 and harmonic (sign 0) at d <= RANK_TOL
        max d, an SVD cut near 1e-5, free of the scale of Q.  As Q is odd,
        s s^H + s^H s maps F to Delta_Q F + F Delta_Q (Kuenneth): s has
        squared singular values d_i + d_j on the u_i u_j^H, harmonic where
        u_i and u_j are."""
        Q, grades = self.Q, np.asarray(self.space.ghost_grades)
        signed = Q @ Q.conj().T - Q.conj().T @ Q
        U, e = np.zeros_like(signed), np.zeros(self.dim)
        for g in set(self.space.ghost_grades):
            idx = np.flatnonzero(grades == g)
            block = np.ix_(idx, idx)
            e[idx], U[block] = np.linalg.eigh(signed[block])
        d = np.abs(e)
        harmonic = d <= RANK_TOL * np.max(d, initial=0.0)
        pairs = d[:, None] + d[None, :]
        inverse = np.divide(1.0, pairs, out=np.zeros_like(pairs),
                            where=~(harmonic[:, None] & harmonic))
        return _read_only((U, inverse, np.where(harmonic, 0.0, np.sign(e))))

    @cached_property
    def _pinv(self) -> np.ndarray:
        """Pseudo-inverse of Q, Q^H Delta_Q^+, as Delta_Q commutes with Q;
        Delta_Q^+ = U diag(1 / d) U^H off the harmonic columns."""
        U, inverse, _ = self._hodge
        pinv = self.Q.conj().T @ (U * (2 * np.diagonal(inverse))) @ U.conj().T
        pinv.setflags(write=False)
        return pinv


def _read_only(arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def validate_brst(space: GhostGradedSpace, Q) -> BRSTStructure:
    """Check Q^2 = 0, Krein self-adjointness and ghost shift +1, each relative
    to the scale of Q (Q^2 to max|Q|^2), so every multiple of Q shares a verdict."""
    Q = np.asarray(Q, dtype=complex)
    _require_finite(Q, "Q")
    n = space.dim
    if Q.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {Q.shape}")
    scale = _max_abs(Q)
    if _max_abs(Q @ Q) > RANK_TOL * scale ** 2:
        raise NotNilpotentError("Q^2 != 0")
    _check_charge(space, Q, scale, "Q")
    Q = Q.copy()
    Q.setflags(write=False)
    return BRSTStructure(space=space, Q=Q)


def _check_charge(space: GhostGradedSpace, Q: np.ndarray, scale: float, what: str):
    """Krein self-adjointness of Q to RANK_TOL * scale, and ghost shift +1."""
    if _max_abs(Q - krein_adjoint(space.krein, Q)) > RANK_TOL * scale:
        raise NotKreinSelfAdjointError(f"{what} is not Krein self-adjoint")
    try:
        shift = operator_grade(space, Q)
    except NonHomogeneousError as exc:
        raise GradeViolationError(f"{what}: {exc}") from exc
    if shift is not None and shift != 1:
        raise GradeViolationError(f"{what} shifts ghost number by {shift}, not 1")


def _same_parity(space: GhostGradedSpace) -> np.ndarray:
    """Mask of the matrix entries that an even operator may fill."""
    par = space.parities()
    return par[:, None] == par[None, :]


# ---------------------------------------------------------------------------
# physical quotient


class BRSTQuotient(NamedTuple):
    ker_basis: np.ndarray      # n x k, orthonormal columns
    im_basis: np.ndarray       # n x r, orthonormal columns
    quotient_reps: np.ndarray  # n x (k - r), orthonormal harmonic columns
    induced_gram: np.ndarray   # (k - r) x (k - r), positive definite

    @property
    def dim(self) -> int:
        return self.quotient_reps.shape[1]


def physical_space(B: BRSTStructure) -> BRSTQuotient:
    """Kernel, image, quotient representatives and the induced product.

    All three are columns of the structure's U: the exact and harmonic
    ones, the exact ones, and the harmonic ones, orthonormal and orthogonal
    to the image.  As Q is Krein self-adjoint, im Q is G-orthogonal to
    ker Q, so on ker Q the product is the induced one plus zero on im Q:
    an induced eigenvalue below -RANK_TOL is a negative kernel vector
    (PositivityViolatedError), one within RANK_TOL of 0 a null vector off
    the image (NullNotExactError).  The quotient is built once per
    structure; its arrays are read-only.
    """
    return B._quotient


def _physical_space(B: BRSTStructure) -> BRSTQuotient:
    G = B.space.krein.gram
    U, _, sign = B._hodge
    ker, im, reps = (U[:, m] for m in (sign >= 0, sign > 0, sign == 0))
    gram = reps.conj().T @ G @ reps
    gram = (gram + gram.conj().T) / 2
    low = float(np.min(np.linalg.eigvalsh(gram), initial=np.inf))
    if low < -RANK_TOL:
        raise PositivityViolatedError(f"kernel vector of norm {low:.3e} found")
    if low <= RANK_TOL:
        raise NullNotExactError(f"null kernel vector outside the image (norm {low:.3e})")
    _read_only((ker, im, reps, gram))
    return BRSTQuotient(ker_basis=ker, im_basis=im,
                        quotient_reps=reps, induced_gram=gram)


# ---------------------------------------------------------------------------
# observable algebras


class ObservableAlgebra(NamedTuple):
    variant: str
    factors: np.ndarray                   # n x n, the structure's U, read-only
    pairs: Tuple[np.ndarray, np.ndarray]  # the K column pairs (i, j), read-only

    @property
    def quotient_dim(self) -> int:
        return len(self.pairs[0])


def observable_algebra(B: BRSTStructure, variant: str) -> ObservableAlgebra:
    """Quotient ker s mod im s of the ambient matrix algebra, represented by
    the harmonic operators u_i u_j^H of the structure's Hodge decomposition,
    held as factors: all of them for "full", the even ones for "even_ghost".
    _verify_closure certifies closure under products and adjoints."""
    if variant not in ("even_ghost", "full"):
        raise ValueError(f"unknown variant {variant!r}")
    U, inverse, _ = B._hodge
    keep = inverse == 0
    if variant == "even_ghost":
        keep &= _same_parity(B.space)
    i, j = _read_only(np.nonzero(keep))
    _verify_closure(B, U, i, j, full=variant == "full")
    return ObservableAlgebra(variant=variant, factors=U, pairs=(i, j))


def _floor(B: BRSTStructure, full: bool) -> float:
    """Least positive singular value of s (full) or of s on the even
    operators: the root of the least non-harmonic d_i + d_j (over the
    equal-parity pairs if not full), inf where s is 0."""
    inverse = B._hodge[1]
    top = float(np.max(inverse if full else inverse[_same_parity(B.space)], initial=0.0))
    return top ** -0.5 if top else np.inf


def _verify_closure(B: BRSTStructure, V: np.ndarray, i: np.ndarray, j: np.ndarray, full: bool):
    """Certify closure of the operators v_i v_j^H, V of unit columns, from V.

    They should lie in T = ker s (full) or T = ker s_0 (s on the even
    operators); for harmonic columns their classes, and those of their
    products and adjoints, then lie in the quotient (im s is not examined).
    With sigma = _floor, dist(X, T) <= d(X) = |s(X)| / sigma, where s(a b^H)
    = (Q a) b^H - (Sigma a)(Q^H Sigma b)^H, and as s(ab) = s(a) b + Gamma(a)
    s(b), Gamma(F) = Sigma F Sigma, a_i a_j lies within 2 max d(a_i) of T:
    at most sqrt(RANK_TOL), the pairwise bound, certifies products.  If
    full, each Krein adjoint (G^-1 v_j)(G v_i)^H must pass too (its terms
    vanish on harmonic columns as Q^H G = G Q).  If not, the representatives
    act on the physical quotient as the matrix units E_ab of equal parity,
    closed under the induced adjoint H^-1 E_ba H exactly when H couples no
    even class to an odd one: the largest such cosine in H, the norm of L^-1
    H_mixed L^-H for L L^H the parity blocks of H, must be at most
    sqrt(RANK_TOL), whatever the scale and basis of each parity.  Without a
    nonzero physical quotient that test is void.
    """
    Q, krein, sigma = B.Q, B.space.krein, _floor(B, full)
    sign = np.where(B.space.parities(), -1.0, 1.0)[:, None]  # Sigma

    def distance(A, C, p, q):  # d(a_p c_q^H) for the columns of A and C
        qa, na, nc, qc = np.linalg.norm([Q @ A, A, C, Q.conj().T @ (sign * C)], axis=1)
        return (qa[p] * nc[q] + na[p] * qc[q]) / sigma

    bound = np.sqrt(RANK_TOL)
    eps = 2 * _max_abs(distance(V, V, i, j))
    if eps > bound:
        raise NotObservableError(f"kernel not closed under products (bound {eps:.3e})")
    if full:
        miss = _max_abs(distance(krein.gram_inverse @ V, krein.gram @ V, j, i))
    else:
        try:
            H = physical_space(B).induced_gram
        except (PositivityViolatedError, NullNotExactError):
            return
        parity = B.space.parities()[B._hodge[2] == 0]
        same = parity[:, None] == parity
        L = np.linalg.cholesky(np.where(same, H, 0))
        miss = _max_abs(np.linalg.eigvalsh(
            np.linalg.solve(L, np.linalg.solve(L, np.where(same, 0, H)).conj().T)))
    if miss > bound:
        raise NotObservableError(f"{'kernel' if full else 'represented quotient'} not "
                                 f"closed under the adjoint (bound {miss:.3e})")


# ---------------------------------------------------------------------------
# deformations


class DeformedBRST(NamedTuple):
    base: BRSTStructure
    Q_series: FormalSeries

    @property
    def order(self) -> int:
        return self.Q_series.order


def validate_deformation(base: BRSTStructure, Q_series: FormalSeries) -> DeformedBRST:
    """Order-by-order nilpotency, self-adjointness and grading of the charge,
    each relative to the largest coefficient entry (the square to its
    square), so every multiple of the series shares a verdict."""
    _require_finite(Q_series.coeffs, "the charge series")
    if Q_series.shape != base.Q.shape:
        raise ValueError(f"charge coefficients have shape {Q_series.shape}, "
                         f"the undeformed charge {base.Q.shape}")
    scale = _max_abs(Q_series.coeffs)
    if _max_abs(Q_series.coeffs[0] - base.Q) > RANK_TOL * scale:
        raise ValueError("leading coefficient must equal the undeformed charge")
    square = _cauchy(_nonzero(Q_series.coeffs), Q_series.coeffs)
    for n, coeff in enumerate(square):
        if _max_abs(coeff) > RANK_TOL * scale ** 2:
            raise NotNilpotentError(f"square of the charge is nonzero at order {n}")
    for n, Qn in enumerate(Q_series.coeffs):
        _check_charge(base.space, Qn, scale, f"coefficient {n}")
    return DeformedBRST(base=base, Q_series=Q_series)


def _formal_norms(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Formal norms (X, X) of jets X, column by column: an (N+1, S) array."""
    Xc, GX = X.conj(), G @ X
    return np.stack([np.einsum("kis,kis->s", Xc[:m + 1], GX[m::-1]) for m in range(len(X))])


# A jet is a formal vector truncated at the order N of the charge: its N+1
# coefficients stacked in an (N+1, n, S) array, one sample per column.


def _nonzero(Qs: np.ndarray) -> np.ndarray:
    """The coefficient stack Qs up to its last nonzero coefficient, Q0 at
    least; a NaN counts as nonzero."""
    live = np.flatnonzero(Qs.reshape(len(Qs), -1).any(axis=1))
    return Qs[:max(live, default=0) + 1]


def _forward(Qs: np.ndarray, pinv: np.ndarray, Z=None, Y=None):
    """Jets X solved order by order, by forward substitution through the
    block lower-triangular Toeplitz charge: X_m = Z_m + pinv r_m, with r_m =
    Y_m - sum_{k=1..min(m,K)} Q_k X_{m-k} for Qs = Q_0..Q_K.  A lift has Y =
    0, Z its seed and kernel noise, and keeps X_0 = Z_0; the minimum-norm
    solve of Q~ X = Y has Z = 0.  Returns X, the residual Q0 X_m - r_m, and
    per order the failure of each column whose residual exceeds LIFT_TOL
    relative to r_m: a LiftObstructionError, or at a lift's order 0 a seed
    off the kernel of Q0, relative to X_0."""
    lifting = Y is None
    X = np.array(Z) if lifting else np.zeros_like(Y)
    r = np.zeros_like(X) if lifting else np.array(Y)
    for m in range(len(X)):
        for k in range(1, min(m + 1, len(Qs))):
            r[m] -= Qs[k] @ X[m - k]
        if m or not lifting:  # not pinv 0 at a lift's order 0: NaN for a non-finite pinv
            X[m] += pinv @ r[m]
    res = Qs[0] @ X - r
    miss, rhs = np.linalg.norm(res, axis=1), np.linalg.norm(r, axis=1)
    if lifting:
        rhs[0] = np.linalg.norm(X[0], axis=0)
    what = "lift" if lifting else "image membership"
    stages: List[Dict[int, Exception]] = [{} for _ in miss]
    for m, j in zip(*np.nonzero(miss > LIFT_TOL * np.maximum(1.0, rhs))):
        stages[m][int(j)] = (LiftObstructionError(int(m), float(miss[m, j]), what)
                             if m or not lifting else
                             ValueError("phi0 is not in the kernel of the undeformed charge"))
    return X, res, stages


def _draw_jets(rng: np.random.Generator, size: int, L: int, dim: int) -> np.ndarray:
    """`size` random jets of `dim` complex coordinates per order: drawn per
    sample and order, the real parts, then the imaginary parts."""
    draws = rng.normal(size=(size, L, 2, dim))
    return (draws[:, :, 0] + 1j * draws[:, :, 1]).transpose(1, 2, 0)


def _scale(D: DeformedBRST) -> float:
    """The largest coefficient entry of the charge series, the scale of
    validate_deformation, or 1 for the zero series."""
    return _max_abs(D.Q_series.coeffs) or 1.0


def _max_abs(a: np.ndarray) -> float:
    # np.max keeps a NaN wherever it stands, where max() may drop it
    return float(np.max(np.abs(a), initial=0.0))


class DeformationReport(NamedTuple):
    """Order-by-order verification record for the four stability items."""

    order: int
    samples: int
    positivity_worst_defect: float
    null_vectors_checked: int
    null_membership_residual: float
    lifted_kernel_dim: int
    lift_residual: float
    observables_checked: int
    items_passed: Tuple[bool, bool, bool, bool]

    @property
    def all_passed(self) -> bool:
        return all(self.items_passed)


def deform_check(D: DeformedBRST, samples: int,
                 rng: np.random.Generator) -> DeformationReport:
    """Verify the four stability items of the deformed quotient.

    (i)   formal positivity of (phi~, phi~) for sampled deformed kernel
          vectors, by the series square root (relative round-trip defect);
    (ii)  sampled null formal vectors of the deformed kernel lie in the
          formal image of the deformed charge;
    (iii) every base kernel vector lifts order by order, and the lift
          annihilates the deformed charge on re-substitution;
    (iv)  deformed observables with a nonzero undeformed class act
          nontrivially on the deformed quotient.

    Item (iv) follows from item (iii).  Its premise: every coefficient of
    the series is Krein self-adjoint, as validate_deformation ensures, so
    Q~^H G = G Q~.  For harmonic u_a, u_b of equal parity, u_a and G^-1 u_b
    lie in ker Q (Q^H u_b = 0 and Q^H G = G Q), so both lift, to a~ and c~.
    As s~(a b^H) = (Q~ a) b^H - a (Q~^H b)^H on even operators, a~ (G c~)^H
    lies in ker s~; it starts with u_a u_b^H, which acts on the physical
    quotient as the matrix unit E_ab.  So every even-ghost quotient-basis
    observable lifts and acts nontrivially, and item (iv) counts them; it
    fails when the physical quotient is zero (null_pair_toy), as then there
    is no observable to count.
    The items are decided on the charge series divided by its largest
    coefficient entry, so every multiple of the series shares a verdict.
    Samples are drawn and checked in blocks of at most series._DRAWS random
    numbers, one sample per column; the random stream and the first failure
    raised are those of drawing and checking the samples one at a time.
    """
    base = D.base
    sign = base._hodge[2]
    ker = physical_space(base).ker_basis
    n, k, L = base.dim, ker.shape[1], D.order + 1
    # the series over its scale, up to its last nonzero coefficient; scale
    # pinv is the pseudo-inverse of Q0 / scale
    scale = _scale(D)
    G, Qs, pinv = base.space.krein.gram, _nonzero(D.Q_series.coeffs) / scale, base._pinv * scale
    bound = float(np.sqrt(LIFT_TOL))

    # --- item (iii): lift a basis of the base kernel ---------------------
    seeds = np.zeros((L, n, k), dtype=complex)
    seeds[0] = ker
    lifts, res, failures = _forward(Qs, pinv, Z=seeds)
    _raise_first(failures)
    lift_res = _max_abs(res)

    # --- item (i): formal positivity on sampled kernel vectors -----------
    worst = 0.0
    for size in _blocks(samples, L * 2 * k):
        # the kernel coordinates of the seed, then of the added noise
        phi, _, failures = _forward(Qs, pinv, Z=ker @ _draw_jets(rng, size, L, k))
        norm2 = _formal_norms(G, phi)
        positive, witness, failure = _positive_columns(norm2, tol=bound)
        failures.append({int(j): PositivityViolatedAtOrderError(int(failure[j]))
                         for j in np.flatnonzero(~positive)})
        _raise_first(failures)
        worst = _max_abs([worst, _max_abs(_roundtrip_defects(witness, norm2))])

    # --- item (ii): null vectors lie in the image -------------------------
    null_res, null_checked = 0.0, 0
    for size in _blocks(samples, L * 2 * n):
        phi = _cauchy(Qs, _draw_jets(rng, size, L, n))
        nonzero = np.max(np.abs(_formal_norms(G, phi)), axis=0) > bound
        _, res, failures = _forward(Qs, pinv, Y=phi)
        _raise_first([{int(j): NullNotExactError("image vector with nonzero formal norm")
                       for j in np.flatnonzero(nonzero)}] + failures)
        null_res = _max_abs([null_res, _max_abs(res)])
        null_checked += size
    # lifts of base null vectors that stay null must also be exact: the
    # image basis is the exact part of the kernel basis, lifted in item (iii)
    phi = lifts[..., sign[sign >= 0] > 0]
    phi = phi[..., np.max(np.abs(_formal_norms(G, phi)), axis=0) <= bound]
    _, res, failures = _forward(Qs, pinv, Y=phi)
    _raise_first(failures)
    null_res = _max_abs([null_res, _max_abs(res)])
    null_checked += phi.shape[2]

    # --- item (iv): faithfulness at leading order -------------------------
    # the kernel lifts of item (iii) solved: each u_a u_b^H lifts (see above)
    tested = observable_algebra(base, "even_ghost").quotient_dim
    return DeformationReport(
        order=D.order, samples=samples, positivity_worst_defect=worst,
        null_vectors_checked=null_checked, null_membership_residual=null_res,
        lifted_kernel_dim=k, lift_residual=lift_res, observables_checked=tested,
        items_passed=(True, null_res <= bound, lift_res <= bound, tested > 0))


def deformation_generators(B: BRSTStructure) -> List[np.ndarray]:
    """Basis of first-order charge corrections compatible with the structure.

    Solves the real-linear constraints Q X + X Q = 0, X self-adjoint in the
    Krein sense, ghost shift +1.
    """
    grades = np.asarray(B.space.ghost_grades)
    allowed = np.argwhere((grades[:, None] - grades[None, :]) == 1)
    if len(allowed) == 0:
        return []
    npar = len(allowed)

    def build(x: np.ndarray) -> np.ndarray:
        """The (k, n, n) stack of the k coefficient rows x, real parts first."""
        X = np.zeros((len(x), B.dim, B.dim), dtype=complex)
        X[(slice(None), *allowed.T)] = x[:, :npar] + 1j * x[:, npar:]
        return X

    # one candidate per real coefficient, each with a single entry 1 or i
    X = build(np.eye(2 * npar))
    anti = (B.Q @ X + X @ B.Q).reshape(2 * npar, -1)
    sadj = (X - krein_adjoint(B.space.krein, X)).reshape(2 * npar, -1)
    rows = np.concatenate([anti.real, anti.imag, sadj.real, sadj.imag], axis=1)
    # the kernel of the real constraint matrix: singular values at or below
    # RANK_TOL times the largest count as zero
    s, vh = np.linalg.svd(rows.T, full_matrices=False)[1:]
    return list(build(vh[int(np.sum(s > RANK_TOL * s[0])):]))


# ---------------------------------------------------------------------------
# reference models


def _pair_model(physical: int, pairs: int) -> BRSTStructure:
    """Positive modes of ghost 0, then null pairs (ghost 1, ghost 0); Q maps
    the second vector of each pair to the first."""
    n = physical + 2 * pairs
    gram = np.eye(n)
    Q = np.zeros((n, n), dtype=complex)
    for a in range(physical, n, 2):
        gram[a:a + 2, a:a + 2] = [[0, 1], [1, 0]]
        Q[a, a + 1] = 1
    return validate_brst(make_graded_space(gram, [0] * physical + [1, 0] * pairs), Q)


def null_pair_toy() -> BRSTStructure:
    """Two-dimensional null pair: the quotient is trivial."""
    return _pair_model(0, 1)


def gupta_bleuler_toy() -> BRSTStructure:
    """One physical mode plus a null pair; the quotient is one-dimensional."""
    return _pair_model(1, 1)


def two_pair_model() -> BRSTStructure:
    """Two physical modes plus two null pairs; quotient dimension two."""
    return _pair_model(2, 2)
