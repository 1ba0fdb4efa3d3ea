"""Independent brute-force oracles for the test suite.

Everything here avoids the code paths of the package under test: linear
algebra is plain Gaussian elimination, or one SVD or least-squares solve
per question with an absolute cut (the generic BRST route), series
products go through numpy.convolve, shell sums are evaluated point by
point, grid brackets apply every generator through a zero-padded
stencil (and `grid_commutators` through stencil buffers on full n^3
arrays, the twin of the separable bracket engine), cyclotomic integers are reduced modulo Phi_N after every product,
group words are normal ordered by rewriting with the defining relations,
and the quantum-plane coaction is expanded over every choice of letters.
The last section holds references that no check of the package uses: small
constructions on its public objects that the tests compare against.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

ORACLE_TOL = 1e-10
# class coordinates and induced actions (relative)
CLASS_TOL = 1e-8


def rref(A, tol=ORACLE_TOL):
    """Reduced row echelon form with partial pivoting; returns (R, pivots)."""
    R = np.array(A, dtype=complex)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = r + int(np.argmax(np.abs(R[r:, c])))
        if abs(R[pivot_row, c]) <= tol:
            continue
        R[[r, pivot_row]] = R[[pivot_row, r]]
        R[r] = R[r] / R[r, c]
        for other in range(rows):
            if other != r and abs(R[other, c]) > 0:
                R[other] = R[other] - R[other, c] * R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A, tol=ORACLE_TOL):
    return len(rref(A, tol)[1])


def null_space(A, tol=ORACLE_TOL):
    """Nullspace basis (columns) from the row-reduced form."""
    A = np.asarray(A, dtype=complex)
    R, pivots = rref(A, tol)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=complex)
        v[f] = 1.0
        for i, p in enumerate(pivots):
            v[p] = -R[i, f]
        basis.append(v)
    return np.array(basis).T if basis else np.zeros((cols, 0), dtype=complex)


def column_space(A, tol=ORACLE_TOL):
    """Basis of the column space: pivot columns of the original matrix."""
    A = np.asarray(A, dtype=complex)
    _, pivots = rref(A, tol)
    return A[:, pivots] if pivots else np.zeros((A.shape[0], 0), dtype=complex)


def contains(span, v, tol=1e-8):
    """Whether v lies in the column span (by rank comparison)."""
    if span.shape[1] == 0:
        return float(np.linalg.norm(v)) <= tol
    return rank(np.column_stack([span, v]), tol) == rank(span, tol)


def quotient_oracle(Q, G, tol=ORACLE_TOL):
    """Kernel/image/quotient data for a nilpotent charge by row reduction.

    Returns (ker_dim, im_dim, quotient_dim, induced_gram) with quotient
    representatives chosen as the kernel basis columns independent from the
    image.
    """
    Q = np.asarray(Q, dtype=complex)
    G = np.asarray(G, dtype=complex)
    reps = quotient_reps(Q, tol)
    gram = reps.conj().T @ G @ reps
    return null_space(Q, tol).shape[1], column_space(Q, tol).shape[1], reps.shape[1], gram


def quotient_reps(Q, tol=ORACLE_TOL):
    """Kernel basis columns (row reduction) independent from the image."""
    Q = np.asarray(Q, dtype=complex)
    reps = []
    current = column_space(Q, tol)
    for v in null_space(Q, tol).T:
        if not contains(current, v):
            reps.append(v)
            current = np.column_stack([current, v])
    return np.array(reps).T if reps else np.zeros((Q.shape[0], 0), dtype=complex)


def svd_null_space(A, tol=ORACLE_TOL):
    """Orthonormal kernel basis from a fresh SVD, singular values cut at tol."""
    A = np.asarray(A, dtype=complex)
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(A)
    return vh[int(np.sum(s > tol)):].conj().T


def svd_column_space(A, tol=ORACLE_TOL):
    """Orthonormal image basis from a fresh SVD, singular values cut at tol."""
    u, s, _ = np.linalg.svd(np.asarray(A, dtype=complex))
    return u[:, :int(np.sum(s > tol))]


def physical_space_svd(Q, G, W, tol=ORACLE_TOL):
    """(ker, im, representatives, induced Gram) with one SVD per question;
    representatives are the kernel vectors W-orthogonal to the image."""
    ker, im = svd_null_space(Q, tol), svd_column_space(Q, tol)
    reps = ker @ svd_null_space(im.conj().T @ W @ ker, tol) if im.shape[1] else ker
    gram = reps.conj().T @ G @ reps
    return ker, im, reps, (gram + gram.conj().T) / 2


def observable_dims_svd(Q, grades, variant, tol=ORACLE_TOL):
    """(ker, im, quotient) dimensions of s on the whole operator space
    ("full") or on its even-ghost part ("even_ghost"), from SVDs of the
    loop-built derivation matrix."""
    S = super_commutator_matrix(Q, grades)
    if variant == "full":
        ker, im = svd_null_space(S, tol), svd_column_space(S, tol)
    else:
        g = np.asarray(grades)
        parity = ((g[:, None] - g[None, :]) % 2).ravel()
        coeff = svd_null_space(S[:, parity == 0], tol)
        ker = np.zeros((S.shape[1], coeff.shape[1]), dtype=complex)
        ker[parity == 0] = coeff
        im = svd_column_space(S[:, parity == 1], tol)
    quot = ker @ svd_null_space(im.conj().T @ ker, tol) if im.shape[1] else ker
    return ker.shape[1], im.shape[1], quot.shape[1]


def derivation_svd(Q, grades, variant, tol=ORACLE_TOL):
    """The SVD route to s: one SVD of the loop-built derivation matrix on
    the whole operator space ("full") or on its even-ghost part
    ("even_ghost").  Returns the orthonormal kernel as (K, n, n) operators
    and the smallest singular value above tol (inf if there is none)."""
    n = len(grades)
    S = super_commutator_matrix(Q, grades)
    g = np.asarray(grades)
    cols = np.ones(n * n, dtype=bool) if variant == "full" \
        else ((g[:, None] - g[None, :]) % 2).ravel() == 0
    _, s, vh = np.linalg.svd(S[:, cols])
    rank_ = int(np.sum(s > tol))
    ker = np.zeros((n * n, int(cols.sum()) - rank_), dtype=complex)
    ker[cols] = vh[rank_:].conj().T
    return ker.T.reshape(-1, n, n), float(s[rank_ - 1]) if rank_ else np.inf


def s_preimage_svd(Q, grades, R, tol=ORACLE_TOL):
    """Minimum-norm X with s(X) closest to R, from the pseudo-inverse of the
    loop-built derivation matrix, singular values cut at tol relative to
    the largest."""
    S = super_commutator_matrix(Q, grades)
    return (np.linalg.pinv(S, rtol=tol) @ np.ravel(R)).reshape(np.shape(R))


def deformation_generators_loop(B):
    """brst.deformation_generators with one unit candidate built at a time:
    the twin of the stacked build, on the package's constraint rows and cut."""
    from opalg.brst import RANK_TOL
    from opalg.krein import krein_adjoint
    grades = np.asarray(B.space.ghost_grades)
    allowed = np.argwhere((grades[:, None] - grades[None, :]) == 1)
    if len(allowed) == 0:
        return []
    npar = len(allowed)

    def build(x):
        X = np.zeros((B.dim, B.dim), dtype=complex)
        X[tuple(allowed.T)] = x[:npar] + 1j * x[npar:]
        return X

    rows = []
    for e in np.eye(2 * npar):
        X = build(e)
        anti = (B.Q @ X + X @ B.Q).ravel()
        sadj = (X - krein_adjoint(B.space.krein, X)).ravel()
        rows.append(np.concatenate([anti.real, anti.imag, sadj.real, sadj.imag]))
    s, vh = np.linalg.svd(np.array(rows).T, full_matrices=False)[1:]
    return [build(x) for x in vh[int(np.sum(s > RANK_TOL * s[0])):]]


def physical_space_three_step(ker, im, G, W, tol=ORACLE_TOL):
    """The three separate checks that once decided the physical quotient:
    the product restricted to the kernel has no eigenvalue below -tol, its
    null eigenvectors lie in the image, and the product induced on the
    W-orthogonal representatives is positive definite.  Raises the
    package's errors, as brst.physical_space does."""
    from opalg import brst

    restricted = ker.conj().T @ G @ ker
    eigs, vecs = np.linalg.eigh((restricted + restricted.conj().T) / 2)
    if np.any(eigs < -tol):
        raise brst.PositivityViolatedError(f"kernel vector of norm {eigs.min():.3e} found")
    null = ker @ vecs[:, np.abs(eigs) <= tol]
    res = np.linalg.norm(null - im @ (im.conj().T @ null), axis=0)
    if np.any(res > np.sqrt(tol)):
        raise brst.NullNotExactError(f"null kernel vector misses the image by {res.max():.3e}")
    reps = ker @ svd_null_space(im.conj().T @ W @ ker, tol) if im.shape[1] else ker
    gram = reps.conj().T @ G @ reps
    if reps.shape[1] and np.min(np.linalg.eigvalsh((gram + gram.conj().T) / 2)) <= tol:
        raise brst.PositivityViolatedError("induced product is not positive definite")


def _off_span(ops, basis_ops):
    """Frobenius norm of each operator's component off the span of the
    orthonormal operators basis_ops."""
    rows = ops.reshape(len(ops), -1)
    basis = basis_ops.reshape(len(basis_ops), -1).T
    return np.linalg.norm(rows - (rows @ basis.conj()) @ basis.T, axis=1)


def product_closure_pairwise(ker_ops, tol=ORACLE_TOL):
    """Every product a_i a_j of the orthonormal kernel basis, projected off
    its span: NotObservableError above sqrt(tol)."""
    from opalg import brst

    for a in ker_ops:
        if np.any(_off_span(a @ ker_ops, ker_ops) > np.sqrt(tol)):
            raise brst.NotObservableError("kernel not closed under products")


def adjoint_closure_pairwise(G, ker_ops, tol=ORACLE_TOL):
    """Every Krein adjoint G^-1 a^H G of the kernel basis, projected off its
    span: NotObservableError above sqrt(tol)."""
    from opalg import brst

    adjoints = np.array([np.linalg.inv(G) @ a.conj().T @ G for a in ker_ops])
    if np.any(_off_span(adjoints, ker_ops) > np.sqrt(tol)):
        raise brst.NotObservableError("kernel not closed under the adjoint")


def represented_star_closure(B, reps, tol=ORACLE_TOL):
    """The even-ghost quotient, represented on the physical space, must be
    closed under the adjoint of the induced (positive) product; nothing is
    checked where there is no nonzero physical quotient.  The represented
    matrices are read in coordinates orthonormal for the induced product H
    = L L^H, M -> L^H M L^-H, where the adjoint is the conjugate transpose,
    so the verdict does not depend on the basis of the representatives."""
    from opalg import brst

    try:
        quotient = brst.physical_space(B)
    except (brst.PositivityViolatedError, brst.NullNotExactError):
        return
    if quotient.dim == 0 or not len(reps):
        return
    mats = np.array([representation_matrix(B, quotient, GradedOperator(A0, 0))
                     for A0 in reps])
    Lh = np.linalg.cholesky(quotient.induced_gram).conj().T
    mats = Lh @ mats @ np.linalg.inv(Lh)
    span, targets = (m.reshape(len(mats), -1).T
                     for m in (mats, mats.conj().transpose(0, 2, 1)))
    coeffs = np.linalg.lstsq(span, targets, rcond=None)[0]
    res = np.linalg.norm(span @ coeffs - targets, axis=0)
    if np.any(res > np.sqrt(tol) * np.maximum(1.0, np.linalg.norm(targets, axis=0))):
        raise brst.NotObservableError("represented quotient not closed under the adjoint")


def closure_pairwise(B, ker_ops, reps=None, tol=ORACLE_TOL):
    """brst._verify_closure by brute force: the pairwise products, then the
    pairwise adjoints (given no reps, the full variant) or the
    represented adjoints of reps (the even-ghost variant)."""
    product_closure_pairwise(ker_ops, tol)
    if reps is None:
        adjoint_closure_pairwise(B.space.krein.gram, ker_ops, tol)
    else:
        represented_star_closure(B, reps, tol)


def closure_certificate_dense(B, ops, full):
    """The dense closure certificate that brst._verify_closure replaced,
    from one application of s per operator and per adjoint.

    ops (K, n, n), of unit Frobenius norm, should lie in T = ker s (full)
    or T = ker s_0 (s on the even operators).  For the harmonic
    representatives this certifies that they, their products and their
    adjoints have classes in the quotient; im s is not examined.  With sigma
    = _floor, the part of X off T has orthogonal images under s, so
    dist(X, T) <= d(X) = |s(X)| / sigma, the odd part of X added in
    quadrature if not full.  s(ab) = s(a) b + Gamma(a) s(b), Gamma(F) =
    Sigma F Sigma, and operator norms are at most the unit Frobenius norms,
    so a_i a_j lies within 2 max d(a_i) of T: at most sqrt(RANK_TOL), the
    pairwise bound, certifies products.  s commutes with the Krein adjoint
    up to a sign only for a Gram matrix that keeps parity, which the
    reference models' does not, so d(A_i) <= sqrt(RANK_TOL) is asked of each
    adjoint A_i.  If not full, the odd part P of A_i may be exact: |P -
    s(s_preimage(P))| replaces its norm, as pi(A)^* = pi(A^+) on the
    physical quotient and im s acts there as zero.  Without a nonzero
    physical quotient that test is void.
    """
    from opalg import brst
    from opalg.krein import krein_adjoint

    same, sigma = brst._same_parity(B.space), brst._floor(B, full)

    def distance(X: np.ndarray, exact: bool) -> np.ndarray:
        moved = s_action(B, X)
        if full:
            return np.linalg.norm(moved, axis=(1, 2)) / sigma
        part = np.where(same, 0, X)
        if exact:
            part = part - s_action(B, s_preimage(B, part))
        return np.hypot(np.linalg.norm(np.where(same, 0, moved), axis=(1, 2)) / sigma,
                        np.linalg.norm(part, axis=(1, 2)))

    bound = np.sqrt(brst.RANK_TOL)
    eps = 2 * float(np.max(distance(ops, exact=False), initial=0.0))
    if eps > bound:
        raise brst.NotObservableError(f"kernel not closed under products (bound {eps:.3e})")
    if not full:
        try:
            if brst.physical_space(B).dim == 0:
                return
        except (brst.PositivityViolatedError, brst.NullNotExactError):
            return
    miss = float(np.max(distance(krein_adjoint(B.space.krein, ops), exact=True),
                        initial=0.0))
    if miss > bound:
        raise brst.NotObservableError(f"kernel not closed under the adjoint (bound {miss:.3e})")


def lstsq_series_solve(charges, targets, first=None):
    """Order by order, x_n = the least-squares solution of
    Q_0 x_n = t_n - sum_{k>=1} Q_k x_{n-k}; with first given, x_0 = first
    and the solve starts at order 1.  Returns the solutions and the worst
    residual."""
    xs = [] if first is None else [np.asarray(first, dtype=complex)]
    worst = 0.0
    for n in range(len(xs), len(targets)):
        rhs = targets[n] - sum(charges[k] @ xs[n - k]
                               for k in range(1, min(n, len(charges) - 1) + 1))
        x = np.linalg.lstsq(charges[0], rhs, rcond=None)[0]
        worst = max(worst, float(np.linalg.norm(charges[0] @ x - rhs)))
        xs.append(x)
    return xs, worst


def series_product_coeffs(a, b, order):
    """Scalar Cauchy product through numpy.convolve, truncated."""
    conv = np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    return conv[: order + 1]


def series_mul_reference(a, b):
    """The Cauchy product of two coefficient stacks, truncated at the shorter,
    by the double loop over orders: one coefficient product at a time,
    scalars by *, arrays by @, summed left to right.  The twin of
    `series._cauchy`, which must give the same values bit for bit."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)

    def times(x, y):
        return x * y if not (x.ndim and y.ndim) else x @ y
    out = []
    for n in range(min(len(a), len(b))):
        acc = times(a[0], b[n])
        for k in range(1, n + 1):
            acc = acc + times(a[k], b[n - k])
        out.append(acc)
    return np.array(out)


def super_commutator_matrix(Q, grades):
    """Matrix of F -> QF - (-1)^{|F|} FQ on the operator space, by loops."""
    n = Q.shape[0]
    grades = np.asarray(grades)
    cols = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            sign = -1.0 if (grades[i] - grades[j]) % 2 else 1.0
            cols.append((Q @ E - sign * E @ Q).ravel())
    return np.array(cols).T


def direct_shell_sum(points, weights, energies, values, xs, t):
    """Pointwise restricted transform sum, no vectorization tricks."""
    out = np.zeros(len(xs), dtype=complex)
    for k, x in enumerate(xs):
        acc = 0.0 + 0.0j
        for p, w, e, v in zip(points, weights, energies, values):
            acc += w * v * np.exp(1j * (p @ x - e * t))
        out[k] = acc
    return (2.0 * np.pi) ** -1.5 * out


def gaussian_values_reference(points, width, radius):
    """The values of the Gaussians centred on the +/- coordinate axes at the
    given radius, exp(-|p - c|^2 / (2 width^2)) from each point's distance."""
    centers = [np.zeros(3)] if radius == 0 else [
        sign * radius * e for e in np.eye(3) for sign in (+1.0, -1.0)]
    return [np.exp(-np.sum((points - c) ** 2, axis=1) / (2.0 * width ** 2))
            for c in centers]


def shell_norm_sq(f):
    """Quadrature norm sum w |f(p)|^2 of a shell function."""
    return float(np.sum(f.shell.weights * np.abs(f.values) ** 2))


def slice_norm_sq(values, grid):
    """Quadrature norm sum |psi(x)|^2 dx^3 of slice values on `grid`."""
    return float(np.sum(np.abs(values) ** 2) * grid.spacing ** 3)


def _padded_difference(psi, axis, h):
    """Central difference with explicit zeros padded beyond both faces."""
    width = [(0, 0)] * psi.ndim
    width[axis] = (1, 1)
    padded = np.pad(psi, width)
    hi = [slice(None)] * psi.ndim
    lo = [slice(None)] * psi.ndim
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    return (padded[tuple(hi)] - padded[tuple(lo)]) / (2.0 * h)


def bracket_deviations_reference(mass, grid, test_functions):
    """Every generator applied to psi, then both compositions for every
    entry of the commutator table; relative grid-L2 deviation per bracket.
    """
    from opalg.galilei import COMMUTATOR_TABLE

    n, h = grid.points_per_axis, 2.0 * grid.p_max / grid.points_per_axis
    axis = -grid.p_max + (np.arange(n) + 0.5) * h
    p = [axis.reshape([n if k == i else 1 for k in range(3)]) for i in range(3)]
    p_sq = p[0] ** 2 + p[1] ** 2 + p[2] ** 2

    def D(psi, i):
        return _padded_difference(psi, i, h)

    gens = {"P0": lambda psi: (p_sq / (2.0 * mass)) * psi,
            "M": lambda psi: mass * psi}
    for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        gens[f"P{i + 1}"] = lambda psi, i=i: p[i] * psi
        gens[f"K{i + 1}"] = lambda psi, i=i: 1j * mass * D(psi, i)
        gens[f"J{i + 1}"] = lambda psi, a=a, b=b: \
            -1j * (p[a] * D(psi, b) - p[b] * D(psi, a))

    deviations = {(left, right): 0.0 for left, right, _ in COMMUTATOR_TABLE}
    for psi in test_functions:
        applied = {name: gen(psi) for name, gen in gens.items()}
        ref = np.sqrt(np.sum(np.abs(psi) ** 2))
        for left, right, target in COMMUTATOR_TABLE:
            got = gens[left](applied[right]) - gens[right](applied[left])
            for name, coeff in target.items():
                got = got - coeff * applied[name]
            key = (left, right)
            deviations[key] = max(deviations[key],
                                  float(np.sqrt(np.sum(np.abs(got) ** 2)) / ref))
    return deviations


def _coordinate(grid, axis):
    """The grid's 1-D axis, broadcast along `axis` of a 3-D array."""
    shape = [1, 1, 1]
    shape[axis] = grid.points_per_axis
    return grid.axis().reshape(shape)


def _derivative(psi, axis, h):
    """Second-order central difference, zero beyond the boundary.

    `axis` counts among the last three (grid) axes of psi; any leading
    axes are a stack of functions.
    """

    def along(sl):
        idx = [slice(None)] * 3
        idx[axis] = sl
        return (Ellipsis, *idx)

    out = np.empty_like(psi, dtype=np.result_type(psi, 1.0))
    np.subtract(psi[along(slice(2, None))], psi[along(slice(None, -2))],
                out=out[along(slice(1, -1))])
    # one-sided contributions at the faces (outside values are zero)
    out[along(slice(0, 1))] = psi[along(slice(1, 2))]
    np.negative(psi[along(slice(-2, -1))], out=out[along(slice(-1, None))])
    # the reciprocal is what numpy's complex division by 2h multiplies by
    out *= 1.0 / (2.0 * h)
    return out


def _real_generators(mass, grid):
    """The real operators behind the generators, on stacks of real functions.

    P_i multiplies by p_i, P0 by p^2/(2m) and M by m; K_i is m d/dp_i and
    J_i is p_a d_b - p_b d_a.  Each result is a fresh array.
    """
    h = grid.spacing
    p = [_coordinate(grid, i) for i in range(3)]
    energy = sum(pi ** 2 for pi in p) / (2.0 * mass)

    def boost(psi, ax):
        out = _derivative(psi, ax, h)
        out *= mass
        return out

    def angular(psi, a, b):
        """p_a d_b - p_b d_a, the products formed in the stencil buffers."""
        out = _derivative(psi, b, h)
        out *= p[a]
        rot = _derivative(psi, a, h)
        rot *= p[b]
        out -= rot
        return out

    ops = {}
    for i in range(3):
        ops[f"P{i + 1}"] = (lambda psi, pi=p[i]: pi * psi)
    ops["P0"] = lambda psi: energy * psi
    for i in range(3):
        ops[f"K{i + 1}"] = (lambda psi, ax=i: boost(psi, ax))
    for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        ops[f"J{i + 1}"] = (lambda psi, a=a, b=b: angular(psi, a, b))
    ops["M"] = lambda psi: mass * psi
    return ops


def uncut_gaussians(grid, origin=True):
    """The offset Gaussian of `galilei._offset_gaussian` and, unless `origin`
    is false, one of the same width about the origin, as n^3 arrays."""
    from opalg.galilei import _offset_gaussian

    sigma, offset = _offset_gaussian(grid)
    p = [_coordinate(grid, i) for i in range(3)]
    return [np.exp(-sum((p[i] - center[i]) ** 2 for i in range(3)) / (2.0 * sigma ** 2))
            for center in (offset, np.zeros(3))[:1 + origin]]


def _default_test_functions(grid):
    """The two `uncut_gaussians` as complex arrays, with their tails below
    1e-14 set to zero."""
    funcs = []
    for g in uncut_gaussians(grid):
        psi = g.astype(complex)
        psi[np.abs(psi) < 1e-14] = 0.0
        funcs.append(psi)
    return funcs


def _real_stack(psi):
    """A test function as a real (k, n, n, n) stack: k = 1 for a real
    function, its real and imaginary parts (k = 2) otherwise."""
    psi = np.asarray(psi)
    if np.iscomplexobj(psi) and psi.imag.any():
        return np.stack((psi.real, psi.imag)).astype(float, copy=False)
    return np.ascontiguousarray(psi.real, dtype=float)[None]


def _l2(x):
    """Grid-L2 norm of a real stack: one real function, or the real and
    imaginary parts of a complex one."""
    if len(x) == 1:
        mag = x[0]
    else:
        # numpy's complex abs: np.hypot of the parts differs in last bits
        z = np.empty(x.shape[1:], dtype=complex)
        z.real, z.imag = x
        mag = np.abs(z)
    # numpy's own pairwise sum: unlike a BLAS dot, its order does not
    # depend on the BLAS thread count
    return float(np.sqrt(np.sum(np.square(mag))))


def grid_commutators(mass, grid, test_functions, pairs=None):
    """Worst relative grid-L2 deviation of each bracket in `pairs` over
    arbitrary n^3 test functions: the real operators of `_real_generators`
    on the real stack of each function, every result a full array.
    """
    from opalg.galilei import (_REAL_TARGETS, MIN_POINTS_PER_AXIS,
                               GridTooCoarseError, _select_brackets)

    if grid.points_per_axis < MIN_POINTS_PER_AXIS:
        raise GridTooCoarseError(
            f"need at least {MIN_POINTS_PER_AXIS} points per axis")
    table = _select_brackets(pairs)
    ops = _real_generators(mass, grid)
    needed = {name for pair in table
              for name in (*pair, *_REAL_TARGETS[pair])}
    deviations = dict.fromkeys(table, 0.0)
    for psi in test_functions:
        x = _real_stack(psi)
        applied = {name: ops[name](x) for name in needed}
        ref = _l2(x)
        for left, right in table:
            got = ops[left](applied[right])
            got -= ops[right](applied[left])
            for name, coeff in _REAL_TARGETS[(left, right)].items():
                got -= coeff * applied[name]
            key = (left, right)
            deviations[key] = float(np.maximum(deviations[key], _l2(got) / ref))
    return deviations


def grid_generators(mass, grid):
    """The complex generators on the grid, each the real operator of
    `_real_generators` times its unit phase: P_i multiplies by p_i,
    P0 by p^2/(2m) and M by m; K_i = i m d/dp_i and J_i = -i (p_a d_b -
    p_b d_a)."""
    from opalg.galilei import _PHASES

    gens = {}
    for name, op in _real_generators(mass, grid).items():
        phase = _PHASES[name]
        gens[name] = op if phase == 1 else (lambda psi, op=op, phase=phase:
                                            phase * op(psi))
    return gens


def is_positive_reference(coeffs, tol):
    """The square-root decision on one scalar series by a Python loop:
    (positive, witness coefficients or None, failure order or None)."""
    coeffs = [complex(c) for c in coeffs]
    order = len(coeffs) - 1
    for n, c in enumerate(coeffs):
        if abs(c.imag) > tol:
            return False, None, n
    real = [c.real for c in coeffs]
    shift = 0
    while True:
        remaining = real[2 * shift:]
        if not remaining or all(abs(r) <= tol for r in remaining):
            return True, [0.0] * (order + 1), None
        b0 = remaining[0]
        if b0 < -tol:
            return False, None, 2 * shift
        if b0 <= tol:
            if len(remaining) > 1 and abs(remaining[1]) > tol:
                return False, None, 2 * shift + 1
            shift += 1
            continue
        c = [np.sqrt(b0)]
        for n in range(1, len(remaining)):
            conv = sum(c[k] * c[n - k] for k in range(1, n))
            c.append((remaining[n] - conv) / (2.0 * c[0]))
        lifted = [0.0] * shift + c
        lifted += [0.0] * (order + 1 - len(lifted))
        return True, lifted[: order + 1], None


def block_toeplitz(column):
    """The dense block lower-triangular Toeplitz matrix of first block column
    `column` (L, n, p): block (m, k) is column[m - k], so that its product
    with a jet of L coefficients stacked in one column of length L p is the
    Cauchy product of the column and the jet."""
    L, n, p = column.shape
    lag = np.subtract.outer(np.arange(L), np.arange(L))
    blocks = np.where((lag >= 0)[..., None, None], column[np.maximum(lag, 0)], 0)
    return blocks.transpose(0, 2, 1, 3).reshape(L * n, L * p)


def _charge_product(charges, xs):
    """Coefficients of sum_k Q_k x_{n-k}, truncated at the shorter series."""
    return [sum(charges[k] @ xs[n - k] for k in range(n + 1))
            for n in range(min(len(charges), len(xs)))]


def _indefinite_product(G, a, b):
    return [sum(np.conj(a[k]) @ G @ b[n - k] for k in range(n + 1))
            for n in range(min(len(a), len(b)))]


def _max_abs(coeffs):
    return float(np.max(np.abs(np.asarray(coeffs)), initial=0.0))


def deform_check_reference(D, samples, rng, tol=1e-9):
    """brst.deform_check one sample at a time.

    Every sample is drawn, lifted, normed, decided and solved on its own,
    with Python loops over the orders, a fresh pseudo-inverse of Q0 and the
    scalar square-root recursion above, for the charge series divided by
    its largest entry (1 for the zero series).  Item (iv) is
    leading_class_norms, as it works on observables, not on samples.
    """
    from opalg import brst

    base = D.base
    quotient = brst.physical_space(base)
    ker, im = quotient.ker_basis, quotient.im_basis
    k, n = ker.shape[1], base.dim
    G = base.space.krein.gram
    scale = _max_abs(D.Q_series.coeffs) or 1.0
    charges = [c / scale for c in D.Q_series.coeffs]
    pinv = np.linalg.pinv(charges[0])
    bound = np.sqrt(tol)

    def solve(targets, what, first=None, noisy=False):
        xs = [] if first is None else [first]
        for m in range(len(xs), len(targets)):
            rhs = targets[m] - sum(charges[j] @ xs[m - j] for j in range(1, m + 1))
            sol = pinv @ rhs
            res = float(np.linalg.norm(charges[0] @ sol - rhs))
            if res > tol * max(1.0, float(np.linalg.norm(rhs))):
                raise brst.LiftObstructionError(m, res, what)
            if noisy and k:
                sol = sol + ker @ (rng.normal(size=k) + 1j * rng.normal(size=k))
            xs.append(sol)
        return xs

    def lift(phi0, noisy=False):
        if np.linalg.norm(charges[0] @ phi0) > tol * max(1.0, np.linalg.norm(phi0)):
            raise ValueError("phi0 is not in the kernel of the undeformed charge")
        return solve([np.zeros(n, dtype=complex)] * len(charges), "lift", phi0, noisy)

    def exactness(phi):
        x = solve(phi, "image membership")
        return _max_abs(np.array(_charge_product(charges, x)) - np.array(phi))

    lift_res = 0.0
    for j in range(k):
        lift_res = max(lift_res, _max_abs(_charge_product(charges, lift(ker[:, j]))))

    worst = 0.0
    for _ in range(samples):
        w = rng.normal(size=k) + 1j * rng.normal(size=k)
        phi = lift(ker @ w, noisy=True)
        norm2 = _indefinite_product(G, phi, phi)
        positive, witness, failure = is_positive_reference(norm2, bound)
        if not positive:
            raise brst.PositivityViolatedAtOrderError(failure)
        check = series_product_coeffs(np.conj(witness), witness, len(norm2) - 1)
        # relative to the scale of the Cauchy sums; a zero series has no defect
        scale = max(np.max(np.abs(witness)) ** 2, _max_abs(norm2))
        worst = max(worst, _max_abs(check - np.array(norm2)) / (scale or 1.0))

    null_res, null_checked = 0.0, 0
    for _ in range(samples):
        w = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(D.order + 1)]
        phi = _charge_product(charges, w)
        if _max_abs(_indefinite_product(G, phi, phi)) > bound:
            raise brst.NullNotExactError("image vector with nonzero formal norm")
        null_res = max(null_res, exactness(phi))
        null_checked += 1
    for j in range(im.shape[1]):
        phi = lift(im[:, j])
        if _max_abs(_indefinite_product(G, phi, phi)) <= bound:
            null_res = max(null_res, exactness(phi))
            null_checked += 1

    norms = leading_class_norms(D)
    return brst.DeformationReport(
        order=D.order, samples=samples, positivity_worst_defect=worst,
        null_vectors_checked=null_checked, null_membership_residual=null_res,
        lifted_kernel_dim=k, lift_residual=lift_res, observables_checked=len(norms),
        items_passed=(True, bool(null_res <= bound), bool(lift_res <= bound),
                      bool(norms and min(norms) > bound)))


def leading_class_norms(D):
    """Item (iv) of brst.deform_check, one observable at a time: for each
    even-ghost quotient-basis observable A0 that lifts (unliftable_reference),
    the norm of the class of A0 phi0, for the representative phi0 that A0
    moves most (representation_matrix).  A lifted phi~ starts with phi0, so
    A~ phi~ starts with A0 phi0."""
    from opalg import brst

    base = D.base
    quotient = brst.physical_space(base)
    norms = []
    for A0 in quotient_basis(brst.observable_algebra(base, "even_ghost")):
        if unliftable_reference(D, A0[None])[0]:
            continue
        pi0 = np.abs(representation_matrix(base, quotient, GradedOperator(A0, 0)))
        phi0 = quotient.quotient_reps[:, int(np.argmax(np.max(pi0, axis=0)))]
        norms.append(float(np.linalg.norm(class_coordinates(quotient, A0 @ phi0))))
    return norms


# ---------------------------------------------------------------------------
# quantum plane


@lru_cache(maxsize=None)
def cyclotomic_reference(n):
    """Integer coefficients of Phi_n, lowest first, from its primitive roots."""
    roots = [np.exp(2j * np.pi * k / n) for k in range(1, n + 1) if gcd(k, n) == 1]
    return tuple(int(round(c.real)) for c in np.poly(roots)[::-1])


class Cyclo:
    """Element of Z[zeta_N] kept reduced modulo Phi_N after every operation."""

    def __init__(self, root, coeffs):
        self.root = root
        self.coeffs = tuple(coeffs)

    @classmethod
    def _reduction(cls, root):
        # zeta^deg = -(phi[0] + phi[1] zeta + ...), monic phi
        return tuple(-c for c in cyclotomic_reference(root.N)[:-1])

    @classmethod
    def from_power(cls, root, power):
        deg = len(cyclotomic_reference(root.N)) - 1
        e = (power * root.k) % root.N
        coeffs = [0] * deg
        if e < deg:
            coeffs[e] = 1
            return cls(root, coeffs)
        # reduce zeta^e for deg <= e < N by repeated substitution
        work = {e: 1}
        red = cls._reduction(root)
        while any(exp >= deg for exp in work):
            exp = max(work)
            mult = work.pop(exp)
            for i, c in enumerate(red):
                if c:
                    work[exp - deg + i] = work.get(exp - deg + i, 0) + mult * c
        for exp, mult in work.items():
            coeffs[exp] += mult
        return cls(root, coeffs)

    def __add__(self, other):
        return Cyclo(self.root, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Cyclo(self.root, [-a for a in self.coeffs])

    def __mul__(self, other):
        deg = len(self.coeffs)
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        red = self._reduction(self.root)
        for e in range(len(prod) - 1, deg - 1, -1):
            c = prod[e]
            prod[e] = 0
            for i, r in enumerate(red):
                prod[e - deg + i] += c * r
        return Cyclo(self.root, prod[:deg])

    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

    def numeric(self):
        zeta = complex(np.exp(2j * np.pi / self.root.N))
        return sum(a * zeta ** i for i, a in enumerate(self.coeffs))

    def __eq__(self, other):
        return isinstance(other, Cyclo) and self.root == other.root \
            and self.coeffs == other.coeffs


def laurent_sum(*polys):
    """The sum of integer Laurent polynomials {e: c_e}, with no zero entry."""
    out = {}
    for poly in polys:
        for e, c in poly.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def laurent_shift(poly, f, s=1):
    """s q^f times the Laurent polynomial poly."""
    return {e + f: s * c for e, c in poly.items()}


def ring_product(a, b):
    """The product of two Laurent polynomials, term by term."""
    return laurent_sum(*({e + f: c * d} for e, c in a.items() for f, d in b.items()))


def laurent_value(q, poly):
    """sum c_e q^e as a complex number; at a root of unity {N, k} q^e is
    exp(2 pi i e k / N)."""
    if hasattr(q, "N"):
        return complex(sum(c * np.exp(2j * np.pi * (e * q.k % q.N) / q.N)
                           for e, c in poly.items()))
    return complex(sum(c * complex(q) ** e for e, c in poly.items()))


def laurent_vanishes(q, poly):
    """The zero test in Z[zeta_N] through Cyclo at a root of unity, and at a
    numeric q |sum c_e q^e| <= ORACLE_TOL sum |c_e| |q|^e in plain complex
    arithmetic."""
    if hasattr(q, "N"):
        total = [0] * (len(cyclotomic_reference(q.N)) - 1)
        for e, c in poly.items():
            for i, a in enumerate(Cyclo.from_power(q, e).coeffs):
                total[i] += c * a
        return not any(total)
    scale = sum(abs(c) * abs(complex(q)) ** e for e, c in poly.items())
    return abs(laurent_value(q, poly)) <= ORACLE_TOL * scale


def ring_value_reference(expr, q):
    """(value, scale) of a ring expression tree at a numeric q in plain
    complex arithmetic, the twin of the exact ring's value: ("pow", e) is
    q^e, ("phi", d) is Phi_d(q), and "neg", "add", "sub" and "mul" combine.
    scale sums the magnitudes of the terms met on the way, which bounds the
    rounding of the value."""
    op = expr[0]
    if op == "pow":
        value = complex(q) ** expr[1]
        return value, abs(value)
    if op == "phi":
        terms = [c * complex(q) ** i for i, c in enumerate(cyclotomic_reference(expr[1]))]
        return sum(terms), sum(map(abs, terms))
    if op == "neg":
        value, scale = ring_value_reference(expr[1], q)
        return -value, scale
    (left, sl), (right, sr) = (ring_value_reference(e, q) for e in expr[1:])
    if op == "mul":
        return left * right, sl * sr
    return (left + right if op == "add" else left - right), sl + sr


_COACTION_LETTERS = {
    # column form: x -> a (x) x + b (x) y ; y -> c (x) x + d (x) y
    # row form:    x -> a (x) x + c (x) y ; y -> b (x) x + d (x) y
    ("column", "x"): (("a", "x"), ("b", "y")), ("column", "y"): (("c", "x"), ("d", "y")),
    ("row", "x"): (("a", "x"), ("c", "y")), ("row", "y"): (("b", "x"), ("d", "y")),
}


# rewrite rules bringing words to the order a <= b <= c <= d: each maps a
# descending two-letter word to a list of (q-power, extra integer factor,
# replacement word)
_GLQ2_RULES = {
    ("b", "a"): [(-1, 1, "ab")],
    ("c", "a"): [(-1, 1, "ac")],
    ("c", "b"): [(0, 1, "bc")],
    ("d", "b"): [(-1, 1, "bd")],
    ("d", "c"): [(-1, 1, "cd")],
    # d a = a d - (q - q^{-1}) b c
    ("d", "a"): [(0, 1, "ad"), (1, -1, "bc"), (-1, 1, "bc")],
}
# the broken rule b a -> a b of the control case
_GLQ2_PERTURBED = {**_GLQ2_RULES, ("b", "a"): [(0, 1, "ab")]}


def glq2_rewrite(word, q, perturb_ab=False):
    """Reduce a word in a, b, c, d to the ordered monomial basis by
    rewriting its leftmost descending pair until none is left.

    The unperturbed rules are confluent (every overlap resolves), so the
    result does not depend on the order of rewrites; the perturbed ones are
    not, and agree with a letter-by-letter product only on an ordered
    monomial times one letter.
    """
    rules = _GLQ2_PERTURBED if perturb_ab else _GLQ2_RULES
    result = {}
    stack = [(word, {0: 1})]
    while stack:
        w, coeff = stack.pop()
        pos = -1
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                pos = i
                break
        if pos < 0:
            key = tuple(map(w.count, "abcd"))
            result[key] = laurent_sum(result.get(key, {}), coeff)
            continue
        for power, factor, repl in rules[(w[pos], w[pos + 1])]:
            stack.append((w[:pos] + repl + w[pos + 2:], laurent_shift(coeff, power, factor)))
    return {k: v for k, v in result.items() if not laurent_vanishes(q, v)}


def plane_product(left, right):
    """Product of two normal-ordered plane polynomials, term by term:
    y^b x^c = q^{-bc} x^c y^b."""
    from opalg.qplane import QPlanePoly
    q = left.q
    out = {}
    for (a, b), ca in left.terms.items():
        for (c, d), cb in right.terms.items():
            key = (a + c, b + d)
            out[key] = laurent_sum(out.get(key, {}), laurent_shift(ring_product(ca, cb), -b * c))
    return QPlanePoly(q, out)


def center_reference(q, max_deg):
    """Nonconstant monomials m of degree <= max_deg with m x - x m and
    m y - y m both zero, from the products of plane polynomials."""
    from opalg.qplane import QPlanePoly
    one = {0: 1}
    letters = [QPlanePoly(q, {(1, 0): one}), QPlanePoly(q, {(0, 1): one})]
    central = []
    for total in range(1, max_deg + 1):
        for a in range(total + 1):
            mono = QPlanePoly(q, {(a, total - a): one})
            for g in letters:
                comm = dict(plane_product(mono, g).terms)
                for k, v in plane_product(g, mono).terms.items():
                    comm[k] = laurent_sum(comm.get(k, {}), laurent_shift(v, 0, -1))
                if not all(laurent_vanishes(q, v) for v in comm.values()):
                    break
            else:
                central.append((a, total - a))
    return central


def coaction_of_word(word, q, perturb_ab, form):
    """Image of a plane word under the coaction: each of the 2^len(word)
    choices of letters is normal ordered in full, in both tensor factors."""
    from opalg.qplane import qplane_normal_form
    out = {}
    for choice in range(2 ** len(word)):
        picks = [_COACTION_LETTERS[form, letter][(choice >> i) & 1]
                 for i, letter in enumerate(word)]
        ((plane, pc),) = qplane_normal_form([p for _, p in picks], q).terms.items()
        group = "".join(g for g, _ in picks)
        for gkey, gc in glq2_rewrite(group, q, perturb_ab).items():
            key = (gkey, plane)
            out[key] = laurent_sum(out.get(key, {}), ring_product(gc, pc))
    return out


def coaction_check_reference(q, max_deg, perturb_ab=False):
    """("preserved", words checked) or ("violated", first failing degree).

    Every embedding w1 (y x - q^{-1} x y) w2 up to max_deg, in the order of
    the program's check, is expanded word by word; q^{-1} is read off the
    plane normal form of y x.
    """
    from opalg.qplane import qplane_normal_form
    ((_, q_inv),) = qplane_normal_form("yx", q).terms.items()
    checked = 0
    for degree in range(2, max_deg + 1):
        pad = degree - 2
        for left_len in range(pad + 1):
            for left_bits in range(2 ** left_len):
                for right_bits in range(2 ** (pad - left_len)):
                    w1 = "".join("x" if (left_bits >> i) & 1 else "y"
                                 for i in range(left_len))
                    w2 = "".join("x" if (right_bits >> i) & 1 else "y"
                                 for i in range(pad - left_len))
                    for form in ("column", "row"):
                        good = coaction_of_word(w1 + "xy" + w2, q, perturb_ab, form)
                        bad = coaction_of_word(w1 + "yx" + w2, q, perturb_ab, form)
                        diff = {k: ring_product(q_inv, v) for k, v in good.items()}
                        for k, v in bad.items():
                            diff[k] = laurent_sum(diff.get(k, {}), laurent_shift(v, 0, -1))
                        if not all(laurent_vanishes(q, v) for v in diff.values()):
                            return ("violated", degree)
                    checked += 1
    return ("preserved", checked)


# ---------------------------------------------------------------------------
# references on the package's public objects


class InvalidSymmetryError(ValueError):
    """A candidate fundamental symmetry violates one of its invariants."""


def validate_symmetry(K, matrix, tol=ORACLE_TOL):
    """Check J^2 = 1, symmetry of the pairing, and positivity of G J."""
    from opalg.krein import FundamentalSymmetry
    J = np.asarray(matrix, dtype=complex)
    n = K.dim
    if J.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {J.shape}")
    if np.max(np.abs(J @ J - np.eye(n))) > tol:
        raise InvalidSymmetryError("J^2 != 1")
    GJ = K.gram @ J
    if np.max(np.abs(GJ - J.conj().T @ K.gram)) > tol:
        raise InvalidSymmetryError("(u, Jv) != (Ju, v)")
    if np.min(np.linalg.eigvalsh((GJ + GJ.conj().T) / 2)) <= 0:
        raise InvalidSymmetryError("G J is not positive definite")
    J = J.copy()
    J.setflags(write=False)
    return FundamentalSymmetry(matrix=J)


def is_krein_selfadjoint(K, A, tol=ORACLE_TOL):
    from opalg.krein import krein_adjoint
    A = np.asarray(A, dtype=complex)
    return bool(np.max(np.abs(A - krein_adjoint(K, A))) <= tol)


def quartet_model(physical, quartets, seed):
    """Positive modes of ghost 0, then Kugo-Ojima quartets (A, B of ghost 0,
    c of ghost 1, cbar of ghost -1; <A, B> = <c, cbar> = 1; Q maps A to c
    and cbar to B), in a basis turned by a random unitary within each ghost
    degree.  The exact B and the coexact A share the eigenvalue 1 of
    Delta_Q = Q Q^H + Q^H Q in degree 0."""
    from opalg.brst import make_graded_space, validate_brst
    n = physical + 4 * quartets
    grades = np.array([0] * physical + [0, 0, 1, -1] * quartets)
    gram = np.zeros((n, n), dtype=complex)
    gram[:physical, :physical] = np.eye(physical)
    Q = np.zeros((n, n), dtype=complex)
    for a in range(physical, n, 4):
        gram[a, a + 1] = gram[a + 1, a] = gram[a + 2, a + 3] = gram[a + 3, a + 2] = 1
        Q[a + 2, a] = Q[a + 1, a + 3] = 1
    rng = np.random.default_rng(seed)
    U = np.zeros((n, n), dtype=complex)
    for g in np.unique(grades):
        idx = np.flatnonzero(grades == g)
        Z = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(size=(idx.size, idx.size))
        U[np.ix_(idx, idx)] = np.linalg.qr(Z)[0]
    return validate_brst(make_graded_space(U.conj().T @ gram @ U, grades), U.conj().T @ Q @ U)


def graded_sign_split(space, M):
    """Return sum over parities of (-1)^parity times the parity component."""
    from opalg.brst import _same_parity
    return np.where(_same_parity(space), M, -M)


def s_action(B, M):
    """Graded derivation on an arbitrary matrix, s(F) = QF - (-1)^d FQ.

    Inhomogeneous matrices are handled by acting on their parity parts.
    """
    return B.Q @ M - graded_sign_split(B.space, M) @ B.Q


def s_preimage(B, R):
    """Minimum-norm X with s(X) closest to R, for R a matrix or a stack:
    X = s^H(Y), Y = (s s^H + s^H s)^+ R from the structure's Hodge
    decomposition, and s^H(Y) = Q^H Y - Sigma Y Q^H Sigma."""
    U, inverse, _ = B._hodge
    Uh, Qh = U.conj().T, B.Q.conj().T
    Y = U @ ((Uh @ R @ U) * inverse) @ Uh
    return Qh @ Y - graded_sign_split(B.space, Y @ Qh)


def unliftable_reference(D, A0):
    """Which base observables of the stack A0 (K, n, n) do not extend to the
    deformed kernel of s: solved order by order, some order's residual
    exceeds LIFT_TOL relative to its right-hand side or, where that is
    larger, to the scale of the series (the solve of the series divided by
    its scale, as deform_check decides).  The operator-level twin of
    deform_check's item (iv), which reads its count off item (iii)."""
    from opalg.brst import LIFT_TOL, _scale
    base, scale = D.base, _scale(D)
    Qs = D.Q_series.coeffs[1:, None]
    A = np.empty((D.order + 1,) + A0.shape, dtype=complex)
    A[0] = A0
    bad = np.zeros(len(A0), dtype=bool)
    for m in range(1, D.order + 1):
        # sum_{k=1..m} of -(Q_k A_{m-k} - Gamma(A_{m-k}) Q_k)
        prev = A[m - 1::-1]
        rhs = (graded_sign_split(base.space, prev) @ Qs[:m] - Qs[:m] @ prev).sum(axis=0)
        A[m] = s_preimage(base, rhs)
        res, rhs = np.linalg.norm([s_action(base, A[m]) - rhs, rhs], axis=(2, 3))
        bad |= res > LIFT_TOL * np.maximum(scale, rhs)
    return bad


def quotient_basis(algebra):
    """The (K, n, n) stack of the u_i u_j^H of an ObservableAlgebra, built
    read-only per call from its factors and pairs."""
    (i, j), U = algebra.pairs, algebra.factors
    stack = U.T[i, :, None] * U.conj().T[j, None, :]
    stack.setflags(write=False)
    return stack


def krein_adjoint_solve(K, A):
    """krein_adjoint by one LU solve per matrix: G X = A^H G."""
    A = np.asarray(A, dtype=complex)
    return np.linalg.solve(K.gram, A.conj().swapaxes(-1, -2) @ K.gram)


class GradedOperator(NamedTuple):
    matrix: np.ndarray
    ghost: int


def class_coordinates(quotient, vector) -> np.ndarray:
    """Coordinates of [vector] with respect to the chosen representatives;
    a matrix of vectors gives one column of coordinates per column.  The
    representatives and the image are orthonormal columns that together
    span the kernel, so the coordinates are R^H v."""
    v = np.asarray(vector, dtype=complex)
    ker = quotient.ker_basis
    res = np.linalg.norm(ker @ (ker.conj().T @ v) - v, axis=0)
    if np.any(res > CLASS_TOL * np.maximum(1.0, np.linalg.norm(v, axis=0))):
        raise ValueError(f"vector is not in the kernel (residual {np.max(res):.3e})")
    return quotient.quotient_reps.conj().T @ v


def representation_matrix(B, quotient, A: GradedOperator) -> np.ndarray:
    """Matrix of [A] on the physical quotient, one column per representative.

    A must be even and in ker s, and must preserve ker Q and im Q, each to
    CLASS_TOL relative to the scale of A (s(A) to max|Q| max|A|), so every
    multiple of Q or A shares a verdict.
    """
    from opalg.brst import NotObservableError
    if A.ghost % 2 != 0:
        raise NotObservableError(f"ghost number {A.ghost} is odd")
    scale = _max_abs(A.matrix)
    if _max_abs(s_action(B, A.matrix)) > CLASS_TOL * _max_abs(B.Q) * scale:
        raise NotObservableError("operator is not in ker s")
    for V in (quotient.ker_basis, quotient.im_basis):
        if _max_abs(A.matrix @ V - V @ (V.conj().T @ A.matrix @ V)) > CLASS_TOL * scale:
            raise NotObservableError("operator does not preserve kernel and image")
    return class_coordinates(quotient, A.matrix @ quotient.quotient_reps)


def brst_derivation(B, F):
    """s(F) as a graded operator of ghost number one higher than F's."""
    from opalg.brst import NonHomogeneousError, operator_grade
    found = operator_grade(B.space, F.matrix)
    if found is not None and found != F.ghost:
        raise NonHomogeneousError(f"declared ghost {F.ghost} but entries sit at shift {found}")
    return GradedOperator(matrix=s_action(B, F.matrix), ghost=F.ghost + 1)


def galilei_identity():
    from opalg.galilei import GalileiElement
    return GalileiElement(R=np.eye(3), v=np.zeros(3), u=np.zeros(3), eta=0.0)


def cocycle_reference(rng, triples):
    """The worst cocycle defect of `galilei.cocycle` over `triples` random
    triples, drawn and checked in one block."""
    from opalg.galilei import bargmann_exponent, galilei_compose, make_galilei
    draws = rng.normal(size=(triples, 3, 16))
    Q, _ = np.linalg.qr(draws[..., :9].reshape(triples, 3, 3, 3))
    Q[np.linalg.det(Q) < 0, :, 0] *= -1.0
    r, rp, rpp = (make_galilei(Q[:, j], draws[:, j, 9:12], draws[:, j, 12:15], draws[:, j, 15])
                  for j in range(3))
    lhs = bargmann_exponent(r, rp) + bargmann_exponent(galilei_compose(r, rp), rpp)
    rhs = bargmann_exponent(rp, rpp) + bargmann_exponent(r, galilei_compose(rp, rpp))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


@dataclass(frozen=True)
class DegenerateFormReport:
    form: np.ndarray
    hermitian: bool
    rank: int
    kernel_dim: int
    positive_rank: int
    negative_rank: int


def levy_leblond_density(beta):
    """A = -i/2 (beta + beta g4) of the wave operator built on an invertible
    4x4 beta; galilei.levy_leblond_matrices builds it on beta = g4."""
    from opalg.galilei import clifford_generators
    g4 = clifford_generators().gammas[3]
    return -0.5j * (beta + beta @ g4)


def degenerate_norm_structure(A, tol=1e-12):
    """Rank and kernel of the conserved sesquilinear density i A of a
    Levy-Leblond matrix A.

    For beta = g4 the form is the projector (1 + g4)/2: positive
    semi-definite of rank two with a two-dimensional kernel that cannot be
    removed without losing the wave-operator structure.
    """
    form = 1j * A
    herm = bool(np.max(np.abs(form - form.conj().T)) <= tol)
    svals = np.linalg.svd(form, compute_uv=False)
    rank = int(np.sum(svals > tol))
    if herm:
        eigs = np.linalg.eigvalsh((form + form.conj().T) / 2)
        pos = int(np.sum(eigs > tol))
        neg = int(np.sum(eigs < -tol))
    else:
        pos = neg = -1
    return DegenerateFormReport(form=form, hermitian=herm, rank=rank,
                                kernel_dim=4 - rank, positive_rank=pos,
                                negative_rank=neg)


def channel_rank(amplitudes, l, m, n_theta=None, n_phi=None, tol=ORACLE_TOL):
    """Rank of the Gram matrix of fixed-channel projections.

    A rank of one over any sampled amplitude basis is the finite-sample
    multiplicity-one statement for the (mass, l) channel per azimuthal
    component.
    """
    from opalg.wigner import _sphere_quadrature, spherical_harmonic
    if n_theta is None:
        n_theta = l + 2
    if n_phi is None:
        n_phi = 2 * l + 2
    theta, phi, w = _sphere_quadrature(n_theta, n_phi)
    y = spherical_harmonic(l, m, theta, phi)
    coeffs = np.array([complex(np.sum(w * np.conj(y) * f(theta, phi)))
                       for f in amplitudes])
    gram = np.outer(np.conj(coeffs), coeffs)
    svals = np.linalg.svd(gram, compute_uv=False)
    return int(np.sum(svals > tol * max(1.0, float(svals[0]))))


def series_to_json(s):
    """The scenario encoding of a series, the inverse of `series_from_json`:
    [re, im] pairs, or nested arrays with a trailing [re, im] axis for
    array coefficients."""
    return np.stack([s.coeffs.real, s.coeffs.imag], axis=-1).tolist()


def series_from_json(data):
    """Series from [re, im] pairs: a list of them for a scalar series, as a
    scenario gives one, or nested arrays of them for an array series."""
    from opalg.series import FormalSeries
    pairs = np.asarray(data, dtype=float)
    return FormalSeries(pairs[..., 0] + 1j * pairs[..., 1])
