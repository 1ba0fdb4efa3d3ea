"""Independent brute-force oracles for the test suite.

Everything here avoids the code paths of the package under test: linear
algebra is plain Gaussian elimination, or one SVD or least-squares solve
per question with an absolute cut (the generic BRST route), series
products go through numpy.convolve, shell sums are evaluated point by
point, and grid brackets apply every generator through a zero-padded
stencil.
"""

import numpy as np

ORACLE_TOL = 1e-10


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
