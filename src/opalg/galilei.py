"""Central extension of the inhomogeneous Galilei group and its generators.

Covers the group law with its phase exponent, a fixed-mass momentum-grid
representation of the generators with finite-difference commutator checks
(each generator a short sum of products of 1-D maps, each bracket's
deviation on a product Gaussian a Kronecker-product Gram norm: no n^3
array is formed), an explicit Euclidean Clifford set, and the first-order
wave operator built from it together with its plane-wave symbol.  The rank
and kernel of its degenerate norm form i A are computed by the reference
`degenerate_norm_structure` in tests/oracles.py.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GalileiElement",
    "CliffordSet",
    "LevyLeblondMatrices",
    "MomentumGrid",
    "CommutatorReport",
    "NotARotationError",
    "GridTooCoarseError",
    "make_galilei",
    "galilei_compose",
    "bargmann_exponent",
    "momentum_grid",
    "generator_commutators",
    "commutator_convergence",
    "clifford_generators",
    "levy_leblond_matrices",
    "levy_leblond_symbol",
    "COMMUTATOR_TABLE",
    "CONVERGENT_BRACKETS",
    "EXACT_BRACKETS",
]

ROTATION_TOL = 1e-10
MIN_POINTS_PER_AXIS = 32


class NotARotationError(ValueError):
    pass


class GridTooCoarseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# group elements and the phase exponent


class GalileiElement(NamedTuple):
    """Transformation (x, t) -> (R x + t v + u, t + eta).

    A stack of elements carries the same leading axes on every field:
    R (..., 3, 3), v and u (..., 3), eta (...).
    """

    R: np.ndarray
    v: np.ndarray
    u: np.ndarray
    eta: float


def _matvec(R: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", R, x)


def _dot(x: np.ndarray, y: np.ndarray):
    return np.einsum("...i,...i->...", x, y)


def make_galilei(R, v, u, eta) -> GalileiElement:
    """One element, or a stack of them along leading axes."""
    R = np.asarray(R, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    stack = R.shape[:-2]
    if R.shape[-2:] != (3, 3) or v.shape != stack + (3,) or \
            u.shape != stack + (3,) or np.shape(eta) != stack:
        raise ValueError("expected 3x3 rotations and 3-vectors over one stack")
    gram_err = np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)),
                      axis=(-2, -1))
    if np.any(gram_err > ROTATION_TOL) or \
            np.any(np.abs(np.linalg.det(R) - 1.0) > ROTATION_TOL):
        raise NotARotationError("R is not a proper rotation")
    eta = float(eta) if not stack else np.asarray(eta, dtype=float)
    return GalileiElement(R=R, v=v, u=u, eta=eta)


def galilei_compose(a: GalileiElement, b: GalileiElement) -> GalileiElement:
    """Composite transformation acting as a after b on spacetime points."""
    eta_b = np.asarray(b.eta)[..., None]
    return GalileiElement(R=a.R @ b.R,
                          v=_matvec(a.R, b.v) + a.v,
                          u=_matvec(a.R, b.u) + eta_b * a.v + a.u,
                          eta=a.eta + b.eta)


def bargmann_exponent(r: GalileiElement, r2: GalileiElement) -> float:
    """Phase cocycle xi(r, r') = (u.Rv' - v.Ru' + eta' v.Rv') / 2.

    A float for two elements, an array over the stack for stacks.
    """
    Rv2 = _matvec(r.R, r2.v)
    return 0.5 * (_dot(r.u, Rv2) - _dot(r.v, _matvec(r.R, r2.u))
                  + r2.eta * _dot(r.v, Rv2))


# ---------------------------------------------------------------------------
# momentum-grid representation of the generators


class MomentumGrid(NamedTuple):
    """Uniform cubic momentum lattice with cell-centered points."""

    points_per_axis: int
    p_max: float

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / self.points_per_axis

    def axis(self) -> np.ndarray:
        n, h = self.points_per_axis, self.spacing
        return -self.p_max + (np.arange(n) + 0.5) * h


def momentum_grid(points_per_axis: int, p_max: float) -> MomentumGrid:
    if points_per_axis < MIN_POINTS_PER_AXIS:
        raise GridTooCoarseError(
            f"need at least {MIN_POINTS_PER_AXIS} points per axis")
    return MomentumGrid(points_per_axis=points_per_axis, p_max=float(p_max))


def _derivative(v: np.ndarray, h: float) -> np.ndarray:
    """Second-order central difference of a 1-D vector, zero beyond the boundary."""
    out = np.empty_like(v, dtype=np.result_type(v, 1.0))
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    # one-sided contributions at the faces (outside values are zero)
    out[0] = v[1]
    out[-1] = -v[-2]
    # the reciprocal is what numpy's complex division by 2h multiplies by
    out *= 1.0 / (2.0 * h)
    return out


# every generator is a real-coefficient operator times one of these phases
_PHASES: Dict[str, complex] = {
    **{f"P{i}": 1.0 + 0j for i in range(4)},
    **{f"K{i}": 1j for i in range(1, 4)},
    **{f"J{i}": -1j for i in range(1, 4)},
    "M": 1.0 + 0j,
}


def _eps(i: int, j: int, k: int) -> float:
    return float((i - j) * (j - k) * (k - i)) / 2.0


def _commutator_table() -> List[Tuple[str, str, Dict[str, complex]]]:
    """Every bracket of the displayed relation set with its target."""
    table: List[Tuple[str, str, Dict[str, complex]]] = []
    for i in range(1, 4):
        for j in range(1, 4):
            for v in "JKP":  # J, K and P each rotate as a vector
                table.append((f"J{i}", f"{v}{j}", {f"{v}{k}": 1j * _eps(i, j, k)
                                                   for k in range(1, 4) if _eps(i, j, k)}))
            table.append((f"K{i}", f"P{j}", {"M": 1j} if i == j else {}))
            table.append((f"K{i}", f"K{j}", {}))
            table.append((f"P{i}", f"P{j}", {}))
        table.append((f"K{i}", "P0", {f"P{i}": 1j}))
        table.append((f"J{i}", "P0", {}))
        table.append((f"P{i}", "P0", {}))
        for name in (f"J{i}", f"K{i}", f"P{i}"):
            table.append((name, "M", {}))
    table.append(("P0", "M", {}))
    return table


COMMUTATOR_TABLE = _commutator_table()


def _offset_gaussian(grid: MomentumGrid) -> Tuple[float, np.ndarray]:
    """Width and center of the offset Gaussian test function.

    The offset keeps every bracket from annihilating it by symmetry (a
    function radial about the origin is killed by every J_i).
    """
    sigma = grid.p_max / 8.0
    return sigma, np.array([0.3, -0.2, 0.1]) * sigma


class CommutatorReport(NamedTuple):
    mass: float
    points_per_axis: int
    spacing: float
    deviations: Dict[Tuple[str, str], float]

    def max_deviation(self, pairs: Optional[Sequence[Tuple[str, str]]] = None) -> float:
        keys = pairs if pairs is not None else self.deviations.keys()
        # np.max keeps a NaN wherever it stands, where max() may drop it
        return float(np.max([self.deviations[k] for k in keys]))


def _real_target(left: str, right: str, target: Dict[str, complex]
                 ) -> Dict[str, float]:
    """Target coefficients of one bracket relative to its phase.

    [A, B] of A = a phase_A, B = b phase_B is phase_A phase_B [a, b], so the
    bracket holds when [a, b] equals the target with each coefficient times
    phase_target / (phase_A phase_B), which is real for every entry.
    """
    phase = _PHASES[left] * _PHASES[right]
    coeffs = {}
    for name, coeff in target.items():
        real = coeff * _PHASES[name] / phase
        assert real.imag == 0.0, (left, right, name)
        coeffs[name] = real.real
    return coeffs


_REAL_TARGETS = {(left, right): _real_target(left, right, target)
                 for left, right, target in COMMUTATOR_TABLE}


def _select_brackets(pairs: Optional[Sequence[Tuple[str, str]]]
                     ) -> List[Tuple[str, str]]:
    if pairs is None:
        return list(_REAL_TARGETS)
    selected = []
    for pair in dict.fromkeys(tuple(p) for p in pairs):
        if pair not in _REAL_TARGETS:
            raise ValueError(f"no bracket {pair} in COMMUTATOR_TABLE")
        selected.append(pair)
    return selected


def _generator_terms(mass: float) -> Dict[str, List[Tuple[float, Tuple[str, str, str]]]]:
    """Each real generator as a sum of coefficient times 1-D maps per axis.

    A map is a string of steps applied left to right: "p" multiplies by p,
    "e" by p^2/(2m), "d" is the stencil of `_derivative`, "" the identity.
    """
    def on(steps):
        return tuple(steps.get(axis, "") for axis in range(3))

    terms: Dict[str, List[Tuple[float, Tuple[str, str, str]]]] = {
        "P0": [(1.0, on({i: "e"})) for i in range(3)],
        "M": [(mass, on({}))],
    }
    for i in range(3):
        terms[f"P{i + 1}"] = [(1.0, on({i: "p"}))]
        terms[f"K{i + 1}"] = [(mass, on({i: "d"}))]
    for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        terms[f"J{i + 1}"] = [(1.0, on({a: "p", b: "d"})),
                              (-1.0, on({b: "p", a: "d"}))]
    return terms


def _convergent_pairs() -> Tuple[Tuple[str, str], ...]:
    """Brackets whose finite-difference error is genuinely O(h^2): the two
    generators differ and, on some axis, one applies the stencil where the
    other multiplies by p or p^2/(2m).

    The remaining table entries hold exactly on the lattice up to roundoff
    (multiplications commute entrywise; stencils along distinct axes
    commute as linear maps).
    """
    steps = {name: [{t[axis] for _, t in terms} for axis in range(3)]
             for name, terms in _generator_terms(1.0).items()}

    def meets(a: str, b: str) -> bool:  # a's stencil on an axis b multiplies
        return any("d" in sa and sb & {"p", "e"} for sa, sb in zip(steps[a], steps[b]))

    return tuple((left, right) for left, right, _ in COMMUTATOR_TABLE
                 if left != right and (meets(left, right) or meets(right, left)))


CONVERGENT_BRACKETS = _convergent_pairs()
EXACT_BRACKETS = tuple(
    (left, right) for left, right, _ in COMMUTATOR_TABLE
    if (left, right) not in CONVERGENT_BRACKETS)


def _separable_deviations(mass: float, grid: MomentumGrid,
                          pairs: Sequence[Tuple[str, str]], center: np.ndarray
                          ) -> Dict[Tuple[str, str], float]:
    """Relative grid-L2 deviation of each bracket in `pairs` on the uncut
    Gaussian of width `_offset_gaussian` about `center`, without forming a
    single n^3 array.

    The Gaussian is g_0 (x) g_1 (x) g_2, so [a, b] psi minus its target is a
    sum of terms c_t u_t (x) v_t (x) w_t of 1-D vectors.  Terms that agree on
    two axes are summed on the third, so the O(h^2) cancellation happens in
    1-D, and the squared norm is c^T (G_u o G_v o G_w) c with the T x T Gram
    matrices of the factors (Kolda & Bader, SIAM Review 51(3), 2009, sec. 3):
    O(T^2 n) per bracket instead of O(n^3).
    """
    h, x = grid.spacing, grid.axis()
    sigma, _ = _offset_gaussian(grid)
    energy = x ** 2 / (2.0 * mass)
    steps = {"p": lambda v: x * v, "e": lambda v: energy * v,
             "d": lambda v: _derivative(v, h)}
    vectors = {(k, ""): np.exp(-(x - center[k]) ** 2 / (2.0 * sigma ** 2))
               for k in range(3)}

    def vector(axis: int, chain: str) -> np.ndarray:
        if (axis, chain) not in vectors:
            vectors[axis, chain] = steps[chain[-1]](vector(axis, chain[:-1]))
        return vectors[axis, chain]

    gens = _generator_terms(mass)
    ref = float(np.prod([np.sqrt(np.sum(np.square(vectors[k, ""])))
                         for k in range(3)]))
    deviations = {}
    for left, right in pairs:
        # [a, b] psi = a(b psi) - b(a psi): the chain of b runs first
        terms = [(sign * ca * cb, tuple(first + then for first, then in zip(*chains)))
                 for ca, a in gens[left] for cb, b in gens[right]
                 for sign, chains in ((1.0, (b, a)), (-1.0, (a, b)))]
        terms += [(-coeff * c, t) for name, coeff in _REAL_TARGETS[left, right].items()
                  for c, t in gens[name]]
        # (coefficient, per-axis keys, per-axis vectors); a summed factor
        # gets a key of its own, so it is summed no further along that axis
        merged = [(c, keys, [vector(k, key) for k, key in enumerate(keys)])
                  for c, keys in terms]
        for axis in range(3):
            groups: Dict[tuple, tuple] = {}
            for c, keys, vecs in merged:
                rest = keys[:axis] + keys[axis + 1:]
                if rest in groups:
                    c0, _, sums = groups[rest]
                    sums[axis] = c0 * sums[axis] + c * vecs[axis]
                    c, keys, vecs = 1.0, keys[:axis] + (object(),) + keys[axis + 1:], sums
                groups[rest] = (c, keys, vecs)
            merged = list(groups.values())
        c = np.array([t[0] for t in merged])
        gram = np.outer(c, c)
        for axis in range(3):
            u = np.array([t[2][axis] for t in merged])
            # numpy's pairwise sum, not a BLAS dot: no dependence on threads
            gram *= np.sum(u[:, None, :] * u[None, :, :], axis=-1)
        deviations[left, right] = float(np.sqrt(np.sum(gram))) / ref
    return deviations


def generator_commutators(mass: float, grid: MomentumGrid,
                          pairs: Optional[Sequence[Tuple[str, str]]] = None
                          ) -> CommutatorReport:
    """Worst deviation of each bracket in `pairs` from its target.

    `pairs` defaults to the whole COMMUTATOR_TABLE.  Deviations are relative
    grid-L2 norms, which refine smoothly under lattice halving (the sup over
    shifted cell-centered lattices does not), taken on two uncut Gaussians:
    the offset one and one about the origin.  The generators act as their
    real operators; the unit phases drop out of the norms.
    """
    if grid.points_per_axis < MIN_POINTS_PER_AXIS:
        raise GridTooCoarseError(
            f"need at least {MIN_POINTS_PER_AXIS} points per axis")
    table = _select_brackets(pairs)
    _, offset = _offset_gaussian(grid)
    offset_devs, origin_devs = (_separable_deviations(mass, grid, table, center)
                                for center in (offset, np.zeros(3)))
    deviations = {pair: float(np.maximum(offset_devs[pair], origin_devs[pair]))
                  for pair in table}
    return CommutatorReport(mass=mass, points_per_axis=grid.points_per_axis,
                            spacing=grid.spacing, deviations=deviations)


def commutator_convergence(mass: float, sizes: Sequence[int], p_max: float
                           ) -> Dict[Tuple[str, str], List[float]]:
    """Measured convergence orders of each refining bracket between sizes.

    The deviations are those of the offset Gaussian, computed in separable
    form from its 1-D factors.
    """
    if len(sizes) < 2 or len(set(sizes)) < len(sizes):
        raise ValueError(f"sizes {list(sizes)}: need at least two, all distinct")
    grids = [momentum_grid(n, p_max) for n in sizes]
    errs = [_separable_deviations(mass, grid, CONVERGENT_BRACKETS, _offset_gaussian(grid)[1])
            for grid in grids]
    hs = [grid.spacing for grid in grids]
    return {pair: [float(np.log(errs[i][pair] / errs[i + 1][pair])
                         / np.log(hs[i] / hs[i + 1]))
                   for i in range(len(grids) - 1)]
            for pair in CONVERGENT_BRACKETS}


# ---------------------------------------------------------------------------
# Clifford algebra and the first-order wave operator


class CliffordSet(NamedTuple):
    gammas: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def clifford_generators() -> CliffordSet:
    """Hermitian 4x4 generators with gamma^a gamma^r + gamma^r gamma^a = 2 delta."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    gammas = tuple(np.kron(s1, s) for s in (s1, s2, s3)) + (np.kron(s2, eye),)
    for g in gammas:
        g.setflags(write=False)
    return CliffordSet(gammas=gammas)  # type: ignore[arg-type]


class LevyLeblondMatrices(NamedTuple):
    A: np.ndarray
    B: Tuple[np.ndarray, np.ndarray, np.ndarray]
    C: np.ndarray
    mass: float


def levy_leblond_matrices(mass: float) -> LevyLeblondMatrices:
    """A = -i/2 (beta + beta g4), C = i m (beta - beta g4), B^i = beta g^i
    with beta = g4."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    g1, g2, g3, g4 = clifford_generators().gammas
    A = -0.5j * (g4 + g4 @ g4)
    C = 1j * mass * (g4 - g4 @ g4)
    B = (g4 @ g1, g4 @ g2, g4 @ g3)
    return LevyLeblondMatrices(A=A, B=B, C=C, mass=mass)


def levy_leblond_symbol(L: LevyLeblondMatrices, eps, p) -> np.ndarray:
    """Plane-wave symbol S(eps, p) = eps A + p_i B^i + C.

    The wave ansatz is proportional to exp(i(eps t - p.x)); with this
    convention det S vanishes exactly on the shell eps = p^2 / (2 m).
    Stacks (leading axes on eps and on p before its last) give a stack of
    symbols.
    """
    eps, p = np.asarray(eps, dtype=float)[..., None, None], np.asarray(p, dtype=float)
    return eps * L.A + sum(p[..., i, None, None] * L.B[i] for i in range(3)) + L.C
