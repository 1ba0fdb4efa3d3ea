"""Discretized mass shells and restricted inverse Fourier transforms.

A shell is a cubic momentum lattice carrying quadrature weights for the
invariant measure of its kind (paraboloid, hyperboloid or cone); shell
functions are transformed to fixed-time slices with the plane-wave kernel
exp(i(p.x - e_p t)).  Isometry-defect probes, two-particle invariant-mass
statistics and spherical-channel decompositions operate on top.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

__all__ = [
    "MassShell",
    "ShellFunction",
    "SliceGrid",
    "SpectrumStats",
    "AngularReport",
    "MassZeroForMassiveKindError",
    "EmptyLatticeError",
    "make_shell",
    "reciprocal_slice",
    "restricted_inverse_fourier",
    "isometry_defect",
    "gaussian_family",
    "two_particle_mass_spectrum",
    "lorentz_boost",
    "pair_invariant_mass",
    "angular_decomposition",
    "spherical_harmonic",
]

SHELL_KINDS = ("galilean", "relativistic", "massless")


class MassZeroForMassiveKindError(ValueError):
    pass


class EmptyLatticeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# shells


def _cubic_axis(n: int, spacing: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * spacing


def _lattice(axis: np.ndarray) -> np.ndarray:
    """The (n^3, 3) points of the cube axis^3 in row-major axis order."""
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij", copy=False),
                    axis=-1).reshape(-1, 3)


class MassShell(NamedTuple):
    kind: str
    mass: float
    points: np.ndarray            # (n^3, 3), row-major axis order
    weights: np.ndarray           # (n^3,)
    energies: np.ndarray          # (n^3,)
    points_per_axis: int
    spacing: float


def _energies(kind: str, mass: float, axis: np.ndarray) -> np.ndarray:
    """e_p over the cube axis^3, in row-major axis order."""
    sq = axis ** 2
    p_sq = (sq[:, None, None] + sq[:, None] + sq).ravel()
    if kind == "galilean":
        return p_sq / (2.0 * mass)
    if kind == "relativistic":
        return np.sqrt(p_sq + mass ** 2)
    return np.sqrt(p_sq)


def make_shell(kind: str, mass: float, points_per_axis: int,
               spacing: float) -> MassShell:
    """Cubic momentum lattice with the quadrature weights of its measure.

    Weights are dp^3 for the paraboloid and dp^3/(2 e_p) for the mass
    hyperboloid and the light cone; the cone keeps its singular apex p = 0
    at weight 0.
    """
    if kind not in SHELL_KINDS:
        raise ValueError(f"unknown shell kind {kind!r}")
    if points_per_axis < 1:
        raise EmptyLatticeError("need at least one lattice point per axis")
    if spacing <= 0:
        raise ValueError("lattice spacing must be positive")
    if kind != "massless" and mass <= 0:
        raise MassZeroForMassiveKindError(
            f"kind {kind!r} requires a positive mass, got {mass}")
    axis = _cubic_axis(points_per_axis, spacing)
    energies = _energies(kind, mass, axis)
    cell = spacing ** 3
    if kind == "galilean":
        weights = np.full(len(energies), cell)
    else:
        weights = np.divide(cell, 2.0 * energies, out=np.zeros_like(energies),
                            where=energies > 0)
    points = _lattice(axis)
    for a in (points, weights, energies):
        a.setflags(write=False)
    return MassShell(kind=kind, mass=float(mass), points=points,
                     weights=weights, energies=energies,
                     points_per_axis=points_per_axis, spacing=float(spacing))


class ShellFunction(NamedTuple("ShellFunction", [("shell", MassShell),
                                                  ("values", np.ndarray)])):
    __slots__ = ()

    def __new__(cls, shell: MassShell, values: np.ndarray):
        if values.shape != (len(shell.points),):
            raise ValueError("one value per shell point required")
        return super().__new__(cls, shell, values)


# ---------------------------------------------------------------------------
# slices and the restricted transform


class SliceGrid(NamedTuple):
    t: float
    points_per_axis: int
    spacing: float

    def axis(self) -> np.ndarray:
        return _cubic_axis(self.points_per_axis, self.spacing)

    def points(self) -> np.ndarray:
        return _lattice(self.axis())


def reciprocal_slice(shell: MassShell, t: float) -> SliceGrid:
    """Slice lattice exactly reciprocal to the shell lattice."""
    n = shell.points_per_axis
    return SliceGrid(t=float(t), points_per_axis=n,
                     spacing=2.0 * np.pi / (n * shell.spacing))


def restricted_inverse_fourier(f: ShellFunction, grid: SliceGrid) -> np.ndarray:
    """Quadrature sum (2 pi)^{-3/2} sum_i w_i psi(p_i) exp(i(p_i.x - e_i t)).

    Returns slice values in row-major axis order.  The kernel factorises
    per axis, so every shell and slice grid takes one separable path: the
    weighted values fill the n^3 momentum cube and each momentum axis in
    turn is contracted with the (n_x, n_p) phase matrix.
    """
    shell = f.shell
    n = shell.points_per_axis
    g = shell.weights * f.values * np.exp(-1j * shell.energies * grid.t)
    phase = np.exp(1j * np.outer(grid.axis(), _cubic_axis(n, shell.spacing)))
    out = g.reshape(n, n, n)
    for _ in range(3):  # contracts the leading p axis, appends its x axis
        out = np.tensordot(out, phase, axes=(0, 1))
    return (2.0 * np.pi) ** -1.5 * out.ravel()


def gaussian_family(shell: MassShell, width: float, radius: float
                    ) -> List[ShellFunction]:
    """Gaussians centered on the +/- coordinate axes at the given radius.

    Each member is the outer product of three 1-D Gaussians on the axis.
    """
    axis = _cubic_axis(shell.points_per_axis, shell.spacing)
    centers = [np.zeros(3)] if radius == 0 else [
        sign * radius * e for e in np.eye(3) for sign in (+1.0, -1.0)]
    family = []
    for c in centers:
        x, y, z = (np.exp(-(axis - ci) ** 2 / (2.0 * width ** 2)) for ci in c)
        family.append(ShellFunction(shell=shell,
                                    values=(x[:, None, None] * y[:, None] * z).ravel()))
    return family


def isometry_defect(shell: MassShell, reweight: str = "none") -> float:
    """Worst relative norm mismatch of the transform over a width-0.5 `gaussian_family`.

    The value is the defect of the transform onto `reciprocal_slice(shell, t)`
    for every t: between reciprocal lattices the transform is a unitary DFT
    times (2 pi)^{-3/2} and exp(-i e_p t) has modulus one, so by Parseval's
    identity the slice norm of f is sum (w |f|)^2 / dp^3, and the defect is
    read from that closed form without a slice.  Each member is first
    divided by its largest |value|, which leaves the ratio alone and keeps
    the squares normal; a member of weighted norm 0 (underflowed, or left
    only on the cone's zero-weight apex) is skipped.  reweight
    "newton_wigner" rescales shell functions by (2 e_p)^{1/2}, which
    restores an exact lattice isometry for the hyperboloid measure.
    """
    if reweight not in ("none", "newton_wigner"):
        raise ValueError(f"unknown reweight mode {reweight!r}")
    radius = shell.mass if shell.kind == "relativistic" else 0.0
    scale_sq = 2.0 * shell.energies if reweight == "newton_wigner" else 1.0
    slice_weights = shell.weights ** 2 * scale_sq / shell.spacing ** 3
    defects = []
    for f in gaussian_family(shell, width=0.5, radius=radius):
        peak = np.max(f.values, initial=0.0)  # the Gaussians are positive
        f_sq = (f.values / peak) ** 2 if peak > 0.0 else f.values  # or all 0
        norm = np.sum(shell.weights * f_sq)
        if norm > 0.0:
            defects.append(abs(float(np.sum(slice_weights * f_sq) / norm) - 1.0))
    if not defects:
        half = (shell.points_per_axis // 2) * shell.spacing
        raise ValueError(f"every probe Gaussian vanishes on the lattice: centre "
                         f"radius {radius:g} against lattice half-extent {half:g}")
    return float(np.max(defects))  # keeps a NaN defect


# ---------------------------------------------------------------------------
# two-particle spectrum


def pair_invariant_mass(eps1, p1, eps2, p2) -> np.ndarray:
    total_e = eps1 + eps2
    total_p = p1 + p2
    m_sq = total_e ** 2 - np.sum(total_p ** 2, axis=-1)
    return np.sqrt(np.maximum(m_sq, 0.0))


def lorentz_boost(eps, p, beta: np.ndarray):
    """Boost energy-momentum pairs by velocity beta (|beta| < 1)."""
    beta = np.asarray(beta, dtype=float)
    b_sq = float(beta @ beta)
    if b_sq >= 1.0:
        raise ValueError("boost velocity must have |beta| < 1")
    gamma = 1.0 / np.sqrt(1.0 - b_sq)
    p, eps = np.atleast_2d(p), np.atleast_1d(eps)
    p_par = (p @ beta) / b_sq if b_sq > 0 else 0.0  # at beta = 0 the shift is 0
    shift = ((gamma - 1.0) * p_par + gamma * eps)[:, None] * beta
    return gamma * (eps + p @ beta), p + shift


class SpectrumStats(NamedTuple):
    kind: str
    mass: float
    values: np.ndarray
    threshold: float

    @property
    def min(self) -> float:
        return float(np.min(self.values))


def two_particle_mass_spectrum(shell: MassShell, samples: int,
                               rng: np.random.Generator) -> SpectrumStats:
    """Invariant masses of sampled point pairs.

    Relativistic pairs spread over [2m, inf); the pair at the origin attains
    the threshold.  The Galilean value is the represented central generator
    of the product representation, m + m exactly for every pair.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if shell.kind == "galilean":
        values = np.full(samples, 2.0 * shell.mass)
        return SpectrumStats(kind=shell.kind, mass=shell.mass, values=values,
                             threshold=2.0 * shell.mass)
    idx1 = rng.integers(0, len(shell.points), size=samples)
    idx2 = rng.integers(0, len(shell.points), size=samples)
    values = pair_invariant_mass(shell.energies[idx1], shell.points[idx1],
                                 shell.energies[idx2], shell.points[idx2])
    origin = np.zeros((1, 3))
    e0 = _energies(shell.kind, shell.mass, np.zeros(1))
    threshold = float(pair_invariant_mass(e0, origin, e0, origin)[0])
    return SpectrumStats(kind=shell.kind, mass=shell.mass, values=values,
                         threshold=threshold)


# ---------------------------------------------------------------------------
# spherical channel analysis


def _legendre_assoc(l: int, m: int, x: np.ndarray) -> np.ndarray:
    """Associated Legendre P_l^m by upward recurrence in l from P_m^m."""
    somx2 = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    below, p = np.zeros_like(x), np.ones_like(x)
    for k in range(m):  # P_m^m = (-1)^m (2m - 1)!! (1 - x^2)^{m/2}
        p = -p * (2 * k + 1) * somx2
    for j in range(m + 1, l + 1):
        below, p = p, (x * (2 * j - 1) * p - (j + m - 1) * below) / (j - m)
    return p


def spherical_harmonic(l: int, m: int, theta, phi) -> np.ndarray:
    """Orthonormal Y_lm with the Condon-Shortley phase."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    am = abs(m)
    if am > l:
        raise ValueError("|m| must not exceed l")
    from math import lgamma
    plm = _legendre_assoc(l, am, np.cos(theta))
    log_norm = 0.5 * (np.log((2 * l + 1) / (4 * np.pi))
                      + lgamma(l - am + 1) - lgamma(l + am + 1))
    y = np.exp(log_norm) * plm * np.exp(1j * am * phi)
    if m < 0:
        y = (-1.0) ** am * np.conj(y)
    return y


def _sphere_quadrature(n_theta: int, n_phi: int):
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th_grid, ph_grid = np.meshgrid(theta, phi, indexing="ij")
    w_grid = np.broadcast_to((w * (2.0 * np.pi / n_phi))[:, None],
                             th_grid.shape)
    return th_grid, ph_grid, w_grid


Amplitude = Callable[[np.ndarray, np.ndarray], np.ndarray]


class AngularReport(NamedTuple):
    l_max: int
    coefficients: Dict[Tuple[int, int], complex]
    channel_norms: Dict[int, float]


def angular_decomposition(amplitude: Amplitude, l_max: int) -> AngularReport:
    """Channel norms of a back-to-back pair amplitude on the sphere.

    The product quadrature (Gauss-Legendre in cos(theta), uniform in phi)
    takes l_max + 2 and 2 l_max + 2 nodes; it integrates harmonic products
    exactly from l_max + 1 and 2 l_max + 1 on.
    """
    if l_max < 0:
        raise ValueError("l_max must be nonnegative")
    theta, phi, w = _sphere_quadrature(l_max + 2, 2 * l_max + 2)
    values = amplitude(theta, phi)
    coeffs: Dict[Tuple[int, int], complex] = {}
    norms: Dict[int, float] = {}
    for l in range(l_max + 1):
        total = 0.0
        for m in range(-l, l + 1):
            y = spherical_harmonic(l, m, theta, phi)
            c = complex(np.sum(w * np.conj(y) * values))
            coeffs[(l, m)] = c
            total += abs(c) ** 2
        norms[l] = total
    return AngularReport(l_max=l_max, coefficients=coeffs, channel_norms=norms)
