import warnings

import numpy as np
import pytest
from scipy.special import sph_harm_y

from opalg.wigner import (EmptyLatticeError, MassZeroForMassiveKindError,
                          ShellFunction, SliceGrid, angular_decomposition,
                          gaussian_family, isometry_defect, lorentz_boost,
                          make_shell, pair_invariant_mass, reciprocal_slice,
                          restricted_inverse_fourier, spherical_harmonic,
                          two_particle_mass_spectrum)

from oracles import (channel_rank, direct_shell_sum, gaussian_values_reference,
                     shell_norm_sq, slice_norm_sq)


class TestMakeShell:
    def test_single_point_relativistic_weight(self):
        shell = make_shell("relativistic", 1.0, 1, 0.5)
        np.testing.assert_allclose(shell.weights, [0.5 ** 3 / 2.0])

    def test_massless_keeps_apex_at_weight_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the apex is no special case
            shell = make_shell("massless", 0.0, 3, 0.5)
        assert len(shell.points) == 27
        apex = np.flatnonzero(np.all(shell.points == 0.0, axis=1))
        np.testing.assert_array_equal(apex, [13])  # (n//2)(n^2 + n + 1)
        assert shell.weights[13] == 0.0
        assert np.all(np.delete(shell.weights, 13) > 0.0)

    def test_massless_energies_exact(self):
        shell = make_shell("massless", 0.0, 5, 0.3)
        np.testing.assert_array_equal(shell.energies,
                                      np.linalg.norm(shell.points, axis=1))

    def test_galilean_weights_uniform(self):
        shell = make_shell("galilean", 2.0, 3, 0.5)
        np.testing.assert_allclose(shell.weights, 0.125)

    def test_relativistic_energies(self):
        shell = make_shell("relativistic", 1.0, 3, 0.5)
        p_sq = np.sum(shell.points ** 2, axis=1)
        np.testing.assert_allclose(shell.energies, np.sqrt(p_sq + 1.0))

    def test_zero_mass_rejected_for_massive_kinds(self):
        for kind in ("galilean", "relativistic"):
            with pytest.raises(MassZeroForMassiveKindError):
                make_shell(kind, 0.0, 3, 0.5)

    def test_empty_lattice_rejected(self):
        with pytest.raises(EmptyLatticeError):
            make_shell("galilean", 1.0, 0, 0.5)


class TestRestrictedTransform:
    def test_single_point_gives_plane_wave(self):
        shell = make_shell("relativistic", 1.0, 1, 0.5)
        f = ShellFunction(shell=shell, values=np.array([1.0 + 0j]))
        grid = SliceGrid(t=0.0, points_per_axis=3, spacing=0.7)
        psi = restricted_inverse_fourier(f, grid)
        expected = shell.weights[0] * (2 * np.pi) ** -1.5 \
            * np.exp(1j * (grid.points() @ shell.points[0]))
        np.testing.assert_allclose(psi, expected, atol=1e-14)

    @pytest.mark.parametrize("kind, n, grid_n, grid_spacing", [
        ("galilean", 4, 3, 0.5),
        ("galilean", 4, None, None),
        ("relativistic", 3, 5, 0.45),
        ("relativistic", 3, None, None),
    ])
    def test_matches_pointwise_oracle(self, kind, n, grid_n, grid_spacing):
        shell = make_shell(kind, 1.0, n, 0.6)
        rng = np.random.default_rng(0)
        size = n ** 3
        f = ShellFunction(shell=shell,
                          values=rng.normal(size=size) + 1j * rng.normal(size=size))
        grid = reciprocal_slice(shell, 0.7) if grid_n is None \
            else SliceGrid(t=0.7, points_per_axis=grid_n, spacing=grid_spacing)
        got = restricted_inverse_fourier(f, grid)
        want = direct_shell_sum(shell.points, shell.weights, shell.energies,
                                f.values, grid.points(), 0.7)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cone_apex_matches_oracle(self, n):
        # the cone's apex, at row-major index (n//2)(n^2 + n + 1), has
        # weight 0; n = 1 leaves only the apex and an all-zero transform
        shell = make_shell("massless", 0.0, n, 0.5)
        size = n ** 3
        rng = np.random.default_rng(1)
        f = ShellFunction(shell=shell,
                          values=rng.normal(size=size) + 1j * rng.normal(size=size))
        grid = SliceGrid(t=0.3, points_per_axis=3, spacing=0.4)
        got = restricted_inverse_fourier(f, grid)
        want = direct_shell_sum(shell.points, shell.weights, shell.energies,
                                f.values, grid.points(), 0.3)
        np.testing.assert_allclose(got, want, atol=1e-12)
        if n == 1:
            assert not np.any(got)

    def test_linearity(self):
        shell = make_shell("galilean", 1.0, 4, 0.5)
        rng = np.random.default_rng(2)
        v1 = rng.normal(size=64) + 1j * rng.normal(size=64)
        v2 = rng.normal(size=64) + 1j * rng.normal(size=64)
        grid = reciprocal_slice(shell, 0.0)
        one = restricted_inverse_fourier(ShellFunction(shell, v1), grid)
        two = restricted_inverse_fourier(ShellFunction(shell, v2), grid)
        both = restricted_inverse_fourier(ShellFunction(shell, v1 + v2), grid)
        np.testing.assert_allclose(both, one + two, atol=1e-12)

    def test_free_evolution_preserves_norm(self):
        shell = make_shell("galilean", 1.0, 8, 0.5)
        f = gaussian_family(shell, width=0.7, radius=0.0)[0]
        norms = []
        for t in (0.0, 1.0):
            grid = reciprocal_slice(shell, t)
            psi = restricted_inverse_fourier(f, grid)
            norms.append(slice_norm_sq(psi, grid))
        assert abs(norms[0] - norms[1]) < 1e-8 * norms[0]

    def test_time_translation_covariance(self):
        shell = make_shell("relativistic", 1.0, 4, 0.5)
        rng = np.random.default_rng(3)
        values = rng.normal(size=64) + 1j * rng.normal(size=64)
        dt = 0.9
        shifted = values * np.exp(-1j * shell.energies * dt)
        grid_late = reciprocal_slice(shell, 1.0 + dt)
        grid_early = SliceGrid(t=1.0, points_per_axis=4,
                               spacing=grid_late.spacing)
        late = restricted_inverse_fourier(ShellFunction(shell, values), grid_late)
        early = restricted_inverse_fourier(ShellFunction(shell, shifted), grid_early)
        np.testing.assert_allclose(late, early, atol=1e-13)

    @pytest.mark.parametrize("kind, mass", [("galilean", 1.3), ("relativistic", 0.8),
                                            ("massless", 0.0)])
    @pytest.mark.parametrize("n", [6, 7])
    def test_slice_norm_is_parseval_closed_form(self, kind, mass, n):
        # between reciprocal lattices the transform is a unitary DFT times
        # (2 pi)^{-3/2}: the slice norm is sum (w |f|)^2 / dp^3 at every t;
        # the cone's apex has weight 0 at both n
        shell = make_shell(kind, mass, n, 0.45)
        rng = np.random.default_rng(n)
        size = len(shell.points)
        f = ShellFunction(shell, rng.normal(size=size) + 1j * rng.normal(size=size))
        closed = np.sum(np.abs(shell.weights * f.values) ** 2) / shell.spacing ** 3
        for t in rng.uniform(-5.0, 5.0, size=3):
            grid = reciprocal_slice(shell, t)
            got = slice_norm_sq(restricted_inverse_fourier(f, grid), grid)
            assert abs(got / closed - 1.0) <= 1e-14

    def test_two_shell_superposition_is_sum_of_transforms(self):
        # one slice of a two-shell decomposition equals the per-shell sum
        shell_a = make_shell("relativistic", 1.0, 3, 0.5)
        shell_b = make_shell("relativistic", 2.0, 3, 0.5)
        rng = np.random.default_rng(4)
        fa = ShellFunction(shell_a, rng.normal(size=27) + 1j * rng.normal(size=27))
        fb = ShellFunction(shell_b, rng.normal(size=27) + 1j * rng.normal(size=27))
        grid = SliceGrid(t=0.4, points_per_axis=3, spacing=0.6)
        combined_points = np.vstack([shell_a.points, shell_b.points])
        combined_weights = np.concatenate([shell_a.weights, shell_b.weights])
        combined_energies = np.concatenate([shell_a.energies, shell_b.energies])
        combined_values = np.concatenate([fa.values, fb.values])
        want = direct_shell_sum(combined_points, combined_weights,
                                combined_energies, combined_values,
                                grid.points(), 0.4)
        got = restricted_inverse_fourier(fa, grid) \
            + restricted_inverse_fourier(fb, grid)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestIsometryDefect:
    def test_galilean_parseval(self):
        shell = make_shell("galilean", 1.0, 16, 0.4)
        assert isometry_defect(shell) <= 1e-8

    def test_relativistic_measure_breaks_parseval(self):
        shell = make_shell("relativistic", 1.0, 16, 0.4)
        assert isometry_defect(shell) > 0.05

    def test_reweighting_restores_isometry(self):
        shell = make_shell("relativistic", 1.0, 16, 0.4)
        assert isometry_defect(shell, reweight="newton_wigner") <= 1e-8

    @pytest.mark.parametrize("kind, mass, n, reweight", [
        ("galilean", 1.0, 8, "none"),
        ("relativistic", 1.0, 9, "none"),
        ("relativistic", 1.0, 8, "newton_wigner"),
        ("massless", 0.0, 7, "newton_wigner"),
    ])
    def test_closed_form_matches_the_transform(self, kind, mass, n, reweight):
        # the defect of the transformed family at any t, from slice norms
        shell = make_shell(kind, mass, n, 0.4)
        scale = np.sqrt(2.0 * shell.energies) if reweight == "newton_wigner" else 1.0
        radius = mass if kind == "relativistic" else 0.0
        defect = isometry_defect(shell, reweight)
        for t in (0.0, 1.0, 7.3):
            grid = reciprocal_slice(shell, t)
            want = max(abs(slice_norm_sq(restricted_inverse_fourier(
                ShellFunction(shell, f.values * scale), grid), grid)
                / shell_norm_sq(f) - 1.0)
                for f in gaussian_family(shell, width=0.5, radius=radius))
            assert abs(defect - want) <= 1e-13

    def test_vanishing_probe_family_is_an_error(self):
        # centres at +/-40 against a lattice of half-extent 3.2: every
        # Gaussian underflows to 0, and no norm is left to compare
        shell = make_shell("relativistic", 40.0, 16, 0.4)
        with pytest.raises(ValueError, match=r"radius 40 against lattice half-extent 3\.2"):
            isometry_defect(shell)
        # the one-point cone: its Gaussian lives on the weight-0 apex alone,
        # so the weighted norm is 0 though the peak is 1
        apex = make_shell("massless", 0.0, 1, 0.4)
        with pytest.raises(ValueError, match="every probe Gaussian vanishes"):
            isometry_defect(apex, "newton_wigner")

    def test_far_probe_family_is_measured(self):
        # at mass 18.4 every |f|^2 underflows, but no |f|: the members are
        # divided by their peaks, and the broken measure still shows
        shell = make_shell("relativistic", 18.4, 16, 0.4)
        assert isometry_defect(shell) > 0.9

    def test_norm_bookkeeping(self):
        shell = make_shell("galilean", 1.0, 8, 0.5)
        f = gaussian_family(shell, width=0.6, radius=0.0)[0]
        grid = reciprocal_slice(shell, 0.0)
        psi = restricted_inverse_fourier(f, grid)
        assert abs(slice_norm_sq(psi, grid) / shell_norm_sq(f) - 1) < 1e-12


class TestGaussianFamily:
    @pytest.mark.parametrize("n", [1, 6, 7, 16])
    @pytest.mark.parametrize("radius", [0.0, 0.9])
    def test_products_of_axis_factors_match_distance_reference(self, n, radius):
        # radius 0: one centre; otherwise six, on the +/- coordinate axes
        shell = make_shell("galilean", 1.0, n, 0.45)
        family = gaussian_family(shell, width=0.5, radius=radius)
        want = gaussian_values_reference(shell.points, 0.5, radius)
        assert len(family) == len(want) == (1 if radius == 0 else 6)
        for f, values in zip(family, want):
            assert f.shell is shell
            assert np.max(np.abs(f.values - values)) <= 1e-15 * np.max(values)


class TestTwoParticle:
    def test_threshold_at_rest(self):
        shell = make_shell("relativistic", 1.0, 5, 0.5)
        stats = two_particle_mass_spectrum(shell, 2000,
                                           rng=np.random.default_rng(5))
        assert stats.threshold == 2.0
        assert stats.min >= 2.0 - 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_cone_threshold_is_zero(self, n):
        # the pair at the apex attains the threshold 0, whatever the mass
        shell = make_shell("massless", 3.0, n, 0.5)
        stats = two_particle_mass_spectrum(shell, 400, rng=np.random.default_rng(9))
        assert stats.threshold == 0.0
        assert stats.min >= 0.0
        if n == 1:
            assert not np.any(stats.values)

    def test_back_to_back_pair(self):
        e = np.sqrt(2.0)
        m = pair_invariant_mass(np.array([e]), np.array([[0, 0, 1.0]]),
                                np.array([e]), np.array([[0, 0, -1.0]]))
        np.testing.assert_allclose(m, [2 * np.sqrt(2)])

    def test_galilean_central_value_exact(self):
        shell = make_shell("galilean", 1.5, 5, 0.5)
        stats = two_particle_mass_spectrum(shell, 500, rng=np.random.default_rng(0))
        assert np.all(stats.values == 3.0)

    def test_boost_invariance(self):
        shell = make_shell("relativistic", 1.0, 5, 0.5)
        rng = np.random.default_rng(6)
        idx = rng.integers(0, len(shell.points), size=(200, 2))
        e1, p1 = shell.energies[idx[:, 0]], shell.points[idx[:, 0]]
        e2, p2 = shell.energies[idx[:, 1]], shell.points[idx[:, 1]]
        before = pair_invariant_mass(e1, p1, e2, p2)
        for beta in ([0.5, 0, 0], [0.1, -0.6, 0.3], [0, 0, -0.9]):
            b1, q1 = lorentz_boost(e1, p1, np.array(beta))
            b2, q2 = lorentz_boost(e2, p2, np.array(beta))
            after = pair_invariant_mass(b1, q1, b2, q2)
            np.testing.assert_allclose(after, before, atol=1e-10)
        e0, q0 = lorentz_boost(e1, p1, np.zeros(3))
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(q0, p1)

    def test_boost_speed_limited(self):
        with pytest.raises(ValueError):
            lorentz_boost(np.array([1.0]), np.array([[0, 0, 0.0]]),
                          np.array([1.0, 0, 0]))


class TestAngular:
    def test_isotropic_amplitude(self):
        rep = angular_decomposition(
            lambda th, ph: np.ones_like(th, dtype=complex), 4)
        assert rep.channel_norms[0] > 1.0
        assert all(rep.channel_norms[l] < 1e-12 for l in range(1, 5))

    def test_pure_cos_theta(self):
        rep = angular_decomposition(lambda th, ph: np.cos(th) + 0j, 4)
        assert rep.channel_norms[1] > 1.0
        assert all(rep.channel_norms[l] < 1e-12 for l in (0, 2, 3, 4))

    def test_harmonics_match_scipy(self):
        rng = np.random.default_rng(7)
        theta = rng.uniform(0.1, np.pi - 0.1, size=40)
        phi = rng.uniform(0, 2 * np.pi, size=40)
        for l in range(6):
            for m in range(-l, l + 1):
                mine = spherical_harmonic(l, m, theta, phi)
                ref = sph_harm_y(l, m, theta, phi)
                np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_channel_norms_match_dense_scipy_oracle(self):
        rng = np.random.default_rng(8)
        coeffs = {(l, m): rng.normal() + 1j * rng.normal()
                  for l in range(4) for m in range(-l, l + 1)}

        def amplitude(th, ph):
            out = np.zeros_like(th, dtype=complex)
            for (l, m), c in coeffs.items():
                out += c * sph_harm_y(l, m, th, ph)
            return out

        rep = angular_decomposition(amplitude, 5)
        # independent dense product quadrature with scipy harmonics
        x, w = np.polynomial.legendre.leggauss(24)
        th = np.arccos(x)[:, None] * np.ones(48)[None, :]
        ph = np.ones(24)[:, None] * (2 * np.pi * np.arange(48) / 48)[None, :]
        wq = (w[:, None] * np.ones(48)[None, :]) * (2 * np.pi / 48)
        values = amplitude(th, ph)
        for l in range(4):
            oracle = sum(abs(np.sum(wq * np.conj(sph_harm_y(l, m, th, ph))
                                    * values)) ** 2
                         for m in range(-l, l + 1))
            assert abs(rep.channel_norms[l] - oracle) < 1e-8

    def test_multiplicity_one_channel_rank(self):
        amps = [lambda th, ph, k=k: (1.0 + 0.5 * k) * np.cos(th)
                + 0.1 * k * np.sin(th) * np.cos(ph) + 0j for k in range(5)]
        assert channel_rank(amps, 1, 0, n_theta=8, n_phi=8) == 1
        assert channel_rank(amps, 1, 1, n_theta=8, n_phi=8) == 1
        assert channel_rank(amps, 3, 0, n_theta=8, n_phi=8) == 0
