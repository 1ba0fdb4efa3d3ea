import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.galilei import (_PHASES, COMMUTATOR_TABLE, CONVERGENT_BRACKETS,
                           EXACT_BRACKETS, GridTooCoarseError,
                           NotARotationError, _derivative, _offset_gaussian,
                           _separable_deviations, bargmann_exponent,
                           clifford_generators, commutator_convergence,
                           galilei_compose, generator_commutators,
                           levy_leblond_matrices, levy_leblond_symbol,
                           make_galilei, momentum_grid)

import oracles
from oracles import (_coordinate, _default_test_functions, _real_generators,
                     bracket_deviations_reference, degenerate_norm_structure,
                     galilei_identity, grid_commutators, grid_generators,
                     levy_leblond_density, uncut_gaussians)


def random_element(rng):
    M = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(M)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return make_galilei(Q, rng.normal(size=3), rng.normal(size=3), rng.normal())


def random_rotations(rng, stack):
    Q, _ = np.linalg.qr(rng.normal(size=tuple(stack) + (3, 3)))
    Q[np.linalg.det(Q) < 0, :, 0] *= -1.0
    return Q


def random_stack(rng, stack):
    stack = tuple(stack)
    return make_galilei(random_rotations(rng, stack), rng.normal(size=stack + (3,)),
                        rng.normal(size=stack + (3,)), rng.normal(size=stack))


def element_at(g, idx):
    return make_galilei(g.R[idx], g.v[idx], g.u[idx], g.eta[idx])


def boost(v):
    return make_galilei(np.eye(3), v, np.zeros(3), 0.0)


def translation(u):
    return make_galilei(np.eye(3), np.zeros(3), u, 0.0)


class TestExponent:
    def test_identity_pair(self):
        e = galilei_identity()
        assert bargmann_exponent(e, e) == 0.0

    def test_boost_then_translation(self):
        assert bargmann_exponent(boost([1, 0, 0]), translation([1, 0, 0])) == -0.5

    def test_translation_then_boost(self):
        assert bargmann_exponent(translation([1, 0, 0]), boost([1, 0, 0])) == 0.5

    def test_identity_normalization(self):
        rng = np.random.default_rng(0)
        e = galilei_identity()
        for _ in range(20):
            r = random_element(rng)
            assert abs(bargmann_exponent(e, r)) < 1e-15
            assert abs(bargmann_exponent(r, e)) < 1e-15

    def test_cocycle_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            r, rp, rpp = (random_element(rng) for _ in range(3))
            lhs = bargmann_exponent(r, rp) \
                + bargmann_exponent(galilei_compose(r, rp), rpp)
            rhs = bargmann_exponent(rp, rpp) \
                + bargmann_exponent(r, galilei_compose(rp, rpp))
            assert abs(lhs - rhs) < 1e-10

    def test_rotation_validation(self):
        with pytest.raises(NotARotationError):
            make_galilei(2 * np.eye(3), np.zeros(3), np.zeros(3), 0.0)


stack_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=2)


class TestStackedGroupLaw:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), stack=stack_shapes)
    def test_stack_matches_scalar_calls(self, seed, stack):
        rng = np.random.default_rng(seed)
        a, b = random_stack(rng, stack), random_stack(rng, stack)
        ab = galilei_compose(a, b)
        xi = bargmann_exponent(a, b)
        assert xi.shape == tuple(stack)
        for idx in np.ndindex(*stack):
            ai, bi = element_at(a, idx), element_at(b, idx)
            one = galilei_compose(ai, bi)
            for field in ("R", "v", "u"):
                assert np.max(np.abs(getattr(ab, field)[idx]
                                     - getattr(one, field))) <= 1e-13
            assert abs(ab.eta[idx] - one.eta) <= 1e-13
            assert abs(xi[idx] - bargmann_exponent(ai, bi)) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6),
           bad=st.sampled_from(["reflection", "shear"]), data=st.data())
    def test_one_bad_matrix_rejects_the_stack(self, seed, k, bad, data):
        rng = np.random.default_rng(seed)
        R = random_rotations(rng, (k,))
        j = data.draw(st.integers(0, k - 1))
        if bad == "reflection":
            R[j, :, 0] *= -1.0
        else:
            R[j] = R[j] @ np.array([[1.0, 1e-3, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(NotARotationError):
            make_galilei(R, np.zeros((k, 3)), np.zeros((k, 3)), np.zeros(k))

    def test_scalar_calls_keep_their_types(self):
        r = random_element(np.random.default_rng(8))
        assert type(r.eta) is float
        assert r.R.shape == (3, 3) and r.v.shape == (3,)
        xi = bargmann_exponent(r, r)
        assert isinstance(xi, float) and np.ndim(xi) == 0
        assert isinstance(galilei_compose(r, r).eta, float)

    def test_mismatched_stack_rejected(self):
        R = random_rotations(np.random.default_rng(9), (2,))
        with pytest.raises(ValueError):
            make_galilei(R, np.zeros((3, 3)), np.zeros((2, 3)), np.zeros(2))


class TestGroupLaw:
    """The centrally extended product (theta_a, a)(theta_b, b) = (theta_a +
    theta_b + xi(a, b), a b), from galilei_compose and bargmann_exponent."""

    def test_central_element_multiplies_trivially(self):
        rng = np.random.default_rng(2)
        r, e = random_element(rng), galilei_identity()
        assert 0.0 + 0.4 + bargmann_exponent(e, r) == 0.4
        np.testing.assert_allclose(galilei_compose(e, r).R, r.R)

    def test_boost_translation_phase_asymmetry(self):
        b, t = boost([1, 0, 0]), translation([1, 0, 0])
        bt, tb = bargmann_exponent(b, t), bargmann_exponent(t, b)
        assert abs((bt - tb) + 1.0) < 1e-15

    def test_associativity_of_phases(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            (ta, a), (tb, b), (tc, c) = ((rng.normal(), random_element(rng))
                                         for _ in range(3))
            ab, bc = galilei_compose(a, b), galilei_compose(b, c)
            left = (ta + tb + bargmann_exponent(a, b)) + tc + bargmann_exponent(ab, c)
            right = ta + (tb + tc + bargmann_exponent(b, c)) + bargmann_exponent(a, bc)
            assert abs(left - right) < 1e-10
            left_g, right_g = galilei_compose(ab, c), galilei_compose(a, bc)
            np.testing.assert_allclose(left_g.R, right_g.R, atol=1e-12)
            np.testing.assert_allclose(left_g.u, right_g.u, atol=1e-10)


class TestGridCommutators:
    def test_exact_brackets_at_roundoff(self):
        report = generator_commutators(1.0, momentum_grid(32, 10.0))
        assert report.max_deviation(EXACT_BRACKETS) < 1e-11

    def test_refinement_classes_match_the_listed_brackets(self):
        listed = set()
        for i in range(1, 4):
            listed |= {(f"K{i}", f"P{i}"), (f"K{i}", "P0"), (f"J{i}", "P0")}
            for j in set(range(1, 4)) - {i}:
                listed |= {(f"J{i}", f"P{j}"), (f"J{i}", f"J{j}"), (f"J{i}", f"K{j}")}
        assert len(CONVERGENT_BRACKETS) == len(listed) == 27
        assert set(CONVERGENT_BRACKETS) == listed
        assert sorted(CONVERGENT_BRACKETS + EXACT_BRACKETS) \
            == sorted((l, r) for l, r, _ in COMMUTATOR_TABLE)

    def test_finite_difference_brackets_small_but_nonzero(self):
        report = generator_commutators(1.0, momentum_grid(32, 10.0))
        worst = report.max_deviation(CONVERGENT_BRACKETS)
        assert 1e-6 < worst < 1.0

    def test_mass_enters_boost_momentum_bracket(self):
        grid = momentum_grid(32, 10.0)
        r1 = generator_commutators(1.0, grid)
        r2 = generator_commutators(2.0, grid)
        # relative deviations stay comparable when the mass doubles
        assert r2.deviations[("K1", "P1")] < 4 * r1.deviations[("K1", "P1")]

    def test_convergence_order_is_two(self):
        orders = commutator_convergence(1.0, (32, 64), 10.0)
        flat = [o for seq in orders.values() for o in seq]
        assert min(flat) > 1.8
        assert max(flat) < 2.2

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridTooCoarseError):
            momentum_grid(16, 10.0)

    def test_nan_deviation_sticks(self):
        # a NaN mass makes every bracket that the mass enters NaN on both
        # Gaussians; neither their maximum nor max_deviation() drops it
        grid = momentum_grid(32, 10.0)
        report = generator_commutators(float("nan"), grid, pairs=EXACT_BRACKETS)
        assert np.isnan(report.deviations[("K1", "K2")])
        assert np.isnan(report.max_deviation())
        partial = report._replace(deviations={EXACT_BRACKETS[0]: 0.0,
                                              EXACT_BRACKETS[1]: np.nan})
        assert np.isnan(partial.max_deviation())

    def test_central_generator_adds_on_tensor_products(self):
        # the represented mass acts as m + m = 2m on a two-fold product
        mass = 1.3
        grid = momentum_grid(32, 10.0)
        gens = grid_generators(mass, grid)
        rng = np.random.default_rng(6)
        psi = rng.normal(size=(32, 32, 32))
        phi = rng.normal(size=(32, 32, 32))
        a, ma = psi.ravel()[:64], gens["M"](psi).ravel()[:64]
        b, mb = phi.ravel()[:64], gens["M"](phi).ravel()[:64]
        acted = np.outer(ma, b) + np.outer(a, mb)
        np.testing.assert_allclose(acted, 2 * mass * np.outer(a, b), atol=1e-12)


LADDER = (32, 64, 128)


@pytest.fixture(scope="module")
def ladder_deviations():
    """Separable and 3-D deviations of the convergent brackets on the uncut
    offset Gaussian at each size of LADDER, the 3-D ones from the twin."""
    out = {}
    for n in LADDER:
        grid = momentum_grid(n, 10.0)
        _, center = _offset_gaussian(grid)
        out[n] = (_separable_deviations(1.0, grid, CONVERGENT_BRACKETS, center),
                  grid_commutators(1.0, grid, uncut_gaussians(grid, origin=False),
                                   pairs=CONVERGENT_BRACKETS))
    return out


def orders_value(orders):
    flat = [o for seq in orders.values() for o in seq]
    return f"orders[{min(flat):.3f};{max(flat):.3f}]"


class TestSeparableConvergence:
    """The separable deviations against the 3-D twin on the same function."""

    @pytest.mark.parametrize("n", LADDER)
    def test_deviations_match_the_3d_path(self, ladder_deviations, n):
        got, want = ladder_deviations[n]
        assert list(got) == list(want) == list(CONVERGENT_BRACKETS)
        for key, ref in want.items():
            assert abs(got[key] - ref) <= 1e-10 * ref, key

    @pytest.mark.parametrize("sizes", [LADDER[:2], LADDER])
    def test_orders_match_the_3d_ladder(self, ladder_deviations, sizes):
        h = [momentum_grid(n, 10.0).spacing for n in sizes]
        errs = [ladder_deviations[n][1] for n in sizes]
        want = {pair: [np.log(errs[i][pair] / errs[i + 1][pair]) / np.log(h[i] / h[i + 1])
                       for i in range(len(sizes) - 1)]
                for pair in CONVERGENT_BRACKETS}
        got = commutator_convergence(1.0, sizes, 10.0)
        assert got.keys() == want.keys()
        for pair in want:
            np.testing.assert_allclose(got[pair], want[pair], rtol=0, atol=1e-9)
        assert orders_value(got) == orders_value(want)

    @pytest.mark.parametrize("sizes", [[32], [32, 32], [64, 32, 64], []])
    def test_degenerate_ladder_rejected(self, sizes):
        with pytest.raises(ValueError, match=r"sizes \[.*\]: need at least two"):
            commutator_convergence(1.0, sizes, 10.0)


class TestRealStencils:
    """The n^3 twin's stencils and operators, on which the references rest."""

    def test_stack_derivative_equals_slices(self):
        rng = np.random.default_rng(12)
        stack = rng.normal(size=(2, 32, 32, 32))
        for axis in range(3):
            got = oracles._derivative(stack, axis, 0.3)
            for k in range(2):
                assert np.array_equal(got[k], oracles._derivative(stack[k], axis, 0.3))

    def test_complex_derivative_is_the_real_one_on_each_part(self):
        rng = np.random.default_rng(13)
        psi = rng.normal(size=(32,) * 3) + 1j * rng.normal(size=(32,) * 3)
        for axis in range(3):
            got = oracles._derivative(psi, axis, 0.3)
            assert np.array_equal(got.real, oracles._derivative(psi.real, axis, 0.3))
            assert np.array_equal(got.imag, oracles._derivative(psi.imag, axis, 0.3))

    @pytest.mark.parametrize("n", [32, 33])
    def test_one_dimensional_stencil_is_the_twin_along_each_axis(self, n):
        rng = np.random.default_rng(16)
        psi = rng.normal(size=(n,) * 3)
        for axis in range(3):
            got = np.apply_along_axis(_derivative, axis, psi, 0.3)
            assert np.array_equal(got, oracles._derivative(psi, axis, 0.3))

    @pytest.mark.parametrize("mass", [1.0, 1.3])
    def test_generators_are_real_operators_times_phase(self, mass):
        grid = momentum_grid(32, 10.0)
        gens, ops = grid_generators(mass, grid), _real_generators(mass, grid)
        assert gens.keys() == ops.keys() == _PHASES.keys()
        rng = np.random.default_rng(14)
        psi = rng.normal(size=(32,) * 3) + 1j * rng.normal(size=(32,) * 3)
        for name, op in ops.items():
            parts = op(np.stack((psi.real, psi.imag)))
            want = np.empty(psi.shape, dtype=complex)
            want.real, want.imag = parts
            assert np.array_equal(gens[name](psi), _PHASES[name] * want), name

    def test_boost_and_rotation_keep_their_complex_form(self):
        grid = momentum_grid(32, 10.0)
        h, p = grid.spacing, [_coordinate(grid, i) for i in range(3)]
        gens = grid_generators(1.3, grid)
        rng = np.random.default_rng(15)
        psi = rng.normal(size=(32,) * 3) + 1j * rng.normal(size=(32,) * 3)
        D = oracles._derivative
        assert np.array_equal(gens["K1"](psi), 1j * 1.3 * D(psi, 0, h))
        assert np.array_equal(gens["J3"](psi), -1j * (
            p[0] * D(psi, 1, h) - p[1] * D(psi, 0, h)))

    def test_real_and_zero_imaginary_functions_agree(self):
        grid = momentum_grid(32, 10.0)
        psi = _default_test_functions(grid)[0]
        assert not psi.imag.any()
        assert grid_commutators(1.0, grid, [psi.real]) == \
            grid_commutators(1.0, grid, [psi])


class TestBracketsAgainstReference:
    @pytest.mark.parametrize("mass", [1.0, 2.0, 1.3])
    def test_default_functions_every_bracket(self, mass):
        grid = momentum_grid(32, 10.0)
        funcs = _default_test_functions(grid)
        assert grid_commutators(mass, grid, funcs) == \
            bracket_deviations_reference(mass, grid, funcs)

    def test_random_complex_function_every_bracket(self):
        grid = momentum_grid(32, 10.0)
        rng = np.random.default_rng(11)
        psi = rng.normal(size=(32,) * 3) + 1j * rng.normal(size=(32,) * 3)
        got = grid_commutators(1.0, grid, [psi])
        want = bracket_deviations_reference(1.0, grid, [psi])
        for key, ref in want.items():
            assert abs(got[key] - ref) <= 1e-12 * ref, key

    @pytest.mark.parametrize("pairs", [CONVERGENT_BRACKETS, EXACT_BRACKETS,
                                       (("K2", "P2"), ("P0", "M"))])
    def test_subset_returns_full_table_values(self, pairs):
        grid = momentum_grid(32, 10.0)
        full = generator_commutators(1.0, grid).deviations
        sub = generator_commutators(1.0, grid, pairs=pairs).deviations
        assert sub == {key: full[key] for key in pairs}

    def test_unknown_pair_names_the_pair(self):
        grid = momentum_grid(32, 10.0)
        with pytest.raises(ValueError, match=r"\('P1', 'Q9'\)") as info:
            generator_commutators(1.0, grid, pairs=[("K1", "P1"), ("P1", "Q9")])
        assert not isinstance(info.value, KeyError)

    def test_default_is_the_whole_table(self):
        report = generator_commutators(1.0, momentum_grid(32, 10.0))
        assert list(report.deviations) == [(l, r) for l, r, _ in COMMUTATOR_TABLE]


class TestOneEngine:
    """The separable engine against the brute-force reference on the two
    uncut Gaussians, for every bracket of the table."""

    @pytest.mark.parametrize("n, mass, p_max", [(32, 0.5, 10.0), (33, 1.3, 10.0),
                                                (48, 2.0, 10.0), (32, 1.0, 3.0)])
    def test_every_bracket_matches_the_reference(self, n, mass, p_max):
        grid = momentum_grid(n, p_max)
        got = generator_commutators(mass, grid).deviations
        want = bracket_deviations_reference(mass, grid, uncut_gaussians(grid))
        assert list(got) == list(want)
        for key in CONVERGENT_BRACKETS:
            assert abs(got[key] - want[key]) <= 1e-10 * want[key], key
        for key in EXACT_BRACKETS:
            assert np.isfinite(got[key]) and got[key] <= 1e-13, key
            assert want[key] <= 1e-13, key


class TestClifford:
    def test_full_anticommutator_table(self):
        cl = clifford_generators()
        for i, gi in enumerate(cl.gammas):
            for j, gj in enumerate(cl.gammas):
                target = 2.0 * (i == j) * np.eye(4)
                np.testing.assert_allclose(gi @ gj + gj @ gi, target,
                                           atol=1e-12)

    def test_hermitian(self):
        for g in clifford_generators().gammas:
            np.testing.assert_allclose(g, g.conj().T, atol=1e-15)


class TestWaveOperator:
    def test_shell_curve_through_origin(self):
        L = levy_leblond_matrices(1.0)
        assert abs(np.linalg.det(levy_leblond_symbol(L, 0.0, [0, 0, 0]))) < 1e-15

    def test_on_shell_determinant_vanishes(self):
        L = levy_leblond_matrices(1.0)
        assert abs(np.linalg.det(
            levy_leblond_symbol(L, 0.5, [1, 0, 0]))) < 1e-12

    def test_off_shell_determinant_nonzero(self):
        L = levy_leblond_matrices(1.0)
        assert abs(np.linalg.det(
            levy_leblond_symbol(L, 1.0, [1, 0, 0]))) > 1e-6

    def test_determinant_is_squared_shell_distance(self):
        # det S(eps, p) = 4 m^2 (eps - p^2/2m)^2: a double root on the shell
        rng = np.random.default_rng(4)
        for mass in (0.5, 1.0, 2.0):
            L = levy_leblond_matrices(mass)
            for _ in range(20):
                p = rng.uniform(-2, 2, size=3)
                eps = rng.uniform(-3, 3)
                det = np.linalg.det(levy_leblond_symbol(L, eps, p))
                expected = 4 * mass ** 2 * (eps - p @ p / (2 * mass)) ** 2
                assert abs(det - expected) < 1e-9 * max(1.0, expected)

    def test_stacked_symbol_bit_for_bit(self):
        # the shell check's stacked form of its old one-sample-at-a-time loop
        L = levy_leblond_matrices(1.3)
        p = np.random.default_rng(8).uniform(-2, 2, size=(50, 3))
        eps = (p[:, None] @ p[..., None])[:, 0, 0] / 2.6
        assert np.array_equal(eps, [float(q @ q) / 2.6 for q in p])
        for shift in (0.0, 0.5):
            stacked = np.linalg.det(levy_leblond_symbol(L, eps + shift, p))
            assert np.array_equal(stacked, [np.linalg.det(levy_leblond_symbol(L, e + shift, q))
                                            for e, q in zip(eps, p)])

    def test_degenerate_form_for_default_beta(self):
        L = levy_leblond_matrices(1.0)
        assert np.array_equal(L.A, levy_leblond_density(clifford_generators().gammas[3]))
        rep = degenerate_norm_structure(L.A)
        assert rep.hermitian
        assert rep.rank == 2
        assert rep.kernel_dim == 2
        assert rep.positive_rank == 2
        assert rep.negative_rank == 0

    def test_rank_plus_kernel_for_random_beta(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            beta = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rep = degenerate_norm_structure(levy_leblond_density(beta))
            assert rep.rank + rep.kernel_dim == 4
            assert rep.kernel_dim == 2

    def test_matrix_construction_identities(self):
        cl = clifford_generators()
        g4 = cl.gammas[3]
        L = levy_leblond_matrices(1.5)
        np.testing.assert_allclose(L.A, -0.5j * (g4 + g4 @ g4), atol=1e-15)
        np.testing.assert_allclose(L.C, 1.5j * (g4 - g4 @ g4), atol=1e-15)
        for i in range(3):
            np.testing.assert_allclose(L.B[i], g4 @ cl.gammas[i], atol=1e-15)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            levy_leblond_matrices(0.0)
