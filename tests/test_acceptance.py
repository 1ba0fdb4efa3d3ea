"""Acceptance suite: one test per criterion, at the pinned tolerances.

Each test prints a single PASS line once its assertions hold and checks its
wall-clock budget.  Run with `pytest tests/test_acceptance.py -v`.
"""

import time

import numpy as np
import pytest

from opalg import brst, galilei, qplane, wigner
from opalg.scenario import emit_report, run_scenario
from opalg.series import FormalSeries, is_positive, series_mul, series_star

from oracles import quotient_oracle


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"took {elapsed:.2f}s, budget {self.budget}s"
        return elapsed


def report(num, label, watch):
    elapsed = watch.check()
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s): {label}")


def test_criterion_01_formal_positivity():
    watch = Stopwatch(1.0)
    rng = np.random.default_rng(101)
    for _ in range(200):
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        while abs(c[0]) < 0.2:
            c[0] = rng.normal() + 1j * rng.normal()
        b = series_mul(series_star(FormalSeries(c)), FormalSeries(c))
        verdict = is_positive(b)
        assert verdict.positive
        redone = series_mul(series_star(verdict.witness), verdict.witness)
        assert (redone - b).max_abs() <= 1e-10
    for k in range(200):
        coeffs = rng.normal(size=9).astype(complex)
        kind = k % 3
        if kind == 0:
            coeffs[0] = -abs(coeffs[0]) - 0.1          # negative leading term
        elif kind == 1:
            coeffs[rng.integers(0, 9)] += 1j * (0.1 + abs(rng.normal()))
        else:
            coeffs[0] = 0.0                             # odd leading order
            coeffs[1] = 0.1 + abs(coeffs[1])
        assert not is_positive(FormalSeries(coeffs)).positive
    report(1, "formal positivity decision and witnesses", watch)


def test_criterion_02_krein_calculus():
    watch = Stopwatch(2.0)
    from opalg.krein import (fundamental_symmetry, krein_adjoint, make_krein,
                             wick_rotate)
    rng = np.random.default_rng(202)
    per_signature = 167
    for signature in ((1, 1), (2, 1), (2, 2)):
        n = sum(signature)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Qm, _ = np.linalg.qr(M)
        diag = np.array([1.0] * signature[0] + [-1.0] * signature[1])
        K = make_krein(Qm @ np.diag(diag * rng.uniform(0.5, 2, n)) @ Qm.conj().T)
        assert K.signature == signature
        J = fundamental_symmetry(K)
        assert np.max(np.abs(J.matrix @ J.matrix - np.eye(n))) <= 1e-10
        GJ = wick_rotate(K, J)
        assert np.max(np.abs(GJ - J.matrix.conj().T @ K.gram)) <= 1e-10
        assert np.min(np.linalg.eigvalsh((GJ + GJ.conj().T) / 2)) > 0
        for _ in range(per_signature):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert np.max(np.abs(
                krein_adjoint(K, krein_adjoint(K, A)) - A)) <= 1e-10
            lhs = krein_adjoint(K, A @ B)
            rhs = krein_adjoint(K, B) @ krein_adjoint(K, A)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10
    report(2, "Krein involution, anti-multiplicativity, symmetry invariants",
           watch)


def test_criterion_03_quotients_match_row_reduction_oracle():
    watch = Stopwatch(1.0)
    toys = [(brst.null_pair_toy, 0), (brst.gupta_bleuler_toy, 1),
            (brst.two_pair_model, 2)]
    for make, expected in toys:
        B = make()
        quotient = brst.physical_space(B)
        ker_dim, im_dim, quot_dim, gram = quotient_oracle(
            B.Q, B.space.krein.gram)
        assert quotient.ker_basis.shape[1] == ker_dim
        assert quotient.im_basis.shape[1] == im_dim
        assert quotient.dim == quot_dim == expected
        np.testing.assert_allclose(quotient.induced_gram, gram, atol=1e-10)
        # conditions (i) and (ii) on the kernel
        G = B.space.krein.gram
        restricted = quotient.ker_basis.conj().T @ G @ quotient.ker_basis
        eigs, vecs = np.linalg.eigh((restricted + restricted.conj().T) / 2)
        assert np.min(eigs) >= -1e-10
        im = quotient.im_basis
        for j in np.where(np.abs(eigs) <= 1e-10)[0]:
            v = quotient.ker_basis @ vecs[:, j]
            assert np.linalg.norm(v - im @ (im.conj().T @ v)) < 1e-8
    space = brst.make_graded_space(np.diag([1.0, -1.0]), [0, 0])
    B = brst.validate_brst(space, np.zeros((2, 2)))
    with pytest.raises(brst.PositivityViolatedError):
        brst.physical_space(B)
    report(3, "quotients equal the row-reduction oracle on all toys", watch)


def test_criterion_04_deformation_stability():
    watch = Stopwatch(5.0)
    B = brst.two_pair_model()
    rng = np.random.default_rng(404)
    gens = brst.deformation_generators(B)
    assert gens
    Q1 = sum(w * g for w, g in zip(rng.normal(size=len(gens)), gens))
    assert np.max(np.abs(Q1)) > 1e-8
    zeros = np.zeros_like(B.Q)
    solved = brst.validate_deformation(
        B, FormalSeries([B.Q, Q1, zeros, zeros]))
    rep = brst.deform_check(solved, samples=50, rng=rng)
    assert rep.items_passed == (True, True, True, True)
    rescale = brst.validate_deformation(
        B, FormalSeries([B.Q, B.Q, zeros, zeros, zeros]))
    rep2 = brst.deform_check(rescale, samples=50, rng=rng)
    assert rep2.items_passed == (True, True, True, True)
    bad = np.zeros((6, 6), dtype=complex)
    bad[3, 2] = 1.0
    with pytest.raises(brst.NotNilpotentError):
        brst.validate_deformation(B, FormalSeries([B.Q, bad]))
    report(4, "stability items (i)-(iv) at order 3; violator rejected", watch)


def test_criterion_05_bargmann_structure():
    watch = Stopwatch(30.0)
    rng = np.random.default_rng(505)
    for _ in range(1000):
        elems = []
        for _ in range(3):
            M = rng.normal(size=(3, 3))
            Qm, _ = np.linalg.qr(M)
            if np.linalg.det(Qm) < 0:
                Qm[:, 0] = -Qm[:, 0]
            elems.append(galilei.make_galilei(
                Qm, rng.normal(size=3), rng.normal(size=3), rng.normal()))
        r, rp, rpp = elems
        lhs = galilei.bargmann_exponent(r, rp) \
            + galilei.bargmann_exponent(galilei.galilei_compose(r, rp), rpp)
        rhs = galilei.bargmann_exponent(rp, rpp) \
            + galilei.bargmann_exponent(r, galilei.galilei_compose(rp, rpp))
        assert abs(lhs - rhs) <= 1e-10
    orders = galilei.commutator_convergence(1.0, (32, 64, 128), 10.0)
    flat = [o for seq in orders.values() for o in seq]
    assert min(flat) >= 1.8
    assert max(flat) <= 2.2
    exact = galilei.generator_commutators(1.0, galilei.momentum_grid(64, 10.0),
                                          pairs=galilei.EXACT_BRACKETS)
    assert exact.max_deviation(galilei.EXACT_BRACKETS) < 1e-11
    report(5, "cocycle identity and second-order commutator convergence",
           watch)


def test_criterion_06_wave_operator_shell():
    watch = Stopwatch(5.0)
    cl = galilei.clifford_generators()
    for i, gi in enumerate(cl.gammas):
        for j, gj in enumerate(cl.gammas):
            target = 2.0 * (i == j) * np.eye(4)
            assert np.max(np.abs(gi @ gj + gj @ gi - target)) <= 1e-12
    mass = 1.0
    L = galilei.levy_leblond_matrices(mass)
    axis = np.linspace(-1.8, 1.8, 10)
    for p1 in axis:
        for p2 in axis:
            for p3 in axis:
                p = np.array([p1, p2, p3])
                shell_eps = p @ p / (2 * mass)
                on = np.linalg.det(galilei.levy_leblond_symbol(L, shell_eps, p))
                assert abs(on) < 1e-9
                off = np.linalg.det(
                    galilei.levy_leblond_symbol(L, shell_eps + 0.1, p))
                assert abs(off) > 1e-6
                off2 = np.linalg.det(
                    galilei.levy_leblond_symbol(L, shell_eps - 0.35, p))
                assert abs(off2) > 1e-6
    report(6, "shell determinant zero set and Clifford table", watch)


def test_criterion_07_restricted_transforms():
    watch = Stopwatch(20.0)
    shell = wigner.make_shell("galilean", 1.0, 16, 0.4)
    assert wigner.isometry_defect(shell) <= 1e-8
    rel = wigner.make_shell("relativistic", 1.0, 16, 0.4)
    assert wigner.isometry_defect(rel) > 0.05
    assert wigner.isometry_defect(rel, reweight="newton_wigner") <= 1e-8
    report(7, "Parseval defects: exact, broken, and reweighted", watch)


def test_criterion_08_two_particle_spectrum():
    watch = Stopwatch(2.0)
    shell = wigner.make_shell("relativistic", 1.0, 7, 0.5)
    rng = np.random.default_rng(808)
    stats = wigner.two_particle_mass_spectrum(shell, 10000, rng=rng)
    assert stats.min >= 2.0 - 1e-12
    assert stats.threshold == 2.0
    galilean = wigner.make_shell("galilean", 1.0, 5, 0.5)
    gstats = wigner.two_particle_mass_spectrum(galilean, 1000, rng=rng)
    assert np.all(gstats.values == 2.0)
    idx = rng.integers(0, len(shell.points), size=(500, 2))
    e1, p1 = shell.energies[idx[:, 0]], shell.points[idx[:, 0]]
    e2, p2 = shell.energies[idx[:, 1]], shell.points[idx[:, 1]]
    before = wigner.pair_invariant_mass(e1, p1, e2, p2)
    for beta in ([0.6, 0, 0], [-0.2, 0.4, -0.5]):
        b1, q1 = wigner.lorentz_boost(e1, p1, np.array(beta))
        b2, q2 = wigner.lorentz_boost(e2, p2, np.array(beta))
        after = wigner.pair_invariant_mass(b1, q1, b2, q2)
        assert np.max(np.abs(after - before)) <= 1e-10
    report(8, "two-particle invariant-mass spectrum and boost invariance",
           watch)


def test_criterion_09_root_of_unity_center():
    watch = Stopwatch(10.0)
    for n in (3, 5, 7):
        central = qplane.center_probe(qplane.RootOfUnity(n, 1), 2 * n)
        expected = sorted((a, b) for a in range(0, 2 * n + 1, n)
                          for b in range(0, 2 * n + 1, n)
                          if 0 < a + b <= 2 * n)
        assert sorted(central) == expected
    assert qplane.center_probe(2.0 + 0j, 6) == []
    assert qplane.center_probe(np.exp(0.3j), 6) == []
    assert qplane.glq2_coaction_check(2.0 + 0j, 4).preserved
    assert qplane.glq2_coaction_check(qplane.RootOfUnity(3, 1), 4).preserved
    report(9, "central monomial lattice at odd roots; coaction to degree 4",
           watch)


def test_criterion_10_deterministic_reports(tmp_path):
    watch = Stopwatch(30.0)
    scenario = str((tmp_path / "determinism.json"))
    import json
    with open(scenario, "w") as fh:
        json.dump({
            "name": "determinism", "seed": 1010,
            "checks": [
                {"check": "series.witness_roundtrip", "params": {"count": 40}},
                {"check": "krein.invariants", "params": {"samples": 60}},
                {"check": "brst.deform_stability",
                 "params": {"model": "two_pair", "samples": 10}},
                {"check": "wigner.two_particle", "params": {"samples": 2000}},
                {"check": "galilei.cocycle", "params": {"triples": 200}},
            ]}, fh)
    first = emit_report(run_scenario(scenario), "csv").encode()
    second = emit_report(run_scenario(scenario), "csv").encode()
    assert first == second
    report(10, "byte-identical CSV reports under an equal seed", watch)
