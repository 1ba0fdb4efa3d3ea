import cmath
import itertools
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.qplane import (CoactionReport, QPlanePoly, RelationViolatedError, RootOfUnity,
                          center_probe, glq2_coaction_check, qplane_normal_form)
from opalg.qplane import _add, _cyclotomic, _times, _vanishes

from oracles import (Cyclo, center_reference, coaction_check_reference,
                     cyclotomic_reference, glq2_rewrite, laurent_shift, laurent_sum,
                     laurent_value, plane_product, ring_product, ring_value_reference)


def glq2_normal_form(word, q, perturb_ab=False):
    """A word in a, b, c, d in the ordered monomial basis: the unit times
    one letter at a time from the left, each product by `qplane._times`, as
    the coaction check builds its images."""
    terms = {(0, 0, 0, 0): {0: 1}}
    for g in word:
        out = {}
        for exps, c in terms.items():
            for key, e, s in _times(exps, g, perturb_ab):
                out[key] = _add(out.get(key, {}), c, e, s)
        terms = out
    return {k: v for k, v in terms.items() if not _vanishes(q, v)}


def random_word(rng, length):
    return "".join(rng.choice(["x", "y"]) for _ in range(length))


GATE_QS = [RootOfUnity(3, 1), RootOfUnity(4, 1), RootOfUnity(5, 2), RootOfUnity(6, 1),
           2.0 + 0j, 0.7 + 0j, complex(np.exp(0.3j))]
# far from |q| = 1, where an absolute zero threshold misjudges coefficients
EXTREME_QS = [1e-3 + 0j, 1e3 + 0j, 1e-3 * cmath.exp(0.4j)]


def values(terms, q):
    return {k: laurent_value(q, v) for k, v in terms.items()}


def rewrite_random_order(word, q, rng):
    """Step-by-step rewriting y x -> q^{-1} x y at random positions."""
    coeff = {0: 1}
    letters = list(word)
    while True:
        spots = [i for i in range(len(letters) - 1)
                 if letters[i] == "y" and letters[i + 1] == "x"]
        if not spots:
            break
        i = rng.choice(spots)
        letters[i], letters[i + 1] = letters[i + 1], letters[i]
        coeff = _add({}, coeff, -1, 1)
    a = letters.count("x")
    b = letters.count("y")
    return QPlanePoly(q, {(a, b): coeff})


class TestCyclotomic:
    def test_known_polynomials(self):
        assert _cyclotomic(1) == (-1, 1)
        assert _cyclotomic(2) == (1, 1)
        assert _cyclotomic(3) == (1, 1, 1)
        assert _cyclotomic(4) == (1, 0, 1)
        assert _cyclotomic(5) == (1, 1, 1, 1, 1)
        assert _cyclotomic(6) == (1, -1, 1)

    def test_composite_orders_reduce_exactly(self):
        assert _cyclotomic(12) == (1, 0, -1, 0, 1)
        q = RootOfUnity(6, 1)
        # zeta_6^3 = -1 through the reduction by x^2 - x + 1
        assert _vanishes(q, {3: 1, 0: 1})

    def test_root_powers_cycle_exactly(self):
        q = RootOfUnity(5, 2)
        assert _vanishes(q, {5: 1, 0: -1})
        assert _vanishes(q, {j: 1 for j in range(5)})  # 1 + q + ... + q^4 = 0 exactly
        assert not _vanishes(q, {j: 1 for j in range(4)})

    def test_powers_vanish_where_the_value_is_one(self):
        q = RootOfUnity(7, 3)
        for j in range(-7, 15):
            want = np.exp(2j * np.pi * 3 * j / 7)
            assert abs(laurent_value(q, {j: 1}) - want) < 1e-12
            assert _vanishes(q, laurent_sum({j: 1}, {0: -1})) == (abs(want - 1) < 1e-9)

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            RootOfUnity(6, 2)


class TestNormalForm:
    def test_already_normal(self):
        poly = qplane_normal_form("xy", 2.0 + 0j)
        assert poly.terms == {(1, 1): {0: 1}}
        assert values(poly.terms, poly.q) == {(1, 1): 1.0 + 0j}

    def test_single_swap(self):
        poly = qplane_normal_form("yx", 2.0 + 0j)
        assert values(poly.terms, poly.q) == {(1, 1): 0.5 + 0j}

    def test_two_swaps(self):
        poly = qplane_normal_form("yyx", 2.0 + 0j)
        assert values(poly.terms, poly.q) == {(1, 2): 0.25 + 0j}

    def test_degree_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            word = random_word(rng, int(rng.integers(1, 9)))
            poly = qplane_normal_form(word, 3.0 + 0j)
            ((a, b), _), = poly.terms.items()
            assert a == word.count("x") and b == word.count("y")

    def test_confluence_random_rewrite_order(self):
        rng = np.random.default_rng(1)
        q = RootOfUnity(5, 2)
        for _ in range(50):
            word = random_word(rng, int(rng.integers(2, 10)))
            direct = qplane_normal_form(word, q)
            stepped = rewrite_random_order(word, q, rng)
            ((k1, c1),) = direct.terms.items()
            ((k2, c2),) = stepped.terms.items()
            assert k1 == k2
            assert c1 == c2  # equal Laurent polynomials

    def test_monomial_product_reordering_factor(self):
        q = 2.0 + 0j
        xy = qplane_normal_form("xy", q)
        poly = plane_product(xy, xy)  # (xy)(xy) = q^{-1} x^2 y^2
        assert values(poly.terms, q) == {(2, 2): 0.5 + 0j}

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError):
            qplane_normal_form("xz", 2.0 + 0j)

    @pytest.mark.parametrize("q", EXTREME_QS + [1e3 * cmath.exp(2.5j)], ids=str)
    def test_small_coefficients_are_kept(self, q):
        # q^{-9} is about 1e-27 at |q| = 1e3: tiny, and no zero
        ((key, coeff),) = qplane_normal_form("yyyxxx", q).terms.items()
        assert key == (3, 3) and coeff == {-9: 1}
        assert abs(laurent_value(q, coeff) - q ** -9) <= 1e-12 * abs(q) ** -9


class TestCenterProbe:
    def test_cube_root(self):
        central = center_probe(RootOfUnity(3, 1), 3)
        assert sorted(central) == [(0, 3), (3, 0)]

    def test_generic_numeric(self):
        assert center_probe(2.0 + 0j, 4) == []

    def test_generic_phase(self):
        assert center_probe(np.exp(0.3j), 6) == []

    def test_commutative_limit(self):
        central = center_probe(RootOfUnity(1, 1), 2)
        assert sorted(central) == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_exact_lattice_of_central_monomials(self, n):
        central = center_probe(RootOfUnity(n, 1), 2 * n)
        expected = sorted((a, b) for a in range(0, 2 * n + 1, n)
                          for b in range(0, 2 * n + 1, n)
                          if 0 < a + b <= 2 * n)
        assert sorted(central) == expected

    def test_symmetry_under_q_inversion_and_swap(self):
        n = 5
        plus = center_probe(RootOfUnity(n, 1), 2 * n)
        minus = center_probe(RootOfUnity(n, n - 1), 2 * n)  # q -> q^{-1}
        swapped = sorted((b, a) for a, b in minus)
        assert sorted(plus) == swapped

    @pytest.mark.parametrize("q", [RootOfUnity(n, 1) for n in range(1, 9)]
                             + [RootOfUnity(5, 2), RootOfUnity(8, 3),
                                2.0 + 0j, complex(np.exp(0.3j))], ids=str)
    def test_matches_commutator_reference(self, q):
        max_deg = 2 * q.N if isinstance(q, RootOfUnity) else 8
        assert center_probe(q, max_deg) == center_reference(q, max_deg)


class TestGLq2:
    def test_normal_form_of_sorted_word(self):
        out = glq2_normal_form("abcd", 2.0 + 0j)
        assert values(out, 2.0) == {(1, 1, 1, 1): 1.0 + 0j}

    def test_ba_rule(self):
        out = glq2_normal_form("ba", 2.0 + 0j)
        assert values(out, 2.0) == {(1, 1, 0, 0): 0.5 + 0j}

    def test_da_rule_branches(self):
        out = values(glq2_normal_form("da", 2.0 + 0j), 2.0)
        assert out[(1, 0, 0, 1)] == 1.0 + 0j
        assert abs(out[(0, 1, 1, 0)] + (2.0 - 0.5)) < 1e-12

    def test_exact_root_coefficients(self):
        q = RootOfUnity(3, 1)
        out = glq2_normal_form("da", q)
        assert out[(0, 1, 1, 0)] == {1: -1, -1: 1}

    def test_pbw_confluence_on_overlap_word(self):
        # "dba" reduces along two paths; both give
        #   q^{-2} abd + (q^{-2} - 1) b^2 c   (hand computation)
        q = 3.0 + 0j
        out = values(glq2_normal_form("dba", q), q)
        assert set(out) == {(1, 1, 0, 1), (0, 2, 1, 0)}
        assert abs(out[(1, 1, 0, 1)] - 1 / 9) < 1e-12
        assert abs(out[(0, 2, 1, 0)] - (1 / 9 - 1)) < 1e-12

    @pytest.mark.parametrize("word", ["ae", "ea"])
    def test_unknown_letter_rejected(self, word):
        with pytest.raises(ValueError, match="unexpected letter 'e'"):
            glq2_normal_form(word, 2.0 + 0j)

    @pytest.mark.parametrize("q", GATE_QS, ids=str)
    def test_matches_rewriter_on_every_short_word(self, q):
        for length in range(6):
            for letters in itertools.product("abcd", repeat=length):
                word = "".join(letters)
                # equal as integer Laurent polynomials, which is more than equal at q
                assert glq2_normal_form(word, q) == glq2_rewrite(word, q)

    @pytest.mark.parametrize("perturb_ab", [False, True])
    @pytest.mark.parametrize("q", GATE_QS, ids=str)
    def test_ordered_monomial_times_letter_matches_rewriter(self, q, perturb_ab):
        # the perturbed rules are not confluent: on whole perturbed words the
        # fold and the rewriter may differ, on these products they may not
        for exps in itertools.product(range(4), repeat=4):
            ordered = "".join(letter * e for letter, e in zip("abcd", exps))
            for g in "abcd":
                assert glq2_normal_form(ordered + g, q, perturb_ab) == \
                    glq2_rewrite(ordered + g, q, perturb_ab)

    def test_coaction_preserved_generic(self):
        report = glq2_coaction_check(2.0 + 0j, 4)
        assert report.preserved
        assert report.words_checked == 17

    def test_coaction_preserved_exact_root(self):
        assert glq2_coaction_check(RootOfUnity(3, 1), 4).preserved
        assert glq2_coaction_check(RootOfUnity(5, 2), 3).preserved

    def test_coaction_preserved_generic_phase(self):
        assert glq2_coaction_check(np.exp(0.3j), 3).preserved

    def test_perturbed_relation_violated_at_degree_two(self):
        with pytest.raises(RelationViolatedError) as err:
            glq2_coaction_check(2.0 + 0j, 4, perturb_ab=True)
        assert err.value.degree == 2

    def test_perturbed_relation_violated_exact_root(self):
        with pytest.raises(RelationViolatedError) as err:
            glq2_coaction_check(RootOfUnity(3, 1), 3, perturb_ab=True)
        assert err.value.degree == 2

    @pytest.mark.parametrize("q", EXTREME_QS, ids=str)
    def test_verdicts_do_not_depend_on_the_size_of_q(self, q):
        assert glq2_coaction_check(q, 4) == CoactionReport(max_deg=4, words_checked=17)
        with pytest.raises(RelationViolatedError) as err:
            glq2_coaction_check(q, 4, perturb_ab=True)
        assert err.value.degree == 2

    def test_min_degree_validated(self):
        with pytest.raises(ValueError):
            glq2_coaction_check(2.0 + 0j, 1)


RING_NS = (1, 2, 3, 4, 5, 6, 8, 9, 12)


def ring_expressions(divisors):
    """Trees over q^e leaves and Phi_d(zeta_N) leaves for the divisors d of
    N; the Phi_N leaf is an exact zero stored as a nonzero cyclic vector."""
    leaves = (st.tuples(st.just("pow"), st.integers(-40, 40))
              | st.tuples(st.just("phi"), st.sampled_from(divisors)))
    return st.recursive(
        leaves, lambda kids: (st.tuples(st.sampled_from(("add", "sub", "mul")), kids, kids)
                              | st.tuples(st.just("neg"), kids)), max_leaves=8)


RING_EXPRESSIONS = {n: ring_expressions([d for d in range(1, n + 1) if n % d == 0])
                    for n in RING_NS}


def combine(a, b, s):
    """a + s b for s = +-1, in either ring."""
    if isinstance(a, dict):
        return _add(a, b, 0, s)
    return a + (b if s > 0 else -b)


def evaluate(expr, power, k_inv):
    op = expr[0]
    if op == "pow":
        return power(expr[1])
    if op == "phi":  # sum_i c_i zeta^i with zeta = q^(k^-1)
        total = combine(power(0), power(0), -1)
        for i, c in enumerate(cyclotomic_reference(expr[1])):
            for _ in range(abs(c)):
                total = combine(total, power(i * k_inv), 1 if c > 0 else -1)
        return total
    if op == "neg":
        kid = evaluate(expr[1], power, k_inv)
        return combine(combine(kid, kid, -1), kid, -1)
    left, right = (evaluate(e, power, k_inv) for e in expr[1:])
    if op == "mul":
        return ring_product(left, right) if isinstance(left, dict) else left * right
    return combine(left, right, 1 if op == "add" else -1)


LAURENT = st.dictionaries(st.integers(-40, 40), st.integers(-5, 5).filter(bool), max_size=6)


class TestRingTwin:
    """The Laurent polynomials {e: c_e}, reduced modulo Phi_N only at the
    zero test, against the reference ring that reduces after every
    operation; and their value at a numeric q against plain complex
    evaluation."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_zero_test_equality_and_value_agree(self, data):
        n = data.draw(st.sampled_from(RING_NS))
        k = data.draw(st.sampled_from([k for k in range(1, n + 1) if gcd(k, n) == 1]))
        root = RootOfUnity(n, k)
        exprs = RING_EXPRESSIONS[n]
        e1, other = data.draw(exprs), data.draw(exprs)
        # e1 + other * Phi_N(zeta) equals e1; a free draw mostly does not
        e2 = data.draw(st.sampled_from([("add", e1, ("mul", other, ("phi", n))), other]))
        k_inv = pow(k, -1, n)

        def both(expr):
            return (evaluate(expr, lambda e: {e: 1}, k_inv),
                    evaluate(expr, lambda e: Cyclo.from_power(root, e), k_inv))

        (new1, old1), (new2, old2) = both(e1), both(e2)
        assert _vanishes(root, new1) == old1.is_zero()
        assert _vanishes(root, _add(new1, new2, 0, -1)) == (old1 == old2)
        scale = max(1.0, float(sum(map(abs, new1.values()))))
        assert abs(laurent_value(root, new1) - old1.numeric()) <= 1e-9 * scale

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_numeric_value_matches_complex_twin(self, data):
        # |q|^e stays finite for the exponents a tree of 8 leaves reaches
        q = cmath.rect(data.draw(st.floats(0.25, 4.0)), data.draw(st.floats(-np.pi, np.pi)))
        exprs = RING_EXPRESSIONS[data.draw(st.sampled_from(RING_NS))]
        e1, e2, e3 = data.draw(exprs), data.draw(exprs), data.draw(exprs)

        def ring(expr):
            return evaluate(expr, lambda e: {e: 1}, 1)  # Phi_d(q) leaves

        value, scale = ring_value_reference(e1, q)
        assert abs(laurent_value(q, ring(e1)) - value) <= 1e-12 * scale
        # identities of the ring leave the empty polynomial, not a rounding residue
        for zero in (("sub", ("mul", e1, e2), ("mul", e2, e1)),
                     ("sub", ("mul", e1, ("add", e2, e3)),
                      ("add", ("mul", e1, e2), ("mul", e1, e3)))):
            assert ring(zero) == {} and _vanishes(q, ring(zero))

    @settings(max_examples=200, deadline=None)
    @given(LAURENT, LAURENT, st.integers(-60, 60), st.integers(-3, 3))
    def test_add_is_the_sum_with_a_shifted_term(self, a, b, f, s):
        assert _add(a, b, f, s) == laurent_sum(a, laurent_shift(b, f, s))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_zero_test_does_not_change_under_a_power_of_q(self, data):
        # q^f far outside the floats at |q| = 1e-3 or 1e3 and |f| = 300; a
        # multiple of q - n (or of n q - 1) vanishes at q = n (or 1/n)
        terms = data.draw(LAURENT)
        if data.draw(st.booleans()):
            q = cmath.rect(data.draw(st.floats(1e-3, 1e3)), data.draw(st.floats(-np.pi, np.pi)))
        else:
            n = data.draw(st.integers(2, 1000))
            q, root = data.draw(st.sampled_from([(n, {1: 1, 0: -n}), (1 / n, {1: n, 0: -1})]))
            terms = ring_product(terms, root)
            assert _vanishes(q, terms)
        f, s = data.draw(st.integers(-300, 300)), data.draw(st.sampled_from([-1, 1]))
        assert _vanishes(q, _add({}, terms, f, s)) == _vanishes(q, terms)


def coaction_outcome(q, max_deg, perturb_ab):
    try:
        report = glq2_coaction_check(q, max_deg, perturb_ab=perturb_ab)
    except RelationViolatedError as err:
        return ("violated", err.degree)
    return ("preserved", report.words_checked)


class TestCoactionOracle:
    """The prefix-built images against the word-by-word expansion."""

    @pytest.mark.parametrize("perturb_ab", [False, True])
    @pytest.mark.parametrize("max_deg", [3, 5])
    @pytest.mark.parametrize("q", [RootOfUnity(3, 1), RootOfUnity(4, 1),
                                   RootOfUnity(5, 2), RootOfUnity(6, 1),
                                   2.0 + 0j, complex(np.exp(0.3j)), 0.7 + 0j], ids=str)
    def test_matches_expansion(self, q, max_deg, perturb_ab):
        assert coaction_outcome(q, max_deg, perturb_ab) == \
            coaction_check_reference(q, max_deg, perturb_ab)
