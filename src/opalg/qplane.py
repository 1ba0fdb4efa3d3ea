"""Normal ordering on the quantum plane and the two-by-two quantum group.

The plane relation is x y = q y x; the group generators a, b, c, d obey the
standard relations a b = q b a, a c = q c a, b c = c b, b d = q d b,
c d = q d c, a d - d a = (q - q^{-1}) b c.  Root-of-unity parameters are
handled in exact cyclotomic integer arithmetic so that centrality tests do
not depend on floating-point phases; generic numeric q uses complex
coefficients with a small zero threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "RootOfUnity",
    "QPlanePoly",
    "RelationViolatedError",
    "CoactionReport",
    "qplane_normal_form",
    "plane_monomial_mul",
    "center_probe",
    "glq2_normal_form",
    "glq2_coaction_check",
    "cyclotomic_coefficients",
]

NUMERIC_TOL = 1e-10

QValue = Union["RootOfUnity", complex]


class RelationViolatedError(ValueError):
    def __init__(self, degree: int, term: str):
        self.degree = degree
        self.term = term
        super().__init__(f"coaction breaks the plane relation at degree "
                         f"{degree} (term {term})")


# ---------------------------------------------------------------------------
# exact arithmetic in Z[zeta_N]


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> Tuple[int, ...]:
    # divide x^n - 1 by the cyclotomic polynomials of the proper divisors
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        phi_d = _cyclotomic(d)
        quot = [0] * (len(poly) - len(phi_d) + 1)
        rem = list(poly)
        for k in range(len(quot) - 1, -1, -1):
            coeff = rem[k + len(phi_d) - 1] // phi_d[-1]
            quot[k] = coeff
            for i, c in enumerate(phi_d):
                rem[k + i] -= coeff * c
        poly = quot
    return tuple(poly)


def cyclotomic_coefficients(n: int) -> List[int]:
    """Integer coefficients of the n-th cyclotomic polynomial."""
    return list(_cyclotomic(n))


@dataclass(frozen=True)
class RootOfUnity:
    """Exact primitive root q = exp(2 pi i k / N) with gcd(k, N) = 1."""

    N: int
    k: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if gcd(self.k % self.N if self.N > 1 else 1, self.N) != 1:
            raise ValueError(f"{self.k}/{self.N} is not a primitive root")

    def numeric(self) -> complex:
        return complex(np.exp(2j * np.pi * self.k / self.N))


class _Cyclo:
    """Element of Z[zeta_N] reduced modulo the cyclotomic polynomial."""

    __slots__ = ("root", "coeffs")

    def __init__(self, root: RootOfUnity, coeffs: Sequence[int]):
        self.root = root
        self.coeffs = tuple(coeffs)

    @classmethod
    def _reduction(cls, root: RootOfUnity) -> Tuple[int, ...]:
        phi = _cyclotomic(root.N)
        # zeta^deg = -(phi[0] + phi[1] zeta + ...), monic phi
        return tuple(-c for c in phi[:-1])

    @classmethod
    def from_power(cls, root: RootOfUnity, power: int) -> "_Cyclo":
        deg = len(_cyclotomic(root.N)) - 1
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

    def __add__(self, other: "_Cyclo") -> "_Cyclo":
        return _Cyclo(self.root, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "_Cyclo":
        return _Cyclo(self.root, [-a for a in self.coeffs])

    def __mul__(self, other: "_Cyclo") -> "_Cyclo":
        deg = len(self.coeffs)
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        red = self._reduction(self.root)
        for e in range(len(prod) - 1, deg - 1, -1):
            c = prod[e]
            if not c:
                continue
            prod[e] = 0
            for i, r in enumerate(red):
                prod[e - deg + i] += c * r
        return _Cyclo(self.root, prod[:deg])

    def scaled(self, n: int) -> "_Cyclo":
        return _Cyclo(self.root, [n * a for a in self.coeffs])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def numeric(self) -> complex:
        zeta = complex(np.exp(2j * np.pi / self.root.N))
        return sum(a * zeta ** i for i, a in enumerate(self.coeffs))

    def __eq__(self, other):
        return isinstance(other, _Cyclo) and self.root == other.root \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.root, self.coeffs))

    def __repr__(self):
        return f"Cyclo{self.coeffs}"


class _Ring:
    """Coefficient arithmetic, exact for roots of unity, complex otherwise."""

    def __init__(self, q: QValue):
        self.exact = isinstance(q, RootOfUnity)
        self.q = q

    def q_power(self, e: int):
        if self.exact:
            return _Cyclo.from_power(self.q, e)
        return complex(self.q) ** e

    def one(self):
        return self.q_power(0)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        if self.exact:
            return a.is_zero()
        return abs(a) <= NUMERIC_TOL


# ---------------------------------------------------------------------------
# the quantum plane


class QPlanePoly:
    """Normal-ordered polynomial sum c_ab x^a y^b."""

    def __init__(self, q: QValue, terms: Dict[Tuple[int, int], object]):
        self.q = q
        self.ring = _Ring(q)
        self.terms = {k: v for k, v in terms.items() if not self.ring.is_zero(v)}

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "QPlanePoly") -> "QPlanePoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = self.ring.add(out[k], v) if k in out else v
        return QPlanePoly(self.q, out)

    def mul(self, other: "QPlanePoly") -> "QPlanePoly":
        out: Dict[Tuple[int, int], object] = {}
        for (a, b), ca in self.terms.items():
            for (c, d), cb in other.terms.items():
                # y^b x^c = q^{-bc} x^c y^b
                key = (a + c, b + d)
                val = self.ring.mul(self.ring.mul(ca, cb),
                                    self.ring.q_power(-b * c))
                out[key] = self.ring.add(out[key], val) if key in out else val
        return QPlanePoly(self.q, out)

    def neg(self) -> "QPlanePoly":
        return QPlanePoly(self.q, {k: self.ring.neg(v) for k, v in self.terms.items()})

    def __repr__(self):
        return f"QPlanePoly({self.terms})"


def plane_monomial(q: QValue, a: int, b: int, coeff=None) -> QPlanePoly:
    ring = _Ring(q)
    return QPlanePoly(q, {(a, b): coeff if coeff is not None else ring.one()})


def plane_monomial_mul(q: QValue, left: Tuple[int, int],
                       right: Tuple[int, int]) -> QPlanePoly:
    return plane_monomial(q, *left).mul(plane_monomial(q, *right))


def qplane_normal_form(word: Sequence[str], q: QValue, coeff=None) -> QPlanePoly:
    """Normal order a word in the letters x, y.

    Each inversion (a y standing left of an x) contributes one rewrite
    y x -> q^{-1} x y, so the word collapses to a single monomial with
    coefficient q^{-inversions}.
    """
    ring = _Ring(q)
    a = b = inversions = 0
    for letter in word:
        if letter == "x":
            a += 1
            inversions += b  # this x must cross every y already seen
        elif letter == "y":
            b += 1
        else:
            raise ValueError(f"unexpected letter {letter!r}")
    c = ring.q_power(-inversions)
    if coeff is not None:
        c = ring.mul(c, coeff)
    return QPlanePoly(q, {(a, b): c})


def center_probe(q: QValue, max_deg: int) -> List[Tuple[int, int]]:
    """Nonconstant monomials of total degree <= max_deg commuting with x and y.

    Constants are always central and are omitted.  At a primitive N-th root
    of unity the list is exactly the powers x^{aN} y^{bN}; at generic q it
    is empty.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    central = []
    x = plane_monomial(q, 1, 0)
    y = plane_monomial(q, 0, 1)
    for total in range(1, max_deg + 1):
        for a in range(total + 1):
            b = total - a
            mono = plane_monomial(q, a, b)
            comm_x = mono.mul(x).add(x.mul(mono).neg())
            comm_y = mono.mul(y).add(y.mul(mono).neg())
            if comm_x.is_zero() and comm_y.is_zero():
                central.append((a, b))
    return central


# ---------------------------------------------------------------------------
# the quantum group in two generators pairs


_GLQ2_LETTERS = "abcd"


def _glq2_rules(perturb_ab: bool = False):
    """Rewrite rules bringing words to the order a <= b <= c <= d.

    Each rule maps a descending two-letter word to a list of
    (q-power, extra integer factor, replacement word).  perturb_ab swaps in
    the broken rule b a -> a b for the control case.
    """
    inv = -1
    rules = {
        ("b", "a"): [(0 if perturb_ab else inv, 1, "ab")],
        ("c", "a"): [(inv, 1, "ac")],
        ("c", "b"): [(0, 1, "bc")],
        ("d", "b"): [(inv, 1, "bd")],
        ("d", "c"): [(inv, 1, "cd")],
        # d a = a d - (q - q^{-1}) b c
        ("d", "a"): [(0, 1, "ad"), (1, -1, "bc"), (inv, 1, "bc")],
    }
    return rules


def glq2_normal_form(word: str, q: QValue,
                     perturb_ab: bool = False) -> Dict[Tuple[int, int, int, int], object]:
    """Reduce a word in a, b, c, d to the ordered monomial basis."""
    ring = _Ring(q)
    rules = _glq2_rules(perturb_ab)
    result: Dict[Tuple[int, int, int, int], object] = {}
    stack: List[Tuple[str, object]] = [(word, ring.one())]
    while stack:
        w, coeff = stack.pop()
        pos = -1
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                pos = i
                break
        if pos < 0:
            key = tuple(w.count(letter) for letter in _GLQ2_LETTERS)
            result[key] = ring.add(result[key], coeff) if key in result else coeff
            continue
        for power, factor, repl in rules[(w[pos], w[pos + 1])]:
            new_coeff = ring.mul(coeff, ring.q_power(power))
            if factor == -1:
                new_coeff = ring.neg(new_coeff)
            stack.append((w[:pos] + repl + w[pos + 2:], new_coeff))
    return {k: v for k, v in result.items() if not ring.is_zero(v)}


class _TensorPoly:
    """Element of (quantum group) tensor (quantum plane)."""

    def __init__(self, q: QValue, terms=None):
        self.q = q
        self.ring = _Ring(q)
        self.terms: Dict[Tuple[Tuple[int, int, int, int], Tuple[int, int]], object] = {}
        if terms:
            for k, v in terms.items():
                if not self.ring.is_zero(v):
                    self.terms[k] = v

    def add_term(self, key, val):
        if key in self.terms:
            self.terms[key] = self.ring.add(self.terms[key], val)
            if self.ring.is_zero(self.terms[key]):
                del self.terms[key]
        elif not self.ring.is_zero(val):
            self.terms[key] = val

    def is_zero(self) -> bool:
        return not self.terms


def _coaction_letter(letter: str, form: str) -> List[Tuple[str, str]]:
    # column form: x -> a (x) x + b (x) y ; y -> c (x) x + d (x) y
    # row form:    x -> a (x) x + c (x) y ; y -> b (x) x + d (x) y
    if form == "column":
        return [("a", "x"), ("b", "y")] if letter == "x" else [("c", "x"), ("d", "y")]
    return [("a", "x"), ("c", "y")] if letter == "x" else [("b", "x"), ("d", "y")]


def _coaction_of_word(word: str, q: QValue, perturb_ab: bool,
                      form: str) -> _TensorPoly:
    """Image of a plane word under the coaction, fully normal ordered."""
    ring = _Ring(q)
    out = _TensorPoly(q)
    for choice in range(2 ** len(word)):
        group_word = []
        plane_word = []
        for i, letter in enumerate(word):
            g, p = _coaction_letter(letter, form)[(choice >> i) & 1]
            group_word.append(g)
            plane_word.append(p)
        plane = qplane_normal_form(plane_word, q)
        ((pa, pb), pcoeff), = plane.terms.items()
        for gkey, gcoeff in glq2_normal_form("".join(group_word), q,
                                             perturb_ab).items():
            out.add_term((gkey, (pa, pb)), ring.mul(gcoeff, pcoeff))
    return out


@dataclass(frozen=True)
class CoactionReport:
    max_deg: int
    words_checked: int
    preserved: bool


def glq2_coaction_check(q: QValue, max_deg: int,
                        perturb_ab: bool = False) -> CoactionReport:
    """Verify the coaction maps the plane relation to zero, degree by degree.

    Every embedding w1 (xy - q yx) w2 of the relation with total degree up
    to max_deg is expanded through the coaction and reduced in both tensor
    factors; a nonzero remainder raises RelationViolatedError naming the
    degree at which it appears.  Both comodule structures of the generator
    matrix (column form and row form) are exercised: together they pin the
    full relation set, the column form alone never meets a b = q b a.
    """
    if max_deg < 2:
        raise ValueError("max_deg must be at least 2")
    ring = _Ring(q)
    checked = 0
    for degree in range(2, max_deg + 1):
        pad = degree - 2
        for left_len in range(pad + 1):
            for left_bits in range(2 ** left_len):
                for right_bits in range(2 ** (pad - left_len)):
                    w1 = ["x" if (left_bits >> i) & 1 else "y"
                          for i in range(left_len)]
                    w2 = ["x" if (right_bits >> i) & 1 else "y"
                          for i in range(pad - left_len)]
                    good = "".join(w1) + "xy" + "".join(w2)
                    bad = "".join(w1) + "yx" + "".join(w2)
                    for form in ("column", "row"):
                        image = _coaction_of_word(good, q, perturb_ab, form)
                        neg = _coaction_of_word(bad, q, perturb_ab, form)
                        for key, val in neg.terms.items():
                            image.add_term(key, ring.neg(ring.mul(val, ring.q_power(1))))
                        if not image.is_zero():
                            key = next(iter(image.terms))
                            raise RelationViolatedError(degree, str(key))
                    checked += 1
    return CoactionReport(max_deg=max_deg, words_checked=checked, preserved=True)
