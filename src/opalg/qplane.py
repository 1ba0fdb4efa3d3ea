"""Normal ordering on the quantum plane and the two-by-two quantum group.

The plane relation is x y = q y x; the group generators a, b, c, d obey the
standard relations a b = q b a, a c = q c a, b c = c b, b d = q d b,
c d = q d c, a d - d a = (q - q^{-1}) b c.  Root-of-unity parameters are
handled in exact cyclotomic integer arithmetic so that centrality tests do
not depend on floating-point phases: an element of Z[zeta_N] is a cyclic
vector of N integers, so multiplying by a power of q rotates it, and it is
reduced modulo the N-th cyclotomic polynomial only to decide whether it
vanishes.  Generic numeric q uses complex coefficients with a small zero
threshold.  The coaction check uses that the coaction is an algebra map:
the image of a word is the image of its prefix times the image of its last
letter, so each image is built once, and each product of an ordered group
monomial with one letter is normal ordered once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import add, neg, sub
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "RootOfUnity",
    "QPlanePoly",
    "RelationViolatedError",
    "CoactionReport",
    "qplane_normal_form",
    "center_probe",
    "glq2_normal_form",
    "glq2_coaction_check",
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


class _Coeff:
    """Coefficient arithmetic: exact in Z[zeta_N] for a root of unity q,
    complex numbers otherwise.

    An exact element holds coeffs[i] of zeta_N^i, read in Z[x]/(x^N - 1):
    sums and products never reduce, and multiplying by q^e rotates the
    vector.  Reduction modulo Phi_N happens only in is_zero, == and hash.
    """

    __slots__ = ("root", "coeffs")

    def __init__(self, root: RootOfUnity, coeffs: Sequence[int]):
        self.root = root
        self.coeffs = tuple(coeffs)

    @staticmethod
    def power(q: QValue, e: int):
        """q^e: a cyclic vector for a root of unity, complex otherwise."""
        if not isinstance(q, RootOfUnity):
            return complex(q) ** e
        coeffs = [0] * q.N
        coeffs[e * q.k % q.N] = 1
        return _Coeff(q, coeffs)

    @staticmethod
    def vanishes(c) -> bool:
        return c.is_zero() if isinstance(c, _Coeff) else abs(c) <= NUMERIC_TOL

    def __add__(self, other: "_Coeff") -> "_Coeff":
        return _Coeff(self.root, map(add, self.coeffs, other.coeffs))

    def __sub__(self, other: "_Coeff") -> "_Coeff":
        return _Coeff(self.root, map(sub, self.coeffs, other.coeffs))

    def __neg__(self) -> "_Coeff":
        return _Coeff(self.root, map(neg, self.coeffs))

    def __mul__(self, other: "_Coeff") -> "_Coeff":
        a, b = self.coeffs, other.coeffs
        if b.count(0) < a.count(0):
            a, b = b, a
        out = None
        for j, s in enumerate(b):  # the sparser factor b, term by term
            if s:
                rot = a[-j:] + a[:-j]  # a zeta^j
                if s != 1:
                    rot = [s * r for r in rot]
                out = rot if out is None else list(map(add, out, rot))
        return _Coeff(self.root, out or [0] * len(a))

    def _reduced(self) -> Tuple[int, ...]:
        phi = _cyclotomic(self.root.N)
        deg = len(phi) - 1
        rem = list(self.coeffs)
        for e in range(len(rem) - 1, deg - 1, -1):
            c = rem[e]
            if c:
                for i, p in enumerate(phi):  # monic: rem[e] becomes 0
                    rem[e - deg + i] -= c * p
        return tuple(rem[:deg])

    def is_zero(self) -> bool:
        return not any(self._reduced())

    def numeric(self) -> complex:
        zeta = complex(np.exp(2j * np.pi / self.root.N))
        return sum(a * zeta ** i for i, a in enumerate(self.coeffs))

    def __eq__(self, other):
        return isinstance(other, _Coeff) and self.root == other.root \
            and self._reduced() == other._reduced()

    def __hash__(self):
        return hash((self.root, self._reduced()))

    def __repr__(self):
        return f"Coeff{self.coeffs}"


# ---------------------------------------------------------------------------
# the quantum plane


class QPlanePoly:
    """Normal-ordered polynomial sum c_ab x^a y^b."""

    def __init__(self, q: QValue, terms: Dict[Tuple[int, int], object]):
        self.q = q
        self.terms = {k: v for k, v in terms.items() if not _Coeff.vanishes(v)}

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "QPlanePoly") -> "QPlanePoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return QPlanePoly(self.q, out)

    def mul(self, other: "QPlanePoly") -> "QPlanePoly":
        out: Dict[Tuple[int, int], object] = {}
        for (a, b), ca in self.terms.items():
            for (c, d), cb in other.terms.items():
                # y^b x^c = q^{-bc} x^c y^b
                key = (a + c, b + d)
                val = ca * cb * _Coeff.power(self.q, -b * c)
                out[key] = out[key] + val if key in out else val
        return QPlanePoly(self.q, out)

    def neg(self) -> "QPlanePoly":
        return QPlanePoly(self.q, {k: -v for k, v in self.terms.items()})

    def __repr__(self):
        return f"QPlanePoly({self.terms})"


def plane_monomial(q: QValue, a: int, b: int, coeff=None) -> QPlanePoly:
    return QPlanePoly(q, {(a, b): coeff if coeff is not None else _Coeff.power(q, 0)})


def qplane_normal_form(word: Sequence[str], q: QValue, coeff=None) -> QPlanePoly:
    """Normal order a word in the letters x, y.

    Each inversion (a y standing left of an x) contributes one rewrite
    y x -> q^{-1} x y, so the word collapses to a single monomial with
    coefficient q^{-inversions}.
    """
    a = b = inversions = 0
    for letter in word:
        if letter == "x":
            a += 1
            inversions += b  # this x must cross every y already seen
        elif letter == "y":
            b += 1
        else:
            raise ValueError(f"unexpected letter {letter!r}")
    c = _Coeff.power(q, -inversions)
    if coeff is not None:
        c = c * coeff
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


def glq2_normal_form(word: str, q: QValue,
                     perturb_ab: bool = False) -> Dict[Tuple[int, int, int, int], object]:
    """Reduce a word in a, b, c, d to the ordered monomial basis."""
    rules = _GLQ2_PERTURBED if perturb_ab else _GLQ2_RULES
    result: Dict[Tuple[int, int, int, int], object] = {}
    stack: List[Tuple[str, object]] = [(word, _Coeff.power(q, 0))]
    while stack:
        w, coeff = stack.pop()
        pos = -1
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                pos = i
                break
        if pos < 0:
            key = tuple(map(w.count, _GLQ2_LETTERS))
            result[key] = result[key] + coeff if key in result else coeff
            continue
        for power, factor, repl in rules[(w[pos], w[pos + 1])]:
            new_coeff = coeff * _Coeff.power(q, power)
            if factor == -1:
                new_coeff = -new_coeff
            stack.append((w[:pos] + repl + w[pos + 2:], new_coeff))
    return {k: v for k, v in result.items() if not _Coeff.vanishes(v)}


def _coaction_letter(letter: str, form: str) -> List[Tuple[str, str]]:
    # column form: x -> a (x) x + b (x) y ; y -> c (x) x + d (x) y
    # row form:    x -> a (x) x + c (x) y ; y -> b (x) x + d (x) y
    if form == "column":
        return [("a", "x"), ("b", "y")] if letter == "x" else [("c", "x"), ("d", "y")]
    return [("a", "x"), ("c", "y")] if letter == "x" else [("b", "x"), ("d", "y")]


def _coaction_images(q: QValue, perturb_ab: bool):
    """image(word, form): the coaction of a plane word, normal ordered in
    both tensor factors, as {(group exponents, plane exponents): coefficient}.

    delta is an algebra map, so delta(w l) = delta(w) delta(l): an image is
    its prefix's image times the two terms of delta(l).  On the plane side
    x^a y^b x = q^{-b} x^{a+1} y^b; on the group side an ordered monomial
    times one letter is normal ordered once, cached by (exponents, letter)
    for both forms.  The caches live as long as the returned function.
    """
    images = {("", form): {((0, 0, 0, 0), (0, 0)): _Coeff.power(q, 0)}
              for form in ("column", "row")}
    products: Dict[tuple, list] = {}

    def times(exps, g):
        if (exps, g) not in products:
            ordered = "".join(letter * e for letter, e in zip(_GLQ2_LETTERS, exps))
            products[exps, g] = list(glq2_normal_form(ordered + g, q, perturb_ab).items())
        return products[exps, g]

    def image(word: str, form: str) -> dict:
        if (word, form) not in images:
            out: dict = {}
            for (exps, (pa, pb)), c in image(word[:-1], form).items():
                for g, p in _coaction_letter(word[-1], form):
                    plane, cp = ((pa + 1, pb), c * _Coeff.power(q, -pb)) if p == "x" \
                        else ((pa, pb + 1), c)
                    for gkey, gc in times(exps, g):
                        key, val = (gkey, plane), cp * gc
                        out[key] = out[key] + val if key in out else val
            images[word, form] = out
        return images[word, form]

    return image


@dataclass(frozen=True)
class CoactionReport:
    max_deg: int
    words_checked: int
    preserved: bool


def glq2_coaction_check(q: QValue, max_deg: int,
                        perturb_ab: bool = False) -> CoactionReport:
    """Verify the coaction maps the plane relation to zero, degree by degree.

    Every embedding w1 (xy - q yx) w2 of the relation with total degree up
    to max_deg is mapped through the coaction and reduced in both tensor
    factors; a nonzero remainder raises RelationViolatedError naming the
    degree at which it appears.  Both comodule structures of the generator
    matrix (column form and row form) are exercised: together they pin the
    full relation set, the column form alone never meets a b = q b a.
    """
    if max_deg < 2:
        raise ValueError("max_deg must be at least 2")
    q1 = _Coeff.power(q, 1)
    zero = q1 - q1
    image = _coaction_images(q, perturb_ab)
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
                        good = image(w1 + "xy" + w2, form)
                        bad = image(w1 + "yx" + w2, form)
                        for key in good.keys() | bad.keys():
                            diff = good.get(key, zero) - q1 * bad.get(key, zero)
                            if not _Coeff.vanishes(diff):
                                raise RelationViolatedError(degree, str(key))
                    checked += 1
    return CoactionReport(max_deg=max_deg, words_checked=checked, preserved=True)
