"""Normal ordering on the quantum plane and the two-by-two quantum group.

The plane relation is x y = q y x; the group generators a, b, c, d obey the
standard relations a b = q b a, a c = q c a, b c = c b, b d = q d b,
c d = q d c, a d - d a = (q - q^{-1}) b c.  Every coefficient that normal
ordering produces is an integer Laurent polynomial sum c_e q^e, held as a
plain dict {e: c_e} with no zero entry.  Such a polynomial does not depend
on q: `_add` forms a + s q^f b exactly in Z[q, q^{-1}], so the relations
hold or fail as identities.  The zero test `_vanishes` is the one place
that reads q.  At a root of unity q = zeta_N^k it sends q^e to zeta_N^{ek}
and reduces the cyclic vector modulo the N-th cyclotomic polynomial,
exactly; at a numeric q it compares |sum c_e q^e| with NUMERIC_TOL times
sum |c_e| |q|^e, both divided by the largest power, so a verdict does not
depend on the size of q and no power overflows.  Nothing is normal
ordered by rewriting words: a plane word collapses to q^{-inversions}
x^a y^b, and an ordered group monomial a^i b^j c^k d^l times one letter is
one or three terms +-q^e times ordered monomials, in closed form in the
exponents, so a group word is ordered by multiplying in one letter at a
time.  The coaction check uses that the coaction is an algebra map: the
image of a word is the image of its prefix times the image of its last
letter, so each image is built once.  The tests keep a leftmost-descent
rewriter as the reference.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

__all__ = [
    "RootOfUnity",
    "QPlanePoly",
    "RelationViolatedError",
    "CoactionReport",
    "qplane_normal_form",
    "center_probe",
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
# the coefficient ring Z[q, q^{-1}]


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


class RootOfUnity(NamedTuple("RootOfUnity", [("N", int), ("k", int)])):
    """Exact primitive root q = exp(2 pi i k / N) with gcd(k, N) = 1."""

    __slots__ = ()

    def __new__(cls, N: int, k: int = 1):
        if N < 1:
            raise ValueError("N must be positive")
        if gcd(k % N if N > 1 else 1, N) != 1:
            raise ValueError(f"{k}/{N} is not a primitive root")
        return super().__new__(cls, N, k)


def _add(a: Dict[int, int], b: Dict[int, int], f: int, s: int) -> Dict[int, int]:
    """a + s q^f b, exactly: the terms of b shifted by f and scaled by the integer s."""
    out = dict(a)
    for e, c in b.items():
        e += f
        c = out.pop(e, 0) + s * c
        if c:
            out[e] = c
    return out


def _vanishes(q: QValue, terms: Dict[int, int]) -> bool:
    """Whether sum c_e q^e is zero at q, the one place that reads q."""
    if not terms:
        return True
    if isinstance(q, RootOfUnity):
        # q^e -> zeta_N^{ek} into a cyclic vector, reduced modulo Phi_N
        N, k = q
        phi = _cyclotomic(N)
        deg = len(phi) - 1
        rem = [0] * N
        for e, c in terms.items():
            rem[e * k % N] += c
        for e in range(N - 1, deg - 1, -1):
            c = rem[e]
            if c:
                for i, p in enumerate(phi):  # monic: rem[e] becomes 0
                    rem[e - deg + i] -= c * p
        return not any(rem[:deg])
    # the relative rule |sum c_e q^e| <= NUMERIC_TOL sum |c_e| |q|^e, read at
    # 1/q with the exponents negated when |q| > 1, and divided by q^low: no
    # power then exceeds 1 in modulus, so none overflows
    if abs(q) > 1:
        q, terms = 1 / q, {-e: c for e, c in terms.items()}
    low = min(terms)
    value = scale = 0
    for e, c in terms.items():
        power = q ** (e - low)
        value += c * power
        scale += abs(c) * abs(power)
    return abs(value) <= NUMERIC_TOL * scale


# ---------------------------------------------------------------------------
# the quantum plane


class QPlanePoly:
    """Normal-ordered polynomial sum c_ab x^a y^b."""

    def __init__(self, q: QValue, terms: Dict[Tuple[int, int], Dict[int, int]]):
        self.q = q
        self.terms = {k: v for k, v in terms.items() if not _vanishes(q, v)}

    def __repr__(self):
        return f"QPlanePoly({self.terms})"


def qplane_normal_form(word: Sequence[str], q: QValue) -> QPlanePoly:
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
    return QPlanePoly(q, {(a, b): {-inversions: 1}})


def center_probe(q: QValue, max_deg: int) -> List[Tuple[int, int]]:
    """Nonconstant monomials of total degree <= max_deg commuting with x and y.

    Constants are always central and are omitted.  Since x^a y^b x =
    q^{-b} x^{a+1} y^b and y x^a y^b = q^{-a} x^a y^{b+1}, the monomial is
    central iff q^{-a} = q^{-b} = 1: at a primitive N-th root of unity the
    list is exactly the powers x^{aN} y^{bN}; at generic q it is empty.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    trivial = [_vanishes(q, _add({-e: 1}, {0: 1}, 0, -1)) for e in range(max_deg + 1)]
    return [(a, total - a) for total in range(1, max_deg + 1)
            for a in range(total + 1) if trivial[a] and trivial[total - a]]


# ---------------------------------------------------------------------------
# the quantum group in two generators pairs


def _times(exps: Tuple[int, int, int, int], g: str,
           perturb_ab: bool) -> List[Tuple[Tuple[int, int, int, int], int, int]]:
    """The ordered monomial a^i b^j c^k d^l times the letter g, in the
    ordered basis, as (exponents, e, s) triples of the terms s q^e.

    g moves left past the letters after it: d c = q^{-1} c d,
    d b = q^{-1} b d, c b = b c, c a = q^{-1} a c and b a = q^{-1} a b
    (b a = a b in the control case); past d^l an a leaves two more terms,
    d^l a = a d^l - (q - q^{1-2l}) b c d^{l-1}, which telescopes from
    d a = a d - (q - q^{-1}) b c and d (b c) = q^{-2} (b c) d.
    """
    i, j, k, l = exps
    if g == "d":
        return [((i, j, k, l + 1), 0, 1)]
    if g == "c":
        return [((i, j, k + 1, l), -l, 1)]
    if g == "b":
        return [((i, j + 1, k, l), -l, 1)]
    if g != "a":
        raise ValueError(f"unexpected letter {g!r}")
    out = [((i + 1, j, k, l), -k if perturb_ab else -(j + k), 1)]
    if l:
        bc = (i, j + 1, k + 1, l - 1)
        out += [(bc, 1 - 2 * l, 1), (bc, 1, -1)]
    return out


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
    times one letter is `_times`.  The images live as long as the returned
    function.
    """
    images = {("", form): {((0, 0, 0, 0), (0, 0)): {0: 1}}
              for form in ("column", "row")}

    def image(word: str, form: str) -> dict:
        if (word, form) not in images:
            out: dict = {}
            for (exps, (pa, pb)), c in image(word[:-1], form).items():
                for g, p in _coaction_letter(word[-1], form):
                    plane, shift = ((pa + 1, pb), -pb) if p == "x" else ((pa, pb + 1), 0)
                    for gkey, e, s in _times(exps, g, perturb_ab):
                        key = (gkey, plane)
                        out[key] = _add(out.get(key, {}), c, e + shift, s)
            images[word, form] = out
        return images[word, form]

    return image


class CoactionReport(NamedTuple):
    max_deg: int
    words_checked: int
    preserved = True  # a violation raises RelationViolatedError instead


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
                            if not _vanishes(q, _add(good.get(key, {}), bad.get(key, {}), 1, -1)):
                                raise RelationViolatedError(degree, str(key))
                    checked += 1
    return CoactionReport(max_deg=max_deg, words_checked=checked)
