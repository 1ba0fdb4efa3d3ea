"""Truncated formal power series in a real coupling parameter g.

Coefficients are complex scalars or complex arrays of one fixed shape.
A series of order N stores the N+1 coefficients of 1, g, ..., g^N stacked
in one complex array, of shape (N+1,) or (N+1, *shape); every operation
truncates at the smallest order among its operands.  Values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "FormalSeries",
    "PositivityVerdict",
    "ShapeMismatchError",
    "series_add",
    "series_mul",
    "series_star",
    "is_positive",
]

DEFAULT_TOL = 1e-10
_DRAWS = 8192  # random numbers per block of a sampled check: 64 KB of float64


class ShapeMismatchError(ValueError):
    """Coefficient shapes are inconsistent or incompatible for a product."""


class FormalSeries:
    """Immutable truncated power series with scalar or array coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if len(coeffs) == 0:
            raise ValueError("a series needs at least the order-0 coefficient")
        try:
            stacked = np.array(coeffs, dtype=complex)
        except ValueError:
            raise ShapeMismatchError("coefficient shapes differ: "
                                     f"{sorted({np.shape(c) for c in coeffs})}") from None
        stacked.setflags(write=False)
        object.__setattr__(self, "coeffs", stacked)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_scalar(self) -> bool:
        return self.coeffs.ndim == 1

    @property
    def shape(self):
        """The shape of one coefficient, () for a scalar series."""
        return self.coeffs.shape[1:]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return series_add(self, FormalSeries(-other.coeffs))

    def __repr__(self):
        kind = "scalar" if self.is_scalar else f"array{self.shape}"
        return f"FormalSeries(order={self.order}, {kind})"


def series_add(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes {a.shape} and {b.shape} differ for a sum")
    order = min(a.order, b.order)
    return FormalSeries(a.coeffs[:order + 1] + b.coeffs[:order + 1])


def _coeff_mul(x, y):
    if not (x.ndim and y.ndim):
        return x * y
    if x.shape[-1] != y.shape[0]:
        raise ShapeMismatchError(
            f"shapes {x.shape} and {y.shape} incompatible for a product")
    return x @ y


def series_mul(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """Cauchy product truncated at the smaller of the two orders."""
    order = min(a.order, b.order)
    out = []
    for n in range(order + 1):
        acc = _coeff_mul(a.coeffs[0], b.coeffs[n])
        for k in range(1, n + 1):
            acc = acc + _coeff_mul(a.coeffs[k], b.coeffs[n - k])
        out.append(acc)
    return FormalSeries(out)


def series_star(a: FormalSeries) -> FormalSeries:
    """Coefficient-wise conjugate (conjugate transpose for matrices)."""
    c = a.coeffs.conj()
    return FormalSeries(c.transpose(0, 2, 1) if c.ndim == 3 else c)


class PositivityVerdict(NamedTuple):
    """Outcome of the order-by-order square-root decision for a scalar series.

    ``positive`` implies a ``witness`` c with star(c)*c matching the input at
    every stored order; otherwise ``failure_order`` is the first order at
    which no solution exists.
    """

    positive: bool
    witness: Optional[FormalSeries] = None
    failure_order: Optional[int] = None

    def __bool__(self):
        return self.positive


def is_positive(b: FormalSeries, tol: float = DEFAULT_TOL) -> PositivityVerdict:
    """Decide whether b equals star(c)*c for some scalar series c.

    The witness is gauged by taking every solved coefficient real: with
    b0 > 0 the order-n equation 2*c0*Re(c_n) = b_n - sum_{k=1}^{n-1}
    conj(c_k) c_{n-k} fixes c_n once Im(c_n) := 0.  A vanishing leading
    coefficient forces b1 = 0 and recurses on the g^2-shifted series.
    The decision is relative: a coefficient counts as zero when it is at
    most tol * max|b|, so b and mu*b get one verdict.
    """
    if not b.is_scalar:
        raise ValueError("positivity is decided for scalar series only")
    row = b.coeffs[None]
    positive, witness, failure = _positive_rows(row, tol * np.max(np.abs(row)))
    if not positive[0]:
        return PositivityVerdict(positive=False, failure_order=int(failure[0]))
    return PositivityVerdict(positive=True, witness=FormalSeries(witness[0]))


def _positive_rows(b: np.ndarray, tol: float):
    """The decision of is_positive for every row of a stack b (S, N+1), at
    the absolute tolerance tol.

    Returns the verdicts (S,), the real witnesses (S, N+1), zero where a
    row is not positive, and the failure orders (S,), -1 where it is.
    """
    b = np.asarray(b, dtype=complex)
    rows, length = b.shape
    failure = np.full(rows, -1)
    witness = np.zeros((rows, length))
    bad_imag = np.abs(b.imag) > tol
    undecided = ~bad_imag.any(axis=1)
    failure[~undecided] = bad_imag.argmax(axis=1)[~undecided]
    real = b.real
    small = np.abs(real) <= tol
    for shift in range(length // 2 + 1):
        head = 2 * shift
        # nothing left above tol (or nothing left): positive, zero witness
        undecided &= ~small[:, head:].all(axis=1)
        if not undecided.any():
            break
        b0 = real[:, head]
        negative = undecided & (b0 < -tol)
        failure[negative] = head
        solve = undecided & (b0 > tol)
        witness[solve, shift:length - shift] = _real_root(real[solve, head:])
        # b0 vanishes: b1 must vanish too, else recurse on the shifted series
        odd = undecided & ~negative & ~solve
        if head + 1 < length:
            odd &= ~small[:, head + 1]
        failure[odd] = head + 1
        undecided &= ~(negative | solve | odd)
    return failure < 0, witness, failure


def _real_root(r: np.ndarray) -> np.ndarray:
    """Real c with c*c = r row by row, for rows with r_0 > 0; the
    convolutions are summed left to right, as a scalar loop would."""
    c = np.empty_like(r)
    c[:, 0] = np.sqrt(r[:, 0])
    for n in range(1, r.shape[1]):
        conv = np.cumsum(c[:, 1:n] * c[:, n - 1:0:-1], axis=1)[:, -1] if n > 1 else 0.0
        c[:, n] = (r[:, n] - conv) / (2.0 * c[:, 0])
    return c


def _star_square_rows(c: np.ndarray) -> np.ndarray:
    """star(c)*c for every row of a stack of scalar series c (S, N+1).

    Products and sums run in the order of series_mul, with the complex
    product written out (numpy's may fuse a multiply-add), so every row
    equals series_mul(series_star(c), c) bit for bit.
    """
    c = np.asarray(c, dtype=complex)
    out = np.empty_like(c)
    for n in range(c.shape[1]):
        a, b = c[:, :n + 1], c[:, n::-1]
        out.real[:, n] = np.cumsum(a.real * b.real + a.imag * b.imag, axis=1)[:, -1]
        out.imag[:, n] = np.cumsum(a.real * b.imag - a.imag * b.real, axis=1)[:, -1]
    return out


def _blocks(samples: int, draws: int) -> List[int]:
    """Block sizes for `draws` numbers per sample: at most _DRAWS, one sample at least."""
    size = max(1, _DRAWS // draws)
    return [min(size, samples - start) for start in range(0, samples, size)]
