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


def series_mul(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """Cauchy product truncated at the smaller order, of scalar or matrix coefficients."""
    x, y = a.shape, b.shape
    if len(x) not in (0, 2) or len(y) not in (0, 2) or (x and y and x[1] != y[0]):
        raise ShapeMismatchError(f"shapes {x} and {y} incompatible for a product")
    return FormalSeries(_cauchy(a.coeffs, b.coeffs[:len(a.coeffs)]))


def _cauchy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Cauchy product sum_k a_k b_{m-k} of the coefficient stacks a and b
    at each order m of b; a may stop early.  The sums run left to right in
    k, one k at a time over every order, as the scalar double loop runs
    them.  Matrix coefficients multiply by @ (b's may be (n, S) columns),
    any others by _times, broadcast over trailing axes, so every value is
    the double loop's bit for bit."""
    times = np.matmul if a.ndim == b.ndim == 3 else _times
    b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))  # scalar b, matrix a
    out = times(a[0], b)
    for k in range(1, min(len(a), len(b))):
        out[k:] += times(a[k], b[:-k])
    return out


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y with the complex product written out, as numpy's may fuse a
    multiply-add where the scalar product does not."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real, out.imag = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
    return out


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
    conj(c_k) c_{n-k} fixes c_n once Im(c_n) := 0.  The first coefficient
    above tol decides: it must be a real b_h > 0 at an even order h.
    The decision is relative: a coefficient counts as zero when it is at
    most tol * max|b|, so b and mu*b get one verdict.
    """
    _require_finite(b.coeffs, "the series")
    if not b.is_scalar:
        raise ValueError("positivity is decided for scalar series only")
    column = b.coeffs[:, None]
    positive, witness, failure = _positive_columns(column, tol * np.max(np.abs(column)))
    if not positive[0]:
        return PositivityVerdict(positive=False, failure_order=int(failure[0]))
    return PositivityVerdict(positive=True, witness=FormalSeries(witness[:, 0]))


def _positive_columns(b: np.ndarray, tol: float):
    """The decision of is_positive for every column of a stack b (N+1, S),
    at the absolute tolerance tol (a NaN real part counts as above tol).
    The witness is g^(h/2) times the root from the deciding order h on.

    Returns the verdicts (S,), the real witnesses (N+1, S), zero where a
    column is not positive, and the failure orders (S,), -1 where it is.
    """
    witness = np.zeros(b.shape)
    bad_imag = np.abs(b.imag) > tol
    real = b.real
    above = ~(np.abs(real) <= tol)
    head = above.argmax(axis=0)
    decided = above.any(axis=0)
    solve = decided & (head % 2 == 0) & (real[head, np.arange(b.shape[1])] > tol)
    failure = np.where(bad_imag.any(axis=0), bad_imag.argmax(axis=0),
                       np.where(decided & ~solve, head, -1))
    solve &= failure < 0
    for h in set(head[solve].tolist()):
        cols = solve & (head == h)
        witness[h // 2:len(b) - h // 2, cols] = _real_root(real[h:, cols])
    return failure < 0, witness, failure


def _real_root(r: np.ndarray) -> np.ndarray:
    """Real c with c*c = r by columns whose r_0 > 0 is the first coefficient
    above tol; convolutions are summed left to right, as a scalar loop would."""
    c = np.empty_like(r)
    c[0] = np.sqrt(r[0])
    for n in range(1, len(r)):
        conv = np.cumsum(c[1:n] * c[n - 1:0:-1], axis=0)[-1] if n > 1 else 0.0
        c[n] = (r[n] - conv) / (2.0 * c[0])
    return c


def _roundtrip_defects(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max|star(c)*c - b| of each column of the stacks c and b (N+1, S),
    relative to max(max|c|^2, max|b|): witness coefficients grow like
    |c0|^-order, so the Cauchy sums are compared with their own scale, not
    absolutely.  A zero column has zero defect."""
    defect = np.max(np.abs(_cauchy(c.conj(), c) - b), axis=0)
    scale = np.maximum(np.max(np.abs(c), axis=0) ** 2, np.max(np.abs(b), axis=0))
    return defect / np.where(scale == 0, 1.0, scale)


def _require_finite(a: np.ndarray, what: str):
    """Raise a ValueError naming the first non-finite entry of a, if any."""
    if not np.isfinite(a).all():
        index = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
        raise ValueError(f"{what} has a non-finite entry {a[index]} at {index}")


def _blocks(samples: int, draws: int) -> List[int]:
    """Block sizes for `draws` numbers per sample: at most _DRAWS, one sample at least."""
    size = max(1, _DRAWS // draws)
    return [min(size, samples - start) for start in range(0, samples, size)]
