"""Truncated power series with exact rational coefficients.

A series carries its truncation order ``N`` and coefficients ``c_0..c_N``;
all operations are exact and stay at the same truncation.  ``exp`` and
``log`` use the standard differential recurrences and demand the usual
constant terms (0 and 1 respectively).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .linalg import binary_power


class TruncatedSeries:
    __slots__ = ("_coeffs",)

    def __init__(self, coefficients, truncation: int | None = None) -> None:
        coeffs = [Fraction(c) for c in coefficients]
        if truncation is not None:
            if truncation < 0:
                raise ValueError("truncation order must be non-negative")
            coeffs = coeffs[: truncation + 1]
            coeffs += [Fraction(0)] * (truncation + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, truncation: int) -> "TruncatedSeries":
        return cls([], truncation)

    @classmethod
    def one(cls, truncation: int) -> "TruncatedSeries":
        return cls([1], truncation)

    @classmethod
    def monomial(cls, degree: int, truncation: int, coefficient=1) -> "TruncatedSeries":
        coeffs = [Fraction(0)] * (truncation + 1)
        if degree <= truncation:
            coeffs[degree] = Fraction(coefficient)
        return cls(coeffs)

    @property
    def truncation(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, degree: int) -> Fraction:
        if not 0 <= degree <= self.truncation:
            raise IndexError("degree outside truncation")
        return self._coeffs[degree]

    def _check_truncation(self, other: "TruncatedSeries") -> None:
        if self.truncation != other.truncation:
            raise ValueError("truncation orders disagree")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_truncation(other)
        return TruncatedSeries([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_truncation(other)
        return TruncatedSeries([a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-a for a in self._coeffs])

    def scale(self, k) -> "TruncatedSeries":
        k = Fraction(k)
        return TruncatedSeries([k * a for a in self._coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_truncation(other)
        n = self.truncation
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        return binary_power(self, exponent, TruncatedSeries.one(self.truncation), mul)

    def inverse(self) -> "TruncatedSeries":
        if self._coeffs[0] == 0:
            raise ValueError("inverse needs a nonzero constant term")
        n = self.truncation
        inv = [Fraction(0)] * (n + 1)
        inv[0] = 1 / self._coeffs[0]
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self._coeffs[i] * inv[k - i]
            inv[k] = -acc / self._coeffs[0]
        return TruncatedSeries(inv)

    def exp(self) -> "TruncatedSeries":
        if self._coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        n = self.truncation
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += i * self._coeffs[i] * out[k - i]
            out[k] = acc / k
        return TruncatedSeries(out)

    def log(self) -> "TruncatedSeries":
        if self._coeffs[0] != 1:
            raise ValueError("log needs constant term one")
        n = self.truncation
        out = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            acc = k * self._coeffs[k]
            for i in range(1, k):
                acc -= i * out[i] * self._coeffs[k - i]
            out[k] = acc / k
        return TruncatedSeries(out)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self._coeffs]})"
