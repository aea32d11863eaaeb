"""Truncated power series with integer coefficients.

A series carries its truncation order ``N`` and coefficients ``c_0..c_N``.
Its one operation is Newton's exponential ``exp(sum_k c_k t^k / k)``,
through :func:`kummerlab.linalg.newton_exponential`, the recurrence that
also gives characteristic polynomials.  Its divisions are checked, so an
integer result is also a proof that the expansion is integral.
"""

from __future__ import annotations

from .linalg import newton_exponential


class TruncatedSeries:
    __slots__ = ("_coeffs",)

    def __init__(self, coefficients) -> None:
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        if any(type(c) is not int for c in coeffs):
            raise ValueError("series coefficients must be of type int")
        self._coeffs = coeffs

    @property
    def truncation(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def __getitem__(self, degree: int) -> int:
        if not 0 <= degree <= self.truncation:
            raise IndexError("degree outside truncation")
        return self._coeffs[degree]

    def exp(self) -> "TruncatedSeries":
        """The series ``F`` with ``F(0) = 1`` and ``t F' = self * F``.

        That is ``exp(sum_k c_k t^k / k)``; it needs ``c_0 == 0``, and a
        coefficient that is not an integer raises :class:`SelfCheckError`.
        """
        if self._coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        return TruncatedSeries(newton_exponential(self._coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._coeffs)})"
