"""Topological Lefschetz numbers on generalized Kummer varieties.

Given the 4x4 integer matrix ``M`` by which an automorphism of the abelian
surface acts on first homology, the machinery below packages

* the determinant sequence ``det(I - M^s)``,
* the generating series ``F(t) = prod_nu exp(sum_s det(I - M^s)/s * t^(nu*s))``
  whose coefficients count invariant data on punctual strata,
* the census of torsion characters fixed by the dual action, graded by
  exact order, and
* the resulting Lefschetz number on the ``2(n-1)``-dimensional variety:
  the character-weighted sum of series coefficients divided by the torus
  Lefschetz number ``det(I - M)``.

The division is exact whenever ``det(I - M)`` is nonzero; a zero value means
the automorphism has no isolated torus fixed points and the formula does not
apply (the fixed-point-free regime), which raises :class:`DegenerateActionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import (
    IntMatrix,
    SelfCheckError,
    divisors,
    factorize,
    matrix_order,
    smith_normal_form,
)
from .series import TruncatedSeries


class DegenerateActionError(ValueError):
    """The torus Lefschetz number vanishes, so the quotient formula is void."""


class NonIntegralLefschetzError(ArithmeticError):
    """The exact-divisibility postcondition failed; indicates a bug."""


def companion_matrix(tail_coefficients) -> IntMatrix:
    """Companion matrix of the monic polynomial ``x^d + c_{d-1} x^{d-1} + ... + c_0``.

    ``tail_coefficients`` lists ``(c_0, ..., c_{d-1})``.
    """
    coeffs = [int(c) for c in tail_coefficients]
    d = len(coeffs)
    if d == 0:
        raise ValueError("polynomial degree must be positive")
    out = [[0] * d for _ in range(d)]
    for i in range(1, d):
        out[i][i - 1] = 1
    for i in range(d):
        out[i][d - 1] = -coeffs[i]
    return IntMatrix(out)


def det_one_minus_power(m: IntMatrix, s: int) -> int:
    """The exact integer ``det(I - M^s)``."""
    if s < 1:
        raise ValueError("the exponent must be positive")
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    return (IntMatrix.identity(m.rows) - m**s).det()


def kummer_series(m: IntMatrix, truncation: int) -> TruncatedSeries:
    """The generating series built from the determinant sequence of ``M``.

    Expands ``prod_{nu>=1} exp(sum_{s>=1} det(I - M^s)/s * t^(nu*s))`` to the
    requested truncation.  The coefficients are always non-negative integers;
    a result that is not raises :class:`SelfCheckError`.
    """
    matrix_order(m)
    if truncation < 0:
        raise ValueError("truncation order must be non-negative")
    identity = IntMatrix.identity(m.rows)
    power = identity
    exponent = [Fraction(0)] * (truncation + 1)
    for s in range(1, truncation + 1):
        power = power @ m
        term = Fraction((identity - power).det(), s)
        for nu in range(1, truncation // s + 1):
            exponent[nu * s] += term
    result = TruncatedSeries(exponent).exp()
    if not result.is_integral():
        raise SelfCheckError("series coefficients must be integers")
    if any(c < 0 for c in result.coefficients):
        raise SelfCheckError("series coefficients must be non-negative")
    return result


def _mobius(n: int) -> int:
    factors = factorize(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


@dataclass(frozen=True)
class CharacterCounts:
    """Counts of dual-torsion characters fixed by the action, by exact order.

    ``counts`` pairs each divisor ``d`` of ``modulus`` with the number of
    invariant characters of exact order ``d``; the trivial character always
    contributes ``(1, 1)``.
    """

    modulus: int
    counts: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def __getitem__(self, divisor: int) -> int:
        return self.as_dict()[divisor]


def invariant_character_counts(m: IntMatrix, n: int) -> CharacterCounts:
    """Census of ``n``-torsion characters fixed by the transposed action.

    A character ``chi`` in ``(Z/n)^4`` is invariant when
    ``(M^T - I) chi == 0 (mod n)``.  With the Smith normal form of
    ``M^T - I`` in hand, the number of invariant characters of order
    dividing ``e`` is a product of gcds, and exact-order counts follow by
    Moebius inversion over the divisors of ``n``.
    """
    if n < 1:
        raise ValueError("the torsion modulus must be positive")
    if m.rows != m.cols or m.rows != 4:
        raise ValueError("a 4x4 homology action is required")
    k = m.transpose() - IntMatrix.identity(4)
    _, d, _ = smith_normal_form(k)
    diag = [d[i][i] for i in range(4)]

    def dividing(e: int) -> int:
        out = 1
        for di in diag:
            out *= gcd(di, e) if di != 0 else e
        return out

    counts = []
    for div in divisors(n):
        exact = sum(_mobius(div // e) * dividing(e) for e in divisors(div))
        counts.append((div, exact))
    result = CharacterCounts(n, tuple(counts))
    if result[1] != 1:
        raise SelfCheckError("the trivial character must be counted once")
    if result.total() != dividing(n):
        raise SelfCheckError("exact-order counts must sum to the invariant total")
    return result


def lefschetz_torus(m: IntMatrix) -> int:
    """Topological Lefschetz number of the action on the abelian surface."""
    if m.rows != m.cols or m.rows != 4:
        raise ValueError("a 4x4 homology action is required")
    return det_one_minus_power(m, 1)


def absorbs_translation(m: IntMatrix, vector, n: int) -> bool:
    """Whether the point ``vector / n`` lies in ``(I - M) E[n]``.

    With ``U (I - M) V = D`` in Smith form, ``(I - M) w = vector`` has a
    solution mod ``n`` exactly when ``gcd(d_i, n)`` divides ``(U vector)_i``
    for every ``i``.  Then conjugation by the ``n``-torsion translation
    ``w / n``, which preserves the fibre, takes the map to its linear part.
    """
    u, d, _ = smith_normal_form(IntMatrix.identity(m.rows) - m)
    return all(x % gcd(d[i][i], n) == 0 for i, x in enumerate(u.apply_int(vector)))


def lefschetz_kummer(m: IntMatrix, n: int) -> int:
    """Topological Lefschetz number on the generalized Kummer variety.

    Sums ``N_d * [t^(n/d)] F`` over the invariant-character census and
    divides by the torus Lefschetz number; the division must be exact.
    """
    if n < 2:
        raise ValueError("the variety parameter must be at least 2")
    base = lefschetz_torus(m)
    if base == 0:
        raise DegenerateActionError(
            "torus Lefschetz number is zero; the quotient formula does not apply"
        )
    series = kummer_series(m, n)
    census = invariant_character_counts(m, n)
    weighted = 0
    for divisor, count in census.counts:
        weighted += count * int(series[n // divisor])
    if weighted % base != 0:
        raise NonIntegralLefschetzError(
            f"{weighted} is not divisible by {base}"
        )
    return weighted // base


def _power_traces(matrix, truncation: int) -> list[Fraction]:
    """``tr(A^s)`` for ``s = 1..truncation``, from powers of the integer ``q A``."""
    rows = [[Fraction(e) for e in row] for row in matrix or []]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("square matrix required")
    if not rows:
        return [Fraction(0)] * truncation
    q = lcm(*(e.denominator for row in rows for e in row))
    scaled = power = IntMatrix([[e * q for e in row] for row in rows])
    traces = []
    for s in range(1, truncation + 1):
        traces.append(Fraction(sum(power[i][i] for i in range(power.rows)), q**s))
        power = power @ scaled
    return traces


def supertrace_sym_series(even, odd, truncation: int) -> TruncatedSeries:
    """Supertrace series of the symmetric algebra of a graded endomorphism.

    For an even endomorphism ``h0`` and an odd one ``h1`` the series equals
    ``exp(sum_s (tr(h0^s) - tr(h1^s))/s * t^s)``; degree ``k`` carries the
    supertrace of the induced map on the degree-``k`` part of the symmetric
    algebra (symmetric powers on even generators, exterior powers with sign
    on odd ones).  An entirely even endomorphism with a single eigenvalue
    ``c`` gives the geometric series of ``c``; an entirely odd one gives the
    polynomial ``1 - c t``.
    """
    if truncation < 0:
        raise ValueError("truncation order must be non-negative")
    even_traces = _power_traces(even, truncation)
    odd_traces = _power_traces(odd, truncation)
    exponent = [Fraction(0)]
    for s, (e, o) in enumerate(zip(even_traces, odd_traces), 1):
        exponent.append((e - o) / s)
    return TruncatedSeries(exponent, truncation).exp()
