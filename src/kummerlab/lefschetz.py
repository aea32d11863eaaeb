"""Topological Lefschetz numbers on generalized Kummer varieties.

Given the 4x4 integer matrix ``M`` by which an automorphism of the abelian
surface acts on first homology, the machinery below packages

* the determinant sequence ``det(I - M^s)``,
* the generating series ``F(t) = prod_nu exp(sum_s det(I - M^s)/s * t^(nu*s))``
  whose coefficients count invariant data on punctual strata; it is one
  integer Newton exponential ``exp(sum_k sigma_k t^k / k)`` with
  ``sigma_k = sum_{nu s = k} nu det(I - M^s)``, every division checked,
* the census of torsion characters fixed by the dual action, graded by
  exact order: the characters of order dividing ``e`` that it fixes are
  as many as the cosets of ``(I - M)(Z/e)^4``, counted from one checked
  Hermite form per prime power dividing ``n`` (the ``lattice`` module), and
* the resulting Lefschetz number on the ``2(n-1)``-dimensional variety:
  the character-weighted sum of series coefficients divided by the torus
  Lefschetz number ``det(I - M)``.

The division is exact whenever ``det(I - M)`` is nonzero; a zero value means
the automorphism has no isolated torus fixed points and the formula does not
apply (the fixed-point-free regime), which raises :class:`DegenerateActionError`.

The number is that of ``h``.  It is that of ``(h, a)`` too when ``a`` lies
in ``(I - h)E[n]``: translation by ``b`` with ``a = (I - h)b`` keeps the
fibre and conjugates ``h`` to ``(h, a)``.  The ``lefschetz`` command tests
that membership with :func:`~kummerlab.lattice.image_contains`.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .lattice import cokernel_order
from .linalg import IntMatrix, SelfCheckError, factorize, matrix_order
from .series import TruncatedSeries


# Largest n (series truncation, character modulus) accepted.  The
# ``lefschetz`` command at n = 360 took 0.12-0.14 s raw over five
# Eisenstein matrices of orders 3 to 6, most of it interpreter start-up;
# ``kummer_series`` alone takes 0.007 s on the order-5 companion matrix
# (Python 3.11, one core of a 2-vCPU Xeon).  The series costs about n^2.
KUMMER_N_CAP = 360


def _check_n_cap(n: int) -> None:
    if n > KUMMER_N_CAP:
        raise ValueError(f"n is capped at {KUMMER_N_CAP}")


class DegenerateActionError(ValueError):
    """The torus Lefschetz number vanishes, so the quotient formula is void."""


def companion_matrix(tail_coefficients) -> IntMatrix:
    """Companion matrix of the monic polynomial ``x^d + c_{d-1} x^{d-1} + ... + c_0``.

    ``tail_coefficients`` lists ``(c_0, ..., c_{d-1})``.
    """
    given = list(tail_coefficients)
    coeffs = [int(c) for c in given]
    if coeffs != given:
        raise ValueError("polynomial coefficients must be integers")
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
    requested truncation.  ``M^s`` depends only on ``s`` mod the order of
    ``M``, so one period of :func:`det_one_minus_power` serves every ``s``.
    The coefficients are always non-negative integers; a result that is
    not raises :class:`SelfCheckError`.
    """
    order = matrix_order(m)
    if truncation < 0:
        raise ValueError("truncation order must be non-negative")
    _check_n_cap(truncation)
    period = [det_one_minus_power(m, s) for s in range(1, order + 1)]
    sigma = [0] * (truncation + 1)
    for s in range(1, truncation + 1):
        det = period[(s - 1) % order]
        for nu in range(1, truncation // s + 1):
            sigma[nu * s] += nu * det
    result = TruncatedSeries(sigma).exp()
    if any(c < 0 for c in result.coefficients):
        raise SelfCheckError("series coefficients must be non-negative")
    return result


def _mobius(drop: tuple[int, ...]) -> int:
    """``mu`` of a product of distinct primes, flagged 1 in ``drop``."""
    return (-1) ** sum(drop)


def invariant_character_counts(m: IntMatrix, n: int) -> dict[int, int]:
    """Census of ``n``-torsion characters fixed by the transposed action.

    The census maps each divisor ``d`` of ``n``, in ascending order, to the
    number of characters of exact order ``d``; the trivial character
    always gives ``{1: 1}``.  The characters of order dividing ``e`` form
    ``(Z/e)^4``, and the invariant ones the kernel of ``M^T - I`` there.
    An endomorphism of a finite group has a kernel as large as its
    cokernel, and ``M^T - I`` has the Smith diagonal of ``I - M``, so
    there are ``[Z^4 : L_e]`` of them, ``L_e = (I - M) Z^4 + e Z^4``
    (:func:`~kummerlab.lattice.cokernel_order`).  By the Chinese remainder
    theorem that index is the product of ``[Z^4 : L_(p^j)]`` over the
    prime powers ``p^j`` exactly dividing ``e``, so one checked form per
    prime power dividing ``n`` serves every ``e``.  Exact-order counts
    follow by Moebius inversion over the divisors of ``n``.  ``n`` is
    factored once, after its cap is checked, and every divisor, prime
    power and Moebius value is read from that factorisation: a divisor is
    a tuple of exponents, and ``mu(d / e)`` is nonzero only when ``e`` is
    ``d`` divided by a product of distinct primes of ``d``.
    """
    if m.rows != m.cols or m.rows != 4:
        raise ValueError("a 4x4 homology action is required")
    if n < 1:
        raise ValueError("the torsion modulus must be positive")
    _check_n_cap(n)
    factors = factorize(n)
    primes = [p for p, _ in factors]
    index = {p**j: cokernel_order(m, p**j) for p, e in factors for j in range(1, e + 1)}
    # Each divisor of n, ascending, with its exponent of each prime of n.
    shapes = sorted(
        (prod(map(pow, primes, js)), js)
        for js in product(*(range(e + 1) for _, e in factors))
    )
    dividing = {
        d: prod(index[p**j] for p, j in zip(primes, js) if j) for d, js in shapes
    }
    result = {}
    for d, js in shapes:
        result[d] = 0
        for drop in product(*((0, 1) if j else (0,) for j in js)):
            e = d // prod(map(pow, primes, drop))
            result[d] += _mobius(drop) * dividing[e]
    if result[1] != 1:
        raise SelfCheckError("the trivial character must be counted once")
    if sum(result.values()) != dividing[n]:
        raise SelfCheckError("exact-order counts must sum to the invariant total")
    return result


def lefschetz_torus(m: IntMatrix) -> int:
    """Topological Lefschetz number of the action on the abelian surface."""
    if m.rows != m.cols or m.rows != 4:
        raise ValueError("a 4x4 homology action is required")
    return det_one_minus_power(m, 1)


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
    return lefschetz_from_census(
        kummer_series(m, n), invariant_character_counts(m, n), base
    )


def lefschetz_from_census(
    series: TruncatedSeries, census: dict[int, int], base: int
) -> int:
    """``sum N_d * [t^(n/d)] F`` over the census, divided by ``base != 0``.

    ``n`` is the largest divisor in the census; a division that is not
    exact raises :class:`SelfCheckError`.
    """
    n = max(census)
    weighted = 0
    for divisor, count in census.items():
        weighted += count * series[n // divisor]
    if weighted % base != 0:
        raise SelfCheckError(f"{weighted} is not divisible by {base}")
    return weighted // base


def supertrace_sym_series(even, odd, truncation: int) -> TruncatedSeries:
    """Supertrace series of the symmetric algebra of a graded endomorphism.

    For an even endomorphism ``h0`` and an odd one ``h1`` the series equals
    ``exp(sum_s (tr(h0^s) - tr(h1^s))/s * t^s)``; degree ``k`` carries the
    supertrace of the induced map on the degree-``k`` part of the symmetric
    algebra (symmetric powers on even generators, exterior powers with sign
    on odd ones).  An entirely even endomorphism with a single eigenvalue
    ``c`` gives the geometric series of ``c``; an entirely odd one gives the
    polynomial ``1 - c t``.  ``even`` and ``odd`` are square integer
    matrices given as lists of rows, or empty; the power sums come from
    :class:`IntMatrix` powers.
    """
    if truncation < 0:
        raise ValueError("truncation order must be non-negative")
    sums = [0] * (truncation + 1)
    for matrix, sign in ((even, 1), (odd, -1)):
        if not matrix:
            continue
        base = power = IntMatrix(matrix)
        if base.rows != base.cols:
            raise ValueError("square matrix required")
        for s in range(1, truncation + 1):
            sums[s] += sign * sum(power[i][i] for i in range(power.rows))
            power = power @ base
    return TruncatedSeries(sums).exp()
