"""Solvability of integer-linear systems on the real torus.

The central question: given an integer matrix ``T`` and a rational vector
``c``, does some real vector ``z`` satisfy ``T @ z = c`` modulo ``Z^rows``?
Equivalently, does ``c`` lie in the rational column span of ``T`` plus the
integer lattice?  The decision comes with a checkable artifact either way:

* solvable: a rational witness ``z`` (coordinates reduced into ``[0, 1)``)
  with ``T @ z - c`` integral;
* unsolvable: an integer row functional ``f`` with ``f @ T == 0`` whose
  pairing with ``c`` is not an integer, which is impossible for any member
  of the span plus the lattice.

Because the constants are rational, a solvable system always has a rational
(torsion) witness: denominators can be cleared through the Smith normal form
of ``T``.  The arithmetic runs on integer vectors: the constants are scaled
once by their common denominator ``q``, so ``c`` becomes an integer vector
mod ``q`` and both the decision and the re-checks of witness and
obstruction are integer congruences.  Rationals appear only in the
arguments and in the returned certificate.

:func:`translation_classes` keys the classes of ``(Z/n)^r`` modulo
``(I - M)(Z/n)^r`` from one Smith form.  :func:`solvable_by_enumeration`
re-decides solvability by finite enumeration alone and exists to
cross-validate the normal-form route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .linalg import (
    IntMatrix,
    SelfCheckError,
    elementary_divisors_via_minors,
    smith_normal_form,
)


# Largest subgroup :func:`solvable_by_enumeration` will build.
ENUMERATION_CAP = 20000


class DimensionMismatchError(ValueError):
    """Raised when a constant vector does not match the system's row count."""


class EnumerationTooLargeError(ValueError):
    """The subgroup to enumerate would exceed ``ENUMERATION_CAP`` elements."""


@dataclass(frozen=True)
class SolvabilityResult:
    """Outcome of a torus-solvability decision.

    Exactly one of ``witness`` and ``obstruction`` is populated.  The
    obstruction pairs the integer functional with its non-integral value
    on the constants.
    """

    solvable: bool
    witness: tuple[Fraction, ...] | None
    obstruction: tuple[tuple[int, ...], Fraction] | None

    def __bool__(self) -> bool:
        return self.solvable


def _as_fractions(c) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in c)


def _over_common_denominator(*vectors) -> tuple[int, list[tuple[int, ...]]]:
    """Clear denominators: ``(q, [q * v for v in vectors])`` with integer entries."""
    q = lcm(1, *(x.denominator for v in vectors for x in v))
    return q, [tuple(x.numerator * (q // x.denominator) for x in v) for v in vectors]


def torus_system_solvable(
    system: IntMatrix, constants, cache: dict | None = None
) -> SolvabilityResult:
    """Decide ``system @ z = constants`` modulo the integer lattice.

    The Smith normal form ``U @ system @ V = D`` turns the question into a
    diagonal one: the transformed constants ``U @ c`` must be integral on
    every row outside the diagonal rank.  The constants are scaled once to
    integers over their common denominator ``q``, so the test reads
    ``(U @ qc)_i = 0 mod q``.  Witness and obstruction both fall out of the
    transform data and are re-checked before returning; a failed re-check
    raises :class:`SelfCheckError`.  Passing the same ``cache`` dict across
    calls computes the normal form of each distinct system once.
    """
    c = _as_fractions(constants)
    if len(c) != system.rows:
        raise DimensionMismatchError(
            f"system has {system.rows} rows but {len(c)} constants were given"
        )
    normal_form = None if cache is None else cache.get(system)
    if normal_form is None:
        normal_form = smith_normal_form(system)
        if cache is not None:
            cache[system] = normal_form
    u, d, v = normal_form
    diagonal = [d[i][i] for i in range(min(system.rows, system.cols))]
    rank = sum(1 for x in diagonal if x != 0)
    q, (qc,) = _over_common_denominator(c)
    uc = u.apply_int(qc)
    for i in range(rank, system.rows):
        if uc[i] % q:
            functional = u[i]
            if not verify_obstruction(system, c, functional):
                raise SelfCheckError("obstruction failed its re-check")
            return SolvabilityResult(False, None, (functional, Fraction(uc[i], q)))
    # w_i = uc_i / (q d_i) over the common denominator q * lcm(d_i).
    scale = lcm(1, *diagonal[:rank])
    w = [uc[i] * (scale // diagonal[i]) for i in range(rank)]
    w += [0] * (system.cols - rank)
    denominator = q * scale
    z = tuple(Fraction(x % denominator, denominator) for x in v.apply_int(w))
    if not verify_witness(system, c, z):
        raise SelfCheckError("witness failed its re-check")
    return SolvabilityResult(True, z, None)


def translation_classes(m: IntMatrix, n: int):
    """``(key, moduli)`` for the classes of ``(Z/n)^r`` mod ``(I - M)(Z/n)^r``.

    With ``U (I - M) V = D`` in Smith form, ``U`` maps the subgroup onto the
    product of the ``g_i (Z/n)``, ``moduli = (g_i) = (gcd(d_i, n))``.  So
    ``key(v) = ((U v)_i mod g_i)_i`` (entries with ``g_i = 1`` left out)
    agrees on two vectors exactly when they share a class, there are
    ``prod g_i`` classes, and the subgroup is the class of key zero.
    """
    u, d, _ = smith_normal_form(IntMatrix.identity(m.rows) - m)
    moduli = tuple(gcd(d[i][i], n) for i in range(m.rows))
    rows = tuple((row, g) for row, g in zip(u.entries, moduli) if g > 1)

    def key(vector) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, vector)) % g for row, g in rows)

    return key, moduli


def verify_witness(system: IntMatrix, constants, witness) -> bool:
    """Check that ``system @ witness - constants`` is an integer vector."""
    q, (qc, qz) = _over_common_denominator(
        _as_fractions(constants), _as_fractions(witness)
    )
    image = system.apply_int(qz)
    return all((a - b) % q == 0 for a, b in zip(image, qc))


def verify_obstruction(system: IntMatrix, constants, functional) -> bool:
    """Check that ``functional`` kills the column span but not ``constants``."""
    f = tuple(int(e) for e in functional)
    if len(f) != system.rows:
        return False
    if any(sum(map(mul, f, column)) for column in zip(*system.entries)):
        return False
    q, (qc,) = _over_common_denominator(_as_fractions(constants))
    return sum(map(mul, f, qc)) % q != 0


def solvable_by_enumeration(system: IntMatrix, constants) -> bool:
    """Brute-force the same decision by finite subgroup closure.

    A solvable system has a rational solution with denominator dividing
    ``q = lcm(denominators of c) * (largest elementary divisor of T)``, so
    solvability is equivalent to ``q*c mod q`` lying in the subgroup of
    ``(Z/q)^rows`` generated by the columns of ``T``.  The elementary
    divisors come from gcds of minors, not from the Smith normal form under
    test.  That subgroup has ``prod q / gcd(d_i, q)`` elements; above
    ``ENUMERATION_CAP`` the call raises :class:`EnumerationTooLargeError`
    before building it.
    """
    c = _as_fractions(constants)
    if len(c) != system.rows:
        raise DimensionMismatchError(
            f"system has {system.rows} rows but {len(c)} constants were given"
        )
    divisors = [e for e in elementary_divisors_via_minors(system) if e != 0]
    if len(divisors) == system.rows:
        # Full row rank: the rational span is everything.
        return True
    q = lcm(1, *(v.denominator for v in c))
    if divisors:
        q *= divisors[-1]
    size = prod(q // gcd(d, q) for d in divisors)
    if size > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"subgroup of {size} elements exceeds the cap {ENUMERATION_CAP}"
        )
    target = tuple(int(v * q) % q for v in c)
    group = {(0,) * system.rows}
    if target in group:
        return True
    for j in range(system.cols):
        generator = tuple(system[i][j] % q for i in range(system.rows))
        if generator in group:
            continue
        frontier = group
        while frontier:
            frontier = {
                tuple((x + g) % q for x, g in zip(elem, generator))
                for elem in frontier
            } - group
            group |= frontier
        if target in group:
            return True
    return target in group
