"""Solvability of integer-linear systems on the real torus.

The central question: given an integer matrix ``T``, integer constants
``b`` and a modulus ``q >= 1``, does some real vector ``z`` satisfy
``T @ z = b / q`` modulo ``Z^rows``?  Equivalently, does ``b / q`` lie in
the rational column span of ``T`` plus the integer lattice?  The decision
comes with a checkable artifact either way:

* solvable: an integer vector ``w`` over a denominator ``D``, coordinates
  reduced into ``[0, D)``, with ``T @ w / D - b / q`` integral;
* unsolvable: an integer row functional ``f`` with ``f @ T == 0`` whose
  pairing ``f @ b`` is not divisible by ``q``, which is impossible for any
  member of the span plus the lattice.

Because the constants are rational, a solvable system always has a rational
(torsion) witness: denominators can be cleared through the Smith normal form
of ``T``.  Constants, witness and pairing are all integers over stated
moduli, so the decision and the re-checks of witness and obstruction are
integer congruences.

:func:`translation_classes` keys the classes of ``(Z/n)^r`` modulo
``(I - M)(Z/n)^r`` from one Smith form.  :func:`solvable_by_enumeration`
re-decides solvability by finite enumeration alone and exists to
cross-validate the normal-form route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from .linalg import (
    MEMO_SIZE,
    IntMatrix,
    SelfCheckError,
    elementary_divisors_via_minors,
    factorize,
    smith_form_rows,
    smith_normal_form,
)


# Largest subgroup :func:`solvable_by_enumeration` will decide membership
# in; it closes the subgroup's prime-power parts one at a time.
ENUMERATION_CAP = 20000


class DimensionMismatchError(ValueError):
    """Raised when a constant vector does not match the system's row count."""


class EnumerationTooLargeError(ValueError):
    """The subgroup to decide would exceed ``ENUMERATION_CAP`` elements."""


@dataclass(frozen=True)
class SolvabilityResult:
    """Outcome of a torus-solvability decision on ``T z = b / q``.

    Exactly one of ``witness`` and ``obstruction`` is populated; the
    system is solvable when the witness is.  The witness is ``(w, D)``,
    the solution ``w / D``; the obstruction is ``(f, f @ b)``, the
    functional with its pairing numerator over ``q``.
    """

    witness: tuple[tuple[int, ...], int] | None
    obstruction: tuple[tuple[int, ...], int] | None

    @property
    def solvable(self) -> bool:
        return self.witness is not None

    def __bool__(self) -> bool:
        return self.solvable


def _check_constants(system: IntMatrix, constants, modulus: int) -> None:
    if len(constants) != system.rows:
        raise DimensionMismatchError(
            f"system has {system.rows} rows but {len(constants)} constants were given"
        )
    if not _integers((modulus, *constants)):
        raise ValueError("the constants and the modulus must be integers")
    if modulus < 1:
        raise ValueError("the modulus must be positive")


def _integers(values) -> bool:
    return all(isinstance(x, int) for x in values)


def torus_system_solvable(
    system: IntMatrix, constants, modulus: int
) -> SolvabilityResult:
    """Decide ``system @ z = constants / modulus`` modulo the integer lattice.

    The Smith normal form ``U @ system @ V = D`` turns the question into a
    diagonal one: with ``q = modulus``, the transformed constants must read
    ``(U @ b)_i = 0 mod q`` on every row outside the diagonal rank.  Witness
    and obstruction both fall out of the transform data and are re-checked
    before returning; a failed re-check raises :class:`SelfCheckError`.
    The form stays sparse, as :func:`smith_form_rows` returns it, and the
    form of each distinct system is memoised.
    """
    _check_constants(system, constants, modulus)
    return _decide(system, constants, modulus, _normal_form(system))


def _decide(system: IntMatrix, constants, modulus: int, form) -> SolvabilityResult:
    """The decision of :func:`torus_system_solvable` from a given normal form.

    ``form`` is ``(U by sparse rows, diagonal of D, V by sparse columns)``
    as :func:`_smith_form` returns it.  Each ``(U b)_i`` is a sum over the
    nonzeros of row ``i`` of ``U``, and only the returned obstruction
    functional is made dense.  The witness ``V y`` combines the first
    ``rank`` columns of ``V``, the only ones ``y`` weights.
    """
    u, diagonal, v_cols = form
    rank = sum(1 for x in diagonal if x != 0)

    def ub(i: int) -> int:
        return sum(x * constants[j] for j, x in u[i].items())

    for i in range(rank, system.rows):
        pairing = ub(i)
        if pairing % modulus:
            dense = [0] * system.rows
            for j, x in u[i].items():
                dense[j] = x
            functional = tuple(dense)
            if not verify_obstruction(system, constants, modulus, functional):
                raise SelfCheckError("obstruction failed its re-check")
            return SolvabilityResult(None, (functional, pairing))
    # y_i = ub_i / (q d_i) over the common denominator q * lcm(d_i).
    scale = lcm(1, *diagonal[:rank])
    denominator = modulus * scale
    w = [0] * system.cols
    for i in range(rank):
        y = ub(i) * (scale // diagonal[i])
        if y:
            for j, x in v_cols[i].items():
                w[j] += y * x
    witness = (tuple(x % denominator for x in w), denominator)
    if not verify_witness(system, constants, modulus, witness):
        raise SelfCheckError("witness failed its re-check")
    return SolvabilityResult(witness, None)


def _smith_form(system: IntMatrix):
    """The sparse Smith form of a system, as :func:`smith_form_rows` returns it.

    :func:`smith_form_rows` is looked up at each call, so a replaced one is
    the one that runs.
    """
    return smith_form_rows(system)


# The memo of :func:`_smith_form` behind :func:`torus_system_solvable`; it
# holds sparse forms.  One-off systems, such as the random draws of the
# solvability oracle, go to :func:`_decide` with their own
# :func:`_smith_form` and stay out of it.
_normal_form = lru_cache(maxsize=MEMO_SIZE)(_smith_form)


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


def verify_witness(system: IntMatrix, constants, modulus: int, witness) -> bool:
    """Check that ``system @ w / D - constants / modulus`` is an integer vector.

    ``system @ w`` is summed over the nonzero rows of ``system``; nothing
    of its normal form is read.  Malformed input is rejected, not raised
    on: a witness that is not a pair ``(w, D)``, constants or a witness of
    the wrong length, an entry, modulus or denominator that is not an
    ``int``, or a modulus or denominator below 1.
    """
    try:
        w, denominator = witness
        w = tuple(w)
    except (TypeError, ValueError):
        return False
    if (
        len(constants) != system.rows
        or len(w) != system.cols
        or not _integers((modulus, denominator, *constants, *w))
        or modulus < 1
        or denominator < 1
    ):
        return False
    common = lcm(modulus, denominator)
    up, down = common // denominator, common // modulus
    return all(
        (sum(x * w[j] for j, x in row.items()) * up - b * down) % common == 0
        for row, b in zip(system.nonzero_rows(), constants)
    )


def verify_obstruction(system: IntMatrix, constants, modulus: int, functional) -> bool:
    """Check that ``functional`` kills the columns but not ``constants / modulus``.

    ``functional @ system`` is accumulated over the nonzero rows of
    ``system`` whose functional entry is nonzero; nothing of its normal
    form is read.  Malformed input is rejected, not raised on: a
    functional or constants of the wrong length, an entry or modulus that
    is not an ``int``, or a modulus below 1.
    """
    try:
        f = tuple(functional)
    except TypeError:
        return False
    if (
        len(f) != system.rows
        or len(constants) != system.rows
        or not _integers((modulus, *constants, *f))
        or modulus < 1
    ):
        return False
    image: dict[int, int] = {}
    for weight, row in zip(f, system.nonzero_rows()):
        if weight:
            for j, x in row.items():
                image[j] = image.get(j, 0) + weight * x
    if any(image.values()):
        return False
    return sum(map(mul, f, constants)) % modulus != 0


def solvable_by_enumeration(system: IntMatrix, constants, modulus: int) -> bool:
    """Brute-force the same decision by finite subgroup closure.

    A solvable system has a rational solution with denominator dividing
    ``q = modulus * (largest elementary divisor of T)``, so solvability is
    equivalent to ``q * constants / modulus mod q`` lying in the subgroup
    of ``(Z/q)^rows`` generated by the columns of ``T``.  The elementary
    divisors come from gcds of minors, not from the Smith normal form under
    test.  By the Chinese remainder theorem that subgroup is the product of
    its images mod the prime powers ``p^e`` of ``q``, so the target lies in
    it exactly when it lies in each image, and each is closed on its own
    by :func:`_in_closure`.  The whole subgroup has ``prod q / gcd(d_i, q)``
    elements; above ``ENUMERATION_CAP`` the call raises
    :class:`EnumerationTooLargeError` before deciding anything.
    """
    _check_constants(system, constants, modulus)
    divisors = [e for e in elementary_divisors_via_minors(system) if e != 0]
    if len(divisors) == system.rows:
        # Full row rank: the rational span is everything.
        return True
    scale = divisors[-1] if divisors else 1
    q = modulus * scale
    size = prod(q // gcd(d, q) for d in divisors)
    if size > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"subgroup of {size} elements exceeds the cap {ENUMERATION_CAP}"
        )
    target = tuple(b * scale for b in constants)
    columns = list(zip(*system.entries))
    return all(_in_closure(columns, target, p**e) for p, e in factorize(q))


def _in_closure(columns, target, q: int) -> bool:
    """Whether ``target`` lies in the subgroup of ``(Z/q)^r`` the columns generate."""
    target = tuple(x % q for x in target)
    group = {(0,) * len(target)}
    if target in group:
        return True
    for column in columns:
        generator = tuple(x % q for x in column)
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
    return False
