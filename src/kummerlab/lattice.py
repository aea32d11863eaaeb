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
``(I - M)(Z/n)^r`` from one Smith form, for ``lefschetz`` and the
character census.  The search lists the same classes without keying a
vector: :func:`translation_box` puts the lattice of vectors that differ
by a member of the subgroup, ``(I - M) Z^r + n Z^r`` (or, for
candidates of a lower torsion level, the vectors whose multiple by
``n / level`` lies in it), in Hermite form by 2x2 unimodular row
operations.  Its pivots ``d_c`` bound a box ``[0, d_0) x ... x
[0, d_(r-1))`` whose cells are the lexicographically least members of
the classes, one each, in lexicographic order, which is the order in
which a scan over the candidates first meets them.  The form checks
itself: each row has a witness that puts it in the lattice, and the
number of cells is the lattice's index, read from two more Hermite forms
whose generators reduce to zero against them.
:func:`solvable_by_enumeration` re-decides solvability by finite
enumeration alone and exists to cross-validate the normal-form route.
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


def translation_box(m: IntMatrix, n: int, level: int) -> tuple[int, ...]:
    """The pivots ``(d_c)`` of the box that lists the classes reached at ``level``.

    With ``s = n / level``, the candidates are the vectors ``s w`` with
    ``w`` in ``[0, level)^r``, in lexicographic order of ``w``: the
    vectors of ``search.torsion_points(level)`` over ``n``, in the same
    order.  Two of them share a class of ``(Z/n)^r`` mod
    ``(I - M)(Z/n)^r`` exactly when their ``w`` differ by a member of the
    lattice ``L' = {w in Z^r : s w in L}``, ``L = (I - M) Z^r + n Z^r``,
    which contains ``level Z^r``.  Take ``L'`` in Hermite form: upper
    triangular rows ``b_c`` with pivots ``d_c > 0``.  A member of ``L'``
    whose first ``c`` entries vanish is a combination of ``b_c``, ``b_(c+1)``,
    ..., so its entry ``c`` is a multiple of ``d_c``.  Hence, for the box
    ``[0, d_0) x ... x [0, d_(r-1))``:

    * subtracting multiples of ``b_0``, ``b_1``, ... in turn brings each
      entry ``c`` into ``[0, d_c)``, so every class has a cell;
    * two cells of one class would first differ at some ``c`` by a nonzero
      multiple of ``d_c`` below ``d_c``, so no class has two;
    * a cell ``w`` is the least candidate of its class in lexicographic
      order: another candidate ``u`` first differs from it at some ``c``
      by a nonzero multiple of ``d_c``, and ``u_c >= 0 > w_c - d_c``
      leaves only ``u_c > w_c``.

    So the box has ``prod d_c = [Z^r : L']`` cells, each ``d_c`` divides
    ``level`` (``level e_c`` lies in ``L'``), and ``itertools.product``
    over ``range(d_c)`` lists every class once, by the candidate a scan in
    lexicographic order meets first, in the order the scan meets them.

    The form is found by :func:`_box_form` and checks itself before its
    pivots are returned; any failed check raises :class:`SelfCheckError`
    (:func:`_check_box`).
    """
    if level < 1 or n % level:
        raise ValueError("level must divide n")
    one_minus = [[-x for x in row] for row in m.entries]
    for i, row in enumerate(one_minus):
        row[i] += 1
    step = n // level
    return _check_box(one_minus, n, step, _box_form(one_minus, n, step))


def _columns(one_minus) -> list[tuple[int, ...]]:
    """The columns of ``I - M``, each followed by its witness ``z = e_j``."""
    size = len(one_minus)
    return [
        (*column, *(int(i == j) for i in range(size)))
        for j, column in enumerate(zip(*one_minus))
    ]


def _generators(one_minus, modulus: int) -> list[tuple[int, ...]]:
    """Rows ``(w | z)`` whose ``w`` span ``(I - M) Z^r + modulus Z^r``.

    Each carries a witness ``z`` with ``(I - M) z = w (mod modulus)``: the
    columns of ``I - M`` with the unit vectors, and ``modulus e_j`` with 0.
    """
    size = len(one_minus)
    return _columns(one_minus) + [
        tuple(modulus * (i == j) for i in range(2 * size)) for j in range(size)
    ]


def _echelon(rows, width: int, modulus: int) -> list[list[int]]:
    """A Hermite form of ``rows`` and the rows ``modulus e_c``, ``c < width``.

    The pivots lie in the first ``width`` columns.  The rows
    ``modulus e_c`` (zero beyond ``width``) are not listed:
    until column ``c`` is reached, ``modulus e_c`` is still among the
    generators.  Column by column, 2x2 unimodular row operations merge
    each row with a nonzero entry into the pivot row ``p``, and then
    ``modulus e_c`` into it: ``x p + y modulus e_c`` with pivot
    ``g = gcd(p_c, modulus)`` and the remainder ``(modulus / g) p`` without
    its entry ``c``.  The remainder is a multiple of ``modulus`` beyond
    ``c``, in the span of the unlisted rows, and kept only when ``g`` does
    not divide the entries of ``p`` there.  Entries to the right of
    ``width``, such as witnesses, follow along.  Returns the ``width``
    pivot rows in column order; each pivot is positive and divides
    ``modulus``.
    """
    rows = list(rows)
    length = len(rows[0])
    form = []
    for c in range(width):
        pivot = None
        rest = []
        for row in rows:
            b = row[c]
            if not b:
                rest.append(row)
                continue
            if pivot is None:
                pivot = row
                continue
            a = pivot[c]
            if b % a:
                g, x, y = _extended_gcd(a, b)
                p, q = a // g, b // g
                pivot, row = (
                    [x * u + y * v for u, v in zip(pivot, row)],
                    [p * v - q * u for u, v in zip(pivot, row)],
                )
            else:
                q = b // a
                row = [y - q * x for x, y in zip(pivot, row)]
            # Entries up to c are now zero.
            if any(row[c + 1 : width]):
                rest.append(row)
        if pivot is None:
            form.append([modulus * (j == c) for j in range(length)])
        else:
            a = pivot[c]
            g, x, _ = _extended_gcd(a, modulus)
            if any(v % g for v in pivot[c + 1 : width]):
                remainder = [modulus // g * v for v in pivot]
                remainder[c] = 0
                rest.append(remainder)
            pivot = [x * v for v in pivot]
            pivot[c] = g
            form.append(pivot)
        rows = rest
    return form


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``x a + y b = g = gcd(a, b)``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _box_form(one_minus, n: int, step: int) -> list[list[int]]:
    """Rows ``(b_c | z_c)``: the Hermite form of ``L'`` with its witnesses.

    ``(I - M) z_c = step b_c (mod n)``.  For ``step = 1``, ``L' = L`` is
    the echelon of the columns of ``I - M`` and ``n e_i``.  Otherwise
    ``step L'`` is the intersection of ``L`` and ``step Z^r``, read from
    one echelon of the rows ``(g | g | z)`` for the columns ``g`` and
    ``(step e_i | 0 | 0)``, with ``n e_c`` in every column: a combination
    is zero in its first block exactly when its second block lies in both
    lattices, and the rows with pivots past the first block span those
    combinations.
    """
    size = len(one_minus)
    columns = _columns(one_minus)
    if step == 1:
        return _echelon(columns, size, n)
    stacked = [g[:size] + g for g in columns] + [
        tuple(step * (i == j) for i in range(3 * size)) for j in range(size)
    ]
    return [
        [x // step for x in row[size : 2 * size]] + row[2 * size :]
        for row in _echelon(stacked, 2 * size, n)[size:]
    ]


def _check_box(one_minus, n: int, step: int, rows) -> tuple[int, ...]:
    """The pivots of a box form, once it is shown to be a Hermite form of ``L'``.

    Raises :class:`SelfCheckError` unless:

    * the rows are upper triangular with positive pivots;
    * each row ``b`` lies in ``L'``: its witness ``z`` has
      ``(I - M) z = step b (mod n)``; so the rows span a part of ``L'``
      of index ``prod d_c``;
    * ``prod d_c [Z^r : L + step Z^r] = [Z^r : L]``, which is
      ``[Z^r : L']``: ``w -> step w`` maps ``Z^r`` onto
      ``(L + step Z^r) / L`` with kernel ``L'``.  So the rows span all of
      ``L'``.

    Both indices come from checked Hermite forms of :func:`_generators`
    (:func:`_lattice_index`).  For ``step = 1`` the box form is the form
    of ``L`` and ``L + Z^r = Z^r``, so the box is the form checked: its
    generators reduce to zero against it.
    """
    pivots = _pivots(rows, len(one_minus))
    _check_witnesses(rows, one_minus, n, step)
    if step == 1:
        _check_spans(rows, _generators(one_minus, n))
        return pivots
    fine = _lattice_index(one_minus, n)
    coarse = _lattice_index(one_minus, step)
    if prod(pivots) * coarse != fine:
        raise SelfCheckError(
            f"box of {prod(pivots)} cells, but L' has index {fine}/{coarse}"
        )
    return pivots


def _lattice_index(one_minus, modulus: int) -> int:
    """``[Z^r : (I - M) Z^r + modulus Z^r]``, from a checked Hermite form.

    The form's rows lie in the lattice (their witnesses) and its
    generators reduce to zero against them, so they span it, and the index
    is the product of the pivots.
    """
    rows = _echelon(_columns(one_minus), len(one_minus), modulus)
    pivots = _pivots(rows, len(one_minus))
    _check_witnesses(rows, one_minus, modulus, 1)
    _check_spans(rows, _generators(one_minus, modulus))
    return prod(pivots)


def _pivots(rows, size: int) -> tuple[int, ...]:
    """The diagonal of ``size`` upper triangular rows with positive pivots."""
    if len(rows) != size or any(
        any(row[:c]) or row[c] < 1 for c, row in enumerate(rows)
    ):
        raise SelfCheckError("form is not upper triangular with positive pivots")
    return tuple(row[c] for c, row in enumerate(rows))


def _check_witnesses(rows, one_minus, modulus: int, step: int) -> None:
    """Each row ``(b | z)`` has ``(I - M) z = step b (mod modulus)``."""
    size = len(one_minus)
    for row in rows:
        z = row[size:]
        if len(z) != size:
            raise SelfCheckError(f"row {row} has no witness")
        for line, x in zip(one_minus, row):
            if (sum(map(mul, line, z)) - step * x) % modulus:
                raise SelfCheckError(f"row {row[:size]} fails its witness")


def _check_spans(rows, generators) -> None:
    """Each generator reduces to zero against the triangular ``rows``."""
    size = len(rows)
    for generator in generators:
        g = list(generator[:size])
        for c, row in enumerate(rows):
            if g[c]:
                q, r = divmod(g[c], row[c])
                if r:
                    raise SelfCheckError(f"{generator[:size]} is outside the form")
                for j in range(c + 1, size):
                    g[j] -= q * row[j]


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
