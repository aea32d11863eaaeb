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

The one decider, :func:`torus_system_solvable`, reads one row echelon
``U T = [E; 0]``, ``U`` unimodular (:func:`~kummerlab.linalg.row_echelon`),
which the matrix ``T`` computes on first request and keeps
(:meth:`~kummerlab.linalg.IntMatrix.echelon`); this module keeps no memo
of systems.  By Pontryagin duality the image of ``T`` on the torus is the
annihilator of its left kernel, which the rows of ``U`` below the rank
span: a row whose pairing with ``b`` is not a multiple of ``q`` is the
obstruction, and when there is none, back-substitution in ``E`` gives a
rational (torsion) witness.  Constants, witness and pairing are all
integers over stated moduli, so the decision and the re-checks of witness
and obstruction are integer congruences, and each verdict is proved by
its re-checked certificate alone.

The translation classes of a linear part ``M`` are the cosets of
``(I - M)(Z/q)^r`` in ``(Z/q)^r``, and one routine reads them: the
lattice ``L_q = (I - M) Z^r + q Z^r`` in Hermite form, the row echelon
of its generators by the same :func:`~kummerlab.linalg.row_echelon`
(:func:`_full_echelon`).  The form checks itself:
each row carries a witness that puts it in ``L_q``, and the generators of
``L_q`` reduce to zero against the rows, so they span it.  Three readings
of it serve the rest of the package: :func:`cokernel_order`, the index
``[Z^r : L_q]``, for the character census; :func:`image_contains`, a
vector's reduction to zero, for the ``lefschetz`` translation test; and
:func:`translation_box`, for the search.  The first two read one
memoised checked form per ``(M, q)`` (:func:`_lattice_form`).  The box
reads the lattice of vectors that differ by a member of ``L_n`` (or, for
candidates of a lower torsion level, the vectors whose multiple by
``n / level`` lies in it).  Its pivots ``d_c`` bound a box
``[0, d_0) x ... x [0, d_(r-1))`` whose cells are the lexicographically
least members of the classes, one each, in lexicographic order, which is
the order in which a scan over the candidates first meets them.  No Smith
form of ``I - M`` is taken.
:func:`solvable_by_enumeration` re-decides solvability by finite
enumeration alone and exists to cross-validate the echelon route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from . import linalg
from .linalg import (
    MEMO_SIZE,
    IntMatrix,
    SelfCheckError,
    elementary_divisors_via_minors,
    factorize,
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
    _check_modulus(modulus)


def _check_modulus(modulus: int) -> None:
    if modulus < 1:
        raise ValueError("the modulus must be positive")


def _integers(values) -> bool:
    return all(map(int.__instancecheck__, values))


def torus_system_solvable(
    system: IntMatrix, constants, modulus: int
) -> SolvabilityResult:
    """Decide ``system @ z = constants / modulus`` modulo the integer lattice.

    With ``q = modulus`` and ``b = constants``, the decision reads the row
    echelon ``U @ system = [E; 0]``, ``U`` unimodular, that the system
    keeps (:meth:`~kummerlab.linalg.IntMatrix.echelon`), so a system
    asked again, such as an orbit system held by its memo, is not
    eliminated again.  The image of ``system`` on the torus is a closed
    connected subgroup, so by Pontryagin duality it is the annihilator of
    the left kernel ``{f : f @ system = 0}``, which the rows of ``U``
    below the rank span.  The system is therefore solvable exactly when
    each of them pairs with ``b`` to a multiple of ``q``; the first that
    does not is the obstruction.  Otherwise ``E z = (U b)_top / q`` is
    solved by back-substitution, from the last pivot up, with the free
    unknowns at zero: ``z = w / D`` over a denominator ``D``, a multiple
    of ``q`` that grows by ``e / gcd`` only when a pivot ``e`` does not
    divide its numerator.  Then ``U system z`` is ``U b / q`` up to the
    integer rows below the rank, and ``U^-1`` is integral, so
    ``system z = b / q`` modulo ``Z^rows``.  Witness and obstruction are
    re-checked against ``system`` before returning; a failed re-check
    raises :class:`SelfCheckError`.
    """
    _check_constants(system, constants, modulus)
    u, pivots, echelon = system.echelon()
    rank = len(pivots)

    def ub(row: dict[int, int]) -> int:
        return sum(x * constants[j] for j, x in row.items())

    for row in u[rank:]:
        pairing = ub(row)
        if pairing % modulus:
            functional = tuple(row.get(j, 0) for j in range(system.rows))
            if not verify_obstruction(system, constants, modulus, functional):
                raise SelfCheckError("obstruction failed its re-check")
            return SolvabilityResult(None, (functional, pairing))
    w = [0] * system.cols
    denominator = modulus
    for k in reversed(range(rank)):
        c, row = pivots[k], echelon[k]
        pivot = row[c]
        # w[c] is still zero, so the sum reads only the columns after c.
        numerator = ub(u[k]) * (denominator // modulus) - sum(
            x * w[j] for j, x in row.items()
        )
        scale = pivot // gcd(numerator, pivot)
        if scale > 1:
            w = [x * scale for x in w]
            denominator *= scale
            numerator *= scale
        w[c] = numerator // pivot
    witness = (tuple(x % denominator for x in w), denominator)
    if not verify_witness(system, constants, modulus, witness):
        raise SelfCheckError("witness failed its re-check")
    return SolvabilityResult(witness, None)


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

    At ``level = n``, ``L' = L`` and the box is the checked form of ``L``
    (:func:`_hermite_form`).  Below it the form is found by
    :func:`_box_form` and checks itself before its pivots are returned;
    any failed check raises :class:`SelfCheckError` (:func:`_check_box`).
    """
    _check_modulus(n)
    if level < 1 or n % level:
        raise ValueError("level must divide n")
    one_minus = _one_minus(m)
    step = n // level
    if step == 1:
        return _hermite_form(one_minus, n)[1]
    return _check_box(one_minus, n, step, *_box_form(one_minus, n, step))


def cokernel_order(m: IntMatrix, modulus: int) -> int:
    """``[Z^r : L_q]``, the order of ``(Z/q)^r / (I - M)(Z/q)^r``, ``q = modulus``.

    ``L_q = (I - M) Z^r + q Z^r``; the index is the product of the pivots
    of its checked Hermite form (:func:`_lattice_form`).
    """
    return prod(_lattice_form(_one_minus(m), modulus)[1])


def image_contains(m: IntMatrix, vector, modulus: int) -> bool:
    """Whether ``vector`` mod ``q = modulus`` lies in ``(I - M)(Z/q)^r``.

    That is, whether ``vector`` lies in ``L_q = (I - M) Z^r + q Z^r``.  A
    member of ``L_q`` whose first ``c`` entries vanish is a combination of
    the rows ``c``, ``c + 1``, ... of its Hermite form
    (:func:`_lattice_form`), so its entry ``c`` is a multiple of the pivot
    ``d_c``.  Hence ``vector`` lies in ``L_q`` exactly when subtracting
    multiples of the rows, column by column, clears it
    (:func:`_reduces_to_zero`).
    """
    return _reduces_to_zero(_lattice_form(_one_minus(m), modulus)[0], vector)


def _one_minus(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """The rows of ``I - M``, as tuples, so that they can key a memo."""
    return tuple(
        tuple((i == j) - x for j, x in enumerate(r)) for i, r in enumerate(m.entries)
    )


def _generators(one_minus, modulus: int) -> list[tuple[int, ...]]:
    """The columns of ``I - M`` and the ``modulus e_j``, which span ``L_q``."""
    size = len(one_minus)
    return [*zip(*one_minus)] + [
        tuple(modulus * (i == j) for i in range(size)) for j in range(size)
    ]


def _sparse(vector) -> dict[int, int]:
    """The nonzeros of ``vector`` as a ``{column: entry}`` dict."""
    return {j: x for j, x in enumerate(vector) if x}


def _full_echelon(generators: list[dict[int, int]], width: int, size: int):
    """The rows ``(b | z)`` of the echelon ``U @ generators = E``.

    ``E`` is :func:`~kummerlab.linalg.row_echelon` of the sparse
    generators, ``b`` one of its rows, dense, and ``z`` the coefficients of
    its row of ``U`` on the first ``size`` generators, those built from the
    columns of ``I - M``.  Generators of rank below ``width`` raise
    :class:`SelfCheckError`; otherwise the rows are upper triangular with
    positive pivots.
    """
    matrix = IntMatrix.from_nonzero_rows(generators, width)
    u, pivots, echelon = linalg.row_echelon(matrix)
    if pivots != list(range(width)):
        raise SelfCheckError(f"generators of rank {len(pivots)} in {width} columns")
    return [
        [row.get(j, 0) for j in range(width)] + [w.get(j, 0) for j in range(size)]
        for row, w in zip(echelon, u)
    ]


def _box_form(one_minus, n: int, step: int):
    """``(rows, coarse)``: Hermite forms of ``L'`` and of ``L_s``, ``step > 1``.

    ``rows`` are ``(b_c | z_c)`` with ``(I - M) z_c = step b_c (mod n)``.
    ``step L'`` is the intersection of ``L`` and ``step Z^r``, read from
    one echelon (:func:`_full_echelon`) of the rows ``(g | g)`` for the
    columns ``g`` and ``(step e_i | 0)``, with ``n e_c`` in every column:
    a combination is zero in its first block exactly when its second block
    lies in both lattices, and the rows with pivots past the first block
    span those combinations.  The rows with pivots in the first block span
    the projection on it, ``L + step Z^r = L_s``; kept as ``(b | z)``,
    they are ``coarse``.  Each echelon row ``(b | c)`` with its witness
    ``z``, its row of ``U`` on the rows ``(g | g)``, has
    ``(I - M) z = c (mod n)`` and ``b = c (mod step)``, so ``z`` is a
    witness of ``b`` mod ``step``.
    """
    size = len(one_minus)
    generators = [_sparse(g + g) for g in zip(*one_minus)]
    generators += [{i: step} for i in range(size)]
    generators += [{c: n} for c in range(2 * size)]
    form = _full_echelon(generators, 2 * size, size)
    rows = [
        [x // step for x in row[size : 2 * size]] + row[2 * size :]
        for row in form[size:]
    ]
    coarse = [row[:size] + row[2 * size :] for row in form[:size]]
    return rows, coarse


def _check_box(one_minus, n: int, step: int, rows, coarse) -> tuple[int, ...]:
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

    ``[Z^r : L]`` is read from the checked form of ``L``
    (:func:`_hermite_form`), and ``[Z^r : L + step Z^r]`` from ``coarse``
    under the same checks with modulus ``step`` (:func:`_check_form`).
    """
    pivots = _pivots(rows, len(one_minus))
    _check_witnesses(rows, one_minus, n, step)
    fine = prod(_hermite_form(one_minus, n)[1])
    index = prod(_check_form(one_minus, step, coarse))
    if prod(pivots) * index != fine:
        raise SelfCheckError(
            f"box of {prod(pivots)} cells, but L' has index {fine}/{index}"
        )
    return pivots


def _hermite_form(one_minus, modulus: int):
    """``(rows, pivots)``: the Hermite form of ``L_q``, ``q = modulus``, checked.

    The rows ``(b | z)``, each with its witness, are the echelon of the
    columns of ``I - M`` and the ``q e_c`` (:func:`_full_echelon`) and
    pass :func:`_check_form`.  They are tuples, so that no caller can
    change a memoised form.  A modulus below 1 raises ``ValueError``.
    """
    _check_modulus(modulus)
    size = len(one_minus)
    generators = [_sparse(g) for g in zip(*one_minus)]
    generators += [{c: modulus} for c in range(size)]
    rows = tuple(map(tuple, _full_echelon(generators, size, size)))
    return rows, _check_form(one_minus, modulus, rows)


# The memo of :func:`_hermite_form` behind :func:`cokernel_order` and
# :func:`image_contains`: one checked form per ``(M, q)``, keyed by the
# rows of ``I - M`` as tuples (:func:`_one_minus`).  At a prime-power
# ``n`` the ``lefschetz`` translation test and the census share the form
# of ``L_n``.  A form that fails its checks raises and is not kept.  The
# search's boxes, each built once in a sweep, stay out of it.
_lattice_form = lru_cache(maxsize=MEMO_SIZE)(_hermite_form)


def _check_form(one_minus, modulus: int, rows) -> tuple[int, ...]:
    """The pivots of ``rows``, once they are shown to be a Hermite form of ``L_q``.

    ``q = modulus``.  Raises :class:`SelfCheckError` unless the rows are
    upper triangular with positive pivots, each row ``(b | z)`` has
    ``(I - M) z = b (mod q)``, so the rows span a part of ``L_q``, and the
    generators of ``L_q`` (:func:`_generators`) reduce to zero against
    them, so they span all of it.  The index ``[Z^r : L_q]`` is then the
    product of the pivots.
    """
    pivots = _pivots(rows, len(one_minus))
    _check_witnesses(rows, one_minus, modulus, 1)
    for generator in _generators(one_minus, modulus):
        if not _reduces_to_zero(rows, generator):
            raise SelfCheckError(f"{generator} is outside the form")
    return pivots


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


def _reduces_to_zero(rows, vector) -> bool:
    """Whether subtracting multiples of the triangular ``rows`` clears ``vector``.

    Column by column, the entry ``c`` must be a multiple of the pivot of
    row ``c``; entries past the ``len(rows)`` columns are not read.
    """
    size = len(rows)
    g = list(vector[:size])
    for c, row in enumerate(rows):
        if g[c]:
            q, r = divmod(g[c], row[c])
            if r:
                return False
            for j in range(c + 1, size):
                g[j] -= q * row[j]
    return True


def verify_witness(system: IntMatrix, constants, modulus: int, witness) -> bool:
    """Check that ``system @ w / D - constants / modulus`` is an integer vector.

    ``system @ w`` is summed over the nonzero rows of ``system``; nothing
    of its echelon is read.  Malformed input is rejected, not raised
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
    ``system`` whose functional entry is nonzero; nothing of its echelon
    is read.  Malformed input is rejected, not raised on: a
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
    divisors come from gcds of minors, not from the echelon under test.
    By the Chinese remainder theorem that subgroup is the product of its
    images mod the prime powers ``p^e`` of ``q``, so the target lies in it
    exactly when it lies in each image, and each is closed on its own by
    :func:`_in_closure`.  The whole subgroup has ``prod q / gcd(d_i, q)``
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
