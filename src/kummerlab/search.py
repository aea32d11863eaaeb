"""Exhaustive search for fixed-point-free natural automorphisms.

The search space for a given ``n`` and ring is the set of pairs ``(h, a)``
where ``h`` is a finite-order linear automorphism of ``E x E`` with entries
of bounded norm and ``a`` is an ``n``-torsion translation.  Two pairs that
differ by conjugation with a translation ``t_b`` induce conjugate maps on
the fibre ``K_n``, so freeness only depends on the orbit of ``a`` under
``a -> a + (I - h) b`` with ``b`` ranging over the ``n``-torsion subgroup.
The search reports one representative per orbit (the first one in scan
order) and skips the rest.  The translations are integer vectors mod
``n``: ``a`` is ``vector / n`` and its orbit is the coset of the subgroup
``(I - M)(Z/n)^4``, with ``M`` the induced 4x4 integer matrix.  The
search lists the cosets without scanning for them:
:func:`~kummerlab.lattice.translation_box` puts the lattice of vectors
that differ by a member of the subgroup in Hermite form, and its pivots
``d_c`` bound a box ``[0, d_0) x ... x [0, d_3)`` whose cells are the
least members of the cosets, one each.  A least member in lexicographic
order is the first one a scan in that order meets, and the box lists the
cells in that order, so the representatives and their order are those
of the scan over every candidate vector, which the box replaces.  No
point list is built, and a point is made only for a class that passes
the order screen of :func:`run_search`.  What never depends on the
translation, the power tables behind the screen and the tested powers,
the orbit systems, the systems' matrices and their row echelons,
is memoised where it is computed, so each pair computes only its
constants and its solves.

Each question is asked of the cheapest fact that settles it.  The catalog
decides finite order in the ring (:func:`linear_candidates`): the pair
``(tr h, det h)`` fixes the characteristic polynomial of the induced
matrix, and with it the order ``L`` if there is one and whether ``h`` has
a repeated eigenvalue; a tuple of such a pair has finite order only when
``h`` is scalar.  ``matrix_order`` re-checks one tuple per pair.  The
catalog loop reads entries, traces and determinants as integer coordinate
pairs and builds a part only for a tuple it accepts.
The sweep skips the identity, then a part whose order ``d`` does not divide
``n``, and only then takes ``ord(det h)`` for :func:`symplectic_screen`;
parts that fail it give no free pair, and their classes are never listed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .enriques import QuotientClassification, classify_free_quotient, symplectic_screen
from .fixedpoint import FreenessReport, group_acts_freely
from .lattice import translation_box
from .linalg import (
    CYCLOTOMIC_ORDERS,
    IntMatrix,
    SelfCheckError,
    characteristic_polynomial,
    matrix_order,
)
from .rings import RingElem, RingId, block_matrix, ring_elements_up_to_norm, units
from .torus import TorusAuto, TorusEndo, TorusPoint, power_sums

MAX_NORM_CAP = 4


@dataclass(frozen=True)
class SearchResult:
    """One fixed-point-free pair, with its order and quotient type."""

    linear: TorusEndo
    translation: TorusPoint
    report: FreenessReport
    classification: QuotientClassification

    @property
    def order(self) -> int:
        return self.report.order


def linear_candidates(ring: RingId, max_norm: int) -> list[TorusEndo]:
    """Finite-order linear automorphisms with entries of norm <= max_norm.

    Candidates must have unit determinant (otherwise they do not act
    invertibly) and finite multiplicative order.  Each tuple is decided by
    ring arithmetic and facts of its pair ``(tr h, det h)``, and no tuple
    needs a power of its 4x4 induced matrix;
    :func:`~kummerlab.linalg.matrix_order` runs once per pair, as a
    self-check.

    The characteristic polynomial of the induced matrix ``M`` of
    ``h = [[p, q], [r, s]]`` depends only on ``(tr h, det h)``.  The ring
    ``O`` is a lattice of rank 1 or 2 on which ``e`` acts by its regular
    representation; over ``C`` that representation splits into the
    embedding ``e`` and its conjugate (the scalar ``e`` twice for the
    integer ring), so ``M`` is similar to ``h`` beside ``conj(h)`` and
    ``chi_M = chi_h * conj(chi_h)`` with ``chi_h = x^2 - (tr h) x + det h``.
    So ``M`` has finite order exactly when ``h`` does, and a pair whose
    ``chi_M`` is outside :data:`~kummerlab.linalg.CYCLOTOMIC_ORDERS` has
    infinite order.  Otherwise every eigenvalue of ``h`` is a root of
    unity, and ``h`` has finite order exactly when it is diagonalisable;
    its order is then the ``L`` of ``chi_M``, since the eigenvalues of
    ``M`` are those of ``h`` and their conjugates, of the same orders.  A
    2x2 matrix with distinct eigenvalues, ``tr^2 != 4 det``, is
    diagonalisable; one with a repeated eigenvalue is diagonalisable only
    when it is scalar, ``q = r = 0`` and ``p = s``.

    Each pair is therefore decided once, from the first tuple that has it:
    ``L`` or ``None``, and whether its eigenvalue repeats.  The first tuple
    a pair accepts goes through ``matrix_order``, which confirms
    ``M^L = I``; any other answer raises :class:`SelfCheckError`.  Every
    accepted part carries ``L`` in its order memo.

    The entries' pairwise sums and products are formed once in the ring
    and read as coordinate pairs ``(x, y)``: ``tr h`` is a lookup,
    ``det h`` one subtraction of integer pairs, the unit test and the pair
    key lookups of integer tuples.  Only a new pair goes back to the ring,
    for its repeated-eigenvalue test.  Each entry's regular representation
    is computed once, and :func:`~kummerlab.rings.block_matrix` assembles
    the 4x4 matrix of a new pair or an accepted tuple from them, as
    :func:`~kummerlab.rings.induced_matrix` does.

    In the Eisenstein norm-1 catalog, 1,368 tuples have unit determinant
    and 78 pairs ``(tr h, det h)``, 24 of them cyclotomic: 720 tuples are
    skipped by their pair, 72 are rejected as non-scalar with a repeated
    eigenvalue (exactly those that fail ``M^L = I``), and 576 are
    accepted, with 24 calls to ``matrix_order``.
    """
    if max_norm > MAX_NORM_CAP:
        raise ValueError(f"max_norm is capped at {MAX_NORM_CAP}")
    entries = ring_elements_up_to_norm(ring, max_norm)
    unit_set = {(u.x, u.y) for u in units(ring)}
    zero = entries.index(RingElem.zero(ring))
    blocks = [e.regular_representation() for e in entries]
    sums = [[e + f for f in entries] for e in entries]
    products = [[e * f for f in entries] for e in entries]
    sum_pairs = [[(e.x, e.y) for e in row] for row in sums]
    product_pairs = [[(e.x, e.y) for e in row] for row in products]
    # (tr h, det h) as coordinate pairs -> (L or None, whether the
    # eigenvalue repeats)
    decided: dict[tuple, tuple[int | None, bool]] = {}
    checked: set[tuple] = set()
    accepted = []
    for i, j, k, l in itertools.product(range(len(entries)), repeat=4):
        (px, py), (qx, qy) = product_pairs[i][l], product_pairs[j][k]
        det = (px - qx, py - qy)
        if det not in unit_set:
            continue
        pair = (sum_pairs[i][l], det)
        if pair not in decided:
            matrix = block_matrix(blocks[i], blocks[j], blocks[k], blocks[l])
            chi = characteristic_polynomial(matrix, matrix @ matrix)
            trace = sums[i][l]
            det_h = products[i][l] - products[j][k]
            double = det_h + det_h
            repeated = trace * trace == double + double
            decided[pair] = (CYCLOTOMIC_ORDERS.get(chi), repeated)
        order, repeated = decided[pair]
        if order is None:
            continue
        if repeated and not (j == k == zero and i == l):
            continue
        matrix = block_matrix(blocks[i], blocks[j], blocks[k], blocks[l])
        if pair not in checked:
            checked.add(pair)
            _check_order(matrix, order)
        accepted.append(TorusEndo._with_order(matrix, order))
    return accepted


def _check_order(matrix: IntMatrix, order: int) -> None:
    """Raise :class:`SelfCheckError` unless ``matrix_order(matrix) == order``."""
    try:
        found = matrix_order(matrix)
    except ValueError:
        found = None
    if found != order:
        raise SelfCheckError(
            f"catalog part {matrix!r} has order {found}, its pair predicts {order}"
        )


def torsion_points(level: int) -> list[TorusPoint]:
    """All ``level**4`` points killed by ``level``, in scan order."""
    if level < 1:
        raise ValueError("level must be positive")
    return [
        TorusPoint.from_integers(level, vector)
        for vector in itertools.product(range(level), repeat=4)
    ]


def run_search(
    n: int,
    ring: RingId,
    *,
    level: int | None = None,
    max_norm: int = 1,
    linears: list[TorusEndo] | None = None,
) -> list[SearchResult]:
    """Enumerate translation-conjugacy classes of free pairs on ``K_n``.

    ``level`` bounds the torsion level of the translation part (default
    ``n``; it must divide ``n`` for the translations to be ``n``-torsion).
    ``linears`` restricts the catalog of linear parts to the given
    matrices instead of the norm-bounded sweep of ``ring``, which is then
    not read: a linear part carries no ring.  The identity map is
    excluded: it generates the trivial group, which acts freely but
    yields no quotient of interest.  Every other linear part must pass
    :func:`symplectic_screen` before its classes are listed.

    The translations are the integer vectors over ``n`` with entries that
    are multiples of ``s = n // level``, the vectors of
    :func:`torsion_points` at ``level`` over ``n`` in the same order; no
    point list is built.  Each class of a linear part is listed once, by
    its first vector in that order, as a cell ``w`` of
    :func:`~kummerlab.lattice.translation_box`, whose docstring derives
    why a cell is the least member of its class and why the box's
    lexicographic order is the scan's; the translation is ``s w``.  The
    first cell, ``w = 0``, is the class of the pure linear map, which
    fixes the zero configuration and is skipped.

    The order screen: with ``m`` the order of ``h`` and
    ``P_m = I + M + ... + M^(m-1)``, the pair ``(h, a)`` with
    ``a = v / n`` has order ``m`` exactly when ``P_m v = 0 (mod n)``, since
    ``(t_a h)^m`` is the translation by ``P_m a``.  A larger order gives
    no free pair: :func:`symplectic_screen` needs ``ord(det h)`` to be the
    order of the group, and ``ord(det h)`` divides ``m``.  The condition
    holds on whole classes, as ``P_m (I - M) = I - M^m = 0``.  ``P_m`` is
    read once per linear part from :func:`~kummerlab.torus.power_sums`,
    each cell is screened before a :class:`TorusPoint` is built for it,
    and a cell that passes goes to :func:`group_acts_freely`.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if level is None:
        level = n
    if level < 1 or n % level != 0:
        raise ValueError("level must be a positive divisor of n")
    if linears is None:
        linears = linear_candidates(ring, max_norm)
    else:
        for endo in linears:
            endo.multiplicative_order()
    step = n // level
    results = []
    for linear in linears:
        order = linear.multiplicative_order()
        # The screen needs d | n as well as ord(det h) = d; the first is
        # read from the order alone, so the multiplier is taken only then.
        if order == 1 or n % order:
            continue
        if not symplectic_screen(order, linear.multiplier_order(), n):
            continue
        matrix = linear.induced_matrix()
        _, period, _ = power_sums(matrix, order)
        # The nonzero rows of step * P_m mod n, which act on a cell w.
        scaled = (tuple(step * x % n for x in row) for row in period.entries)
        screen = [row for row in scaled if any(row)]
        cells = itertools.product(*map(range, translation_box(matrix, n, level)))
        next(cells)  # w = 0, the pure linear map
        for cell in cells:
            if any(sum(map(mul, row, cell)) % n for row in screen):
                continue
            a = TorusPoint.from_integers(n, [step * x for x in cell])
            report = group_acts_freely(TorusAuto(linear, a), n, stop_at_first=True)
            if not report.free:
                continue
            results.append(
                SearchResult(
                    linear=linear,
                    translation=a,
                    report=report,
                    classification=classify_free_quotient(n, order),
                )
            )
    return results
