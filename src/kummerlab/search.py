"""Exhaustive search for fixed-point-free natural automorphisms.

The search space for a given ``n`` and ring is the set of pairs ``(h, a)``
where ``h`` is a finite-order linear automorphism of ``E x E`` with entries
of bounded norm and ``a`` is an ``n``-torsion translation.  Two pairs that
differ by conjugation with a translation ``t_b`` induce conjugate maps on
the fibre ``K_n``, so freeness only depends on the orbit of ``a`` under
``a -> a + (I - h) b`` with ``b`` ranging over the ``n``-torsion subgroup.
The search reports one representative per orbit (the first one in scan
order) and skips the rest.  The scan runs on integer vectors mod ``n``:
the translation ``a`` is ``vector / n`` and the orbit is the coset of the
subgroup ``(I - M) (Z/n)^4`` with ``M`` the induced 4x4 integer matrix.
One Smith form of ``I - M`` keys the cosets (:func:`translation_classes`);
the scan keeps the keys it has met and stops once it has met every class
its candidates reach.  What never depends on the translation, the power
tables behind the tested powers and the orbit systems, the systems'
matrices and their Smith normal forms, is memoised where it is computed,
so each pair computes only its constants and its solves.

Each question is asked of the cheapest fact that settles it.  The catalog
decides finite order once per pair ``(tr h, det h)``, which fixes the
characteristic polynomial of the induced matrix (:func:`linear_candidates`).
The sweep skips the identity, then a part whose order ``d`` does not divide
``n``, and only then takes ``ord(det h)`` for :func:`symplectic_screen`;
parts that fail it give no free pair and are never keyed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

from .enriques import QuotientClassification, classify_free_quotient, symplectic_screen
from .fixedpoint import GRID_LEVEL_CAP, FreenessReport, group_acts_freely
from .lattice import translation_classes
from .linalg import CYCLOTOMIC_ORDERS, characteristic_polynomial
from .rings import RingElem, RingId, induced_matrix, ring_elements_up_to_norm
from .torus import (
    TorusAuto,
    TorusEndo,
    TorusPoint,
    UnsupportedAutomorphismError,
)

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
    invertibly) and finite multiplicative order, as
    :meth:`TorusEndo.multiplicative_order` reads it from the induced matrix
    with :func:`~kummerlab.linalg.matrix_order`.

    The characteristic polynomial of the induced matrix ``M`` of
    ``h = [[p, q], [r, s]]`` depends only on ``(tr h, det h)``.  The ring
    ``O`` is a lattice of rank 1 or 2 on which ``e`` acts by its regular
    representation; over ``C`` that representation splits into the
    embedding ``e`` and its conjugate (the scalar ``e`` twice for the
    integer ring), so ``M`` is similar to ``h`` beside ``conj(h)`` and
    ``chi_M = chi_h * conj(chi_h)`` with ``chi_h = x^2 - (tr h) x + det h``.
    Each pair is therefore decided once, from the first tuple that has it:
    a ``chi_M`` outside :data:`~kummerlab.linalg.CYCLOTOMIC_ORDERS` means
    infinite order, and every later tuple with that pair is skipped before
    its matrix is built.  Tuples of the other pairs go through
    ``matrix_order``, which still confirms ``M^L = I``.  The entries'
    pairwise products are formed once, so ``det h`` costs one subtraction.

    In the Eisenstein norm-1 catalog, 1,368 tuples have unit determinant
    and 78 pairs ``(tr h, det h)``, 24 of them cyclotomic: 720 tuples are
    skipped by their pair, and 72 of the 648 that reach ``matrix_order``
    fail ``M^L = I``, leaving 576.
    """
    if max_norm > MAX_NORM_CAP:
        raise ValueError(f"max_norm is capped at {MAX_NORM_CAP}")
    entries = ring_elements_up_to_norm(ring, max_norm)
    products = [[e * f for f in entries] for e in entries]
    cyclotomic: dict[tuple[RingElem, RingElem], bool] = {}
    accepted = []
    for i, j, k, l in itertools.product(range(len(entries)), repeat=4):
        det = products[i][l] - products[j][k]
        if not det.is_unit():
            continue
        rows = ((entries[i], entries[j]), (entries[k], entries[l]))
        pair = (entries[i] + entries[l], det)
        if pair not in cyclotomic:
            matrix = induced_matrix(rows)
            chi = characteristic_polynomial(matrix, matrix @ matrix)
            cyclotomic[pair] = chi in CYCLOTOMIC_ORDERS
        if not cyclotomic[pair]:
            continue
        endo = TorusEndo(induced_matrix(rows))
        try:
            endo.multiplicative_order()
        except UnsupportedAutomorphismError:
            continue
        accepted.append(endo)
    return accepted


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
    :func:`symplectic_screen` before its translations are keyed.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if level is None:
        level = n
    if not 1 <= level <= GRID_LEVEL_CAP:
        raise ValueError(f"level must lie in 1..{GRID_LEVEL_CAP}")
    if n % level != 0:
        raise ValueError("level must divide n")
    if linears is None:
        linears = linear_candidates(ring, max_norm)
    else:
        for endo in linears:
            TorusAuto.check_linear(endo)
    candidates = torsion_points(level)
    vectors = [a.vector(n) for a in candidates]
    results = []
    for linear in linears:
        order = linear.multiplicative_order()
        # The screen needs d | n as well as ord(det h) = d; the first is
        # read from the order alone, so the multiplier is taken only then.
        if order == 1 or n % order:
            continue
        if not symplectic_screen(order, linear.multiplier_order(), n):
            continue
        key, moduli = translation_classes(linear.induced_matrix(), n)
        # Candidates are multiples of n // level, so they reach this many
        # of the prod(moduli) classes.
        reachable = prod(g // gcd(g, n // level) for g in moduli)
        seen: set[tuple[int, ...]] = set()
        for a, vector in zip(candidates, vectors):
            if len(seen) == reachable:
                break
            k = key(vector)
            if k in seen:
                continue
            seen.add(k)
            if a.is_origin():
                # The class of pure linear maps: these fix the zero
                # configuration (the origin taken n times), so they are
                # never free.
                continue
            auto = TorusAuto(linear, a)
            if auto.order() != order:
                # ord(omega) divides the linear order, so the screen fails.
                continue
            report = group_acts_freely(auto, n, stop_at_first=True)
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
