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
All translations of one linear part share one cache of orbit systems and
their Smith normal forms, which never depend on the translation.

Two sound screens keep the sweep fast.  A nontrivial power with trivial
symplectic multiplier fixes points, so a free pair needs the determinant
of ``h`` to have the same multiplicative order as ``h`` itself, and the
translation must not extend the order beyond that of the linear part.
Only pairs surviving both screens reach the full freeness decision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .enriques import QuotientClassification, classify_free_quotient
from .fixedpoint import GRID_LEVEL_CAP, FreenessReport, group_acts_freely
from .linalg import IntMatrix, SelfCheckError, matrix_order
from .rings import RingElem, RingId
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
    order: int
    report: FreenessReport
    classification: QuotientClassification


def ring_elements_up_to_norm(ring: RingId, bound: int) -> list[RingElem]:
    """All ring integers of norm at most ``bound``, in scan order."""
    if bound < 0:
        raise ValueError("norm bound must be non-negative")
    # norm(x + y*zeta) is a positive definite quadratic form, so every
    # element of bounded norm has |x|, |y| <= 2*bound.  Construction
    # canonicalizes coordinates (the rational-integer ring folds the
    # generator away), so a seen-set keeps each element once.
    box = 2 * bound
    found = []
    seen = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            e = RingElem(ring, x, y)
            if e in seen:
                continue
            if e.norm() <= bound:
                seen.add(e)
                found.append(e)
    return found


def linear_candidates(ring: RingId, max_norm: int) -> list[TorusEndo]:
    """Finite-order linear automorphisms with entries of norm <= max_norm.

    Candidates must have unit determinant (otherwise they do not act
    invertibly) and multiplicative order within the supported bound.
    """
    if max_norm > MAX_NORM_CAP:
        raise ValueError(f"max_norm is capped at {MAX_NORM_CAP}")
    entries = ring_elements_up_to_norm(ring, max_norm)
    accepted = []
    for p, q, r, s in itertools.product(entries, repeat=4):
        det = p * s - q * r
        if not det.is_unit():
            continue
        endo = TorusEndo(((p, q), (r, s)))
        try:
            endo.multiplicative_order()
        except UnsupportedAutomorphismError:
            continue
        accepted.append(endo)
    return accepted


def torsion_points(ring: RingId, level: int) -> list[TorusPoint]:
    """All points killed by ``level``, in scan order, without duplicates."""
    if level < 1:
        raise ValueError("level must be positive")
    seen = set()
    points = []
    for vector in itertools.product(range(level), repeat=4):
        p = TorusPoint.from_integers(ring, level, vector)
        if p in seen:
            continue
        seen.add(p)
        points.append(p)
    return points


def _shift_subgroup(linear: TorusEndo, level: int) -> set[tuple[int, ...]]:
    """The subgroup ``(I - h) E[level]`` as integer vectors mod ``level``.

    Generated by the columns of ``I - M`` with ``M`` the induced matrix,
    each taken as a point so that the integer ring folds it like every
    candidate.  Closing them under addition touches each subgroup element a
    handful of times instead of applying the matrix to every torsion point.
    """
    m = linear.induced_matrix()
    generators = [
        TorusPoint.from_integers(
            linear.ring, level, [int(i == j) - m[i][j] for i in range(4)]
        ).vector(level)
        for j in range(4)
    ]
    group = {(0, 0, 0, 0)}
    for g in generators:
        frontier = group
        while frontier:
            frontier = {
                tuple((x + y) % level for x, y in zip(p, g)) for p in frontier
            } - group
            group |= frontier
    return group


def _unit_order(unit: RingElem) -> int:
    """The order of a unit: :func:`matrix_order` of its regular representation."""
    try:
        return matrix_order(IntMatrix(unit.regular_representation()))
    except ValueError:
        raise SelfCheckError(f"{unit!r} is not a unit of finite order") from None


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
    matrices instead of the norm-bounded sweep.  The identity map is
    excluded: it generates the trivial group, which acts freely but
    yields no quotient of interest.
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
            if endo.ring is not ring:
                raise ValueError("restricted linear parts must match the ring")
            if not endo.det().is_unit():
                raise UnsupportedAutomorphismError(
                    "linear part must have unit determinant"
                )
            endo.multiplicative_order()
    candidates = torsion_points(ring, level)
    vectors = [a.vector(n) for a in candidates]
    results = []
    for linear in linears:
        order = linear.multiplicative_order()
        if order == 1:
            # Pure translations never survive the multiplier screen.
            continue
        if _unit_order(linear.det()) != order:
            # Some nontrivial power of the linear part is symplectic and
            # translations cannot repair that, so no pair with this
            # linear part acts freely.
            continue
        deltas = _shift_subgroup(linear, n)
        # Orbit systems and their normal forms depend on the linear part
        # only, so every translation of this linear part shares them.
        cache: dict = {}
        seen: set[tuple[int, ...]] = set()
        for a, vector in zip(candidates, vectors):
            if vector in seen:
                continue
            seen.update(
                tuple((x + y) % n for x, y in zip(vector, d)) for d in deltas
            )
            if a.is_origin():
                # The class of pure linear maps: these fix the zero
                # configuration (the origin taken n times), so they are
                # never free.
                continue
            auto = TorusAuto(linear, a)
            if auto.order() != order:
                # The translation raises the order past the linear part,
                # so the multiplier screen rejects the pair.
                continue
            report = group_acts_freely(auto, n, stop_at_first=True, cache=cache)
            if not report.free:
                continue
            results.append(
                SearchResult(
                    linear=linear,
                    translation=a,
                    order=order,
                    report=report,
                    classification=classify_free_quotient(n, order),
                )
            )
    return results
