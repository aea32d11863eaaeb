"""Exhaustive sweeps for freely acting pairs and their conjugacy classes."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from kummerlab.cli import format_matrix, format_point
from kummerlab.enriques import QuotientVerdict
from kummerlab.fixedpoint import group_acts_freely
from kummerlab.rings import RingElem, RingId, zeta6
from kummerlab.linalg import SelfCheckError
from kummerlab.search import (
    MAX_NORM_CAP,
    SearchResult,
    _shift_subgroup,
    _unit_order,
    linear_candidates,
    ring_elements_up_to_norm,
    run_search,
    torsion_points,
)
from kummerlab.torus import (
    TorusAuto,
    TorusEndo,
    TorusPoint,
    UnsupportedAutomorphismError,
)


def zeta_diag(ring: RingId) -> TorusEndo:
    return TorusEndo.diagonal(RingElem.zeta(ring), RingElem.one(ring))


def conjugacy_orbit(linear: TorusEndo, a: TorusPoint, level: int) -> set[TorusPoint]:
    """All translations equivalent to ``a`` after conjugating by translations."""
    shift = TorusEndo.identity(linear.ring) - linear
    return {a + shift.apply(p) for p in torsion_points(linear.ring, level)}


def verify_results(results: list[SearchResult], n: int) -> None:
    """Re-check every emitted pair from scratch."""
    for result in results:
        auto = TorusAuto(result.linear, result.translation)
        assert result.order == auto.order()
        assert group_acts_freely(auto, n).free
        assert result.report.free
        # Freeness forces the multiplier order to exhaust the group.
        multiplier = auto.linear.det()
        power = RingElem.one(auto.ring)
        for _ in range(result.order - 1):
            power = power * multiplier
            assert power != RingElem.one(auto.ring)


# ---------------------------------------------------------------------------
# Catalog construction


def test_ring_element_counts_up_to_norm_one() -> None:
    assert len(ring_elements_up_to_norm(RingId.RATIONAL_INT, 1)) == 3
    assert len(ring_elements_up_to_norm(RingId.GAUSSIAN, 1)) == 5
    assert len(ring_elements_up_to_norm(RingId.EISENSTEIN, 1)) == 7


@pytest.mark.parametrize("ring", [RingId.RATIONAL_INT, RingId.GAUSSIAN, RingId.EISENSTEIN])
def test_ring_element_catalog_properties(ring: RingId) -> None:
    elements = ring_elements_up_to_norm(ring, 4)
    assert len(set(elements)) == len(elements), "catalog has no duplicates"
    for e in elements:
        assert e.norm() <= 4
        assert -e in elements
        assert e.conj() in elements
    assert RingElem.zero(ring) in elements
    assert RingElem.one(ring) in elements


def test_linear_candidate_counts_at_norm_one() -> None:
    assert len(linear_candidates(RingId.RATIONAL_INT, 1)) == 24
    assert len(linear_candidates(RingId.GAUSSIAN, 1)) == 160
    assert len(linear_candidates(RingId.EISENSTEIN, 1)) == 576


def test_linear_candidates_are_finite_order_units() -> None:
    for ring in (RingId.RATIONAL_INT, RingId.GAUSSIAN):
        for endo in linear_candidates(ring, 1):
            assert endo.det().is_unit()
            order = endo.multiplicative_order()
            assert endo**order == TorusEndo.identity(ring)


# Catalog size and sha256 of the catalog's repr per (ring, max_norm), as
# produced when finite order was decided by products in the ring.
CATALOG_PINS = {
    (RingId.RATIONAL_INT, 1): (24, "08d534113d4642ececc684abfc8e405f37a89480d397b34a05efe8cc9bc1542b"),
    (RingId.RATIONAL_INT, 2): (24, "08d534113d4642ececc684abfc8e405f37a89480d397b34a05efe8cc9bc1542b"),
    (RingId.GAUSSIAN, 1): (160, "ef3ba8700dd08931c40a3af800affab5b062201238a528dcabb92ba1c8d643b0"),
    (RingId.GAUSSIAN, 2): (448, "0f8ea5aa8c7119d9e30811896bb9ff02cd5f0bf5bc1fb49f028b34ca54a5a260"),
    (RingId.EISENSTEIN, 1): (576, "345055609695db927c5cf114ef50aea43150172f530eb678e75527784e5c07df"),
    (RingId.EISENSTEIN, 2): (576, "345055609695db927c5cf114ef50aea43150172f530eb678e75527784e5c07df"),
}


@pytest.mark.parametrize("ring, max_norm", sorted(CATALOG_PINS, key=str))
def test_linear_catalog_is_pinned(ring: RingId, max_norm: int) -> None:
    catalog = linear_candidates(ring, max_norm)
    count, digest = CATALOG_PINS[ring, max_norm]
    assert len(catalog) == count
    assert hashlib.sha256(repr(catalog).encode()).hexdigest() == digest


def stepwise_order(endo: TorusEndo, bound: int = 24) -> int | None:
    """Reference order by repeated products in the ring."""
    identity = TorusEndo.identity(endo.ring)
    power = endo
    for k in range(1, bound + 1):
        if power == identity:
            return k
        power = power @ endo
    return None


@pytest.mark.parametrize(
    "ring, max_norm",
    [
        pytest.param(RingId.RATIONAL_INT, 1, id="RingId.RATIONAL_INT"),
        pytest.param(RingId.GAUSSIAN, 1, id="RingId.GAUSSIAN"),
        pytest.param(RingId.EISENSTEIN, 1, id="RingId.EISENSTEIN"),
        pytest.param(RingId.GAUSSIAN, 2, id="RingId.GAUSSIAN-2"),
    ],
)
def test_catalog_orders_match_ring_products(ring: RingId, max_norm: int) -> None:
    # Every unit-determinant matrix with entries of norm at most max_norm
    # is accepted exactly when it has an order up to 24 in the ring, and
    # with that order.
    entries = ring_elements_up_to_norm(ring, max_norm)
    catalog = set(linear_candidates(ring, max_norm))
    for p, q, r, s in itertools.product(entries, repeat=4):
        endo = TorusEndo(((p, q), (r, s)))
        if not endo.det().is_unit():
            continue
        order = stepwise_order(endo)
        assert (endo in catalog) == (order is not None)
        if order is None:
            with pytest.raises(UnsupportedAutomorphismError):
                endo.multiplicative_order()
        else:
            assert endo.multiplicative_order() == order


def test_unbounded_unit_order_is_a_self_check_error() -> None:
    # The multiplier screen relies on unit orders dividing the order of
    # the unit group; a violation surfaces as SelfCheckError, which the
    # command line maps to exit code 1, not as an AssertionError.
    with pytest.raises(SelfCheckError):
        _unit_order(RingElem(RingId.GAUSSIAN, 1, 1))


@pytest.mark.parametrize(
    "ring, level",
    [(RingId.RATIONAL_INT, 2), (RingId.RATIONAL_INT, 6), (RingId.GAUSSIAN, 4),
     (RingId.EISENSTEIN, 3), (RingId.EISENSTEIN, 6)],
)
def test_shift_subgroup_matches_pointwise_images(ring: RingId, level: int) -> None:
    # The subgroup closed from the columns of I - M equals the set of
    # images (I - h) p over every level-torsion point p, taken as canonical
    # vectors; the integer ring folds both sides the same way.
    catalog = linear_candidates(ring, 1)
    for linear in random.Random(2468).sample(catalog, min(len(catalog), 24)):
        shift = TorusEndo.identity(ring) - linear
        expected = {
            shift.apply(p).vector(level) for p in torsion_points(ring, level)
        }
        assert _shift_subgroup(linear, level) == expected


def test_torsion_point_counts() -> None:
    # One factor contributes level**2 points over the quadratic rings and
    # level points over the rational integers (one coordinate folds away).
    assert len(torsion_points(RingId.EISENSTEIN, 3)) == 81
    assert len(torsion_points(RingId.GAUSSIAN, 2)) == 16
    assert len(torsion_points(RingId.RATIONAL_INT, 2)) == 4


# ---------------------------------------------------------------------------
# Restricted sweeps with hand-checked class counts


def test_restricted_sweep_eisenstein_order3() -> None:
    # diag(zeta, 1) on the 3-fibre: freeness forces (2 + zeta) a1 != 0 and
    # a2 != 0, which leaves 2 * 8 classes.
    results = run_search(3, RingId.EISENSTEIN, linears=[zeta_diag(RingId.EISENSTEIN)])
    assert len(results) == 16
    verify_results(results, 3)
    for result in results:
        assert result.order == 3
        assert result.classification.verdict is QuotientVerdict.ENRIQUES
        assert result.classification.chi == 1


def test_restricted_sweep_contains_reference_pair() -> None:
    linear = zeta_diag(RingId.EISENSTEIN)
    results = run_search(3, RingId.EISENSTEIN, linears=[linear])
    reference = TorusPoint.from_vector(
        RingId.EISENSTEIN, ("1/3", "0", "1/3", "0")
    )
    orbit = conjugacy_orbit(linear, reference, 3)
    matches = [r for r in results if r.translation in orbit]
    assert len(matches) == 1, "the reference pair appears via its class representative"


def test_restricted_sweep_gaussian_order4() -> None:
    # diag(zeta, 1) on the 4-fibre: freeness forces 2(1+zeta) a1 != 0 and
    # a2 outside the half-torsion, leaving 8 * 12 / 8 classes.
    linear = zeta_diag(RingId.GAUSSIAN)
    results = run_search(4, RingId.GAUSSIAN, linears=[linear])
    assert len(results) == 12
    verify_results(results, 4)
    reference = TorusPoint.from_vector(RingId.GAUSSIAN, ("1/4", "0", "1/4", "0"))
    orbit = conjugacy_orbit(linear, reference, 4)
    assert sum(1 for r in results if r.translation in orbit) == 1
    halfpoint = TorusPoint.from_vector(RingId.GAUSSIAN, ("1/2", "0", "1/4", "0"))
    bad_orbit = conjugacy_orbit(linear, halfpoint, 4)
    assert not any(r.translation in bad_orbit for r in results)


def test_representatives_are_pairwise_inequivalent() -> None:
    linear = zeta_diag(RingId.EISENSTEIN)
    results = run_search(3, RingId.EISENSTEIN, linears=[linear])
    for i, first in enumerate(results):
        orbit = conjugacy_orbit(linear, first.translation, 3)
        for second in results[i + 1 :]:
            assert second.translation not in orbit


def test_full_sweep_integer_involutions() -> None:
    results = run_search(2, RingId.RATIONAL_INT)
    assert len(results) == 2
    verify_results(results, 2)
    for result in results:
        assert result.order == 2
        assert result.classification.verdict is QuotientVerdict.ENRIQUES
        assert result.classification.dimension == 2
    # The two diagonal reflections carry the translation (1/2, 1/2).
    for result in results:
        assert result.translation == TorusPoint.from_vector(
            RingId.RATIONAL_INT, ("1/2", "0", "1/2", "0")
        )


def test_order6_linear_admits_no_free_pair_on_sixth_fibre() -> None:
    linear = TorusEndo.diagonal(zeta6(), RingElem.one(RingId.EISENSTEIN))
    results = run_search(6, RingId.EISENSTEIN, level=6, linears=[linear])
    assert results == []


# sha256 of the ordered "h a order verdict" rows of the full Eisenstein
# n=3 sweep: pins the class representatives and their order.
EISENSTEIN_ORDER3_DIGEST = (
    "4ce4c40fe5a586d7c3f78d36faad404a73bafe5bb9351e85c907f47e3ee18f20"
)


def test_full_sweep_eisenstein_order3_fibre() -> None:
    results = run_search(3, RingId.EISENSTEIN)
    assert len(results) == 64
    rows = [
        f"{format_matrix(r.linear)} {format_point(r.translation)} "
        f"{r.order} {r.classification.verdict.value}"
        for r in results
    ]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == EISENSTEIN_ORDER3_DIGEST
    verify_results(results, 3)
    assert {r.order for r in results} == {3}
    linear_parts = {r.linear for r in results}
    ring = RingId.EISENSTEIN
    one = RingElem.one(ring)
    zeta = RingElem.zeta(ring)
    expected = {
        TorusEndo.diagonal(zeta, one),
        TorusEndo.diagonal(one, zeta),
        TorusEndo.diagonal(zeta * zeta, one),
        TorusEndo.diagonal(one, zeta * zeta),
    }
    assert linear_parts == expected
    for linear in expected:
        count = sum(1 for r in results if r.linear == linear)
        assert count == 16


# ---------------------------------------------------------------------------
# Validation


def test_parameter_validation() -> None:
    with pytest.raises(ValueError):
        run_search(1, RingId.EISENSTEIN)
    with pytest.raises(ValueError):
        run_search(4, RingId.GAUSSIAN, level=3)
    with pytest.raises(ValueError):
        run_search(25, RingId.GAUSSIAN, level=25)
    with pytest.raises(ValueError):
        run_search(2, RingId.RATIONAL_INT, max_norm=MAX_NORM_CAP + 1)
    with pytest.raises(ValueError):
        run_search(3, RingId.EISENSTEIN, linears=[zeta_diag(RingId.GAUSSIAN)])
    singular = TorusEndo.diagonal(
        RingElem(RingId.EISENSTEIN, 2), RingElem.one(RingId.EISENSTEIN)
    )
    with pytest.raises(UnsupportedAutomorphismError):
        run_search(3, RingId.EISENSTEIN, linears=[singular])
