"""Exhaustive sweeps for freely acting pairs and their conjugacy classes."""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from math import prod

import pytest

from kummerlab import search
from kummerlab.cli import format_matrix, format_point
from kummerlab.enriques import QuotientVerdict, symplectic_screen
from kummerlab.fixedpoint import group_acts_freely
from kummerlab.rings import (
    RingElem,
    RingId,
    induced_matrix,
    ring_elements_up_to_norm,
    units,
    zeta6,
)
from kummerlab.linalg import (
    CYCLOTOMIC_ORDERS,
    IntMatrix,
    SelfCheckError,
    characteristic_polynomial,
    matrix_order,
)
from kummerlab.search import (
    MAX_NORM_CAP,
    SearchResult,
    linear_candidates,
    run_search,
    torsion_points,
)
from kummerlab.torus import (
    TorusAuto,
    TorusEndo,
    TorusPoint,
    UnsupportedAutomorphismError,
)


def diag(d1: RingElem, d2: RingElem) -> TorusEndo:
    zero = RingElem.zero(d1.ring)
    return TorusEndo(induced_matrix([[d1, zero], [zero, d2]]))


def zeta_diag(ring: RingId) -> TorusEndo:
    return diag(RingElem.zeta(ring), RingElem.one(ring))


def shift_images(linear: TorusEndo, level: int) -> set[TorusPoint]:
    """The points ``(I - h) p`` for every ``level``-torsion ``p``."""
    return {p - linear.apply(p) for p in torsion_points(level)}


def conjugacy_orbit(linear: TorusEndo, a: TorusPoint, level: int) -> set[TorusPoint]:
    """All translations equivalent to ``a`` after conjugating by translations."""
    return {a + d for d in shift_images(linear, level)}


def verify_results(results: list[SearchResult], n: int) -> None:
    """Re-check every emitted pair from scratch."""
    for result in results:
        auto = TorusAuto(result.linear, result.translation)
        assert result.order == auto.order()
        assert group_acts_freely(auto, n).free
        assert result.report.free
        # Freeness forces the multiplier order to exhaust the group.
        assert auto.linear.multiplier_order() == result.order


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
            assert abs(endo.induced_matrix().det()) == 1
            order = endo.multiplicative_order()
            assert endo**order == TorusEndo.identity()


# Catalog size, then the sha256 of the catalog's format_matrix rows and of
# its repr, per (ring, max_norm).  The rows at norms 1 and 2 are those
# produced when finite order was decided by products in the ring, those at
# norms 3 and 4 those of matrix_order on every unit-determinant tuple; the
# repr prints each part's induced IntMatrix.
CATALOG_PINS = {
    (RingId.RATIONAL_INT, 1): (
        24,
        "ec18c74aabdef6fc25fd343efba8e14b8b17b5a759b9ecbed87d22042f6ce775",
        "a541194008ed310994525e2e139ec13740feac1a364536c9ec929b1552edeb9b",
    ),
    (RingId.RATIONAL_INT, 2): (
        24,
        "ec18c74aabdef6fc25fd343efba8e14b8b17b5a759b9ecbed87d22042f6ce775",
        "a541194008ed310994525e2e139ec13740feac1a364536c9ec929b1552edeb9b",
    ),
    (RingId.RATIONAL_INT, 3): (
        24,
        "ec18c74aabdef6fc25fd343efba8e14b8b17b5a759b9ecbed87d22042f6ce775",
        "a541194008ed310994525e2e139ec13740feac1a364536c9ec929b1552edeb9b",
    ),
    (RingId.RATIONAL_INT, 4): (
        40,
        "bb3873ab183d9748d0c07c1706e37ec6c1554467ef7756ffd7dfa1898e2f101c",
        "a3dee95e95f7f5d45f182cb3626803c1b1a9cb903198608b27ccf476ce61be4e",
    ),
    (RingId.GAUSSIAN, 1): (
        160,
        "6bc3d25f860d351f01f5ca500f6a2312aa95a514182af00dc204af4f32224752",
        "d8b58dec44f7c991fe92ecc356710adce0102c537aa1913b7b950ae421cd6161",
    ),
    (RingId.GAUSSIAN, 2): (
        448,
        "3a6993002ea550d31e0fc6aae8d407bdaa367c7296445a8c3c52a2b250533744",
        "101cf36df1a3a14445ef82825629b0c75f068a8b33f60345c44ddc6e46e82ea2",
    ),
    (RingId.GAUSSIAN, 3): (
        448,
        "3a6993002ea550d31e0fc6aae8d407bdaa367c7296445a8c3c52a2b250533744",
        "101cf36df1a3a14445ef82825629b0c75f068a8b33f60345c44ddc6e46e82ea2",
    ),
    (RingId.GAUSSIAN, 4): (
        576,
        "b7b9ba000b7f7fb9981b2441371270996f2b782574917f70635385198fafdd4e",
        "b1a9117aa64fa26bc147ac6066e2a2ec082e3280bbe5f22f874d70faad889129",
    ),
    (RingId.EISENSTEIN, 1): (
        576,
        "e8e2224c7272701b5f758e1c98b8c4587a2b578eed0881f428d1820d02ae8c65",
        "7788bb0868de377c37fd7e28066f026d13ee75f006a713cac8b314c963e225d6",
    ),
    (RingId.EISENSTEIN, 2): (
        576,
        "e8e2224c7272701b5f758e1c98b8c4587a2b578eed0881f428d1820d02ae8c65",
        "7788bb0868de377c37fd7e28066f026d13ee75f006a713cac8b314c963e225d6",
    ),
    (RingId.EISENSTEIN, 3): (
        1152,
        "d1df96e6d534021c9c9c7372b12683939c07c0a2f1ca06a891e8b4b31f3c297e",
        "edafe8fbbfa489e5aa9b8fbd0ae4928ac761feefca1e177ba4190e9df6135859",
    ),
    (RingId.EISENSTEIN, 4): (
        2520,
        "1ab9fbcb829d933ac29f8c427a8b8a1c3ae7fac12574c8fb1437ef685cfaa44b",
        "75feaced12e964d596bb2cfdde9db15dd18dfb4b8ace0315ab67af5dab438fb7",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("ring, max_norm", sorted(CATALOG_PINS, key=str))
def test_linear_catalog_is_pinned(ring: RingId, max_norm: int) -> None:
    catalog = linear_candidates(ring, max_norm)
    count, rows, digest = CATALOG_PINS[ring, max_norm]
    assert len(catalog) == count
    assert sha256("\n".join(format_matrix(e) for e in catalog)) == rows
    assert sha256(repr(catalog)) == digest



# sha256 of the catalog's "format_matrix(h) order" rows per (ring, max_norm),
# measured at norms 1 and 2 when orders came from a ladder of powers up to
# m^24, and at norms 3 and 4 with matrix_order on every tuple.
CATALOG_ORDER_PINS = {
    (RingId.RATIONAL_INT, 1): "9b710c83598de2045059a35b46c48c00a13bda183ffd38c554691fce00483f19",
    (RingId.RATIONAL_INT, 2): "9b710c83598de2045059a35b46c48c00a13bda183ffd38c554691fce00483f19",
    (RingId.RATIONAL_INT, 3): "9b710c83598de2045059a35b46c48c00a13bda183ffd38c554691fce00483f19",
    (RingId.RATIONAL_INT, 4): "1049ee0a37a698c544ecc0d083b7f2e6ad676ffc8ff9ef46cf2ced4cdb0baf43",
    (RingId.GAUSSIAN, 1): "cd5bc57ff86cbdc847c761752db47559989f4d0620c54e41cb51470357c4c039",
    (RingId.GAUSSIAN, 2): "5825a73dcf15f6d32259b871885cf3a20e5a78207dd437969f0137cc000fc1ae",
    (RingId.GAUSSIAN, 3): "5825a73dcf15f6d32259b871885cf3a20e5a78207dd437969f0137cc000fc1ae",
    (RingId.GAUSSIAN, 4): "2b305b0a07eac7f9e0da118c69c7e8416ec0065af463cd121d11c93daf2383ab",
    (RingId.EISENSTEIN, 1): "ea755760b7d60a8a1bbe7111efbc12f84566bd75d4967f13a2e43152f3f416ac",
    (RingId.EISENSTEIN, 2): "ea755760b7d60a8a1bbe7111efbc12f84566bd75d4967f13a2e43152f3f416ac",
    (RingId.EISENSTEIN, 3): "e3022781884df236ee207342a50c18a486dc4376f455d1d8075d6306b2a98ab6",
    (RingId.EISENSTEIN, 4): "917c68bcceb1821229810bab90a5f0b019e1cdc72e87fa175e7fe7211658cb77",
}


@pytest.mark.parametrize("ring, max_norm", sorted(CATALOG_ORDER_PINS, key=str))
def test_linear_catalog_orders_are_pinned(ring: RingId, max_norm: int) -> None:
    rows = (
        f"{format_matrix(h)} {h.multiplicative_order()}"
        for h in linear_candidates(ring, max_norm)
    )
    assert sha256("\n".join(rows)) == CATALOG_ORDER_PINS[ring, max_norm]


def unit_determinant_tuples(ring: RingId, max_norm: int):
    """``(p, q, r, s)`` with unit ``p s - q r``, in catalog order."""
    entries = ring_elements_up_to_norm(ring, max_norm)
    for p, q, r, s in itertools.product(entries, repeat=4):
        if (p * s - q * r).is_unit():
            yield p, q, r, s


def ring_poly_mul(f: list[RingElem], g: list[RingElem]) -> list[RingElem]:
    zero = RingElem.zero(f[0].ring)
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


@pytest.mark.parametrize(
    "ring, max_norm, count",
    [
        pytest.param(RingId.RATIONAL_INT, 1, 40, id="integer-1"),
        pytest.param(RingId.GAUSSIAN, 1, 288, id="gaussian-1"),
        pytest.param(RingId.GAUSSIAN, 2, 1184, id="gaussian-2"),
        pytest.param(RingId.EISENSTEIN, 1, 1368, id="eisenstein-1"),
    ],
)
def test_induced_polynomial_depends_on_trace_and_determinant(
    ring: RingId, max_norm: int, count: int
) -> None:
    # linear_candidates decides each (tr h, det h) once: the induced
    # matrix's characteristic polynomial is chi_h * conj(chi_h), with
    # chi_h = x^2 - (tr h) x + det h, so tuples sharing the pair share it.
    one = RingElem.one(ring)
    by_pair: dict[tuple[RingElem, RingElem], tuple[int, ...]] = {}
    seen = 0
    for p, q, r, s in unit_determinant_tuples(ring, max_norm):
        seen += 1
        trace, det = p + s, p * s - q * r
        m = induced_matrix(((p, q), (r, s)))
        chi = characteristic_polynomial(m, m @ m)
        assert by_pair.setdefault((trace, det), chi) == chi
        chi_h = [one, -trace, det]
        product = ring_poly_mul(chi_h, [c.conj() for c in chi_h])
        assert all(c.y == 0 for c in product)
        assert chi == tuple(c.x for c in product)
    assert seen == count


def test_catalog_decides_each_pair_once(monkeypatch) -> None:
    # Eisenstein norm 1: 1,368 unit-determinant tuples in 78 pairs
    # (tr h, det h), 24 of them with a cyclotomic chi_M.  The other 54
    # pairs hold 720 tuples, skipped by their pair.  Of the 648 left, the
    # 72 non-scalar tuples of a pair with tr^2 = 4 det are rejected, and
    # matrix_order runs once per cyclotomic pair, on its first accepted
    # tuple.
    screened: list[tuple[int, ...]] = []
    decided = 0

    def screen(m, square):
        screened.append(characteristic_polynomial(m, square))
        return screened[-1]

    def order(m):
        nonlocal decided
        decided += 1
        return matrix_order(m)

    monkeypatch.setattr(search, "characteristic_polynomial", screen)
    monkeypatch.setattr(search, "matrix_order", order)
    catalog = linear_candidates(RingId.EISENSTEIN, 1)
    assert len(screened) == 78
    assert sum(chi in CYCLOTOMIC_ORDERS for chi in screened) == 24
    assert decided == 24
    skipped = repeated = 0
    for p, q, r, s in unit_determinant_tuples(RingId.EISENSTEIN, 1):
        m = induced_matrix(((p, q), (r, s)))
        trace, det = p + s, p * s - q * r
        if characteristic_polynomial(m, m @ m) not in CYCLOTOMIC_ORDERS:
            skipped += 1
        elif trace * trace == det + det + det + det and not (
            q.is_zero() and r.is_zero() and p == s
        ):
            repeated += 1
    assert (skipped, repeated) == (720, 72)
    assert len(catalog) == 1368 - 720 - 72 == 576


def per_tuple_catalog(ring: RingId, max_norm: int) -> list[tuple[IntMatrix, int]]:
    """Reference catalog: matrix_order on every unit-determinant tuple."""
    catalog = []
    for p, q, r, s in unit_determinant_tuples(ring, max_norm):
        m = induced_matrix(((p, q), (r, s)))
        try:
            catalog.append((m, matrix_order(m)))
        except ValueError:
            continue
    return catalog


@pytest.mark.parametrize("max_norm", [1, 2, 3, 4])
@pytest.mark.parametrize("ring", list(RingId), ids=lambda ring: ring.value)
def test_catalog_matches_per_tuple_orders(ring: RingId, max_norm: int) -> None:
    # The pair decides L and whether h must be scalar; every accepted part
    # carries L in its order memo, and the catalog and those memos equal
    # matrix_order run on each tuple.
    catalog = linear_candidates(ring, max_norm)
    assert [
        (h.induced_matrix(), h._order_cache) for h in catalog
    ] == per_tuple_catalog(ring, max_norm)


def doubled_order(m: IntMatrix) -> int:
    return 2 * matrix_order(m)


def infinite_order(m: IntMatrix) -> int:
    raise ValueError("matrix has infinite multiplicative order")


@pytest.mark.parametrize("wrong", [doubled_order, infinite_order])
def test_catalog_self_check_raises_on_a_disagreeing_order(monkeypatch, wrong) -> None:
    # matrix_order must confirm L on the first part of each pair; another
    # order, or infinite order, is a bug and raises SelfCheckError.
    monkeypatch.setattr(search, "matrix_order", wrong)
    with pytest.raises(SelfCheckError):
        linear_candidates(RingId.GAUSSIAN, 1)


def stepwise_order(endo: TorusEndo, bound: int = 24) -> int | None:
    """Reference order by repeated products."""
    identity = TorusEndo.identity()
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
        if not (p * s - q * r).is_unit():
            continue
        endo = TorusEndo(induced_matrix(((p, q), (r, s))))
        order = stepwise_order(endo)
        assert (endo in catalog) == (order is not None)
        if order is None:
            with pytest.raises(UnsupportedAutomorphismError):
                endo.multiplicative_order()
        else:
            assert endo.multiplicative_order() == order


def test_unbounded_unit_order_is_a_self_check_error() -> None:
    # The symplectic screen relies on the multiplier det h having finite
    # order; a violation surfaces as SelfCheckError, which the command
    # line maps to exit code 1, not as an AssertionError.
    one = RingElem.one(RingId.GAUSSIAN)
    with pytest.raises(SelfCheckError):
        diag(RingElem(RingId.GAUSSIAN, 1, 1), one).multiplier_order()


@pytest.mark.parametrize(
    "ring, level",
    [(RingId.RATIONAL_INT, 2), (RingId.RATIONAL_INT, 6), (RingId.GAUSSIAN, 4),
     (RingId.EISENSTEIN, 3), (RingId.EISENSTEIN, 6)],
)
def test_translation_classes_match_pointwise_cosets(
    ring: RingId, level: int, translation_classes
) -> None:
    # Keying the candidate vectors by translation_classes partitions them
    # exactly as the pointwise cosets a + (I - h)p over every level-torsion
    # p, and there are prod(moduli) of them, in every ring.
    catalog = linear_candidates(ring, 1)
    points = torsion_points(level)
    vectors = [p.vector(level) for p in points]
    for linear in random.Random(2468).sample(catalog, min(len(catalog), 24)):
        images = {d.vector(level) for d in shift_images(linear, level)}
        cosets: set[frozenset] = set()
        covered: set[tuple[int, ...]] = set()
        for v in vectors:
            if v not in covered:
                coset = frozenset(
                    tuple((x + y) % level for x, y in zip(v, d)) for d in images
                )
                cosets.add(coset)
                covered |= coset
        key, moduli = translation_classes(linear.induced_matrix(), level)
        by_key: dict[tuple[int, ...], set] = {}
        for v in vectors:
            by_key.setdefault(key(v), set()).add(v)
        assert {frozenset(c) for c in by_key.values()} == cosets
        assert len(cosets) == prod(moduli)


def test_torsion_point_counts() -> None:
    # One factor contributes level**2 points: E has two periods in every
    # ring, also when End(E) = Z, and points carry no ring.
    assert len(torsion_points(3)) == 81
    assert len(torsion_points(2)) == 16


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
    reference = TorusPoint.from_vector(("1/3", "0", "1/3", "0"))
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
    reference = TorusPoint.from_vector(("1/4", "0", "1/4", "0"))
    orbit = conjugacy_orbit(linear, reference, 4)
    assert sum(1 for r in results if r.translation in orbit) == 1
    halfpoint = TorusPoint.from_vector(("1/2", "0", "1/4", "0"))
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
    assert len(results) == 18
    verify_results(results, 2)
    for result in results:
        assert result.order == 2
        assert result.classification.verdict is QuotientVerdict.ENRIQUES
        assert result.classification.dimension == 2
    # The two diagonal reflections, each with the 3 * 3 translations that
    # are nonzero in both factors; I - h is diag(2, 0) or diag(0, 2), zero
    # mod 2, so each translation is its own class.
    ring = RingId.RATIONAL_INT
    one = RingElem.one(ring)
    both_nonzero = [
        TorusPoint.from_integers(2, v)
        for v in itertools.product(range(2), repeat=4)
        if any(v[:2]) and any(v[2:])
    ]
    assert [(r.linear, r.translation) for r in results] == [
        (diag(d1, d2), a)
        for d1, d2 in ((-one, one), (one, -one))
        for a in both_nonzero
    ]


def test_order6_linear_admits_no_free_pair_on_sixth_fibre() -> None:
    linear = diag(zeta6(), RingElem.one(RingId.EISENSTEIN))
    results = run_search(6, RingId.EISENSTEIN, level=6, linears=[linear])
    assert results == []


# sha256 of the ordered "h a order verdict" rows of the full Eisenstein
# n=3 sweep: pins the class representatives and their order.
EISENSTEIN_ORDER3_DIGEST = (
    "4ce4c40fe5a586d7c3f78d36faad404a73bafe5bb9351e85c907f47e3ee18f20"
)


def row_digest(results: list[SearchResult]) -> str:
    rows = [
        f"{format_matrix(r.linear)} {format_point(r.translation)} "
        f"{r.order} {r.classification.verdict.value}"
        for r in results
    ]
    return sha256("\n".join(rows))


def test_full_sweep_eisenstein_order3_fibre() -> None:
    results = run_search(3, RingId.EISENSTEIN)
    assert len(results) == 64
    assert row_digest(results) == EISENSTEIN_ORDER3_DIGEST
    verify_results(results, 3)
    assert {r.order for r in results} == {3}
    linear_parts = {r.linear for r in results}
    ring = RingId.EISENSTEIN
    one = RingElem.one(ring)
    zeta = RingElem.zeta(ring)
    expected = {
        diag(zeta, one),
        diag(one, zeta),
        diag(zeta * zeta, one),
        diag(one, zeta * zeta),
    }
    assert linear_parts == expected
    for linear in expected:
        count = sum(1 for r in results if r.linear == linear)
        assert count == 16


def test_scan_builds_no_point_list(monkeypatch) -> None:
    # run_search walks the integer vectors of the translations and builds a
    # point only for a class it decides: 264 at n=3, not the 24 * 81 points
    # of torsion_points(3).
    def refuse(level):
        raise AssertionError("run_search built the point list")

    built = 0
    from_integers = TorusPoint.from_integers.__func__

    def counted(cls, level, vector):
        nonlocal built
        if sys._getframe(1).f_code is run_search.__code__:
            built += 1
        return from_integers(cls, level, vector)

    monkeypatch.setattr(search, "torsion_points", refuse)
    monkeypatch.setattr(TorusPoint, "from_integers", classmethod(counted))
    results = run_search(3, RingId.EISENSTEIN)
    assert len(results) == 64
    assert row_digest(results) == EISENSTEIN_ORDER3_DIGEST
    assert built == 264


# Row digests, in the format of EISENSTEIN_ORDER3_DIGEST, of sweeps that
# exercise the scan's early stop, translations of level below n and the
# integer ring.
@pytest.mark.parametrize(
    "n, ring, level, count, digest",
    [
        pytest.param(8, RingId.GAUSSIAN, None, 66,
                     "88b3b30b8680cb145ce27a73255575d8f330f6847bc5bc162a1722548ecb1040",
                     id="gaussian-8"),
        pytest.param(6, RingId.EISENSTEIN, 3, 64,
                     "1f89b3d9f558a6186c0bdb05f092c083f2a56d9d8bd987e042444aa4eb995b63",
                     id="eisenstein-6-level-3"),
        pytest.param(4, RingId.RATIONAL_INT, None, 18,
                     "cb8d556483b0d5f89b1d26ab042fcedac2bd858b7882abfba0f308ebfb3a2dc5",
                     id="integer-4"),
        pytest.param(6, RingId.RATIONAL_INT, None, 18,
                     "ad2a499b8a06d0424f82c65d7b0175e4c3ca767dc3b91be6762fdec844345a08",
                     id="integer-6"),
    ],
)
def test_sweep_rows_are_pinned(
    n: int, ring: RingId, level: int | None, count: int, digest: str
) -> None:
    results = run_search(n, ring, level=level)
    assert len(results) == count
    assert row_digest(results) == digest


@pytest.mark.parametrize("ring", list(RingId), ids=lambda ring: ring.value)
def test_symplectic_screen_changes_no_sweep(ring: RingId, translation_classes) -> None:
    # The screen only skips linear parts that give no free pair: for
    # n <= 8, every translation class of every catalog part the screen
    # rejects is decided without it, in the sweep's own scan, and none is
    # free.  So each screened sweep equals the unscreened one, and the
    # self-check in group_acts_freely keeps INVALID rows out of it.
    sizes = range(2, 9)
    points = {n: [(a, a.vector(n)) for a in torsion_points(n)] for n in sizes}
    for linear in linear_candidates(ring, 1):
        order = linear.multiplicative_order()
        for n in sizes:
            if order == 1 or symplectic_screen(order, linear.multiplier_order(), n):
                continue
            key, moduli = translation_classes(linear.induced_matrix(), n)
            seen: set[tuple[int, ...]] = set()
            for a, vector in points[n]:
                if len(seen) == prod(moduli):
                    break
                k = key(vector)
                if k in seen:
                    continue
                seen.add(k)
                auto = TorusAuto(linear, a)
                # Origins fix the zero configuration, and a larger order
                # than the linear part's fails the screen as run_search
                # says; neither is decided there.
                if not a.is_origin() and auto.order() == order:
                    assert not group_acts_freely(auto, n, stop_at_first=True).free
    for n in sizes:
        assert QuotientVerdict.INVALID not in {
            r.classification.verdict for r in run_search(n, ring)
        }


@pytest.mark.parametrize(
    "n, ring, decided", [(3, RingId.EISENSTEIN, 264), (4, RingId.GAUSSIAN, 630)]
)
def test_screened_pairs_carry_their_recomputed_order(
    monkeypatch, n: int, ring: RingId, decided: int
) -> None:
    # A cell that passes P_m (s w) = 0 (mod n) has order exactly m, and
    # run_search hands the pair to group_acts_freely with that order in its
    # memo.  A map rebuilt from the bare matrix and point computes the same.
    pairs: list[TorusAuto] = []

    def recording(auto: TorusAuto, n: int, stop_at_first: bool = False):
        pairs.append(auto)
        return group_acts_freely(auto, n, stop_at_first=stop_at_first)

    monkeypatch.setattr(search, "group_acts_freely", recording)
    run_search(n, ring)
    assert len(pairs) == decided
    for auto in pairs:
        memo = auto._order_cache
        assert memo == auto.linear.multiplicative_order()
        fresh = TorusEndo(auto.linear.induced_matrix())
        assert TorusAuto(fresh, auto.translation).order() == memo


@pytest.mark.parametrize("n, loop_calls", [(3, 116), (5, 0)])
def test_multiplier_orders_only_for_orders_dividing_n(
    monkeypatch, n: int, loop_calls: int
) -> None:
    # run_search tests d | n before it takes ord(det h): at n=3 only the
    # 116 order-3 parts need the multiplier, and at n=5 no part's order
    # divides n.  group_acts_freely takes it once more per free verdict.
    # The catalog reads it once per distinct det h, one for each of the
    # six Eisenstein units, whatever n is.
    calls: list[tuple[str, int]] = []
    catalog: list[RingElem] = []
    multiplier_order = TorusEndo.multiplier_order
    ring = RingId.EISENSTEIN

    def wrapped(endo: TorusEndo) -> int:
        caller = sys._getframe(1).f_code.co_name
        if caller == "linear_candidates":
            m = endo.induced_matrix()
            (a, b), (c, d) = (
                [RingElem(ring, m[i][j], m[i + 1][j]) for j in (0, 2)] for i in (0, 2)
            )
            catalog.append(a * d - b * c)
        else:
            calls.append((caller, endo.multiplicative_order()))
        return multiplier_order(endo)

    monkeypatch.setattr(TorusEndo, "multiplier_order", wrapped)
    results = run_search(n, ring)
    assert len(catalog) == 6
    assert set(catalog) == set(units(ring))
    from_loop = [order for caller, order in calls if caller == "run_search"]
    assert len(from_loop) == loop_calls
    assert all(n % order == 0 for order in from_loop)
    assert calls.count(("group_acts_freely", n)) == len(results)
    assert len(calls) == len(from_loop) + len(results)
    assert len(results) == (64 if n == 3 else 0)


# ---------------------------------------------------------------------------
# Validation


def test_parameter_validation() -> None:
    with pytest.raises(ValueError):
        run_search(1, RingId.EISENSTEIN)
    with pytest.raises(ValueError):
        run_search(4, RingId.GAUSSIAN, level=3)
    for level in (0, -5, 50):
        with pytest.raises(ValueError, match="positive divisor"):
            run_search(25, RingId.GAUSSIAN, level=level)
    with pytest.raises(ValueError):
        run_search(2, RingId.RATIONAL_INT, max_norm=MAX_NORM_CAP + 1)
    singular = diag(RingElem(RingId.EISENSTEIN, 2), RingElem.one(RingId.EISENSTEIN))
    with pytest.raises(UnsupportedAutomorphismError, match="unit determinant"):
        run_search(3, RingId.EISENSTEIN, linears=[singular])
    one, zero = RingElem.one(RingId.EISENSTEIN), RingElem.zero(RingId.EISENSTEIN)
    shear = TorusEndo(induced_matrix([[one, one], [zero, one]]))
    with pytest.raises(UnsupportedAutomorphismError, match="infinite order"):
        run_search(3, RingId.EISENSTEIN, linears=[shear])
