"""Points, endomorphisms, and affine automorphisms of the product torus."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import kummerlab.rings as rings
import kummerlab.search as search
import kummerlab.torus as torus
from kummerlab.linalg import IntMatrix, SelfCheckError, matrix_order
from kummerlab.rings import RingElem, RingId, induced_matrix, ring_elements_up_to_norm
from kummerlab.search import linear_candidates, run_search, torsion_points
from kummerlab.torus import (
    TorusAuto,
    TorusEndo,
    TorusPoint,
    UnsupportedAutomorphismError,
    orbit_sum_data,
)

ALL_RINGS = [RingId.RATIONAL_INT, RingId.GAUSSIAN, RingId.EISENSTEIN]


def random_point(rng: random.Random, level: int = 12) -> TorusPoint:
    vector = [rng.randrange(level) for _ in range(4)]
    return TorusPoint.from_integers(level, vector)


def random_rows(rng: random.Random, ring: RingId, bound: int = 3) -> tuple:
    def elem() -> RingElem:
        # The rank-one integer ring has no generator coordinate.
        x = rng.randint(-bound, bound)
        y = 0 if ring is RingId.RATIONAL_INT else rng.randint(-bound, bound)
        return RingElem(ring, x, y)

    return ((elem(), elem()), (elem(), elem()))


def endo(rows) -> TorusEndo:
    """The linear part of a 2x2 matrix of ring elements."""
    return TorusEndo(induced_matrix(rows))


def diag(d1: RingElem, d2: RingElem) -> TorusEndo:
    zero = RingElem.zero(d1.ring)
    return endo([[d1, zero], [zero, d2]])


def ring_det(rows) -> RingElem:
    (a, b), (c, d) = rows
    return a * d - b * c


def random_endo(rng: random.Random, ring: RingId, bound: int = 3) -> TorusEndo:
    return endo(random_rows(rng, ring, bound))


def zeta_diag(ring: RingId) -> TorusEndo:
    """diag(zeta, 1); the integer ring has no zeta and takes diag(-1, 1)."""
    one = RingElem.one(ring)
    d = -one if ring is RingId.RATIONAL_INT else RingElem.zeta(ring)
    return diag(d, one)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_point_vector_round_trip(ring: RingId) -> None:
    # Points and their images under each ring's maps are canonical.
    rng = random.Random(1122)
    h = zeta_diag(ring)
    for _ in range(25):
        p = random_point(rng)
        for q in (p, h.apply(p)):
            assert TorusPoint.from_vector(q.coords()) == q
            assert all(0 <= c < 1 for c in q.coords())


def test_torsion_levels() -> None:
    p = TorusPoint.from_vector(("1/4", "0", "1/6", "1/2"))
    assert p.torsion_level() == 12
    assert p.is_torsion_of_level(12)
    assert p.is_torsion_of_level(24)
    assert not p.is_torsion_of_level(8)
    assert p.scale(12).is_origin()
    assert not p.scale(6).is_origin()
    assert TorusPoint.origin().torsion_level() == 1


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_point_group_laws(ring: RingId) -> None:
    # The group laws, and each ring's maps acting additively on points.
    rng = random.Random(2233)
    origin = TorusPoint.origin()
    h = zeta_diag(ring)
    for _ in range(25):
        p = random_point(rng)
        q = random_point(rng)
        assert p + q == q + p
        assert p - q == p + (-q)
        assert p + origin == p
        assert p - p == origin
        assert p.scale(3) == p + p + p
        assert h.apply(p + q) == h.apply(p) + h.apply(q)
        assert h.apply(-p) == -h.apply(p)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_endo_action_matches_induced_integer_matrix(ring: RingId) -> None:
    # Dual route: the abstract module action and the induced rank-four
    # integer representation must transform coordinates identically.
    rng = random.Random(3344)
    for _ in range(25):
        e = random_endo(rng, ring)
        p = random_point(rng)
        direct = e.apply(p).coords()
        induced = e.induced_matrix().apply(p.coords())
        assert direct == tuple(c % 1 for c in induced)


def ring_product(a, b):
    """Entry-wise 2x2 product of ring matrices, in ``RingElem`` arithmetic."""
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
        for i in range(2)
    )


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_induced_matrix_is_a_ring_homomorphism(ring: RingId) -> None:
    # Maps are stored as induced integer matrices: entry (i, j) reads back
    # from the first column of block (i, j), and sums, products and powers
    # are what ring arithmetic on the 2x2 entries gives.
    rng = random.Random(4455)
    for _ in range(20):
        rows = random_rows(rng, ring)
        m = induced_matrix(rows)
        assert all(
            (m[2 * i][2 * j], m[2 * i + 1][2 * j]) == (e.x, e.y)
            for i, row in enumerate(rows)
            for j, e in enumerate(row)
        )
        ra, rb = random_rows(rng, ring), random_rows(rng, ring)
        a, b = endo(ra), endo(rb)
        assert a @ b == endo(ring_product(ra, rb))
        assert a.induced_matrix() + b.induced_matrix() == induced_matrix(
            tuple(tuple(x + y for x, y in zip(r, t)) for r, t in zip(ra, rb))
        )
        one, zero = RingElem.one(ring), RingElem.zero(ring)
        expected = ((one, zero), (zero, one))
        for k in range(4):
            assert a**k == endo(expected)
            expected = ring_product(expected, ra)


def test_endo_determinant_multiplicative() -> None:
    # det M is the norm of det h (its square in the integer ring), and both
    # determinants are multiplicative.
    rng = random.Random(5566)
    for ring in ALL_RINGS:
        for _ in range(15):
            ra, rb = random_rows(rng, ring), random_rows(rng, ring)
            a, b = endo(ra).induced_matrix(), endo(rb).induced_matrix()
            assert (a @ b).det() == a.det() * b.det()
            assert ring_det(ring_product(ra, rb)) == ring_det(ra) * ring_det(rb)
            assert a.det() == ring_det(ra).norm()


def test_multiplicative_orders() -> None:
    assert zeta_diag(RingId.EISENSTEIN).multiplicative_order() == 3
    assert zeta_diag(RingId.GAUSSIAN).multiplicative_order() == 4
    minus = diag(
        -RingElem.one(RingId.RATIONAL_INT), -RingElem.one(RingId.RATIONAL_INT)
    )
    assert minus.multiplicative_order() == 2
    ring = RingId.RATIONAL_INT
    rot6 = endo(
        [
            [RingElem(ring, 1), RingElem(ring, -1)],
            [RingElem(ring, 1), RingElem(ring, 0)],
        ]
    )
    assert rot6.multiplicative_order() == 6
    shear = endo(
        [
            [RingElem(ring, 1), RingElem(ring, 1)],
            [RingElem(ring, 0), RingElem(ring, 1)],
        ]
    )
    with pytest.raises(UnsupportedAutomorphismError):
        shear.multiplicative_order()
    zero = RingElem.zero(ring)
    with pytest.raises(UnsupportedAutomorphismError):
        endo([[zero, zero], [zero, zero]]).multiplicative_order()


def test_automorphism_orders() -> None:
    eis = RingId.EISENSTEIN
    h = zeta_diag(eis)
    origin = TorusPoint.origin()
    assert TorusAuto(h, origin).order() == 3
    # A translation component of exact level nine in the fixed direction
    # stretches the order to nine.
    shift = TorusPoint.from_vector(("0", "0", "1/9", "0"))
    assert TorusAuto(h, shift).order() == 9
    # A level-three translation in the same direction sums to zero over
    # the three iterates, so it does not stretch the order at all.
    third = TorusPoint.from_vector(("0", "0", "1/3", "0"))
    assert TorusAuto(h, third).order() == 3
    assert TorusAuto(TorusEndo.identity(), third).order() == 3
    assert TorusAuto.identity().order() == 1


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_composition_against_pointwise_action(ring: RingId) -> None:
    rng = random.Random(6677)
    for _ in range(20):
        f = TorusAuto(zeta_diag(ring), random_point(rng))
        g = TorusAuto(zeta_diag(ring) ** 2, random_point(rng))
        p = random_point(rng)
        assert (f * g).apply(p) == f.apply(g.apply(p))


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_power_matches_repeated_composition(ring: RingId) -> None:
    rng = random.Random(7788)
    for _ in range(10):
        psi = TorusAuto(zeta_diag(ring), random_point(rng))
        assert psi**0 == TorusAuto.identity()
        accumulated = psi
        for k in range(1, 6):
            assert psi**k == accumulated
            accumulated = accumulated * psi
    with pytest.raises(ValueError):
        psi ** (-1)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_orbit_sum_identity(ring: RingId) -> None:
    # orbit_sum_data(auto, l) returns (L, c) with sum of the first l
    # iterate images equal to L(p) + c for every point p.
    rng = random.Random(8899)
    for _ in range(10):
        psi = TorusAuto(zeta_diag(ring), random_point(rng))
        for length in range(1, 5):
            summed, constant = orbit_sum_data(psi, length)
            p = random_point(rng)
            total = TorusPoint.origin()
            image = p
            for _ in range(length):
                total = total + image
                image = psi.apply(image)
            assert total == summed.apply(p) + constant


def test_orbit_sum_trivial_length() -> None:
    ring = RingId.GAUSSIAN
    psi = TorusAuto(zeta_diag(ring), TorusPoint.origin())
    summed, constant = orbit_sum_data(psi, 1)
    assert summed == TorusEndo.identity()
    assert constant.is_origin()


def test_induced_h1_matrix_has_finite_order() -> None:
    for ring in ALL_RINGS:
        auto = TorusAuto(zeta_diag(ring), TorusPoint.origin())
        m = auto.linear.induced_matrix()
        order = auto.linear.multiplicative_order()
        assert m**order == m**0
        assert 24 % order == 0


# ---------------------------------------------------------------------------
# The integer-vector kernel


def test_point_identity_is_canonical_across_denominators() -> None:
    quarter = TorusPoint.from_vector(("2/4", "0", "3/6", "4/8"))
    half = TorusPoint.from_vector(("1/2", "0", "1/2", "1/2"))
    assert quarter == half
    assert hash(quarter) == hash(half)
    assert quarter.torsion_level() == 2
    assert quarter.vector() == (1, 0, 1, 1)
    assert quarter.vector(6) == (3, 0, 3, 3)
    assert TorusPoint.from_integers(8, (4, 8, 12, 20)) == half
    assert TorusPoint.from_vector(("5/4", "-1", "-3/2", "1/2")) == (
        TorusPoint.from_vector(("1/4", "0", "1/2", "1/2"))
    )
    with pytest.raises(ValueError):
        half.vector(3)


def test_integer_ring_points_keep_both_periods() -> None:
    # The integer ring's points are points of E x E like any other ring's:
    # the coordinates along 1 and along tau are independent.
    ring = RingId.RATIONAL_INT
    p = TorusPoint.from_vector(("1/4", "1/4", "1/3", "0"))
    assert p.coords() == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 3), 0)
    assert not TorusPoint.from_vector(("1/2", "1/2", "0", "0")).is_origin()
    assert TorusPoint.from_vector(("1/2", "0", "0", "0")) != (
        TorusPoint.from_vector(("0", "1/2", "0", "0"))
    )
    assert len(set(torsion_points(6))) == 6**4
    # h acts as h on either period: the induced matrix is h tensor I_2.
    rot = endo(
        [
            [RingElem(ring, 1), RingElem(ring, -1)],
            [RingElem(ring, 1), RingElem(ring, 0)],
        ]
    )
    assert rot.induced_matrix().entries == (
        (1, 0, -1, 0),
        (0, 1, 0, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )


def sampled_autos(ring: RingId, count: int, seed: int) -> list[TorusAuto]:
    rng = random.Random(seed)
    catalog = linear_candidates(ring, 1)
    return [
        TorusAuto(
            rng.choice(catalog), random_point(rng, rng.choice((2, 3, 4, 6)))
        )
        for _ in range(count)
    ]


def probe_points() -> list[TorusPoint]:
    """Origin and the level-97 coordinate points: they pin down an affine map."""
    units = [
        TorusPoint.from_integers(97, [int(i == j) for j in range(4)])
        for i in range(4)
    ]
    return [TorusPoint.origin(), *units]


def iterate(auto: TorusAuto, point: TorusPoint, times: int) -> TorusPoint:
    for _ in range(times):
        point = auto.apply(point)
    return point


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_power_and_order_agree_with_repeated_apply(ring: RingId) -> None:
    rng = random.Random(1212)
    probes = probe_points()
    for auto in sampled_autos(ring, 12, 3434):
        points = probes + [random_point(rng) for _ in range(3)]
        for k in range(0, 8):
            power = auto**k
            assert all(power.apply(p) == iterate(auto, p, k) for p in points)
        order = auto.order()
        moved = [
            k for k in range(1, order + 1)
            if any(iterate(auto, p, k) != p for p in probes)
        ]
        assert moved == list(range(1, order)), "order is the first return"


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_orbit_sum_data_agrees_with_repeated_apply(ring: RingId) -> None:
    rng = random.Random(5656)
    for auto in sampled_autos(ring, 8, 7878):
        for length in range(1, 7):
            summed, constant = orbit_sum_data(auto, length)
            for _ in range(3):
                p = random_point(rng)
                total = TorusPoint.origin()
                for k in range(length):
                    total = total + iterate(auto, p, k)
                assert total == summed.apply(p) + constant


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_catalog_powers_and_orders_agree_with_repeated_apply(ring: RingId) -> None:
    # Every norm-1 map, with a translation of level at most 6, through the
    # exponents 0..2*order+1: with m the order of the linear part and
    # e = q*m + r, the quotient q reaches 2.
    rng = random.Random(2468)
    identity = TorusAuto.identity()
    for linear in linear_candidates(ring, 1):
        auto = TorusAuto(linear, random_point(rng, rng.randint(1, 6)))
        order = auto.order()
        points = [random_point(rng) for _ in range(2)]
        iterates = list(points)
        returns = []
        for e in range(2 * order + 2):
            power = auto**e
            assert [power.apply(p) for p in points] == iterates
            if power == identity:
                returns.append(e)
            iterates = [auto.apply(p) for p in iterates]
        assert returns == [0, order, 2 * order]


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_powers_inherit_the_orders_of_fresh_maps(ring: RingId) -> None:
    rng = random.Random(1357)
    for auto in sampled_autos(ring, 40, 9753):
        auto.order()
        for e in range(2 * auto.order() + 2):
            power = auto**e
            fresh = TorusAuto(power.linear, power.translation)
            assert power.order() == fresh.order()
            assert power.linear.multiplicative_order() == (
                fresh.linear.multiplicative_order()
            )


@pytest.mark.parametrize("ring", [RingId.EISENSTEIN, RingId.GAUSSIAN])
def test_powers_carry_the_order_of_their_linear_part(ring: RingId) -> None:
    # Every norm-1 catalog part and every exponent below twice its order:
    # the power's linear part has its order memo filled, with the value
    # matrix_order gives.
    origin = TorusPoint.origin()
    for linear in linear_candidates(ring, 1):
        auto = TorusAuto(linear, origin)
        for e in range(2 * linear.multiplicative_order()):
            power = (auto**e).linear
            assert power._order_cache == matrix_order(power.induced_matrix())


def test_refusals_are_not_memoised() -> None:
    # A refused linear part raises its reason on every call and keeps no
    # order; a non-unit determinant is named before infinite order.
    ring = RingId.EISENSTEIN
    one, zero = RingElem.one(ring), RingElem.zero(ring)
    for linear, reason in (
        (diag(RingElem(ring, 2), one), "linear part must have unit determinant"),
        (endo([[one, one], [zero, one]]), "linear part has infinite order"),
    ):
        for _ in range(2):
            with pytest.raises(UnsupportedAutomorphismError, match=reason):
                linear.multiplicative_order()
            assert linear._order_cache is None


def test_constructor_names_the_reason_for_rejection() -> None:
    ring = RingId.EISENSTEIN
    one, zero = RingElem.one(ring), RingElem.zero(ring)
    origin = TorusPoint.origin()
    non_units = [
        diag(RingElem(ring, 2), one),
        endo([[zero, zero], [zero, zero]]),
        endo([[one, RingElem.zeta(ring)], [one, RingElem.zeta(ring)]]),
    ]
    for linear in non_units:
        with pytest.raises(UnsupportedAutomorphismError, match="unit determinant"):
            TorusAuto(linear, origin)
    shear = [[one, one], [zero, one]]
    assert ring_det(shear).is_unit()
    with pytest.raises(UnsupportedAutomorphismError, match="infinite order"):
        TorusAuto(endo(shear), origin)


@pytest.mark.parametrize(
    "ring, finite",
    [(RingId.RATIONAL_INT, 24), (RingId.GAUSSIAN, 448), (RingId.EISENSTEIN, 576)],
)
def test_finite_order_catalog_matrices_have_unit_determinant(
    ring: RingId, finite: int
) -> None:
    # A finite-order integer matrix has det M = +-1, and det M is the norm
    # of det h (its square in the integer ring), so the constructor
    # may check the order first and the determinant only on failure.
    entries = ring_elements_up_to_norm(ring, 2)
    count = 0
    for rows in itertools.product(entries, repeat=4):
        rows = (rows[:2], rows[2:])
        try:
            matrix_order(induced_matrix(rows))
        except ValueError:
            continue
        assert ring_det(rows).is_unit()
        count += 1
    assert count == finite


def test_linear_part_is_a_4x4_integer_matrix() -> None:
    one = RingElem.one(RingId.GAUSSIAN)
    for refused in (
        [[one, one], [one, one]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        IntMatrix.identity(2),
    ):
        with pytest.raises(TypeError):
            TorusEndo(refused)
    assert TorusEndo(IntMatrix.identity(4)) == TorusEndo.identity()


@pytest.mark.parametrize(
    "ring, max_norm",
    [(ring, norm) for ring in ALL_RINGS for norm in (1, 2, 3, 4)],
)
def test_multiplier_from_blocks_matches_ring_route(ring: RingId, max_norm: int) -> None:
    # A D - B C over the blocks of the induced matrix has the order of the
    # regular representation of det h, computed in the ring from the
    # entries read back from the blocks.
    for linear in linear_candidates(ring, max_norm):
        m = linear.induced_matrix()
        rows = [[RingElem(ring, m[i][j], m[i + 1][j]) for j in (0, 2)] for i in (0, 2)]
        assert induced_matrix(rows) == m
        det = ring_det(rows)
        reference = matrix_order(IntMatrix(det.regular_representation()))
        assert linear.multiplier_order() == reference


def test_multiplier_order_is_memoised(monkeypatch) -> None:
    # The second call on the same map reads the memo and runs no
    # matrix_order; a multiplier of infinite order is not memoised and
    # raises on every call.
    calls = []

    def counting(m: IntMatrix) -> int:
        calls.append(m)
        return matrix_order(m)

    monkeypatch.setattr(torus, "matrix_order", counting)

    def diagonal(ring: RingId, x: int, y: int) -> TorusEndo:
        zero, one = RingElem.zero(ring), RingElem.one(ring)
        return TorusEndo(induced_matrix([[RingElem(ring, x, y), zero], [zero, one]]))

    linear = diagonal(RingId.EISENSTEIN, 0, 1)
    assert linear.multiplier_order() == 3
    assert len(calls) == 1
    assert linear.multiplier_order() == 3
    assert len(calls) == 1
    unbounded = diagonal(RingId.GAUSSIAN, 1, 1)
    for expected in (2, 3):
        with pytest.raises(SelfCheckError, match="not a unit of finite order"):
            unbounded.multiplier_order()
        assert len(calls) == expected


def test_sweep_computes_each_multiplier_once(monkeypatch) -> None:
    # run_search(3) reads the multiplier of the 116 order-3 parts, and
    # group_acts_freely reads it again for each of the 64 free verdicts.
    # The catalog computes it once per distinct det h, one for each of the
    # six Eisenstein units, and hands it to every other part with that
    # det h, so no read after the catalog runs matrix_order on a 2x2 matrix.
    computed = []
    after_catalog = []

    def counting(m: IntMatrix) -> int:
        if m.rows == 2:
            computed.append(m)
        return matrix_order(m)

    def listing(ring: RingId, max_norm: int) -> list[TorusEndo]:
        parts = linear_candidates(ring, max_norm)
        after_catalog.append(len(computed))
        return parts

    monkeypatch.setattr(torus, "matrix_order", counting)
    monkeypatch.setattr(search, "linear_candidates", listing)
    assert len(run_search(3, RingId.EISENSTEIN)) == 64
    assert after_catalog == [6]
    assert len(computed) == 6
    units = rings.units(RingId.EISENSTEIN)
    assert set(computed) == {IntMatrix(u.regular_representation()) for u in units}


@pytest.mark.parametrize(
    "ring, max_norm",
    [(ring, norm) for ring in ALL_RINGS for norm in (1, 2, 3, 4)],
)
def test_catalog_multipliers_match_fresh_maps(ring: RingId, max_norm: int) -> None:
    # The multiplier the catalog stores, computed once per distinct det h
    # and handed to the other parts with it, is the one a fresh map
    # computes from its 2x2 blocks.
    parts = linear_candidates(ring, max_norm)
    assert all(part._multiplier_cache is not None for part in parts)
    mismatches = [
        part
        for part in parts
        if part.multiplier_order()
        != TorusEndo(part.induced_matrix()).multiplier_order()
    ]
    assert mismatches == []


def test_first_power_is_the_map_itself() -> None:
    rng = random.Random(97)
    for ring in ALL_RINGS:
        for linear in linear_candidates(ring, 1)[::7]:
            auto = TorusAuto(linear, random_point(rng))
            assert auto**1 is auto
