"""Exact arithmetic in the three quadratic coefficient rings."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from kummerlab.linalg import SelfCheckError
from kummerlab.rings import (
    RingElem,
    RingId,
    RingMismatchError,
    block_matrix,
    induced_matrix,
    ring_elements_up_to_norm,
    units,
    zeta6,
)
from kummerlab.torus import TorusEndo, TorusPoint

ALL_RINGS = [RingId.RATIONAL_INT, RingId.GAUSSIAN, RingId.EISENSTEIN]


def random_elem(rng: random.Random, ring: RingId, bound: int = 9) -> RingElem:
    """A random element; the rank-one integer ring has ``y = 0``."""
    x = rng.randint(-bound, bound)
    y = 0 if ring is RingId.RATIONAL_INT else rng.randint(-bound, bound)
    return RingElem(ring, x, y)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_ring_axioms_random(ring: RingId) -> None:
    rng = random.Random(101)
    zero = RingElem.zero(ring)
    one = RingElem.one(ring)
    for _ in range(60):
        a = random_elem(rng, ring)
        b = random_elem(rng, ring)
        c = random_elem(rng, ring)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        assert a - b == a + (-b)


def test_generator_orders() -> None:
    zg = RingElem.zeta(RingId.GAUSSIAN)
    assert zg**2 == -RingElem.one(RingId.GAUSSIAN)
    assert zg**4 == RingElem.one(RingId.GAUSSIAN)
    ze = RingElem.zeta(RingId.EISENSTEIN)
    assert ze**3 == RingElem.one(RingId.EISENSTEIN)
    assert ze**2 + ze + RingElem.one(RingId.EISENSTEIN) == RingElem.zero(RingId.EISENSTEIN)


def test_sixth_root_of_unity() -> None:
    u = zeta6()
    assert u == RingElem.one(RingId.EISENSTEIN) + RingElem.zeta(RingId.EISENSTEIN)
    powers = [u**k for k in range(1, 7)]
    assert powers[-1] == RingElem.one(RingId.EISENSTEIN)
    assert all(p != RingElem.one(RingId.EISENSTEIN) for p in powers[:-1])


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_conjugation_is_ring_involution(ring: RingId) -> None:
    rng = random.Random(202)
    for _ in range(40):
        a = random_elem(rng, ring)
        b = random_elem(rng, ring)
        assert a.conj().conj() == a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_norm_multiplicative_and_nonnegative(ring: RingId) -> None:
    rng = random.Random(303)
    for _ in range(40):
        a = random_elem(rng, ring)
        b = random_elem(rng, ring)
        assert a.norm() >= 0
        assert (a * b).norm() == a.norm() * b.norm()
        assert a.norm() == 0 if a.is_zero() else a.norm() > 0


def test_unit_groups() -> None:
    expected = {
        RingId.RATIONAL_INT: 2,
        RingId.GAUSSIAN: 4,
        RingId.EISENSTEIN: 6,
    }
    for ring, count in expected.items():
        group = units(ring)
        assert len(group) == count
        assert len(set(group)) == count
        assert group == [e for e in ring_elements_up_to_norm(ring, 1) if e.norm()]
        for u in group:
            assert u.norm() == 1
            assert u.is_unit()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_regular_representation_is_multiplicative(ring: RingId) -> None:
    rng = random.Random(404)

    def matmul(p, q):
        return tuple(
            tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    for _ in range(40):
        a = random_elem(rng, ring)
        b = random_elem(rng, ring)
        ra = a.regular_representation()
        rb = b.regular_representation()
        assert (a * b).regular_representation() == matmul(ra, rb)
        det = ra[0][0] * ra[1][1] - ra[0][1] * ra[1][0]
        assert det == a.norm()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_block_matrix_is_induced_matrix(ring: RingId) -> None:
    # The search catalog assembles each part from its entries' regular
    # representations with block_matrix; induced_matrix gives the same
    # matrix on every tuple of the norm-1 entries, and entry (i, j) reads
    # back from the first column of block (i, j).
    entries = ring_elements_up_to_norm(ring, 1)
    blocks = {e: e.regular_representation() for e in entries}
    for p, q, r, s in itertools.product(entries, repeat=4):
        m = block_matrix(blocks[p], blocks[q], blocks[r], blocks[s])
        assert m == induced_matrix(((p, q), (r, s)))
        for i, row in enumerate(((p, q), (r, s))):
            for j, e in enumerate(row):
                assert (m[2 * i][2 * j], m[2 * i + 1][2 * j]) == (e.x, e.y)


def test_integer_ring_has_no_generator() -> None:
    # End(E) = Z has rank one: an element with a second coordinate is
    # refused, and the norm scan only meets y = 0.
    ring = RingId.RATIONAL_INT
    for y in (1, -1, 3):
        with pytest.raises(ValueError, match="no generator"):
            RingElem(ring, 2, y)
    with pytest.raises(ValueError):
        RingElem.zeta(ring)
    assert RingElem(ring, 5).y == 0
    for bound in range(5):
        scanned = ring_elements_up_to_norm(ring, bound)
        expected = [x for x in range(-2 * bound, 2 * bound + 1) if x * x <= bound]
        assert scanned == [RingElem(ring, x) for x in expected]


def test_norm_self_check_rejects_a_wrong_conjugation(monkeypatch) -> None:
    # With conj(zeta) = zeta the product e * conj(e) leaves the rational
    # integers; the norm re-check must raise, also under ``python -O``.
    monkeypatch.setattr(RingId.EISENSTEIN, "zeta_conj", (0, 1))
    with pytest.raises(SelfCheckError):
        RingElem.zeta(RingId.EISENSTEIN).norm()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_mod_lattice_reduces_into_unit_box(ring: RingId) -> None:
    # Rational coordinates enter at the point boundary and are reduced
    # mod the lattice into [0, 1), and each ring's maps are well defined
    # on the classes: reducing before or after the map gives one point.
    rng = random.Random(606)
    one = RingElem.one(ring)
    g = -one if ring is RingId.RATIONAL_INT else RingElem.zeta(ring)
    zero = RingElem.zero(ring)
    h = TorusEndo(induced_matrix([[g, zero], [zero, one]]))
    for _ in range(40):
        coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4)]
        point = TorusPoint.from_vector(coords)
        reduced = point.coords()
        assert all(0 <= r < 1 for r in reduced)
        assert all((c - r).denominator == 1 for c, r in zip(coords, reduced))
        image = h.induced_matrix().apply(coords)
        assert h.apply(point).coords() == tuple(c % 1 for c in image)


def test_mixed_ring_arithmetic_is_rejected() -> None:
    a = RingElem.one(RingId.GAUSSIAN)
    b = RingElem.one(RingId.EISENSTEIN)
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a * b
    with pytest.raises(RingMismatchError):
        induced_matrix([[a, b], [b, a]])


def test_ring_tokens_round_trip() -> None:
    for ring in ALL_RINGS:
        assert RingId.from_token(ring.value) is ring
    with pytest.raises(ValueError):
        RingId.from_token("quaternion")
