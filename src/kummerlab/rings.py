"""Exact arithmetic in the quadratic cyclotomic rings Z[i], Z[zeta3] and Z.

Every element is stored as a coordinate pair ``x + y*zeta`` where ``zeta``
is a fixed generator attached to the ring tag: ``i`` for the Gaussian
integers, a primitive cube root of unity for the Eisenstein integers, and
``1`` for the degenerate rational-integer ring used in rectangular test
configurations.  The primitive sixth root of unity is not a separate ring;
it lives inside the Eisenstein ring as ``1 + zeta``.

A ring element (:class:`RingElem`) carries integer coordinates and
canonicalises the degenerate ring by folding the ``zeta`` coordinate into
the rational one, so structural equality is semantic equality in all
three rings.
"""

from __future__ import annotations

from enum import Enum
from operator import mul

from .linalg import SelfCheckError, binary_power


class RingMismatchError(ValueError):
    """Raised when operands from different coefficient rings are combined."""


class RingId(Enum):
    """Tag for the three supported coefficient rings."""

    RATIONAL_INT = "integer"
    GAUSSIAN = "gaussian"
    EISENSTEIN = "eisenstein"

    @property
    def zeta_square(self) -> tuple[int, int]:
        """Structure constants ``(s, t)`` with ``zeta**2 = s + t*zeta``."""
        return _ZETA_SQUARE[self]

    @property
    def zeta_conj(self) -> tuple[int, int]:
        """Coordinates ``(u, v)`` of the complex conjugate of ``zeta``."""
        return _ZETA_CONJ[self]

    @property
    def unit_count(self) -> int:
        return _UNIT_COUNT[self]

    @classmethod
    def from_token(cls, token: str) -> "RingId":
        for ring in cls:
            if ring.value == token:
                return ring
        raise ValueError(f"unknown ring token {token!r}")


_ZETA_SQUARE = {
    RingId.RATIONAL_INT: (1, 0),
    RingId.GAUSSIAN: (-1, 0),
    RingId.EISENSTEIN: (-1, -1),
}
_ZETA_CONJ = {
    RingId.RATIONAL_INT: (1, 0),
    RingId.GAUSSIAN: (0, -1),
    RingId.EISENSTEIN: (-1, -1),
}
_UNIT_COUNT = {
    RingId.RATIONAL_INT: 2,
    RingId.GAUSSIAN: 4,
    RingId.EISENSTEIN: 6,
}


def _check_same_ring(a, b) -> None:
    if a.ring is not b.ring:
        raise RingMismatchError(f"cannot mix {a.ring.name} and {b.ring.name} operands")


class RingElem:
    """An integer of the ring, ``x + y*zeta``."""

    __slots__ = ("_ring", "_x", "_y")

    def __init__(self, ring: RingId, x: int, y: int = 0) -> None:
        if not isinstance(x, int) or not isinstance(y, int):
            raise TypeError("RingElem coordinates must be integers")
        if ring is RingId.RATIONAL_INT:
            # zeta = 1, so fold the second coordinate away.
            x, y = x + y, 0
        self._ring = ring
        self._x = x
        self._y = y

    @classmethod
    def zero(cls, ring: RingId) -> "RingElem":
        return cls(ring, 0, 0)

    @classmethod
    def one(cls, ring: RingId) -> "RingElem":
        return cls(ring, 1, 0)

    @classmethod
    def zeta(cls, ring: RingId) -> "RingElem":
        return cls(ring, 0, 1)

    @property
    def ring(self) -> RingId:
        return self._ring

    @property
    def x(self) -> int:
        return self._x

    @property
    def y(self) -> int:
        return self._y

    def __add__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        _check_same_ring(self, other)
        return RingElem(self._ring, self._x + other._x, self._y + other._y)

    def __sub__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        _check_same_ring(self, other)
        return RingElem(self._ring, self._x - other._x, self._y - other._y)

    def __neg__(self) -> "RingElem":
        return RingElem(self._ring, -self._x, -self._y)

    def __mul__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        _check_same_ring(self, other)
        s, t = self._ring.zeta_square
        a, b, c, d = self._x, self._y, other._x, other._y
        return RingElem(self._ring, a * c + s * b * d, a * d + b * c + t * b * d)

    def __pow__(self, exponent: int) -> "RingElem":
        return binary_power(self, exponent, RingElem.one(self._ring), mul)

    def conj(self) -> "RingElem":
        u, v = self._ring.zeta_conj
        return RingElem(self._ring, self._x + self._y * u, self._y * v)

    def norm(self) -> int:
        """The field norm ``e * conj(e)``, a non-negative rational integer."""
        prod = self * self.conj()
        if prod._y != 0:
            raise SelfCheckError(f"norm of {self!r} is not a rational integer")
        return prod._x

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_zero(self) -> bool:
        return self._x == 0 and self._y == 0

    def regular_representation(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Matrix of multiplication by this element on the basis ``{1, zeta}``.

        Columns are the coordinates of ``e*1`` and ``e*zeta``; the
        determinant equals the norm and the map is a ring homomorphism.
        """
        s, t = self._ring.zeta_square
        # e*zeta = x*zeta + y*zeta^2 = s*y + (x + t*y)*zeta
        return ((self._x, s * self._y), (self._y, self._x + t * self._y))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return (
            self._ring is other._ring
            and self._x == other._x
            and self._y == other._y
        )

    def __hash__(self) -> int:
        return hash((self._ring, self._x, self._y))

    def __repr__(self) -> str:
        return f"RingElem({self._ring.name}, {self._x}, {self._y})"


def units(ring: RingId) -> list[RingElem]:
    """All norm-one elements, found by scanning a small coordinate box."""
    found = []
    for x in range(-2, 3):
        for y in range(-2, 3):
            e = RingElem(ring, x, y)
            if e.is_unit() and e not in found:
                found.append(e)
    return found


def zeta6(ring: RingId = RingId.EISENSTEIN) -> RingElem:
    """The primitive sixth root of unity ``1 + zeta3`` in the Eisenstein ring."""
    if ring is not RingId.EISENSTEIN:
        raise ValueError("a primitive sixth root of unity needs the Eisenstein ring")
    return RingElem(ring, 1, 1)
