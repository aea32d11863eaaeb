"""Exact arithmetic in the quadratic cyclotomic rings Z[i], Z[zeta3] and Z.

Every element is stored as a coordinate pair ``x + y*zeta`` where ``zeta``
is a fixed generator attached to the ring tag: ``i`` for the Gaussian
integers and a primitive cube root of unity for the Eisenstein integers.
The rational integers, ``End(E) = Z`` for a curve without complex
multiplication, have rank one and no generator: their elements have
``y = 0``, and a nonzero ``y`` is refused.  The primitive sixth root of
unity is not a separate ring; it lives inside the Eisenstein ring as
``1 + zeta``.

A ring element (:class:`RingElem`) carries integer coordinates, so
structural equality is semantic equality in all three rings.  A 2x2
matrix of ring elements enters the torus only through
:func:`induced_matrix`, its 4x4 integer matrix on first homology; maps
carry no ring.  :func:`block_matrix` assembles that matrix from the
entries' regular representations, for callers that already hold them.
"""

from __future__ import annotations

from enum import Enum
from operator import mul

from .linalg import IntMatrix, SelfCheckError, binary_power


class RingMismatchError(ValueError):
    """Raised when operands from different coefficient rings are combined."""


class RingId(Enum):
    """Tag for the three supported coefficient rings.

    Each member's value is its command-line token, and it carries two
    structure constants as plain attributes, read on every product and
    conjugate: ``zeta_square = (s, t)`` with ``zeta**2 = s + t*zeta``, and
    ``zeta_conj = (u, v)``, the coordinates of the complex conjugate of
    ``zeta``.  The rational integers have no generator, so their constants
    only ever multiply a zero ``y`` coordinate.
    """

    RATIONAL_INT = ("integer", (1, 0), (1, 0))
    GAUSSIAN = ("gaussian", (-1, 0), (0, -1))
    EISENSTEIN = ("eisenstein", (-1, -1), (-1, -1))

    def __new__(cls, token: str, zeta_square, zeta_conj) -> "RingId":
        member = object.__new__(cls)
        member._value_ = token
        member.zeta_square = zeta_square
        member.zeta_conj = zeta_conj
        return member

    @classmethod
    def from_token(cls, token: str) -> "RingId":
        for ring in cls:
            if ring.value == token:
                return ring
        raise ValueError(f"unknown ring token {token!r}")


def _check_same_ring(a, b) -> None:
    if a.ring is not b.ring:
        raise RingMismatchError(f"cannot mix {a.ring.name} and {b.ring.name} operands")


class RingElem:
    """An integer of the ring, ``x + y*zeta``."""

    __slots__ = ("_ring", "_x", "_y")

    def __init__(self, ring: RingId, x: int, y: int = 0) -> None:
        if not isinstance(x, int) or not isinstance(y, int):
            raise TypeError("RingElem coordinates must be integers")
        if y and ring is RingId.RATIONAL_INT:
            raise ValueError("the integer ring has no generator")
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
        # Elements of different rings with equal coordinates collide here
        # and are told apart by __eq__; hashing the enum would cost a
        # Python-level call on every dict and set operation.
        return hash((self._x, self._y))

    def __repr__(self) -> str:
        return f"RingElem({self._ring.name}, {self._x}, {self._y})"


def induced_matrix(rows) -> IntMatrix:
    """The 4x4 integer matrix on first homology of a 2x2 matrix over a ring.

    Each entry becomes the 2x2 block of its regular representation on
    ``{1, zeta}``, so entry ``(i, j)`` reads back from the first column of
    block ``(i, j)``: the coordinates of ``e * 1``.  The entries must share
    one ring.
    """
    rows = tuple(tuple(row) for row in rows)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("torus endomorphisms are 2x2 matrices")
    flat = [e for row in rows for e in row]
    if not all(isinstance(e, RingElem) for e in flat):
        raise TypeError("matrix entries must be ring elements")
    for e in flat[1:]:
        _check_same_ring(flat[0], e)
    return block_matrix(*(e.regular_representation() for e in flat))


def block_matrix(a, b, c, d) -> IntMatrix:
    """The 4x4 integer matrix with 2x2 blocks ``[[a, b], [c, d]]``.

    The blocks are regular representations, as
    :meth:`RingElem.regular_representation` returns them, of the entries
    of a 2x2 matrix in row-major order.
    """
    return IntMatrix._of((a[0] + b[0], a[1] + b[1], c[0] + d[0], c[1] + d[1]))


def ring_elements_up_to_norm(ring: RingId, bound: int) -> list[RingElem]:
    """All ring integers of norm at most ``bound``, in scan order."""
    if bound < 0:
        raise ValueError("norm bound must be non-negative")
    # norm(x + y*zeta) is a positive definite quadratic form, so every
    # element of bounded norm has |x|, |y| <= 2*bound.  The rank-one ring
    # scans y = 0 only.
    box = range(-2 * bound, 2 * bound + 1)
    ys = (0,) if ring is RingId.RATIONAL_INT else box
    elements = (RingElem(ring, x, y) for x in box for y in ys)
    return [e for e in elements if e.norm() <= bound]


def units(ring: RingId) -> list[RingElem]:
    """All norm-one elements, from the norm-one scan."""
    return [e for e in ring_elements_up_to_norm(ring, 1) if e.is_unit()]


def zeta6() -> RingElem:
    """The primitive sixth root of unity ``1 + zeta3`` in the Eisenstein ring."""
    return RingElem(RingId.EISENSTEIN, 1, 1)
