"""Points and automorphisms of the self-product torus attached to a ring.

The surface under study is ``A = E x E`` where ``E`` is the complex torus
with period lattice spanned by ``{1, zeta}``.  A point of ``A`` therefore
has four coordinates (two per factor, in the ``{1, zeta}`` basis), taken
mod 1.  Only torsion points occur, and each is stored as an integer
4-vector mod its torsion level ``N``.  The automorphisms handled here are
the natural ones, a lattice-linear map with unit determinant followed by a
torsion translation; the linear part acts on point vectors through its
induced 4x4 integer matrix on first homology, so point arithmetic, orbits
and orders are plain integer arithmetic mod ``N``.  ``Fraction`` appears
only where points enter or leave as rational coordinates:
:meth:`TorusPoint.from_vector` and :meth:`TorusPoint.coords`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import IntMatrix, binary_power, matrix_order
from .rings import RingElem, RingId, _check_same_ring

TORSION_LEVEL_CAP = 1000


class UnsupportedAutomorphismError(ValueError):
    """Raised for maps outside the supported catalog (non-unit determinant,
    infinite order, or mixed rings)."""


class TorusPoint:
    """A torsion point of ``E x E``, stored as an integer vector mod its level.

    The coordinates ``(x1, y1, x2, y2)`` are ``vector / level`` with every
    entry in ``[0, level)`` and ``level`` the exact torsion level, so the
    stored pair is canonical: points given over different denominators
    compare and hash equal.  The rational-integer ring folds the ``zeta``
    coordinate of each factor into the rational one (``zeta = 1``).
    """

    __slots__ = ("_ring", "_level", "_vector")

    @classmethod
    def from_integers(cls, ring: RingId, level: int, vector) -> "TorusPoint":
        """The point ``vector / level`` for an integer 4-vector."""
        vector = tuple(vector)
        if level < 1 or len(vector) != 4:
            raise ValueError("a point needs a positive level and four coordinates")
        if ring is RingId.RATIONAL_INT:
            vector = (vector[0] + vector[1], 0, vector[2] + vector[3], 0)
        vector = tuple(v % level for v in vector)
        common = gcd(level, *vector)
        if common > 1:
            level //= common
            vector = tuple(v // common for v in vector)
        if level > TORSION_LEVEL_CAP:
            raise ValueError(
                f"torsion level exceeds the supported cap {TORSION_LEVEL_CAP}"
            )
        point = cls.__new__(cls)
        point._ring = ring
        point._level = level
        point._vector = vector
        return point

    @classmethod
    def from_vector(cls, ring: RingId, coords) -> "TorusPoint":
        """The point with rational coordinates ``(x1, y1, x2, y2)``."""
        coords = tuple(Fraction(c) for c in coords)
        level = lcm(*(c.denominator for c in coords))
        return cls.from_integers(
            ring, level, (c.numerator * (level // c.denominator) for c in coords)
        )

    @classmethod
    def origin(cls, ring: RingId) -> "TorusPoint":
        return cls.from_integers(ring, 1, (0, 0, 0, 0))

    @property
    def ring(self) -> RingId:
        return self._ring

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(v, self._level) for v in self._vector)

    def vector(self, level: int | None = None) -> tuple[int, int, int, int]:
        """Integer coordinates over ``level`` (default: the torsion level).

        ``level`` must be a multiple of the torsion level.
        """
        if level is None:
            return self._vector
        if level % self._level:
            raise ValueError(f"point is not {level}-torsion")
        factor = level // self._level
        return tuple(v * factor for v in self._vector)

    def torsion_level(self) -> int:
        """Smallest ``N >= 1`` with ``N * p`` equal to the origin."""
        return self._level

    def is_torsion_of_level(self, level: int) -> bool:
        if level < 1:
            raise ValueError("torsion level must be positive")
        return level % self._level == 0

    def scale(self, k: int) -> "TorusPoint":
        return TorusPoint.from_integers(
            self._ring, self._level, tuple(k * v for v in self._vector)
        )

    def _combine(self, other: "TorusPoint", sign: int) -> "TorusPoint":
        _check_same_ring(self, other)
        level = lcm(self._level, other._level)
        f, g = level // self._level, sign * (level // other._level)
        return TorusPoint.from_integers(
            self._ring,
            level,
            tuple(f * a + g * b for a, b in zip(self._vector, other._vector)),
        )

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "TorusPoint":
        return self.scale(-1)

    def is_origin(self) -> bool:
        return self._level == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return (
            self._ring is other._ring
            and self._level == other._level
            and self._vector == other._vector
        )

    def __hash__(self) -> int:
        return hash((self._ring, self._level, self._vector))

    def __repr__(self) -> str:
        return f"TorusPoint{self.coords()!r}"


class TorusEndo:
    """A 2x2 matrix over the ring, acting factor-wise on ``E x E``."""

    __slots__ = ("_ring", "_entries", "_order_cache", "_induced")

    def __init__(self, entries) -> None:
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("torus endomorphisms are 2x2 matrices")
        flat = [e for row in rows for e in row]
        if not all(isinstance(e, RingElem) for e in flat):
            raise TypeError("matrix entries must be ring elements")
        for e in flat[1:]:
            _check_same_ring(flat[0], e)
        self._ring = flat[0].ring
        self._entries = rows
        self._order_cache: int | None = None
        self._induced: IntMatrix | None = None

    @classmethod
    def identity(cls, ring: RingId) -> "TorusEndo":
        one, zero = RingElem.one(ring), RingElem.zero(ring)
        return cls([[one, zero], [zero, one]])

    @classmethod
    def zero(cls, ring: RingId) -> "TorusEndo":
        z = RingElem.zero(ring)
        return cls([[z, z], [z, z]])

    @classmethod
    def diagonal(cls, d1: RingElem, d2: RingElem) -> "TorusEndo":
        _check_same_ring(d1, d2)
        z = RingElem.zero(d1.ring)
        return cls([[d1, z], [z, d2]])

    @property
    def ring(self) -> RingId:
        return self._ring

    @property
    def entries(self) -> tuple[tuple[RingElem, ...], ...]:
        return self._entries

    def __getitem__(self, i: int) -> tuple[RingElem, ...]:
        return self._entries[i]

    def __add__(self, other: "TorusEndo") -> "TorusEndo":
        if not isinstance(other, TorusEndo):
            return NotImplemented
        _check_same_ring(self, other)
        return TorusEndo(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._entries, other._entries)
            ]
        )

    def __sub__(self, other: "TorusEndo") -> "TorusEndo":
        if not isinstance(other, TorusEndo):
            return NotImplemented
        _check_same_ring(self, other)
        return TorusEndo(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._entries, other._entries)
            ]
        )

    def __matmul__(self, other: "TorusEndo") -> "TorusEndo":
        if not isinstance(other, TorusEndo):
            return NotImplemented
        _check_same_ring(self, other)
        a, b = self._entries, other._entries
        return TorusEndo(
            [
                [
                    a[i][0] * b[0][j] + a[i][1] * b[1][j]
                    for j in range(2)
                ]
                for i in range(2)
            ]
        )

    def __pow__(self, exponent: int) -> "TorusEndo":
        return binary_power(self, exponent, TorusEndo.identity(self._ring))

    def det(self) -> RingElem:
        return (
            self._entries[0][0] * self._entries[1][1]
            - self._entries[0][1] * self._entries[1][0]
        )

    def apply(self, point: TorusPoint) -> TorusPoint:
        """Image of a point, through the induced matrix on its integer vector."""
        _check_same_ring(self, point)
        return TorusPoint.from_integers(
            self._ring,
            point.torsion_level(),
            self.induced_matrix().apply_int(point.vector()),
        )

    def induced_matrix(self) -> IntMatrix:
        """The 4x4 integer matrix on first homology.

        Each ring entry is replaced by its 2x2 regular representation on the
        basis ``{1, zeta}``, so composition of endomorphisms corresponds to
        products of induced matrices.  The matrix is built once per map.
        """
        if self._induced is None:
            blocks = [
                [
                    IntMatrix(self._entries[i][j].regular_representation())
                    for j in range(2)
                ]
                for i in range(2)
            ]
            self._induced = IntMatrix.block(blocks)
        return self._induced

    def multiplicative_order(self) -> int:
        """The order of the map: :func:`matrix_order` of the induced matrix.

        Computed once per map.  Raises
        :class:`UnsupportedAutomorphismError` for infinite order.
        """
        if self._order_cache is None:
            try:
                self._order_cache = matrix_order(self.induced_matrix())
            except ValueError:
                self._order_cache = 0
        if self._order_cache == 0:
            raise UnsupportedAutomorphismError("linear part has infinite order")
        return self._order_cache

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusEndo):
            return NotImplemented
        return self._ring is other._ring and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self._ring, self._entries))

    def __repr__(self) -> str:
        return f"TorusEndo({[[e for e in row] for row in self._entries]!r})"


class TorusAuto:
    """A natural automorphism: unit-determinant linear part, then a translation."""

    __slots__ = ("_linear", "_translation", "_linear_order", "_order_cache")

    def __init__(self, linear: TorusEndo, translation: TorusPoint) -> None:
        _check_same_ring(linear, translation)
        if not linear.det().is_unit():
            raise UnsupportedAutomorphismError(
                "linear part must have unit determinant"
            )
        self._linear = linear
        self._translation = translation
        self._linear_order = linear.multiplicative_order()
        self._order_cache: int | None = None

    @classmethod
    def identity(cls, ring: RingId) -> "TorusAuto":
        return cls(TorusEndo.identity(ring), TorusPoint.origin(ring))

    @classmethod
    def translation_by(cls, point: TorusPoint) -> "TorusAuto":
        return cls(TorusEndo.identity(point.ring), point)

    @property
    def ring(self) -> RingId:
        return self._linear.ring

    @property
    def linear(self) -> TorusEndo:
        return self._linear

    @property
    def translation(self) -> TorusPoint:
        return self._translation

    def apply(self, point: TorusPoint) -> TorusPoint:
        return self._linear.apply(point) + self._translation

    def _translation_iterates(self, count: int) -> list[tuple[int, ...]]:
        """Translation parts of ``self**k`` for ``k = 0..count``.

        They follow ``t_0 = 0`` and ``t_(k+1) = M t_k + a`` with ``M`` the
        induced matrix, as integer vectors over the torsion level of ``a``.
        """
        matrix = self._linear.induced_matrix()
        level = self._translation.torsion_level()
        shift = self._translation.vector()
        current = (0, 0, 0, 0)
        out = [current]
        for _ in range(count):
            current = tuple(
                (x + s) % level for x, s in zip(matrix.apply_int(current), shift)
            )
            out.append(current)
        return out

    def __mul__(self, other: "TorusAuto") -> "TorusAuto":
        """Composition, ``(self * other)(p) == self(other(p))``."""
        if not isinstance(other, TorusAuto):
            return NotImplemented
        return TorusAuto(
            self._linear @ other._linear,
            self._linear.apply(other._translation) + self._translation,
        )

    def __pow__(self, exponent: int) -> "TorusAuto":
        """The ``exponent``-th iterate, ``(t_a h)^e = t_{sum h^j a} h^e``."""
        if exponent < 0:
            raise ValueError("negative automorphism powers are not supported")
        if exponent == 0:
            return TorusAuto.identity(self.ring)
        # A power of a valid map is valid, and h**e has order m0/gcd(m0, e),
        # so the constructor's checks are skipped.
        power = TorusAuto.__new__(TorusAuto)
        power._linear = self._linear**exponent
        power._translation = TorusPoint.from_integers(
            self.ring,
            self._translation.torsion_level(),
            self._translation_iterates(exponent)[-1],
        )
        power._linear_order = self._linear_order // gcd(self._linear_order, exponent)
        power._order_cache = None
        return power

    def order(self) -> int:
        """Order as a group element.

        The linear part has some order ``m0``; the power ``self**(j*m0)`` is
        the translation by ``j`` times ``S(a)`` where ``S`` sums the first
        ``m0`` powers of the linear part, so the full order is ``m0`` times
        the torsion level of ``S(a)``.
        """
        if self._order_cache is not None:
            return self._order_cache
        m0 = self._linear_order
        level = self._translation.torsion_level()
        residue = self._translation_iterates(m0)[-1]
        self._order_cache = m0 * (level // gcd(level, *residue))
        return self._order_cache

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusAuto):
            return NotImplemented
        return (
            self._linear == other._linear
            and self._translation == other._translation
        )

    def __hash__(self) -> int:
        return hash((self._linear, self._translation))

    def __repr__(self) -> str:
        return f"TorusAuto({self._linear!r}, {self._translation!r})"


def orbit_sum_data(auto: TorusAuto, length: int) -> tuple[TorusEndo, TorusPoint]:
    """Linear map and constant of the length-``length`` orbit sum.

    For every point ``p`` the sum of the first ``length`` iterates satisfies
    ``sum_j auto^j(p) = L(p) + c`` where ``L`` sums the powers of the linear
    part and ``c`` sums the translation parts of the iterates.
    """
    if length < 1:
        raise ValueError("orbit length must be positive")
    ring = auto.ring
    l_sum = TorusEndo.zero(ring)
    power = TorusEndo.identity(ring)
    for _ in range(length):
        l_sum = l_sum + power
        power = power @ auto.linear
    c_sum = TorusPoint.from_integers(
        ring,
        auto.translation.torsion_level(),
        tuple(map(sum, zip(*auto._translation_iterates(length - 1)))),
    )
    return l_sum, c_sum

