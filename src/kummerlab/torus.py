"""Points and automorphisms of the self-product torus attached to a ring.

The surface under study is ``A = E x E`` where ``E`` is the complex torus
with period lattice spanned by ``{1, zeta}``; for the rational integers,
which have no ``zeta``, the second period is a ``tau`` and a linear part
``h`` acts on first homology as ``h`` on either period.  A point of ``A``
therefore has four coordinates (two per factor, in the basis of periods),
taken mod 1, in every ring.  Only torsion points occur, and each is stored
as an integer 4-vector mod its torsion level ``N``.  The automorphisms
handled here are the natural ones, a lattice-linear map with unit
determinant followed by a torsion translation.  A linear part is its
induced 4x4 integer matrix on first homology, built from ring entries by
:func:`kummerlab.rings.induced_matrix`, so neither points nor maps carry a
ring: the ring stays where matrices are parsed, listed and printed.  Its
products, powers and orbit sums (:func:`power_sums`) are integer-matrix
products, and point arithmetic, orbits and orders are plain integer
arithmetic mod ``N``.  The powers and the order of an automorphism read
the same memoised ``(M^l, P_l, Q_l)`` tables as the orbit systems, so
every translation of a linear part shares them.  The multiplier
``det h`` is the block product ``A D - B C`` of ``M = [[A, B], [C, D]]``,
and its order comes only from :meth:`TorusEndo.multiplier_order`.
``Fraction`` appears
only where points enter or leave as rational coordinates:
:meth:`TorusPoint.from_vector` and :meth:`TorusPoint.coords`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .linalg import MEMO_SIZE, IntMatrix, SelfCheckError, matrix_order

TORSION_LEVEL_CAP = 1000


class UnsupportedAutomorphismError(ValueError):
    """Raised for maps outside the supported catalog: a linear part with a
    non-unit determinant or of infinite order.  Entries from mixed rings
    raise :class:`RingMismatchError`, from :class:`RingElem` or
    :func:`kummerlab.rings.induced_matrix`, before any map is built."""


class TorusPoint:
    """A torsion point of ``E x E``: an integer vector over its level.

    The coordinates ``(x1, y1, x2, y2)`` are ``vector / level`` with every
    entry in ``[0, level)`` and ``level`` the exact torsion level, so the
    stored pair is canonical: points given over different denominators
    compare and hash equal.  ``y1`` and ``y2`` are coordinates along the
    curve's second period (``zeta``, or a period ``tau`` for the rational
    integers), and every ring acts on the same four coordinates, so a point
    carries no ring: one point serves as the translation of maps over any.
    """

    __slots__ = ("_level", "_vector")

    @classmethod
    def from_integers(cls, level: int, vector) -> "TorusPoint":
        """The point ``vector / level`` for an integer 4-vector."""
        vector = tuple(vector)
        if level < 1 or len(vector) != 4:
            raise ValueError("a point needs a positive level and four coordinates")
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
        point._level = level
        point._vector = vector
        return point

    @classmethod
    def from_vector(cls, coords) -> "TorusPoint":
        """The point with rational coordinates ``(x1, y1, x2, y2)``."""
        coords = tuple(Fraction(c) for c in coords)
        level = lcm(*(c.denominator for c in coords))
        return cls.from_integers(
            level, (c.numerator * (level // c.denominator) for c in coords)
        )

    @classmethod
    def origin(cls) -> "TorusPoint":
        return cls.from_integers(1, (0, 0, 0, 0))

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
        return TorusPoint.from_integers(self._level, (k * v for v in self._vector))

    def _combine(self, other: "TorusPoint", sign: int) -> "TorusPoint":
        level = lcm(self._level, other._level)
        f, g = level // self._level, sign * (level // other._level)
        return TorusPoint.from_integers(
            level, (f * a + g * b for a, b in zip(self._vector, other._vector))
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
        return self._level == other._level and self._vector == other._vector

    def __hash__(self) -> int:
        return hash((self._level, self._vector))

    def __repr__(self) -> str:
        return f"TorusPoint{self.coords()!r}"


class TorusEndo:
    """A linear endomorphism of ``E x E``: its 4x4 integer matrix on first homology.

    The matrix is the block matrix ``[[A, B], [C, D]]`` of the regular
    representations of a 2x2 matrix over the ring
    (:func:`kummerlab.rings.induced_matrix`), so products and powers are
    integer-matrix ones and ``A D - B C`` represents the determinant.  The
    constructor takes any 4x4 integer matrix and does not check that its
    blocks come from ring entries.
    """

    __slots__ = ("_matrix", "_order_cache", "_multiplier_cache")

    def __init__(self, matrix: IntMatrix) -> None:
        if not isinstance(matrix, IntMatrix) or (matrix.rows, matrix.cols) != (4, 4):
            raise TypeError("a linear part is a 4x4 IntMatrix")
        self._matrix = matrix
        self._order_cache: int | None = None
        self._multiplier_cache: int | None = None

    @classmethod
    def identity(cls) -> "TorusEndo":
        return cls(IntMatrix.identity(4))

    @classmethod
    def _with_order(
        cls, matrix: IntMatrix, order: int, multiplier: int | None = None
    ) -> "TorusEndo":
        """The linear part ``matrix`` with its order memo already filled.

        The caller must have proved that ``matrix`` is a 4x4 integer matrix
        of multiplicative order exactly ``order``, as
        :func:`~kummerlab.linalg.matrix_order` would return it, and, when
        it passes ``multiplier``, that ``det h`` has exactly that order:
        the catalog passes the :meth:`multiplier_order` of an earlier part
        with the same ``det h``.  The memos are trusted and never
        recomputed; without ``multiplier`` its memo stays empty, as in the
        powers :meth:`TorusAuto.__pow__` builds.
        """
        endo = cls(matrix)
        endo._order_cache = order
        endo._multiplier_cache = multiplier
        return endo

    def __matmul__(self, other: "TorusEndo") -> "TorusEndo":
        if not isinstance(other, TorusEndo):
            return NotImplemented
        return TorusEndo(self._matrix @ other._matrix)

    def __pow__(self, exponent: int) -> "TorusEndo":
        return TorusEndo(self._matrix**exponent)

    def apply(self, point: TorusPoint) -> TorusPoint:
        """Image of a point, through the induced matrix on its integer vector."""
        return TorusPoint.from_integers(
            point.torsion_level(), self._matrix.apply_int(point.vector())
        )

    def induced_matrix(self) -> IntMatrix:
        """The 4x4 integer matrix on first homology, the stored form of the map."""
        return self._matrix

    def multiplicative_order(self) -> int:
        """The order of the map, :func:`matrix_order` of its matrix, or its refusal.

        Memoised on success.  Otherwise it raises
        :class:`UnsupportedAutomorphismError` on every call: for a non-unit
        determinant (``|det M| != 1``, as ``det M`` is the norm of ``det h``
        or its square), then for infinite order.  The determinant is taken
        only when the order fails, since finite order implies ``|det M| = 1``.
        """
        if self._order_cache is None:
            try:
                self._order_cache = matrix_order(self._matrix)
            except ValueError:
                unit = abs(self._matrix.det()) == 1
                reason = "has infinite order" if unit else "must have unit determinant"
                raise UnsupportedAutomorphismError(f"linear part {reason}") from None
        return self._order_cache

    def multiplier_order(self) -> int:
        """The order of ``det h``, the map's multiplier on the symplectic form.

        The induced matrix is the block matrix ``[[A, B], [C, D]]`` of the
        2x2 regular representations of the entries of ``h``, so the block
        product ``A D - B C`` is the regular representation of ``det h``,
        and :func:`matrix_order` of it is the multiplier's order.  This is
        the one route to ``ord(det h)``: a catalog part takes it here too,
        once per distinct ``det h``.  Computed once per map; a multiplier
        that is not a unit of finite order is not memoised and raises
        :class:`SelfCheckError` on every call.
        """
        if self._multiplier_cache is not None:
            return self._multiplier_cache
        rows = self._matrix.entries
        a, b, c, d = (
            IntMatrix._of(row[j : j + 2] for row in rows[i : i + 2])
            for i in (0, 2)
            for j in (0, 2)
        )
        det = a @ d - b @ c
        try:
            self._multiplier_cache = matrix_order(det)
        except ValueError:
            raise SelfCheckError(
                f"multiplier {det!r} is not a unit of finite order"
            ) from None
        return self._multiplier_cache

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusEndo):
            return NotImplemented
        return self._matrix == other._matrix

    def __hash__(self) -> int:
        return hash(self._matrix)

    def __repr__(self) -> str:
        return f"TorusEndo({self._matrix!r})"


class TorusAuto:
    """A natural automorphism: unit-determinant linear part, then a translation."""

    __slots__ = ("_linear", "_translation", "_order_cache")

    def __init__(self, linear: TorusEndo, translation: TorusPoint) -> None:
        linear.multiplicative_order()  # refuses an unsupported linear part
        self._linear = linear
        self._translation = translation
        self._order_cache: int | None = None

    @classmethod
    def _with_order(
        cls, linear: TorusEndo, translation: TorusPoint, order: int | None
    ) -> "TorusAuto":
        """The map ``t_a h`` with its order memo already filled.

        The caller must have proved that the map has order exactly
        ``order``, as :meth:`order` would return it; the memo is trusted
        and never recomputed, and ``None`` leaves it empty.  The linear
        part is still refused by the constructor if it is unsupported.
        """
        auto = cls(linear, translation)
        auto._order_cache = order
        return auto

    @classmethod
    def identity(cls) -> "TorusAuto":
        return cls(TorusEndo.identity(), TorusPoint.origin())

    @property
    def linear(self) -> TorusEndo:
        return self._linear

    @property
    def translation(self) -> TorusPoint:
        return self._translation

    def apply(self, point: TorusPoint) -> TorusPoint:
        return self._linear.apply(point) + self._translation

    def __mul__(self, other: "TorusAuto") -> "TorusAuto":
        """Composition, ``(self * other)(p) == self(other(p))``."""
        if not isinstance(other, TorusAuto):
            return NotImplemented
        return TorusAuto(
            self._linear @ other._linear,
            self._linear.apply(other._translation) + self._translation,
        )

    def __pow__(self, exponent: int) -> "TorusAuto":
        """The ``exponent``-th iterate, ``(t_a h)^e = t_{P_e a} h^e``.

        With ``m`` the order of the linear part and ``e = q m + r``, the
        iterate is ``M^r`` followed by ``q P_m a + P_r a``, from the
        :func:`power_sums` tables of lengths ``m`` and ``r``.  An order
        ``o`` of the map or of its linear part gives the power's as
        ``o / gcd(o, e)``, so the power is built by the two ``_with_order``
        constructors with those memos; the map's order memo passes on only
        when it is filled.  The exponent 1 returns the map itself, with its
        memos: a map of prime order tests its first power for freeness.
        """
        if exponent < 0:
            raise ValueError("negative automorphism powers are not supported")
        if exponent == 1:
            return self
        m = self._linear.multiplicative_order()
        quotient, rest = divmod(exponent, m)
        matrix = self._linear.induced_matrix()
        a = self._translation.vector()
        linear, partial, _ = power_sums(matrix, rest)
        shift = partial.apply_int(a)
        if quotient:
            _, period, _ = power_sums(matrix, m)
            shift = map(add, shift, (quotient * x for x in period.apply_int(a)))
        point = TorusPoint.from_integers(self._translation.torsion_level(), shift)
        order = self._order_cache
        if order is not None:
            order //= gcd(order, exponent)
        return TorusAuto._with_order(
            TorusEndo._with_order(linear, m // gcd(m, exponent)), point, order
        )

    def order(self) -> int:
        """Order as a group element.

        The linear part has some order ``m``; the power ``self**(j*m)`` is
        the translation by ``j`` times ``P_m a``, where ``P_m`` sums the
        first ``m`` powers of the linear part (:func:`power_sums`), so the
        full order is ``m`` times the torsion level of ``P_m a``.
        """
        if self._order_cache is None:
            m = self._linear.multiplicative_order()
            _, period, _ = power_sums(self._linear.induced_matrix(), m)
            level = self._translation.torsion_level()
            shift = period.apply_int(self._translation.vector())
            self._order_cache = m * (level // gcd(level, *shift))
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


@lru_cache(maxsize=MEMO_SIZE)
def power_sums(
    matrix: IntMatrix, length: int
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """``(M^l, P_l, Q_l)`` for a square integer matrix ``M`` and ``l = length``.

    ``P_l = sum_{j<l} M^j`` and ``Q_l = sum_{k<l} P_k``.  For the induced
    matrix of a linear part and a translation ``a``, ``P_l a`` is the
    translation part ``t_l`` of the ``l``-th iterate and ``Q_l a`` is the
    sum ``t_0 + ... + t_(l-1)``; ``P_l`` is also the linear part of the
    length-``l`` orbit sum.  The tables depend on ``(M, l)`` alone and are
    memoised, so every translation of a linear part shares them.
    """
    size = matrix.rows
    power = IntMatrix.identity(size)
    partial = total = IntMatrix.zeros(size, size)
    for _ in range(length):
        total = total + partial
        partial = partial + power
        power = power @ matrix
    return power, partial, total


def orbit_sum_data(auto: TorusAuto, length: int) -> tuple[TorusEndo, TorusPoint]:
    """Linear map and constant of the length-``length`` orbit sum.

    For every point ``p`` the sum of the first ``length`` iterates satisfies
    ``sum_j auto^j(p) = L(p) + c`` where ``L = P_l`` sums the powers of the
    linear part and ``c = Q_l a`` sums the translation parts of the
    iterates, both from :func:`power_sums`.
    """
    if length < 1:
        raise ValueError("orbit length must be positive")
    _, partial, total = power_sums(auto.linear.induced_matrix(), length)
    constant = TorusPoint.from_integers(
        auto.translation.torsion_level(), total.apply_int(auto.translation.vector())
    )
    return TorusEndo(partial), constant
