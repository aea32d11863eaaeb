"""Fixed-point decisions for induced automorphisms on length-``n`` fibers.

A natural automorphism ``g`` of the abelian surface ``A`` induces one of
the generalized Kummer variety ``K_{n-1}(A)``, the fiber over zero of the
sum map on length-``n`` subschemes.  The induced map has a fixed point
exactly when there is an invariant configuration: a multiset of full
orbits of ``g`` whose lengths add up to ``n`` and whose points sum to the
origin.  The Hilbert-Chow morphism ``A^[n] -> A^(n)`` commutes with ``g``
and the sum map factors through it, so a fixed point lies over one.
Conversely, take a base point ``x`` of multiplicity ``m`` in each orbit,
of length ``l``.  ``g^l`` fixes ``x`` and acts near it by ``h^l``, of
finite order and so diagonalisable: in its eigen-coordinates ``(u, v)``
the ideal ``(u^m, v)`` has colength ``m`` and is ``g^l``-invariant.
Carried along the orbit by ``g``, these ideals make a fixed subscheme.

Every shape such a configuration can have is an *orbit type*: a descending
tuple of orbit lengths, each dividing the order of the map, that sum to
``n``.  An orbit taken twice is two equal lengths with equal base points,
so types carry no multiplicities.  Each type produces a linear system over
the torus (orbit closure of each base point, plus the zero-sum condition);
the type admits a configuration exactly when the system is solvable modulo
the period lattice.  The closure constraint only forces the orbit length to
divide ``l``, which is deliberate: a degenerate solution is still a genuine
invariant configuration of total length ``n``, just of a finer type, so the
union over all types decides existence correctly.

Certificates are self-contained: a witness lists the base points of a
solving configuration, an obstruction carries an integer functional that
kills the system's column span but pairs non-integrally with the constants.
Both re-verify through :func:`verify_certificate` without re-running the
row echelon that found them.

What depends only on the linear part has two memos here: the orbit types
per ``(n, order)`` (:func:`orbit_types`) and the matrix of each orbit
system, keyed by the blocks it is built from (:func:`_orbit_matrix`).  A
memoised matrix keeps its own row echelon
(:meth:`~kummerlab.linalg.IntMatrix.echelon`), so the one memo of a
system serves its assembly and its solve alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul

from .enriques import symplectic_screen
from .lattice import torus_system_solvable, verify_obstruction
from .linalg import MEMO_SIZE, IntMatrix, SelfCheckError, divisors, factorize
from .torus import TorusAuto, TorusPoint, power_sums

# The cap on the level of the grid oracle (``freeness --level``), which
# walks gcd(level, p^e)**4 starts per prime power p^e of its modulus.  The
# search's level is bounded by its n alone: it lists one cell per
# translation class from a Hermite box (lattice.translation_box) and scans
# no grid.
GRID_LEVEL_CAP = 24


class NotNTorsionError(ValueError):
    """The translation part is not ``n``-torsion, so the map does not descend."""


@lru_cache(maxsize=MEMO_SIZE)
def orbit_types(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All orbit types of total length ``n`` for a map of order ``m``, memoised.

    These are the partitions of ``n`` into divisors of ``m``, each written
    as a descending tuple, in descending lexicographic order.  Each length
    takes its count from the largest down, so the recursion goes one level
    per divisor of ``m``, not one per part.  The memo serves a sweep, which
    asks for few ``(n, m)``.
    """
    if n < 1:
        raise ValueError("total length must be positive")
    if m < 1:
        raise ValueError("the order must be positive")
    lengths = divisors(m)[::-1]

    def types(index: int, remaining: int) -> list[tuple[int, ...]]:
        # The types of ``remaining`` with parts in lengths[index:]; the
        # last length is 1, which fills any remainder.
        l = lengths[index]
        if l == 1:
            return [(1,) * remaining]
        return [
            (l,) * count + rest
            for count in range(remaining // l, -1, -1)
            for rest in types(index + 1, remaining - count * l)
        ]

    return tuple(types(0, n))


@dataclass(frozen=True)
class FreenessCertificate:
    """Re-checkable evidence for one orbit type of one tested power.

    A certificate carries a witness, the base points of a fixed
    configuration, or an obstruction, and which one it carries says which
    it is.  An obstruction is ``(f, f . b, q)`` for the orbit system
    ``T z = b / q`` of the tested element, all integers: the functional
    pairs with the constants to ``(f . b) / q``, and ``q`` is the tested
    element's torsion level, which can be smaller than the base map's.
    """

    element_power: int
    orbit_type: tuple[int, ...]
    witness: tuple[TorusPoint, ...] | None = None
    obstruction: tuple[tuple[int, ...], int, int] | None = None


@dataclass(frozen=True)
class FixedPointReport:
    certificates: tuple[FreenessCertificate, ...]

    @property
    def found(self) -> bool:
        return self.first_witness() is not None

    def first_witness(self) -> FreenessCertificate | None:
        for cert in self.certificates:
            if cert.witness is not None:
                return cert
        return None


@dataclass(frozen=True)
class PowerTest:
    power: int
    report: FixedPointReport


@dataclass(frozen=True)
class FreenessReport:
    order: int
    tested: tuple[PowerTest, ...]

    @property
    def free(self) -> bool:
        return not any(t.report.found for t in self.tested)


def orbit_system(
    auto: TorusAuto, orbit_type: tuple[int, ...]
) -> tuple[IntMatrix, tuple[int, ...], int]:
    """``(T, b, q)``: the integer system ``T z = b / q`` deciding the orbit type.

    One unknown point (four coordinates) per part.  Rows: for each part,
    the orbit-closure condition ``(M^l - I) z = -t_l`` with ``t_l`` the
    translation part of the ``l``-th iterate; then four rows for the
    zero-sum condition built from the orbit-sum data.

    The matrix depends only on the linear part and the orbit type, the
    constants alone on the translation: ``q`` is the translation's torsion
    level and ``b`` the numerators over it.  The blocks come from
    :func:`power_sums`: ``M^l - I`` for closure, ``P_l`` for the zero-sum
    rows, and ``P_l a`` and ``Q_l a`` for the constants.  ``T`` is
    assembled row by row from the nonzeros of its blocks, which it keeps
    as its :meth:`~kummerlab.linalg.IntMatrix.nonzero_rows` for the
    solver, and is memoised under the orbit type and the blocks
    ``(l, M^l, P_l)`` of its distinct lengths, read here once for the
    matrix and the constants alike, so a repeated call for any
    translation builds only ``b``.
    """
    matrix = auto.linear.induced_matrix()
    level = auto.translation.torsion_level()
    a = auto.translation.vector()
    blocks, closures, sums = [], {}, {}
    for l in dict.fromkeys(orbit_type):
        power, partial, total = power_sums(matrix, l)
        blocks.append((l, power, partial))
        closures[l] = [-(x % level) for x in partial.apply_int(a)]
        sums[l] = [x % level for x in total.apply_int(a)]
    numerators = [x for l in orbit_type for x in closures[l]]
    numerators += [-sum(column) for column in zip(*(sums[l] for l in orbit_type))]
    return _orbit_matrix(orbit_type, tuple(blocks)), tuple(numerators), level


@lru_cache(maxsize=MEMO_SIZE)
def _orbit_matrix(
    orbit_type: tuple[int, ...], blocks: tuple[tuple[int, IntMatrix, IntMatrix], ...]
) -> IntMatrix:
    """The matrix ``T`` of :func:`orbit_system`, memoised, built from its nonzeros.

    ``blocks`` holds ``(l, M^l, P_l)`` for each distinct length ``l`` of
    the type, so equal systems share one entry: for ``M`` of order 3,
    ``M`` and ``M^2`` have the same ``M^3 = I`` and ``P_3``.  Block
    ``(i, i)`` is ``M^l - I`` for the ``i``-th length ``l`` and the last
    block row holds the ``P_l`` side by side; every other block is zero.
    Each row is written as the ``{column: entry}`` dict of its nonzeros,
    read from ``M^l`` and ``P_l`` at their block offsets with the identity
    subtracted on the diagonal, and the dicts become the matrix's
    :meth:`~kummerlab.linalg.IntMatrix.nonzero_rows`.  The entry is the
    one memo of the system: the matrix keeps its own row echelon
    (:meth:`~kummerlab.linalg.IntMatrix.echelon`), which the solver reads.
    """
    closure_rows, sum_rows = {}, {}
    for l, power, partial in blocks:
        # Row r of M^l - I: the identity's entry (c == r) comes off the diagonal.
        closure_rows[l] = [
            [(c, x - (c == r)) for c, x in enumerate(line) if x != (c == r)]
            for r, line in enumerate(power.entries)
        ]
        sum_rows[l] = [
            [(c, x) for c, x in enumerate(line) if x] for line in partial.entries
        ]
    rows = [
        {4 * i + c: x for c, x in line}
        for i, l in enumerate(orbit_type)
        for line in closure_rows[l]
    ]
    rows += (
        {4 * i + c: x for i, l in enumerate(orbit_type) for c, x in sum_rows[l][r]}
        for r in range(4)
    )
    return IntMatrix.from_nonzero_rows(rows, 4 * len(orbit_type))


def _require_descends(auto: TorusAuto, n: int) -> None:
    if n < 2:
        raise ValueError("the configuration length must be at least 2")
    if not auto.translation.is_torsion_of_level(n):
        raise NotNTorsionError(
            f"translation part is not {n}-torsion; the map does not act on the fiber"
        )


def has_fixed_point(
    auto: TorusAuto,
    n: int,
    element_power: int = 1,
    stop_at_first: bool = False,
) -> FixedPointReport:
    """Decide whether the induced automorphism fixes some configuration.

    Decides each orbit type in canonical order from the row echelon of its
    system (:func:`~kummerlab.lattice.torus_system_solvable`): a left
    kernel row that pairs non-integrally with the constants is an
    obstruction, and otherwise back-substitution gives a witness.  Returns
    one certificate per type; ``element_power`` only labels the
    certificates when the map under test is a power of another one.  With
    ``stop_at_first`` the scan stops at the first solvable type, so a
    positive report may carry fewer certificates than there are types; a
    negative one always carries all of them.  What does not depend on the
    translation is memoised: the orbit types of ``(n, order)`` by
    :func:`orbit_types`, and each system's matrix by :func:`orbit_system`;
    the matrix keeps its own row echelon, so a system met again is not
    eliminated again.
    """
    _require_descends(auto, n)
    order = auto.order()
    certificates: list[FreenessCertificate] = []
    for orbit_type in orbit_types(n, order):
        system, constants, level = orbit_system(auto, orbit_type)
        result = torus_system_solvable(system, constants, level)
        if result.solvable:
            w, denominator = result.witness
            points = tuple(
                TorusPoint.from_integers(denominator, w[4 * i : 4 * i + 4])
                for i in range(len(orbit_type))
            )
            certificates.append(
                FreenessCertificate(element_power, orbit_type, witness=points)
            )
            if stop_at_first:
                break
        else:
            functional, pairing = result.obstruction
            certificates.append(
                FreenessCertificate(
                    element_power,
                    orbit_type,
                    obstruction=(functional, pairing, level),
                )
            )
    return FixedPointReport(tuple(certificates))


def group_acts_freely(
    auto: TorusAuto,
    n: int,
    stop_at_first: bool = False,
) -> FreenessReport:
    """Decide freeness of the cyclic group generated by the induced map.

    In a cyclic group every nontrivial element powers into an element of
    prime order, and fixed loci only grow under powering, so it suffices to
    test the powers ``auto**(order/p)`` for the primes ``p`` dividing the
    order.  The trivial group acts freely vacuously.  ``stop_at_first``
    abandons the sweep as soon as one power is caught fixing a
    configuration, leaving later powers untested in the report.  A free
    verdict must pass :func:`symplectic_screen`, which shares no code with
    the decision; one that fails it raises :class:`SelfCheckError`.
    """
    _require_descends(auto, n)
    order = auto.order()
    tested: list[PowerTest] = []
    for p, _ in factorize(order):
        power = order // p
        report = has_fixed_point(
            auto**power, n, element_power=power, stop_at_first=stop_at_first
        )
        tested.append(PowerTest(power, report))
        if report.found and stop_at_first:
            break
    result = FreenessReport(order, tuple(tested))
    if result.free and not symplectic_screen(order, auto.linear.multiplier_order(), n):
        raise SelfCheckError(f"free order-{order} verdict fails the screen at n={n}")
    return result


def verify_certificate(auto: TorusAuto, n: int, certificate: FreenessCertificate) -> bool:
    """Re-check a certificate against the base automorphism.

    Witnesses are verified by direct orbit expansion (no normal forms);
    obstructions by re-assembling the system ``T z = b / q`` and pairing
    the functional: the stored modulus must be ``q``, the tested element's
    torsion level, and the stored pairing must be ``f . b`` exactly.  A
    certificate that carries both or neither is rejected, and so is one
    whose power is negative or a multiple of the order: that power is the
    identity, which fixes every configuration.  A fixed point of any other
    power still shows that the group does not act freely.  A malformed
    certificate is rejected, not raised on: a power, orbit type or witness
    not of its declared type, or an obstruction that is not a triple.
    """
    power, lengths = certificate.element_power, certificate.orbit_type
    witness, obstruction = certificate.witness, certificate.obstruction
    if not (isinstance(power, int) and _tuple_of(lengths, int)):
        return False
    if power < 0 or power % auto.order() == 0:
        return False
    element = auto**power
    if sum(lengths) != n or any(l < 1 for l in lengths):
        return False
    if (witness is None) == (obstruction is None):
        return False
    if witness is not None:
        if not _tuple_of(witness, TorusPoint) or len(witness) != len(lengths):
            return False
        total = TorusPoint.origin()
        for l, base in zip(lengths, witness):
            point = base
            for _ in range(l):
                total = total + point
                point = element.apply(point)
            if point != base:
                return False
        return total.is_origin()
    if not (isinstance(obstruction, tuple) and len(obstruction) == 3):
        return False
    functional, pairing, modulus = obstruction
    system, constants, level = orbit_system(element, lengths)
    if modulus != level or pairing != sum(map(mul, functional, constants)):
        return False
    return verify_obstruction(system, constants, level, functional)


def _tuple_of(value, kind) -> bool:
    return isinstance(value, tuple) and all(isinstance(x, kind) for x in value)


def _grid_coins(entries, shift, q: int, step: int) -> set[tuple[int, tuple[int, ...]]]:
    """``(length, orbit sum)`` of each orbit through the ``step`` multiples mod ``q``.

    Each point is stepped with the unpacked induced matrix ``entries`` and
    ``shift``, and the orbit sum is kept as the walk goes.
    """
    (
        (m00, m01, m02, m03),
        (m10, m11, m12, m13),
        (m20, m21, m22, m23),
        (m30, m31, m32, m33),
    ) = entries
    s0, s1, s2, s3 = shift
    seen: set[tuple[int, int, int, int]] = set()
    coins: set[tuple[int, tuple[int, ...]]] = set()
    for start in product(range(0, q, step), repeat=4):
        if start in seen:
            continue
        a, b, c, d = point = start
        t0 = t1 = t2 = t3 = length = 0
        # The map is a bijection, so the walk first meets a seen point at start.
        while point not in seen:
            seen.add(point)
            t0, t1, t2, t3, length = t0 + a, t1 + b, t2 + c, t3 + d, length + 1
            point = a, b, c, d = (
                (m00 * a + m01 * b + m02 * c + m03 * d + s0) % q,
                (m10 * a + m11 * b + m12 * c + m13 * d + s1) % q,
                (m20 * a + m21 * b + m22 * c + m23 * d + s2) % q,
                (m30 * a + m31 * b + m32 * c + m33 * d + s3) % q,
            )
        coins.add((length, (t0 % q, t1 % q, t2 % q, t3 % q)))
    return coins


def brute_force_fixed_point(auto: TorusAuto, n: int, level: int) -> bool:
    """Search configurations supported on level-``level`` torsion directly.

    Walks every orbit of the map through the level grid, scaled into
    integer vectors mod ``modulus = lcm(level, torsion level of the
    translation)``, and keeps one (orbit length, orbit sum) coin per orbit;
    an unbounded-knapsack reachability then runs over total lengths up to
    ``n``.  True iff some multiset of orbits reaches total length ``n``
    with sum at the origin.

    The walk is split by the Chinese remainder theorem: ``(Z/modulus)^4``
    is the product of its parts ``(Z/p^e)^4``, the map and the grid act on
    each part alone, and :func:`_grid_coins` walks each part once.  An
    orbit through ``(x1, x2)`` has length ``L = lcm(l1, l2)`` and passes
    ``L / l1`` times around the orbit of ``x1``, so its coin is ``L`` with
    the sums ``(L / l1) S1`` and ``(L / l2) S2`` joined by CRT, and every
    pair of part coins arises.  So the coin set is the one the unsplit walk
    gives, and the walk starts from ``gcd(level, p^e)**4`` points per part
    instead of ``level**4`` in all.  ``level`` is capped at
    :data:`GRID_LEVEL_CAP`.  This shares no code with the echelon
    decision and serves as its oracle.
    """
    _require_descends(auto, n)
    if level < 1 or level > GRID_LEVEL_CAP:
        raise ValueError(f"grid level must lie in 1..{GRID_LEVEL_CAP}")
    modulus = lcm(level, auto.translation.torsion_level())
    entries = auto.linear.induced_matrix().entries
    shift = auto.translation.vector(modulus)

    # The one orbit of the trivial group (Z/1)^4, extended a part at a time.
    coins = {(1, (0, 0, 0, 0))}
    done = 1
    for p, e in factorize(modulus):
        q = p**e
        part = _grid_coins(entries, [s % q for s in shift], q, q // gcd(level, q))
        # Idempotents of Z/(done q): one is 1 mod done and 0 mod q, the other
        # the reverse.
        first, second = q * pow(q, -1, done), done * pow(done, -1, q)
        done *= q
        joined = set()
        for l1, s1 in coins:
            for l2, s2 in part:
                length = lcm(l1, l2)
                c1, c2 = first * (length // l1), second * (length // l2)
                joined.add(
                    (length, tuple((c1 * x + c2 * y) % done for x, y in zip(s1, s2)))
                )
        coins = joined

    zero = (0, 0, 0, 0)
    reachable: list[set[tuple[int, int, int, int]]] = [set() for _ in range(n + 1)]
    reachable[0].add(zero)
    for length, orbit_sum in sorted(coins):
        if length > n:
            continue
        for total in range(length, n + 1):
            previous = reachable[total - length]
            if previous:
                reachable[total] |= {
                    tuple((x + y) % modulus for x, y in zip(elem, orbit_sum))
                    for elem in previous
                }
    return zero in reachable[n]
