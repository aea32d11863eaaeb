"""Fixed-point decisions for induced automorphisms on length-``n`` fibers.

A natural automorphism of the abelian surface induces an automorphism of
the generalized Kummer variety, the fiber over zero of the summation map on
length-``n`` configurations.  A fixed point of the induced map is modeled by
an invariant configuration: a multiset of full orbits of the map whose
lengths add up to ``n`` and whose points sum to the origin.  Existence of
such a configuration is taken as the defining criterion throughout this
module.

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
normal-form machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import lcm

from .lattice import (
    SolvabilityResult,
    torus_system_solvable,
    verify_obstruction,
)
from .linalg import IntMatrix, divisors, factorize
from .torus import TorusAuto, TorusPoint

# The grid oracle and the search sweep both walk level**4 points; one cap
# bounds the level of either.
GRID_LEVEL_CAP = 24


class NotNTorsionError(ValueError):
    """The translation part is not ``n``-torsion, so the map does not descend."""


def orbit_types(n: int, m: int) -> list[tuple[int, ...]]:
    """All orbit types of total length ``n`` for a map of order ``m``.

    These are the partitions of ``n`` into divisors of ``m``, each written
    as a descending tuple, in descending lexicographic order.
    """
    if n < 1:
        raise ValueError("total length must be positive")
    if m < 1:
        raise ValueError("the order must be positive")
    lengths = divisors(m)[::-1]
    found: list[tuple[int, ...]] = []

    def recurse(start: int, remaining: int, acc: list[int]) -> None:
        if remaining == 0:
            found.append(tuple(acc))
            return
        for index in range(start, len(lengths)):
            l = lengths[index]
            if l > remaining:
                continue
            acc.append(l)
            recurse(index, remaining - l, acc)
            acc.pop()

    recurse(0, n, [])
    return found


class CertificateOutcome(Enum):
    FIXED_POINT = "fixed_point"
    OBSTRUCTED = "obstructed"


@dataclass(frozen=True)
class FreenessCertificate:
    """Re-checkable evidence for one orbit type of one tested power."""

    element_power: int
    orbit_type: tuple[int, ...]
    outcome: CertificateOutcome
    witness: tuple[TorusPoint, ...] | None = None
    obstruction: tuple[tuple[int, ...], Fraction] | None = None


@dataclass(frozen=True)
class FixedPointReport:
    found: bool
    certificates: tuple[FreenessCertificate, ...]

    def __bool__(self) -> bool:
        return self.found

    def first_witness(self) -> FreenessCertificate | None:
        for cert in self.certificates:
            if cert.outcome is CertificateOutcome.FIXED_POINT:
                return cert
        return None


@dataclass(frozen=True)
class PowerTest:
    power: int
    report: FixedPointReport


@dataclass(frozen=True)
class FreenessReport:
    free: bool
    order: int
    tested: tuple[PowerTest, ...]

    def __bool__(self) -> bool:
        return self.free


def _length_tables(
    matrix: IntMatrix, length: int, cache: dict
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """``(M^l - I, P_l, Q_l)`` for the induced matrix ``M`` and ``l = length``.

    ``P_l = sum_{j<l} M^j`` maps the translation ``a`` to the translation
    part ``t_l = P_l a`` of the ``l``-th iterate, and ``Q_l = sum_{k<l} P_k``
    maps it to the sum ``t_0 + ... + t_(l-1)``, the orbit-sum constant.
    """
    key = (matrix, length)
    tables = cache.get(key)
    if tables is None:
        power = IntMatrix.identity(4)
        partial = IntMatrix.zeros(4, 4)
        total = IntMatrix.zeros(4, 4)
        for _ in range(length):
            total = total + partial
            partial = partial + power
            power = power @ matrix
        tables = cache[key] = (power - IntMatrix.identity(4), partial, total)
    return tables


def orbit_system(
    auto: TorusAuto,
    orbit_type: tuple[int, ...],
    cache: dict | None = None,
) -> tuple[IntMatrix, tuple[Fraction, ...]]:
    """Assemble the integer system deciding the given orbit type.

    One unknown point (four coordinates) per part.  Rows: for each part,
    the orbit-closure condition ``(M^l - I) z = -t_l`` with ``t_l`` the
    translation part of the ``l``-th iterate; then four rows for the
    zero-sum condition built from the orbit-sum data.

    The matrix depends only on the linear part and the orbit type, the
    constants alone on the translation; they are integer vectors over the
    translation's torsion level until the final division.  Passing the
    same ``cache`` dict across calls, for any translations, computes the
    power tables of each linear part and length once.
    """
    if cache is None:
        cache = {}
    matrix = auto.linear.induced_matrix()
    parts = [_length_tables(matrix, l, cache) for l in orbit_type]
    zero4 = IntMatrix.zeros(4, 4)
    block_rows: list[list[IntMatrix]] = []
    for i, (closure, _, _) in enumerate(parts):
        row = [zero4] * len(parts)
        row[i] = closure
        block_rows.append(row)
    block_rows.append([partial for _, partial, _ in parts])
    system = IntMatrix.block(block_rows)

    level = auto.translation.torsion_level()
    a = auto.translation.vector()
    numerators: list[int] = []
    summed = [0] * 4
    for _, partial, total in parts:
        numerators.extend(-(x % level) for x in partial.apply_int(a))
        for j, x in enumerate(total.apply_int(a)):
            summed[j] -= x % level
    numerators.extend(summed)
    return system, tuple(Fraction(x, level) for x in numerators)


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
    cache: dict | None = None,
) -> FixedPointReport:
    """Decide whether the induced automorphism fixes some configuration.

    Runs the solvability decision for every orbit type in canonical order
    and returns one certificate per type; ``element_power`` only labels the
    certificates when the map under test is a power of another one.  With
    ``stop_at_first`` the scan stops at the first solvable type, so a
    positive report may carry fewer certificates than there are types; a
    negative one always carries all of them.  ``cache`` is handed to
    :func:`orbit_system` and :func:`torus_system_solvable`: one dict shared
    across maps with the same linear part keeps the systems' Smith normal
    forms, which never depend on the translation.  Without it only the
    small power tables are kept, and only for this call.
    """
    _require_descends(auto, n)
    tables: dict = {} if cache is None else cache
    order = auto.order()
    certificates: list[FreenessCertificate] = []
    for orbit_type in orbit_types(n, order):
        system, constants = orbit_system(auto, orbit_type, tables)
        result: SolvabilityResult = torus_system_solvable(system, constants, cache)
        if result.solvable:
            coords = result.witness
            points = tuple(
                TorusPoint.from_vector(auto.ring, coords[4 * i : 4 * i + 4])
                for i in range(len(orbit_type))
            )
            certificates.append(
                FreenessCertificate(
                    element_power,
                    orbit_type,
                    CertificateOutcome.FIXED_POINT,
                    witness=points,
                )
            )
            if stop_at_first:
                break
        else:
            certificates.append(
                FreenessCertificate(
                    element_power,
                    orbit_type,
                    CertificateOutcome.OBSTRUCTED,
                    obstruction=result.obstruction,
                )
            )
    found = any(
        c.outcome is CertificateOutcome.FIXED_POINT for c in certificates
    )
    return FixedPointReport(found, tuple(certificates))


def group_acts_freely(
    auto: TorusAuto,
    n: int,
    stop_at_first: bool = False,
    cache: dict | None = None,
) -> FreenessReport:
    """Decide freeness of the cyclic group generated by the induced map.

    In a cyclic group every nontrivial element powers into an element of
    prime order, and fixed loci only grow under powering, so it suffices to
    test the powers ``auto**(order/p)`` for the primes ``p`` dividing the
    order.  The trivial group acts freely vacuously.  ``stop_at_first``
    abandons the sweep as soon as one power is caught fixing a
    configuration, leaving later powers untested in the report.  A
    ``cache`` dict is handed to :func:`has_fixed_point`; it may be shared
    across calls whose maps have the same linear part, whatever their
    translations.
    """
    _require_descends(auto, n)
    order = auto.order()
    tested: list[PowerTest] = []
    free = True
    for p, _ in factorize(order):
        power = order // p
        report = has_fixed_point(
            auto**power,
            n,
            element_power=power,
            stop_at_first=stop_at_first,
            cache=cache,
        )
        tested.append(PowerTest(power, report))
        if report.found:
            free = False
            if stop_at_first:
                break
    return FreenessReport(free, order, tuple(tested))


def verify_certificate(auto: TorusAuto, n: int, certificate: FreenessCertificate) -> bool:
    """Re-check a certificate against the base automorphism.

    Witnesses are verified by direct orbit expansion (no normal forms);
    obstructions by re-assembling the system and pairing the functional.
    """
    element = auto**certificate.element_power
    lengths = certificate.orbit_type
    if sum(lengths) != n or any(l < 1 for l in lengths):
        return False
    if certificate.outcome is CertificateOutcome.FIXED_POINT:
        if certificate.witness is None or len(certificate.witness) != len(lengths):
            return False
        total = TorusPoint.origin(auto.ring)
        for l, base in zip(lengths, certificate.witness):
            point = base
            for _ in range(l):
                total = total + point
                point = element.apply(point)
            if point != base:
                return False
        return total.is_origin()
    if certificate.obstruction is None:
        return False
    functional, _ = certificate.obstruction
    system, constants = orbit_system(element, lengths)
    return verify_obstruction(system, constants, functional)


def brute_force_fixed_point(auto: TorusAuto, n: int, level: int) -> bool:
    """Search configurations supported on level-``level`` torsion directly.

    Walks every orbit of the map through the level grid, scaled into
    integer vectors mod ``lcm(level, torsion level of the translation)``,
    stepping each point with the unpacked induced matrix and shift and
    keeping the orbit sum as it goes.  Orbits are deduplicated by (orbit
    length, orbit sum) and an unbounded-knapsack reachability runs over
    total lengths up to ``n``.  True iff some multiset of orbits reaches
    total length ``n`` with sum at the origin.  The grid has ``level**4``
    starts, so ``level`` is capped at :data:`GRID_LEVEL_CAP`.  This shares
    no code with the normal-form decision and serves as its oracle.
    """
    _require_descends(auto, n)
    if level < 1 or level > GRID_LEVEL_CAP:
        raise ValueError(f"grid level must lie in 1..{GRID_LEVEL_CAP}")
    modulus = lcm(level, auto.translation.torsion_level())
    (
        (m00, m01, m02, m03),
        (m10, m11, m12, m13),
        (m20, m21, m22, m23),
        (m30, m31, m32, m33),
    ) = auto.linear.induced_matrix().entries
    s0, s1, s2, s3 = auto.translation.vector(modulus)

    seen: set[tuple[int, int, int, int]] = set()
    coins: set[tuple[int, tuple[int, int, int, int]]] = set()
    for start in product(range(0, modulus, modulus // level), repeat=4):
        if start in seen:
            continue
        a, b, c, d = point = start
        t0 = t1 = t2 = t3 = length = 0
        # The map is a bijection, so the walk first meets a seen point at start.
        while point not in seen:
            seen.add(point)
            t0, t1, t2, t3, length = t0 + a, t1 + b, t2 + c, t3 + d, length + 1
            point = a, b, c, d = (
                (m00 * a + m01 * b + m02 * c + m03 * d + s0) % modulus,
                (m10 * a + m11 * b + m12 * c + m13 * d + s1) % modulus,
                (m20 * a + m21 * b + m22 * c + m23 * d + s2) % modulus,
                (m30 * a + m31 * b + m32 * c + m33 * d + s3) % modulus,
            )
        coins.add((length, (t0 % modulus, t1 % modulus, t2 % modulus, t3 % modulus)))

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
