"""Certificate-backed fixed-point decisions on torsion configurations."""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from kummerlab import fixedpoint
from kummerlab.cli import parse_matrix
from kummerlab.fixedpoint import (
    GRID_LEVEL_CAP,
    FixedPointReport,
    FreenessCertificate,
    FreenessReport,
    NotNTorsionError,
    PowerTest,
    brute_force_fixed_point,
    group_acts_freely,
    has_fixed_point,
    orbit_system,
    orbit_types,
    verify_certificate,
)
from kummerlab import lattice
from kummerlab.lattice import (
    SolvabilityResult,
    torus_system_solvable,
)
from kummerlab.linalg import IntMatrix, SelfCheckError, factorize
from kummerlab.rings import RingElem, RingId, induced_matrix
from kummerlab.search import (
    SearchResult,
    linear_candidates,
    run_search,
    torsion_points,
)
from kummerlab.torus import TorusAuto, TorusEndo, TorusPoint, orbit_sum_data, power_sums
from kummerlab.verify import PANEL_MAPS, freeness_instances, panel_map


def diag(d1: RingElem, d2: RingElem) -> TorusEndo:
    zero = RingElem.zero(d1.ring)
    return TorusEndo(induced_matrix([[d1, zero], [zero, d2]]))


def diagonal_auto(d1, d2, coords) -> TorusAuto:
    return TorusAuto(diag(d1, d2), TorusPoint.from_vector(coords))


# ---------------------------------------------------------------------------
# Orbit types


def test_orbit_types_frozen_lists() -> None:
    assert orbit_types(2, 2) == [(2,), (1, 1)]
    assert orbit_types(4, 2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert orbit_types(2, 1) == [(1, 1)]
    with pytest.raises(ValueError):
        orbit_types(0, 2)
    with pytest.raises(ValueError):
        orbit_types(2, 0)


def test_orbit_types_against_partition_oracle() -> None:
    for n in range(1, 7):
        for m in range(1, 9):
            produced = orbit_types(n, m)
            assert produced == sorted(set(produced), reverse=True)
            lengths = [l for l in range(1, m + 1) if m % l == 0]
            oracle = {
                tuple(sorted(combo, reverse=True))
                for count in range(1, n + 1)
                for combo in itertools.combinations_with_replacement(lengths, count)
                if sum(combo) == n
            }
            assert set(produced) == oracle


def test_orbit_types_memo_matches_the_list() -> None:
    # has_fixed_point reads the memo; it holds the same types in the same
    # order, and the public function still returns a fresh list.
    for n in range(1, 13):
        for m in (1, 2, 3, 4, 5, 6, 8, 12, 24):
            listed = orbit_types(n, m)
            assert isinstance(listed, list)
            assert fixedpoint._orbit_types(n, m) == tuple(listed)
            assert orbit_types(n, m) is not listed


def test_sweep_lists_orbit_types_once_per_n_and_order(
    monkeypatch, clear_memos
) -> None:
    # Every pair of the n=3 sweep tests its order-3 map itself, so the 264
    # decided pairs ask for the orbit types of (3, 3) and list them once.
    # At n=4 the tested powers have order 2.
    listed = fixedpoint.orbit_types
    calls: list[tuple[int, int]] = []

    def counting(n: int, m: int) -> list[tuple[int, ...]]:
        calls.append((n, m))
        return listed(n, m)

    monkeypatch.setattr(fixedpoint, "orbit_types", counting)
    for n, ring, expected in (
        (3, RingId.EISENSTEIN, [(3, 3)]),
        (4, RingId.GAUSSIAN, [(4, 2)]),
    ):
        clear_memos()
        calls.clear()
        run_search(n, ring)
        assert calls == expected


def test_orbit_type_counts() -> None:
    # Partitions of 12 into divisors of 3 and of 6, and of 24 into
    # divisors of 24.
    assert len(orbit_types(12, 3)) == 5
    assert len(orbit_types(12, 6)) == 27
    assert len(orbit_types(24, 24)) == 458


# ---------------------------------------------------------------------------
# Decision and certificates


def test_order3_action_is_free() -> None:
    report = group_acts_freely(panel_map("order3"), 3)
    assert report.free
    assert report.order == 3
    # Order three is prime, so exactly one power is tested and every
    # orbit type comes back obstructed and re-checkable.
    assert len(report.tested) == 1
    certificates = report.tested[0].report.certificates
    assert len(certificates) == len(orbit_types(3, 3))
    for cert in certificates:
        assert cert.witness is None
        assert verify_certificate(panel_map("order3"), 3, cert)


def test_shifted_order3_action_has_fixed_configuration() -> None:
    psi = panel_map("order3_shifted")
    report = has_fixed_point(psi, 3)
    assert report.found
    cert = report.first_witness()
    assert cert is not None
    assert verify_certificate(psi, 3, cert)
    points = cert.witness
    # Re-run the orbit expansion here as an independent check.
    total = TorusPoint.origin()
    for length, base in zip(cert.orbit_type, points):
        current = base
        for _ in range(length):
            total = total + current
            current = psi.apply(current)
        assert current == base
    assert total.is_origin()


def test_verdicts_are_read_from_the_evidence() -> None:
    # Results store the evidence only, so no report can contradict it.
    # The order of the map is stored once, in its freeness report.
    verdicts = {"outcome", "found", "free", "solvable", "order"}
    for cls, stored in (
        (FreenessCertificate, set()),
        (FixedPointReport, set()),
        (FreenessReport, {"order"}),
        (SolvabilityResult, set()),
        (SearchResult, set()),
    ):
        assert verdicts & {f.name for f in dataclasses.fields(cls)} == stored, cls
    cert = has_fixed_point(panel_map("order3_shifted"), 3).first_witness()
    report = FixedPointReport((cert,))
    assert report.found
    assert not FreenessReport(3, (PowerTest(1, report),)).free
    assert FreenessReport(1, ()).free


def test_order4_action_is_free_but_halfpoint_is_not() -> None:
    assert group_acts_freely(panel_map("order4"), 4).free
    halfpoint = panel_map("order4_halfpoint")
    report = group_acts_freely(halfpoint, 4)
    assert not report.free
    failing = [t for t in report.tested if t.report.found]
    assert failing
    for test in failing:
        cert = test.report.first_witness()
        assert verify_certificate(halfpoint, 4, cert)


def test_order6_action_catches_involution() -> None:
    psi = panel_map("order6")
    report = group_acts_freely(psi, 6)
    assert not report.free
    assert report.order == 6
    assert {t.power for t in report.tested} == {2, 3}
    cube = has_fixed_point(psi**3, 6, element_power=3)
    assert cube.found
    assert verify_certificate(psi, 6, cube.first_witness())


def test_fixed_loci_grow_under_powering() -> None:
    rng = random.Random(20512)
    ring = RingId.EISENSTEIN
    for _ in range(12):
        coords = tuple(Fraction(rng.randrange(3), 3) for _ in range(4))
        psi = diagonal_auto(
            RingElem.zeta(ring), RingElem.one(ring), coords
        )
        base = has_fixed_point(psi, 3)
        if base.found:
            for t in (2, 3):
                assert has_fixed_point(psi**t, 3).found


def test_stop_at_first_changes_no_verdict() -> None:
    rng = random.Random(30711)
    ring = RingId.GAUSSIAN
    for _ in range(10):
        coords = tuple(Fraction(rng.randrange(4), 4) for _ in range(4))
        psi = diagonal_auto(
            RingElem.zeta(ring), RingElem.one(ring), coords
        )
        full = group_acts_freely(psi, 4)
        quick = group_acts_freely(psi, 4, stop_at_first=True)
        assert full.free == quick.free
        if not full.free:
            # The truncated positive report still carries a verifiable witness.
            caught = [t for t in quick.tested if t.report.found]
            assert verify_certificate(psi, 4, caught[0].report.first_witness())


def test_agreement_with_brute_force_enumeration() -> None:
    rng = random.Random(40813)
    ring = RingId.EISENSTEIN
    seen_found = 0
    seen_free = 0
    for _ in range(8):
        coords = tuple(Fraction(rng.randrange(3), 3) for _ in range(4))
        psi = diagonal_auto(RingElem.zeta(ring), RingElem.one(ring), coords)
        report = has_fixed_point(psi, 3)
        if report.found:
            seen_found += 1
            witness_level = lcm(
                *(p.torsion_level() for p in report.first_witness().witness), 1
            )
            if witness_level <= 6:
                assert brute_force_fixed_point(psi, 3, witness_level)
        else:
            seen_free += 1
            assert not brute_force_fixed_point(psi, 3, 6)
    assert seen_found > 0
    assert seen_free > 0


def naive_grid_fixed_point(auto: TorusAuto, n: int, level: int) -> bool:
    # Reference grid walk: one generic matrix-vector step per point and the
    # orbit sum taken column by column afterwards.
    modulus = lcm(level, auto.translation.torsion_level())
    scale = modulus // level
    matrix = auto.linear.induced_matrix().entries
    shift = auto.translation.vector(modulus)

    def step(v):
        return tuple(
            (sum(matrix[i][j] * v[j] for j in range(4)) + shift[i]) % modulus
            for i in range(4)
        )

    seen = set()
    coins = set()
    for idx in itertools.product(range(level), repeat=4):
        start = tuple(x * scale for x in idx)
        if start in seen:
            continue
        orbit = [start]
        current = step(start)
        while current != start:
            orbit.append(current)
            current = step(current)
        seen.update(orbit)
        coins.add((len(orbit), tuple(sum(col) % modulus for col in zip(*orbit))))
    zero = (0, 0, 0, 0)
    reachable = [set() for _ in range(n + 1)]
    reachable[0].add(zero)
    for length, orbit_sum in sorted(coins):
        for total in range(length, n + 1):
            reachable[total] |= {
                tuple((x + y) % modulus for x, y in zip(elem, orbit_sum))
                for elem in reachable[total - length]
            }
    return zero in reachable[n]


def test_grid_walk_matches_naive_reference() -> None:
    cases = [
        (auto, n, level)
        for _, auto, n in freeness_instances()
        for level in (2, 3, 4, 6)
    ]
    # The Gaussian n=12 anchor at level 6: its translation has level 4, so
    # the grid is walked mod 12 with every start scaled by 2.
    anchor = panel_map("order4")
    cases += [(anchor**power, 12, 6) for power in (1, 2)]
    # Seeded pairs whose translations move every coordinate.
    rng = random.Random(60221)
    for ring, n in ((RingId.EISENSTEIN, 3), (RingId.GAUSSIAN, 4), (RingId.EISENSTEIN, 6)):
        linears = linear_candidates(ring, 1)
        points = torsion_points(n)
        for _ in range(16):
            auto = TorusAuto(rng.choice(linears), rng.choice(points))
            cases.append((auto, n, rng.choice((2, 3, 4, 6))))
    # Level 12 on three panel maps, walked as the parts mod 4 and mod 3.
    panel = {name: (auto, n) for name, auto, n in freeness_instances()}
    for name in ("order3", "order3_shifted", "order6_cube"):
        cases.append((*panel[name], 12))
    # Level 12 with a translation of level 5: the walk runs mod 60, and its
    # part mod 5 has no grid start but 0.
    minus = RingElem(RingId.RATIONAL_INT, -1)
    fifth = diagonal_auto(minus, minus, (Fraction(1, 5), 0, 0, 0))
    cases += [(fifth, 5, 12), (fifth, 10, 12)]
    scaled = 0
    two_primes = 0
    zero_start_parts = 0
    outcomes = set()
    for auto, n, level in cases:
        modulus = lcm(level, auto.translation.torsion_level())
        scaled += modulus != level
        primes = [p for p, _ in factorize(modulus)]
        two_primes += level == 12 and len(primes) >= 2
        zero_start_parts += level == 12 and any(level % p for p in primes)
        expected = naive_grid_fixed_point(auto, n, level)
        assert brute_force_fixed_point(auto, n, level) == expected
        outcomes.add(expected)
    assert scaled >= 10
    assert two_primes == 5
    assert zero_start_parts == 2
    assert outcomes == {True, False}


@pytest.mark.parametrize("diagonal", [(-1, 1), (1, -1)], ids=["diag(-1,1)", "diag(1,-1)"])
def test_integer_reflections_are_free_off_both_factors(diagonal) -> None:
    # Over End(E) = Z, t_a h with h = diag(-1, 1) and a = (a1, a2) in
    # E[2] x E[2] has order 2.  It fixes a configuration of the 2-fibre
    # exactly when a1 = 0 (the swapped pair {(x, y), (a1 - x, y + a2)} sums
    # to (a1, 2y + a2)) or a2 = 0 (points with 2x = a1 are fixed), and
    # every such configuration runs through E[4].  So the level-4 grid is a
    # complete oracle here, and 3 * 3 of the 16 translations are free.
    ring = RingId.RATIONAL_INT
    linear = diag(*(RingElem(ring, d) for d in diagonal))
    free = 0
    for vector in itertools.product(range(2), repeat=4):
        auto = TorusAuto(linear, TorusPoint.from_integers(2, vector))
        decided = group_acts_freely(auto, 2).free
        assert decided == (any(vector[:2]) and any(vector[2:]))
        assert brute_force_fixed_point(auto, 2, 4) == (not decided)
        free += decided
    assert free == 9


def test_grid_level_is_capped() -> None:
    psi = panel_map("order3")
    assert GRID_LEVEL_CAP == 24
    for level in (0, GRID_LEVEL_CAP + 1, 900):
        with pytest.raises(ValueError):
            brute_force_fixed_point(psi, 3, level)


def test_grid_fixed_points_are_found_by_the_decision() -> None:
    # The free representatives of the Eisenstein n=3 sweep, then seeded
    # pairs.  The level-n grid misses configurations through points of
    # higher level, so only the sound direction is asserted: a grid hit
    # must be found by the decision, a grid miss proves nothing.
    pairs = [(r.linear, r.translation, 3) for r in run_search(3, RingId.EISENSTEIN)]
    assert len(pairs) == 64
    rng = random.Random(50917)
    for ring, n in ((RingId.EISENSTEIN, 3), (RingId.GAUSSIAN, 4), (RingId.RATIONAL_INT, 4)):
        linears = linear_candidates(ring, 1)
        points = torsion_points(n)
        pairs += [(rng.choice(linears), rng.choice(points), n) for _ in range(110)]
    grid_hits = 0
    for linear, a, n in pairs:
        auto = TorusAuto(linear, a)
        for test in group_acts_freely(auto, n).tested:
            if brute_force_fixed_point(auto**test.power, n, n):
                grid_hits += 1
                assert has_fixed_point(auto**test.power, n).found
    assert grid_hits > 100


def test_certificate_tampering_is_rejected() -> None:
    psi = panel_map("order3_shifted")
    cert = has_fixed_point(psi, 3).first_witness()
    assert verify_certificate(psi, 3, cert)
    # Shifting the second factor by a half-point moves the orbit sum off
    # the origin (three copies of 1/2), unlike a shift in the rotated
    # factor which the eigenvalue sum would cancel.
    half = TorusPoint.from_vector((0, 0, Fraction(1, 2), 0))
    moved = FreenessCertificate(
        cert.element_power,
        cert.orbit_type,
        witness=(cert.witness[0] + half,) + cert.witness[1:],
    )
    assert not verify_certificate(psi, 3, moved)
    wrong_type = FreenessCertificate(
        cert.element_power, (1,), witness=cert.witness[:1]
    )
    assert not verify_certificate(psi, 3, wrong_type)
    # Lengths must be positive: a negative part would let a longer
    # configuration, here the origin taken four times, pass for length 3.
    linear = TorusAuto(psi.linear, TorusPoint.origin())
    origin = TorusPoint.origin()
    longer = FreenessCertificate(1, (4, -1), witness=(origin, origin))
    assert not verify_certificate(linear, 3, longer)
    # A certificate is its witness or its obstruction: one carrying both,
    # or neither, is rejected.
    missing = FreenessCertificate(cert.element_power, cert.orbit_type)
    assert not verify_certificate(psi, 3, missing)
    obstruction = group_acts_freely(panel_map("order3"), 3).tested[0].report.certificates[0]
    both = FreenessCertificate(
        cert.element_power,
        cert.orbit_type,
        witness=cert.witness,
        obstruction=obstruction.obstruction,
    )
    assert not verify_certificate(psi, 3, both)


def test_obstruction_tampering_is_rejected() -> None:
    psi = panel_map("order3")
    report = group_acts_freely(psi, 3)
    cert = report.tested[0].report.certificates[0]
    assert cert.witness is None
    zeroed = FreenessCertificate(
        cert.element_power,
        cert.orbit_type,
        obstruction=(tuple(0 for _ in cert.obstruction[0]), *cert.obstruction[1:]),
    )
    assert not verify_certificate(psi, 3, zeroed)
    missing = FreenessCertificate(cert.element_power, cert.orbit_type)
    assert not verify_certificate(psi, 3, missing)
    witness = has_fixed_point(panel_map("order3_shifted"), 3).first_witness()
    both = FreenessCertificate(
        cert.element_power,
        cert.orbit_type,
        witness=witness.witness[:1],
        obstruction=cert.obstruction,
    )
    assert not verify_certificate(psi, 3, both)


MALFORMED_CERTIFICATES = {
    "obstruction_pair": lambda cert: {"obstruction": cert.obstruction[:2]},
    "power_float": lambda cert: {"element_power": 1.0},
    "power_text": lambda cert: {"element_power": "1"},
    "orbit_type_floats": lambda cert: {"orbit_type": (1.5, 1.5)},
    "orbit_type_text": lambda cert: {"orbit_type": "3"},
    "witness_tuples": lambda cert: {
        "obstruction": None, "witness": ((0, 0, 0, 0),) * len(cert.orbit_type)
    },
    "witness_none": lambda cert: {
        "obstruction": None, "witness": (None,) * len(cert.orbit_type)
    },
}


@pytest.mark.parametrize("case", MALFORMED_CERTIFICATES)
def test_malformed_certificates_are_rejected_not_raised_on(case: str) -> None:
    # Each alteration of the free order-3 map's first obstruction once
    # raised ValueError or TypeError from inside the re-check.
    psi = panel_map("order3")
    cert = group_acts_freely(psi, 3).tested[0].report.certificates[0]
    assert verify_certificate(psi, 3, cert)
    altered = dataclasses.replace(cert, **MALFORMED_CERTIFICATES[case](cert))
    assert verify_certificate(psi, 3, altered) is False


def test_identity_powers_are_rejected() -> None:
    # Power 0, or a multiple of the order, is the identity, which fixes
    # every configuration: the origin taken three times would "witness" a
    # fixed point of the free order-3 map.
    psi = panel_map("order3")
    origin = TorusPoint.origin()
    for power in (0, 3, 6, -1):
        forged = FreenessCertificate(power, (1, 1, 1), witness=(origin,) * 3)
        assert not verify_certificate(psi, 3, forged), power
    assert group_acts_freely(psi, 3).free


def test_obstructions_are_checked_whole() -> None:
    # The stored pairing must be f . b and the modulus the tested level:
    # a raised pairing, a doubled modulus, and (f, 0, 1), an integral
    # pairing that obstructs nothing, are all rejected.
    psi = panel_map("order3")
    cert = group_acts_freely(psi, 12).tested[0].report.certificates[0]
    functional, pairing, modulus = cert.obstruction
    assert verify_certificate(psi, 12, cert)
    for tampered in (
        (functional, pairing + 1, modulus),
        (functional, pairing, 2 * modulus),
        (functional, 0, 1),
    ):
        forged = dataclasses.replace(cert, obstruction=tampered)
        assert not verify_certificate(psi, 12, forged), tampered


def test_obstruction_pairings_are_integers_over_the_tested_level() -> None:
    # (z, 1) with (1/3, 1/6) has order 6 and translation level 6; its cube
    # and square shift by (0, 1/2) and ((1+z)/3, 1/3), of levels 2 and 3.
    ring = RingId.EISENSTEIN
    auto = diagonal_auto(
        RingElem.zeta(ring), RingElem.one(ring), (Fraction(1, 3), 0, Fraction(1, 6), 0)
    )
    report = group_acts_freely(auto, 6)
    moduli = []
    for test in report.tested:
        element = auto**test.power
        for cert in test.report.certificates:
            if cert.obstruction is None:
                continue
            functional, pairing, modulus = cert.obstruction
            assert all(type(v) is int for v in (*functional, pairing, modulus))
            assert modulus == element.translation.torsion_level()
            assert pairing % modulus != 0
            assert verify_certificate(auto, 6, cert)
            moduli.append(modulus)
    assert sorted(set(moduli)) == [2, 3]


def test_decision_aggregates_per_type_solvability() -> None:
    # Dual route: the top-level verdict must equal the disjunction of the
    # raw solvability answers over all orbit types.
    for psi in (panel_map("order3"), panel_map("order3_shifted")):
        verdicts = []
        for orbit_type in orbit_types(3, psi.order()):
            system, constants, level = orbit_system(psi, orbit_type)
            assert system.rows == len(constants)
            verdicts.append(bool(torus_system_solvable(system, constants, level)))
        assert has_fixed_point(psi, 3).found == any(verdicts)


def test_translation_must_be_fibre_torsion() -> None:
    ring = RingId.EISENSTEIN
    psi = diagonal_auto(
        RingElem.zeta(ring), RingElem.one(ring), (Fraction(1, 5), 0, 0, 0)
    )
    with pytest.raises(NotNTorsionError):
        has_fixed_point(psi, 3)
    with pytest.raises(NotNTorsionError):
        group_acts_freely(psi, 3)
    with pytest.raises(ValueError):
        has_fixed_point(panel_map("order3"), 1)


def test_shared_linear_cache_changes_no_report(clear_memos) -> None:
    # Orbit systems and their normal forms depend on the linear part only,
    # so the memos serve every translation class of that linear part: a
    # report on warm memos equals the one computed after clearing them.
    ring = RingId.EISENSTEIN
    linear = diag(RingElem.zeta(ring), RingElem.one(ring))
    decided = served = 0
    for a in torsion_points(3):
        auto = TorusAuto(linear, a)
        for stop_at_first in (True, False):
            hits = lattice._echelon_form.cache_info().hits
            reused = group_acts_freely(auto, 3, stop_at_first=stop_at_first)
            served += lattice._echelon_form.cache_info().hits > hits
            clear_memos()
            fresh = group_acts_freely(auto, 3, stop_at_first=stop_at_first)
            assert reused == fresh
        decided += 1
    assert decided == 81
    assert served, "the memos hold the normal forms across translations"


def test_orbit_system_matches_point_level_definitions() -> None:
    # Dual route: blocks and constants rebuilt from iterates and orbit sums
    # of the map itself.  The constants are pinned as representatives, not
    # only mod 1, because obstruction pairings print them.
    for psi in (panel_map("order3"), panel_map("order3_shifted"), panel_map("order4")):
        m = psi.linear.induced_matrix()
        for n in (3, 4):
            for orbit_type in orbit_types(n, psi.order()):
                system, constants, level = orbit_system(psi, orbit_type)
                k = len(orbit_type)
                expected: list[Fraction] = []
                total = [Fraction(0)] * 4
                for i, l in enumerate(orbit_type):
                    closure = m**l - IntMatrix.identity(4)
                    summed, constant = orbit_sum_data(psi, l)
                    for r in range(4):
                        assert system[4 * i + r][4 * i : 4 * i + 4] == closure[r]
                        row = system[4 * k + r][4 * i : 4 * i + 4]
                        assert row == summed.induced_matrix()[r]
                    expected.extend(-v for v in (psi**l).translation.coords())
                    for j, v in enumerate(constant.coords()):
                        total[j] += v
                expected.extend(-v for v in total)
                assert tuple(Fraction(b, level) for b in constants) == tuple(expected)


def dense_orbit_matrix(m: IntMatrix, orbit_type: tuple[int, ...]) -> IntMatrix:
    """The dense block assembly of an orbit system's ``T``, kept as the
    reference: ``M^l - I`` on the block diagonal, the ``P_l`` in the last
    block row, zero blocks elsewhere, each block row written out row by
    row."""
    identity, zero = IntMatrix.identity(4), IntMatrix.zeros(4, 4)
    parts = [power_sums(m, l) for l in orbit_type]
    grid = [
        [power - identity if j == i else zero for j in range(len(parts))]
        for i, (power, _, _) in enumerate(parts)
    ]
    grid.append([partial for _, partial, _ in parts])
    return IntMatrix(
        [[x for block in blocks for x in block[r]] for blocks in grid for r in range(4)]
    )


# The linear parts of the freeness benchmark's seeded cells, by ring.
FREENESS_CELL_MATRICES = {
    "eisenstein": (
        "[[1+z,0],[1+z,-z]]",
        "[[-z,0],[0,z]]",
        "[[0,1],[-1-z,0]]",
        "[[1+z,1+z],[0,-z]]",
        "[[z,0],[-1,-1-z]]",
        "[[z,-1],[0,-1-z]]",
        "[[-1-z,0],[0,z]]",
    ),
    "gaussian": (
        "[[0,-z],[z,-z]]",
        "[[z,z],[-z,0]]",
        "[[0,-1],[-1,-z]]",
        "[[0,1],[1,-z]]",
    ),
}


def test_orbit_matrices_from_nonzeros_match_the_dense_assembly(clear_memos) -> None:
    # Every orbit type at n <= 12 of the panel's maps, of the freeness
    # benchmark's cell maps and of the powers that freeness tests: the
    # matrix built from nonzeros is the dense assembly, and its nonzero
    # rows are a fresh scan of its rows, keys ascending, with no stored
    # zero.
    autos = [panel_map(name) for name in PANEL_MAPS]
    for ring, texts in FREENESS_CELL_MATRICES.items():
        linears = [parse_matrix(text, RingId.from_token(ring)) for text in texts]
        autos += [TorusAuto(linear, TorusPoint.origin()) for linear in linears]
    clear_memos()
    seen = set()
    for auto in autos:
        order = auto.order()
        for power in [1] + [order // p for p, _ in factorize(order)]:
            element = auto**power
            m = element.linear.induced_matrix()
            for n in range(2, 13):
                for orbit_type in orbit_types(n, element.order()):
                    if (m, orbit_type) in seen:
                        continue
                    seen.add((m, orbit_type))
                    system, _, _ = orbit_system(element, orbit_type)
                    assert system == dense_orbit_matrix(m, orbit_type)
                    rows = system.nonzero_rows()
                    assert [dict(row) for row in rows] == [
                        {j: x for j, x in enumerate(row) if x} for row in system.entries
                    ]
                    assert all(list(row) == sorted(row) for row in rows)
                    assert all(all(row.values()) for row in rows)
    assert len(seen) == 1934


@pytest.mark.parametrize("ring, n", [(RingId.EISENSTEIN, 3), (RingId.GAUSSIAN, 4)])
def test_catalog_cache_changes_no_report_or_system(
    ring: RingId, n: int, clear_memos, translation_classes
) -> None:
    # Every linear part of the norm-1 catalog with one translation per
    # class: the memos, warm from the pair before, give the reports and
    # orbit systems computed after clearing them.
    points = torsion_points(n)
    pairs = 0
    for linear in linear_candidates(ring, 1):
        key, _ = translation_classes(linear.induced_matrix(), n)
        seen = set()
        for a in points:
            k = key(a.vector(n))
            if k in seen:
                continue
            seen.add(k)
            auto = TorusAuto(linear, a)
            report = group_acts_freely(auto, n, stop_at_first=True)
            requests = []
            for test in report.tested:
                power = auto**test.power
                requests += [(power, t) for t in orbit_types(n, power.order())]
            systems = [orbit_system(*request) for request in requests]
            clear_memos()
            assert systems == [orbit_system(*request) for request in requests]
            clear_memos()
            assert report == group_acts_freely(auto, n, stop_at_first=True)
            pairs += 1
    assert pairs == {RingId.EISENSTEIN: 2664, RingId.GAUSSIAN: 1792}[ring]


# A decider that never finds a fixed point calls every group free; the
# symplectic screen must catch each clause it breaks.
def never_fixed(*args, **kwargs) -> FixedPointReport:
    return FixedPointReport(())


@pytest.mark.parametrize(
    "d2_power, n",
    [(0, 4), (2, 3)],
    ids=["order-does-not-divide-n", "multiplier-order-below-order"],
)
def test_free_verdict_failing_the_screen_is_a_self_check_error(
    monkeypatch, d2_power: int, n: int
) -> None:
    # diag(z, 1) at n=4: d = 3 does not divide n.  diag(z, z^2) at n=3:
    # det h = 1, so ord(omega) = 1 != 3.
    ring = RingId.EISENSTEIN
    zeta = RingElem.zeta(ring)
    auto = diagonal_auto(zeta, zeta**d2_power, (0, 0, 0, 0))
    monkeypatch.setattr(fixedpoint, "has_fixed_point", never_fixed)
    with pytest.raises(SelfCheckError, match="fails the screen"):
        group_acts_freely(auto, n)


_NEVER_FIXED_SCRIPT = """
import sys
import kummerlab.fixedpoint as fixedpoint
from kummerlab.cli import main

fixedpoint.has_fixed_point = lambda *args, **kwargs: fixedpoint.FixedPointReport(())
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_freeness_reports_a_failed_screen_as_exit_one(flags) -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    argv = ["freeness", "--ring", "eisenstein", "--h", "[[z,0],[0,1]]",
            "--a", "(0,0)", "--n", "4"]
    done = subprocess.run(
        [sys.executable, *flags, "-c", _NEVER_FIXED_SCRIPT, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
