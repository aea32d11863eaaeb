"""Solvability of integer linear systems modulo the integer lattice."""

from __future__ import annotations

import ast
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from pathlib import Path

import pytest

from kummerlab import fixedpoint, lattice, linalg, search
from kummerlab.cli import main
from kummerlab.fixedpoint import group_acts_freely, has_fixed_point
from kummerlab.lattice import (
    ENUMERATION_CAP,
    DimensionMismatchError,
    EnumerationTooLargeError,
    SolvabilityResult,
    solvable_by_enumeration,
    torus_system_solvable,
    translation_box,
    verify_obstruction,
    verify_witness,
)
from kummerlab.linalg import (
    MEMO_SIZE,
    IntMatrix,
    elementary_divisors_via_minors,
    factorize,
    smith_normal_form,
)
from kummerlab.rings import RingElem, RingId, induced_matrix
from kummerlab.search import linear_candidates, run_search
from kummerlab.torus import TorusAuto
from kummerlab.verify import (
    freeness_instances,
    panel_map,
    panel_passed,
    run_panel,
    sampled_solvability_mismatches,
)


def over_modulus(values) -> tuple[tuple[int, ...], int]:
    """``(b, q)`` with ``b / q`` the given rationals, ``q`` their least common denominator."""
    values = [Fraction(v) for v in values]
    q = lcm(1, *(v.denominator for v in values))
    return tuple(v.numerator * (q // v.denominator) for v in values), q


def test_full_rank_system_is_always_solvable() -> None:
    # Constants (1/3, 1/7) over 21.
    system = IntMatrix([[2, 1], [1, 1]])
    result = torus_system_solvable(system, (7, 3), 21)
    assert result
    assert result.obstruction is None
    assert verify_witness(system, (7, 3), 21, result.witness)


def test_singular_system_with_obstruction() -> None:
    # Both rows of the image have equal fractional part, so a constant
    # vector with distinct denominators cannot be hit.
    system = IntMatrix([[1, 1], [1, 1]])
    constants = (1, 0)
    result = torus_system_solvable(system, constants, 2)
    assert not result
    assert result.witness is None
    functional, pairing = result.obstruction
    assert verify_obstruction(system, constants, 2, functional)
    assert pairing % 2 != 0


def test_singular_system_still_solvable_on_diagonal_constants() -> None:
    system = IntMatrix([[1, 1], [1, 1]])
    constants = (1, 1)
    result = torus_system_solvable(system, constants, 2)
    assert result
    assert verify_witness(system, constants, 2, result.witness)


def test_zero_system_detects_integrality_only() -> None:
    system = IntMatrix.zeros(2, 2)
    assert torus_system_solvable(system, (3, -2), 1)
    assert not torus_system_solvable(system, (15, 1), 5)


def test_witness_lives_in_unit_box() -> None:
    rng = random.Random(321)
    for _ in range(30):
        system = IntMatrix(
            [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        )
        constants, q = over_modulus(
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)
        )
        result = torus_system_solvable(system, constants, q)
        if result:
            w, denominator = result.witness
            assert all(0 <= x < denominator for x in w)


def test_agreement_with_enumeration() -> None:
    rng = random.Random(654)
    solvable_seen = 0
    unsolvable_seen = 0
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        system = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        constants, q = over_modulus(
            Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4])) for _ in range(rows)
        )
        fast = bool(torus_system_solvable(system, constants, q))
        slow = solvable_by_enumeration(system, constants, q)
        assert fast == slow
        solvable_seen += fast
        unsolvable_seen += not fast
    assert solvable_seen > 0
    assert unsolvable_seen > 0


def test_translation_classes_match_the_closed_subgroup(translation_classes) -> None:
    # Random 2x2 and 3x3 matrices, singular ones included: two vectors share
    # a key exactly when their difference lies in the subgroup closed from
    # the columns of I - M mod n, and there are prod(moduli) keys.
    rng = random.Random(1357)
    for _ in range(60):
        r = rng.choice((2, 3))
        n = rng.randint(2, 6)
        m = IntMatrix([[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)])
        columns = [
            tuple((int(i == j) - m[i][j]) % n for i in range(r)) for j in range(r)
        ]
        group = {(0,) * r}
        for column in columns:
            frontier = group
            while frontier:
                frontier = {
                    tuple((x + y) % n for x, y in zip(p, column)) for p in frontier
                } - group
                group |= frontier
        key, moduli = translation_classes(m, n)
        assert len(moduli) == r
        vectors = list(itertools.product(range(n), repeat=r))
        keys = {v: key(v) for v in vectors}
        assert len(set(keys.values())) * len(group) == n**r
        assert len(set(keys.values())) == prod(moduli)
        for v in vectors:
            assert (not any(keys[v])) == (v in group)
        w = vectors[rng.randrange(len(vectors))]
        for v in vectors:
            delta = tuple((x - y) % n for x, y in zip(v, w))
            assert (keys[v] == keys[w]) == (delta in group)


def key_scan(key, moduli, n: int, level: int) -> list[tuple[int, ...]]:
    """The reference for the box: the first cell ``w`` of each class, in scan order.

    The scan the search ran before the box: the candidates ``(n / level) w``
    in lexicographic order of ``w``, keyed by the Smith-key reference
    (``translation_classes`` in ``conftest.py``), keeping the first of
    each key, until every reachable class is seen.
    """
    step = n // level
    reachable = prod(g // gcd(g, step) for g in moduli)
    seen: set[tuple[int, ...]] = set()
    cells = []
    for w in itertools.product(range(level), repeat=len(moduli)):
        if len(seen) == reachable:
            break
        k = key(tuple(step * x for x in w))
        if k not in seen:
            seen.add(k)
            cells.append(w)
    return cells


def box_cells(m: IntMatrix, n: int, level: int) -> list[tuple[int, ...]]:
    return list(itertools.product(*map(range, translation_box(m, n, level))))


def test_translation_box_matches_the_key_scan_on_the_catalog(
    translation_classes,
) -> None:
    # Every norm-1 catalog part of the three rings, every n in
    # {2, 3, 4, 6, 8, 12} and every level dividing n: the box lists the
    # classes by the same representatives, in the same order, as the scan.
    # A key is additive, so it is fixed by its values on the vectors
    # x e_j; parts whose keys agree there share one reference scan.
    catalog = [
        linear.induced_matrix()
        for ring in RingId
        for linear in linear_candidates(ring, 1)
    ]
    scans: dict[tuple, list[tuple[int, ...]]] = {}
    levels_seen = 0
    for n in (2, 3, 4, 6, 8, 12):
        levels = [level for level in range(1, n + 1) if n % level == 0]
        levels_seen += len(levels)
        for m in catalog:
            key, moduli = translation_classes(m, n)
            table = tuple(
                key(tuple(x * (i == j) for i in range(4)))
                for j in range(4)
                for x in range(n)
            )
            for level in levels:
                reference = scans.get((n, level, moduli, table))
                if reference is None:
                    reference = key_scan(key, moduli, n, level)
                    scans[n, level, moduli, table] = reference
                assert box_cells(m, n, level) == reference, (m, n, level)
    assert len(catalog) == 760
    assert levels_seen == 21


def test_translation_box_matches_the_key_scan_on_random_matrices(
    translation_classes,
) -> None:
    # Random 2x2 and 3x3 matrices, singular ones and entries beyond the
    # catalog's included, at every level dividing n.
    rng = random.Random(8642)
    for _ in range(150):
        r = rng.choice((2, 3))
        n = rng.randint(2, 9)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(r)] for _ in range(r)])
        key, moduli = translation_classes(m, n)
        for level in (level for level in range(1, n + 1) if n % level == 0):
            assert box_cells(m, n, level) == key_scan(key, moduli, n, level)


@pytest.mark.parametrize("n, level", [(3, 3), (6, 6), (6, 3), (12, 4)])
def test_tampered_box_forms_are_refused(n: int, level: int) -> None:
    # The box checks itself before it is used, with SelfCheckError, not a
    # bare assert, so the checks also run under python -O.  A dropped row,
    # a changed pivot and a wrong witness are each refused.  The map is
    # Eisenstein diag(z, 1), whose box has pivots 1, level and level.
    ring = RingId.EISENSTEIN
    zero = RingElem.zero(ring)
    m = induced_matrix([[RingElem.zeta(ring), zero], [zero, RingElem.one(ring)]])
    one_minus = tuple(
        tuple(int(i == j) - x for j, x in enumerate(row))
        for i, row in enumerate(m.entries)
    )
    step = n // level
    if step == 1:
        # At level n the box is the checked form of L_n itself.
        rows, pivots = lattice._hermite_form(one_minus, n)

        def check(tampered):
            return lattice._check_form(one_minus, n, tampered)

    else:
        rows, coarse = lattice._box_form(one_minus, n, step)
        pivots = lattice._check_box(one_minus, n, step, rows, coarse)

        def check(tampered):
            return lattice._check_box(one_minus, n, step, tampered, coarse)

    assert pivots == translation_box(m, n, level)
    assert sorted(pivots) == [1, gcd(3, level), level, level]

    def refused(tampered) -> bool:
        try:
            check(tampered)
        except linalg.SelfCheckError:
            return True
        return False

    size = len(one_minus)
    for c in range(size):
        assert refused(rows[:c] + rows[c + 1 :]), f"row {c} dropped"
        # A pivot moved by level keeps its witness; the reduction of the
        # generators (level n) or the index (level below n) refuses it.
        for delta in (level, pivots[c], -1):
            tampered = [list(row) for row in rows]
            tampered[c][c] += delta
            assert refused(tampered), f"pivot {c} moved by {delta}"
        for j in range(size):
            if any(line[j] % n for line in one_minus):
                tampered = [list(row) for row in rows]
                tampered[c][size + j] += 1
                assert refused(tampered), f"witness {c} moved along {j}"
    assert not refused(rows)
    # Below level n the index of L + sZ^4 is read from the stacked
    # echelon's top rows, under the checks of a form of L_s: a corrupted
    # row there is refused too.
    if step > 1:
        assert_corrupted_forms_refused(
            one_minus,
            step,
            coarse,
            lambda tampered: lattice._check_box(one_minus, n, step, rows, tampered),
        )
    # The census reads one checked form of L_q per prime power q dividing n.
    for p, e in factorize(n):
        for q in (p**j for j in range(1, e + 1)):
            form, form_pivots = lattice._lattice_form(one_minus, q)
            assert form_pivots == tuple(row[c] for c, row in enumerate(form))
            assert_corrupted_forms_refused(
                one_minus,
                q,
                form,
                lambda tampered, q=q: lattice._check_form(one_minus, q, tampered),
            )


def test_a_modulus_below_one_is_a_bad_argument() -> None:
    # A bad modulus is refused before any form is built, as a ValueError:
    # SelfCheckError would claim that a computed result failed its check.
    m = IntMatrix.identity(4).scale(-1)
    for call in (
        lambda: lattice.cokernel_order(m, 0),
        lambda: lattice.image_contains(m, (0, 0, 0, 0), 0),
        lambda: lattice.translation_box(m, -3, 1),
    ):
        with pytest.raises(ValueError, match="^the modulus must be positive$"):
            call()


def test_a_corrupted_echelon_is_refused_once_the_memo_is_cleared(
    monkeypatch, clear_memos
) -> None:
    # cokernel_order and image_contains read one memoised checked form per
    # (M, q), the row echelon of the generators of L_q.  A form already held
    # is not built again, so a corrupted echelon goes unseen until the memo
    # is cleared; then both readings refuse it, and the refused form is not
    # kept.  One corruption drops the last row, below full rank; the other
    # doubles it with its row of U, so it stays triangular with a witness,
    # and only the generator q e_3, which no longer reduces, shows it.
    ring = RingId.EISENSTEIN
    zero = RingElem.zero(ring)
    m = induced_matrix([[RingElem.zeta(ring), zero], [zero, RingElem.one(ring)]])

    def dropped(u, pivots, echelon):
        return u, pivots[:-1], echelon[:-1]

    def doubled(u, pivots, echelon):
        k = len(pivots) - 1
        u[k] = {j: 2 * x for j, x in u[k].items()}
        echelon[k] = {j: 2 * x for j, x in echelon[k].items()}
        return u, pivots, echelon

    echelon = linalg.row_echelon
    for corrupt, message in (
        (dropped, "^generators of rank 3 in 4 columns$"),
        (doubled, r"^\(0, 0, 0, 3\) is outside the form$"),
    ):
        clear_memos()
        assert lattice.cokernel_order(m, 3) == 27
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "row_echelon", lambda a: corrupt(*echelon(a)))
            assert lattice.cokernel_order(m, 3) == 27
            clear_memos()
            with pytest.raises(linalg.SelfCheckError, match=message):
                lattice.cokernel_order(m, 3)
            with pytest.raises(linalg.SelfCheckError, match=message):
                lattice.image_contains(m, (0, 0, 0, 0), 3)
        assert lattice._lattice_form.cache_info().currsize == 0
        assert lattice.cokernel_order(m, 3) == 27
        assert lattice.image_contains(m, (1, 2, 0, 0), 3)


def assert_corrupted_forms_refused(one_minus, modulus: int, rows, check) -> None:
    """``check`` passes ``rows``, a Hermite form of ``L_q`` with witnesses,
    and raises :class:`SelfCheckError` on each corruption of it: a dropped
    row, a pivot moved by ``q``, by itself or by -1, and a witness moved
    along a column of ``I - M`` that is nonzero mod ``q``."""

    def refused(tampered) -> bool:
        try:
            check(tampered)
        except linalg.SelfCheckError:
            return True
        return False

    size = len(one_minus)
    assert not refused(rows)
    for c in range(size):
        assert refused(rows[:c] + rows[c + 1 :]), f"row {c} dropped mod {modulus}"
        for delta in (modulus, rows[c][c], -1):
            tampered = [list(row) for row in rows]
            tampered[c][c] += delta
            assert refused(tampered), f"pivot {c} moved by {delta} mod {modulus}"
        for j in range(size):
            if any(line[j] % modulus for line in one_minus):
                tampered = [list(row) for row in rows]
                tampered[c][size + j] += 1
                assert refused(tampered), f"witness {c} moved along {j} mod {modulus}"


def refuse_normal_forms(monkeypatch, clear_memos) -> None:
    """Make every row echelon and Smith form the package holds raise, and
    show that it does: a fresh system sent to ``torus_system_solvable``
    now fails."""

    def refuse(*args):
        raise AssertionError("the oracle took a normal form")

    holders = set()
    for name in ("row_echelon", "smith_normal_form"):
        for key, module in sorted(sys.modules.items()):
            if key.split(".")[0] == "kummerlab" and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
                holders.add(key)
    assert "kummerlab.linalg" in holders
    clear_memos()
    with pytest.raises(AssertionError, match="normal form"):
        torus_system_solvable(IntMatrix([[2, 4], [1, 2], [0, 6]]), (2, 1, 0), 3)


def test_split_enumeration_matches_the_unsplit_closure(monkeypatch, clear_memos) -> None:
    # Draws whose closure modulus q = modulus * (largest elementary divisor)
    # has two distinct primes.  The oracle closes the columns mod each prime
    # power of q; the reference closes them mod q in one piece.  Neither
    # takes a Smith form or a row echelon.
    refuse_normal_forms(monkeypatch, clear_memos)
    rng = random.Random(2718)
    outcomes = []
    while len(outcomes) < 40:
        rows = rng.randint(2, 3)
        cols = rng.randint(1, 3)
        system = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        constants, modulus = over_modulus(
            Fraction(rng.randint(-6, 6), rng.choice([2, 3, 4, 6])) for _ in range(rows)
        )
        divisors = [e for e in elementary_divisors_via_minors(system) if e]
        if len(divisors) == rows:
            continue
        scale = divisors[-1] if divisors else 1
        q = modulus * scale
        if len(factorize(q)) < 2:
            continue
        target = tuple(b * scale % q for b in constants)
        group = {(0,) * rows}
        for j in range(cols):
            column = tuple(system[i][j] % q for i in range(rows))
            frontier = group
            while frontier:
                frontier = {
                    tuple((x + y) % q for x, y in zip(p, column)) for p in frontier
                } - group
                group |= frontier
        assert solvable_by_enumeration(system, constants, modulus) == (target in group)
        outcomes.append(target in group)
    assert set(outcomes) == {True, False}


def test_minor_oracles_share_no_code_with_the_normal_form(monkeypatch, clear_memos) -> None:
    # With the Smith form, the determinant and the matrix product all
    # refusing, the minors still give the frozen divisors and the
    # enumeration still decides a system whose closure modulus splits.
    def refuse(*args):
        raise AssertionError("the oracle called code it cross-checks")

    refuse_normal_forms(monkeypatch, clear_memos)
    monkeypatch.setattr(IntMatrix, "det", refuse)
    monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
    frozen = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert elementary_divisors_via_minors(frozen) == [2, 2, 156]
    system = IntMatrix([[2, 4], [1, 2], [0, 6]])
    assert elementary_divisors_via_minors(system) == [1, 6]
    assert solvable_by_enumeration(system, (2, 1, 0), 3) is True
    assert solvable_by_enumeration(system, (1, 1, 0), 3) is False
    assert solvable_by_enumeration(system, (1, 2, 3), 12) is False


def test_enumeration_is_capped() -> None:
    # One free row and a constant of denominator q: the subgroup to build
    # has exactly q elements, so the cap is hit one past it.
    system = IntMatrix([[1], [0]])
    assert ENUMERATION_CAP == 20000
    assert solvable_by_enumeration(system, (0, 1), ENUMERATION_CAP) is False
    assert not torus_system_solvable(system, (0, 1), ENUMERATION_CAP)
    with pytest.raises(EnumerationTooLargeError):
        solvable_by_enumeration(system, (0, 1), ENUMERATION_CAP + 1)
    assert issubclass(EnumerationTooLargeError, ValueError)


def test_constants_matter_only_modulo_integers() -> None:
    rng = random.Random(987)
    for _ in range(20):
        system = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        )
        # Numerators over 3; an integer shift of a constant adds 3 to it.
        constants = [rng.randint(-4, 4) for _ in range(2)]
        shifted = [b + 3 * rng.randint(-2, 2) for b in constants]
        assert bool(torus_system_solvable(system, constants, 3)) == bool(
            torus_system_solvable(system, shifted, 3)
        )


def test_dimension_mismatch_raises() -> None:
    with pytest.raises(DimensionMismatchError):
        torus_system_solvable(IntMatrix([[1, 0], [0, 1]]), (1,), 2)


def test_modulus_must_be_positive() -> None:
    system = IntMatrix([[1], [0]])
    for modulus in (0, -3):
        with pytest.raises(ValueError):
            torus_system_solvable(system, (0, 1), modulus)
        with pytest.raises(ValueError):
            solvable_by_enumeration(system, (0, 1), modulus)


def test_certificate_checkers_reject_nonsense() -> None:
    system = IntMatrix([[1, 1], [1, 1]])
    constants = (1, 0)
    # A witness for an unsolvable system and a functional that does not
    # annihilate the columns should both be rejected.
    assert not verify_witness(system, constants, 2, ((1, 1), 4))
    assert not verify_obstruction(system, constants, 2, (1, 0))
    assert not verify_obstruction(system, (1, 1), 2, (1, -1))


def test_checkers_reject_constants_of_the_wrong_length() -> None:
    # zip would stop at the shorter vector and accept both.
    assert not verify_obstruction(IntMatrix([[1, 1], [1, 1]]), (1,), 2, (1, -1))
    system = IntMatrix([[2, 0], [0, 2]])
    assert verify_witness(system, (1, 1), 2, ((1, 1), 4))
    assert not verify_witness(system, (1, 1, 1), 2, ((1, 1), 4))
    assert not verify_witness(system, (1,), 2, ((1, 1), 4))


def test_checkers_reject_a_modulus_or_denominator_below_one() -> None:
    system = IntMatrix([[2, 0], [0, 2]])
    for bad in (0, -2):
        assert not verify_witness(system, (1, 1), bad, ((1, 1), 4))
        assert not verify_witness(system, (1, 1), 2, ((1, 1), bad))
    assert verify_obstruction(IntMatrix([[1, 1], [1, 1]]), (1, 0), 2, (1, -1))
    for bad in (0, -2):
        assert not verify_obstruction(IntMatrix([[1, 1], [1, 1]]), (1, 0), bad, (1, -1))


def test_checkers_reject_a_witness_of_the_wrong_length() -> None:
    system = IntMatrix([[2, 0], [0, 2]])
    assert not verify_witness(system, (1, 1), 2, ((1, 1, 1), 4))
    assert not verify_witness(system, (1, 1), 2, ((1,), 4))
    # As a functional of the wrong length already was.
    assert not verify_obstruction(system, (1, 0), 2, (1, 0, 0))


def test_checkers_reject_entries_that_are_not_integers() -> None:
    # int() would truncate (1.9, -1.2) to (1, -1), which kills the columns.
    system = IntMatrix([[1, 1], [1, 1]])
    assert verify_obstruction(system, (1, 0), 2, (1, -1))
    assert not verify_obstruction(system, (1, 0), 2, (1.9, -1.2))
    assert not verify_obstruction(system, (1, 0), 2.0, (1, -1))
    assert not verify_obstruction(system, (1, Fraction(1, 2)), 2, (1, -1))
    # 2 * 0.5 / 2 - 1 / 2 is an integer, but 0.5 is no witness entry.
    assert verify_witness(IntMatrix([[2]]), (1,), 2, ((1,), 4))
    assert not verify_witness(IntMatrix([[2]]), (1,), 2, ((0.5,), 2))
    assert not verify_witness(IntMatrix([[2]]), (1,), 2, ((1,), 4.0))
    assert not verify_witness(IntMatrix([[2]]), (1.0,), 2, ((1,), 4))


def test_witness_checker_rejects_a_witness_that_is_not_a_pair() -> None:
    system = IntMatrix([[2, 0], [0, 2]])
    assert verify_witness(system, (1, 1), 2, ((1, 1), 4))
    for bad in (((1, 1),), ((1, 1), 4, 4), (), 4, None, (4, (1, 1))):
        assert not verify_witness(system, (1, 1), 2, bad)
    assert not verify_obstruction(system, (1, 1), 2, None)


def test_solver_refuses_constants_that_are_not_integers() -> None:
    system = IntMatrix([[2, 1], [1, 1]])
    for constants, modulus in (((0.5, 0), 1), ((1, 0), 3.0), ((Fraction(1, 2), 0), 1)):
        with pytest.raises(ValueError, match="integers"):
            torus_system_solvable(system, constants, modulus)


_SELF_CHECK_SCRIPT = """
import contextlib, io, sys
import kummerlab.cli as cli
import kummerlab.lattice as lattice
from kummerlab.linalg import IntMatrix, SelfCheckError

assert not __debug__, "run under python -O"
lattice.verify_witness = lambda *args: False
try:
    lattice.torus_system_solvable(IntMatrix([[2, 1], [1, 1]]), (1, 0), 3)
except SelfCheckError:
    pass
else:
    sys.exit("the witness re-check did not raise")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["freeness", "--ring", "eisenstein", "--h", "[[z,0],[0,1]]",
                     "--a", "(0,0)", "--n", "3"])
sys.exit(0 if code == cli.EXIT_MATH else f"exit code {code}")
"""


def test_self_checks_survive_optimized_mode() -> None:
    # Under ``python -O`` an ``assert`` vanishes; the re-checks must not.
    # A witness rejected by its re-check raises SelfCheckError, and the
    # command line reports it on an error line with exit code 1.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, "-O", "-c", _SELF_CHECK_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def drop_kernel(u, pivots, echelon):
    # Claims full row rank: every system looks solvable.
    return u[: len(pivots)], pivots, echelon


def shift_pivot(u, pivots, echelon):
    # A last pivot one larger than the one U produces.
    row = dict(echelon[-1])
    row[pivots[-1]] += 1
    return u, pivots, [*echelon[:-1], row]


def swap_kernel(u, pivots, echelon):
    # A top row of U posing as a kernel row.
    rank = len(pivots)
    return [*u[:rank], u[0], *u[rank + 1 :]], pivots, echelon


@pytest.mark.parametrize("corrupt", [drop_kernel, shift_pivot, swap_kernel])
def test_a_corrupted_echelon_raises_and_gives_no_verdict(monkeypatch, corrupt) -> None:
    # Each verdict is proved by its witness or obstruction alone, so an
    # echelon that is wrong gives a certificate that fails its re-check.
    # The system is 3x2 of rank 2, with one solvable and one obstructed
    # right-hand side.  A matrix keeps the echelon it computed first, so
    # the corruption reaches only a fresh matrix, and only while it runs.
    def system() -> IntMatrix:
        return IntMatrix([[2, 4], [1, 2], [0, 6]])

    cases = [((2, 1, 3), 3, True), ((1, 1, 0), 3, False)]
    solved = system()
    for constants, modulus, solvable in cases:
        assert torus_system_solvable(solved, constants, modulus).solvable == solvable
    echelon = linalg.row_echelon
    raised = 0
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "row_echelon", lambda a: corrupt(*echelon(a)))
        corrupted = system()
        for constants, modulus, solvable in cases:
            result = torus_system_solvable(solved, constants, modulus)
            assert result.solvable == solvable
            try:
                result = torus_system_solvable(corrupted, constants, modulus)
            except linalg.SelfCheckError:
                raised += 1
            else:
                assert result.solvable == solvable
    assert raised
    # The corrupted echelon stays with its matrix: a fresh one is right.
    for constants, modulus, solvable in cases:
        assert torus_system_solvable(system(), constants, modulus).solvable == solvable


def test_two_solves_of_one_system_take_one_echelon(monkeypatch) -> None:
    # The system keeps the echelon of its first solve, so a second right-
    # hand side reuses it; an equal but distinct matrix computes its own.
    calls: list[IntMatrix] = []
    echelon = linalg.row_echelon

    def counting(a: IntMatrix):
        calls.append(a)
        return echelon(a)

    monkeypatch.setattr(linalg, "row_echelon", counting)
    system = IntMatrix([[2, 4], [1, 2], [0, 6]])
    assert torus_system_solvable(system, (2, 1, 3), 3).solvable
    assert not torus_system_solvable(system, (1, 1, 0), 3).solvable
    assert len(calls) == 1 and calls[0] is system
    assert system.echelon() is system.echelon()
    assert torus_system_solvable(IntMatrix(system.entries), (2, 1, 3), 3).solvable
    assert len(calls) == 2


def test_sampled_oracle_leaves_every_memo_empty(clear_memos, memos) -> None:
    # The oracle's 1,000 draws go to the public decider, which keeps no
    # memo, so from cold memos they leave every memo empty.
    clear_memos()
    assert sampled_solvability_mismatches() == 0
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)


def test_panel_memoises_only_orbit_systems(clear_memos, orbit_echelons) -> None:
    # The solvability oracle's random draws go to the same decider, which
    # keeps no memo, so after a cold panel run the only memo of systems
    # holds orbit systems alone: its entries are the orbit systems whose
    # echelons the run computed, one each, and each entry keeps its
    # echelon, so a later solve computes none.
    clear_memos()
    assert panel_passed(run_panel())
    held = fixedpoint._orbit_matrix.__wrapped__.cache_info().currsize
    assert 0 < held == len(orbit_echelons) == len(set(orbit_echelons)) <= MEMO_SIZE
    computed = len(orbit_echelons)
    for system in orbit_echelons:
        torus_system_solvable(system, (0,) * system.rows, 1)
    assert len(orbit_echelons) == computed


def test_no_module_imports_a_private_name_of_another() -> None:
    # The modules of the package reach each other through public names
    # alone: none has a ``from .module import _name``.
    package = Path(lattice.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {"lattice.py", "verify.py", "fixedpoint.py"} <= {p.name for p in modules}
    private = [
        f"{path.name}: {'.' * node.level}{node.module or ''} {alias.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "kummerlab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def dense_decide(system: IntMatrix, constants, modulus: int) -> SolvabilityResult:
    """The test tree's Smith decider, kept as the reference.

    It reads the dense ``U @ system @ V = D`` of
    :func:`~kummerlab.linalg.smith_normal_form`: the system is solvable
    exactly when ``(U b)_i`` is a multiple of ``q`` on every row ``i``
    beyond the rank, and then ``V y`` with ``y_i = (U b)_i / (q d_i)`` is
    a solution.  It re-checks nothing.
    """
    u, d, v = smith_normal_form(system)
    diagonal = tuple(d[i][i] for i in range(min(d.rows, d.cols)))
    rank = sum(1 for x in diagonal if x != 0)
    ub = u.apply_int(constants)
    for i in range(rank, system.rows):
        if ub[i] % modulus:
            return SolvabilityResult(None, (u[i], ub[i]))
    scale = lcm(1, *diagonal[:rank])
    y = [ub[i] * (scale // diagonal[i]) for i in range(rank)]
    y += [0] * (system.cols - rank)
    denominator = modulus * scale
    witness = (tuple(x % denominator for x in v.apply_int(y)), denominator)
    return SolvabilityResult(witness, None)


def test_sparse_decision_matches_the_dense_route(monkeypatch, capsys) -> None:
    # 300 seeded dense and sparse draws of up to 8x8 with random constants
    # and moduli, then every orbit system of the two free n=12 freeness
    # anchors: the echelon decision gives the Smith decider's verdict, and
    # its witness or obstruction passes its re-check.
    rng = random.Random(3030)
    cases = []
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice([0.3, 0.7, 1.0])
        system = IntMatrix(
            [
                [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        constants = tuple(rng.randint(-20, 20) for _ in range(rows))
        cases.append((system, constants, rng.randint(1, 12)))
    solve = fixedpoint.torus_system_solvable

    def recording(system, constants, level):
        cases.append((system, constants, level))
        return solve(system, constants, level)

    monkeypatch.setattr(fixedpoint, "torus_system_solvable", recording)
    for ring, point in (("eisenstein", "(1/3,1/3)"), ("gaussian", "(1/4,1/4)")):
        argv = ["freeness", "--ring", ring, "--h", "[[z,0],[0,1]]", "--a", point]
        assert main([*argv, "--n", "12"]) == 0
    capsys.readouterr()
    assert len({system for system, _, _ in cases[300:]}) == 12
    outcomes = []
    for system, constants, modulus in cases:
        result = torus_system_solvable(system, constants, modulus)
        assert result.solvable == dense_decide(system, constants, modulus).solvable
        if result:
            assert verify_witness(system, constants, modulus, result.witness)
        else:
            functional, pairing = result.obstruction
            assert verify_obstruction(system, constants, modulus, functional)
            assert pairing == sum(map(mul, functional, constants))
        outcomes.append(result.solvable)
    assert 50 < sum(outcomes[:300]) < 250
    # The anchors are free: each of their orbit systems is obstructed.
    assert not any(outcomes[300:])


def sweep_pairs(n: int, ring: RingId) -> list[tuple[TorusAuto, int]]:
    """Every pair ``(auto, n)`` whose freeness ``run_search(n, ring)`` decides."""
    pairs = []
    decide = search.group_acts_freely

    def recording(auto, n, **kwargs):
        pairs.append((auto, n))
        return decide(auto, n, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "group_acts_freely", recording)
        run_search(n, ring)
    return pairs


def decisions(instances, solve) -> list[tuple[bool, list[bool], list[bool]]]:
    """``free``, each tested power's ``found`` and each type's solvability,
    from :func:`group_acts_freely` on every ``(auto, n)`` with ``solve`` as
    the decider; every orbit type is decided."""
    out = []
    verdicts: list[bool] = []

    def recording(system, constants, modulus):
        result = solve(system, constants, modulus)
        verdicts.append(result.solvable)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixedpoint, "torus_system_solvable", recording)
        for auto, n in instances:
            verdicts.clear()
            report = group_acts_freely(auto, n)
            found = [test.report.found for test in report.tested]
            out.append((report.free, found, list(verdicts)))
    return out


def test_echelon_verdicts_match_the_smith_decider() -> None:
    # Every panel instance, every pair the Eisenstein n=3 and Gaussian n=4
    # sweeps decide, and the order-6 map at n=24: the same ``free``, the
    # same ``found`` for every tested power and the same solvability for
    # every orbit type as the test tree's Smith decider.
    smith = lru_cache(maxsize=None)(dense_decide)
    order6 = panel_map("order6")
    instances = [(auto, n) for _, auto, n in freeness_instances()]
    instances += sweep_pairs(3, RingId.EISENSTEIN) + sweep_pairs(4, RingId.GAUSSIAN)
    instances.append((order6, 24))
    package = decisions(instances, fixedpoint.torus_system_solvable)
    assert package == decisions(instances, smith)
    assert {free for free, _, _ in package} == {True, False}
    assert len(instances) > 300
    report = has_fixed_point(order6, 24)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixedpoint, "torus_system_solvable", smith)
        expected = has_fixed_point(order6, 24)
    assert len(report.certificates) == 125
    assert [c.witness is None for c in report.certificates] == [
        c.witness is None for c in expected.certificates
    ]
