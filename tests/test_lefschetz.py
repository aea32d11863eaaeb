"""Fixed-point counts on the torus and the associated quotient varieties."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kummerlab.lefschetz as lefschetz
from kummerlab.lefschetz import (
    CharacterCounts,
    DegenerateActionError,
    companion_matrix,
    det_one_minus_power,
    invariant_character_counts,
    kummer_series,
    lefschetz_kummer,
    absorbs_translation,
    lefschetz_torus,
    supertrace_sym_series,
)
from kummerlab.linalg import IntMatrix, SelfCheckError, matrix_order
from kummerlab.series import TruncatedSeries
from kummerlab.verify import supertrace_by_expansion

NEGATIVE_IDENTITY = IntMatrix.identity(4).scale(-1)

# Multiplication by a primitive cube root of unity on both factors,
# written on the rank-four integer homology basis.
ROTATION_ORDER_3 = IntMatrix(
    [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, -1, 0], [0, 1, 0, -1]]
)


def series_ints(series: TruncatedSeries) -> list[int]:
    return [int(c) for c in series.coefficients]


def test_companion_matrix_orders() -> None:
    # Tails of the cyclotomic polynomials of orders 5, 8, 10, and 12.
    cases = {
        (1, 1, 1, 1): 5,
        (1, 0, 0, 0): 8,
        (1, -1, 1, -1): 10,
        (1, 0, -1, 0): 12,
    }
    for tail, order in cases.items():
        assert matrix_order(companion_matrix(tail)) == order
    assert matrix_order(IntMatrix.identity(4)) == 1
    assert matrix_order(NEGATIVE_IDENTITY) == 2


def test_infinite_order_is_rejected() -> None:
    # Infinite order, a singular matrix with m^12 == m^2, a non-square
    # matrix and one larger than the 4x4 the order rule covers.
    for bad in (
        IntMatrix([[1, 1], [0, 1]]),
        IntMatrix([[2, 0], [0, 1]]),
        IntMatrix.zeros(2, 2),
        IntMatrix([[1, 0, 0]]),
        IntMatrix.identity(5),
    ):
        with pytest.raises(ValueError):
            matrix_order(bad)


def test_det_one_minus_power_order_five() -> None:
    m = companion_matrix((1, 1, 1, 1))
    for s in (1, 2, 3, 4, 6, 7):
        assert det_one_minus_power(m, s) == 5
    for s in (5, 10):
        assert det_one_minus_power(m, s) == 0


def test_series_builds_each_power_once(monkeypatch) -> None:
    # The order ladder takes five products to m^24 and sees m^12 == m^2,
    # one more confirms m^5 == I; then one running product per exponent.
    m = companion_matrix((1, 1, 1, 1))
    products = 0
    matmul = IntMatrix.__matmul__

    def counting(self, other):
        nonlocal products
        products += 1
        return matmul(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting)
    kummer_series(m, 24)
    assert products == 6 + 24


def test_torus_count_is_first_determinant() -> None:
    m = companion_matrix((1, 1, 1, 1))
    assert lefschetz_torus(m) == 5
    assert lefschetz_torus(ROTATION_ORDER_3) == 9
    assert lefschetz_torus(IntMatrix.identity(4)) == 0


def test_series_shape_and_frozen_values() -> None:
    s = kummer_series(NEGATIVE_IDENTITY, 2)
    assert len(s.coefficients) == 3
    assert series_ints(s) == [1, 16, 144]
    assert series_ints(kummer_series(ROTATION_ORDER_3, 3)) == [1, 9, 54, 252]
    with pytest.raises(ValueError):
        kummer_series(NEGATIVE_IDENTITY, -1)


def test_involution_count_matches_k3_euler_number() -> None:
    assert lefschetz_kummer(NEGATIVE_IDENTITY, 2) == 24


def test_rotation_count_frozen() -> None:
    assert lefschetz_kummer(ROTATION_ORDER_3, 3) == 36


def test_character_counts_frozen() -> None:
    assert invariant_character_counts(NEGATIVE_IDENTITY, 2).as_dict() == {1: 1, 2: 15}
    assert invariant_character_counts(ROTATION_ORDER_3, 3).as_dict() == {1: 1, 3: 8}


def enumerate_character_orders(m: IntMatrix, n: int) -> dict[int, int]:
    """Independent oracle: scan every character of the level-``n`` kernel.

    A character is a vector over ``Z/n``; it counts when the transposed
    action fixes it, keyed by its exact additive order.
    """
    from math import gcd

    counts: dict[int, int] = {d: 0 for d in range(1, n + 1) if n % d == 0}
    for vec in itertools.product(range(n), repeat=4):
        image = tuple(
            sum(m[i][j] * vec[i] for i in range(4)) % n for j in range(4)
        )
        if image != vec:
            continue
        order = n // gcd(n, *vec) if any(vec) else 1
        counts[order] += 1
    return counts


@pytest.mark.parametrize(
    "matrix, n",
    [
        (NEGATIVE_IDENTITY, 2),
        (NEGATIVE_IDENTITY, 3),
        (ROTATION_ORDER_3, 3),
        (companion_matrix((1, 1, 1, 1)), 5),
        (IntMatrix.identity(4), 4),
    ],
)
def test_character_counts_against_enumeration(matrix: IntMatrix, n: int) -> None:
    counts = invariant_character_counts(matrix, n)
    oracle = enumerate_character_orders(matrix, n)
    assert counts.as_dict() == oracle
    assert counts.total() == sum(oracle.values())
    assert counts[1] == 1


def test_character_counts_container() -> None:
    counts = invariant_character_counts(NEGATIVE_IDENTITY, 2)
    assert isinstance(counts, CharacterCounts)
    assert counts.modulus == 2
    assert counts[1] == 1
    assert counts[2] == 15
    assert counts.total() == 16


def test_quotient_count_equals_weighted_series_sum() -> None:
    # Dual route: recompute the weighted combination by hand from the
    # series and the character counts.
    for matrix, n in [(NEGATIVE_IDENTITY, 2), (ROTATION_ORDER_3, 3)]:
        series = kummer_series(matrix, n)
        counts = invariant_character_counts(matrix, n)
        torus_count = lefschetz_torus(matrix)
        weighted = sum(
            mult * int(series[n // divisor]) for divisor, mult in counts.counts
        )
        assert weighted % torus_count == 0
        assert lefschetz_kummer(matrix, n) == weighted // torus_count


def test_degenerate_action_raises() -> None:
    with pytest.raises(DegenerateActionError):
        lefschetz_kummer(IntMatrix.identity(4), 2)
    # An eigenvalue one on a single factor also kills the torus count.
    half_trivial = IntMatrix.block(
        [
            [IntMatrix.identity(2), IntMatrix.zeros(2, 2)],
            [IntMatrix.zeros(2, 2), IntMatrix.identity(2).scale(-1)],
        ]
    )
    with pytest.raises(DegenerateActionError):
        lefschetz_kummer(half_trivial, 2)


def test_order_five_diagonal_value() -> None:
    assert lefschetz_kummer(companion_matrix((1, 1, 1, 1)), 5) == 105


def test_quotient_count_order_five() -> None:
    # With n coprime to the order only the trivial character survives,
    # so the count reduces to the top series coefficient over the torus
    # count: 20 / 5.
    order_five = companion_matrix((1, 1, 1, 1))
    assert series_ints(kummer_series(order_five, 2)) == [1, 5, 20]
    assert invariant_character_counts(order_five, 2).as_dict() == {1: 1, 2: 0}
    assert lefschetz_kummer(order_five, 2) == 4


def test_supertrace_series_closed_forms() -> None:
    # Pure even part with trace 2 gives the symmetric-power generating
    # function 1/((1-t)^2); a matching odd part cancels it to 1.
    even = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    result = supertrace_sym_series(even, None, 5)
    expected = TruncatedSeries([1, -1], truncation=5).inverse() ** 2
    assert result == expected
    cancelled = supertrace_sym_series(even, even, 5)
    assert cancelled == TruncatedSeries.one(5)


def test_supertrace_matches_direct_symmetric_powers() -> None:
    rng = random.Random(4321)
    for _ in range(10):
        diag = [Fraction(rng.randint(-2, 2)) for _ in range(2)]
        even = [[diag[0], Fraction(0)], [Fraction(0), diag[1]]]
        result = supertrace_sym_series(even, None, 4)
        # For a diagonal action the symmetric-power trace has the product
        # closed form 1/((1-a t)(1-b t)) whenever both factors invert.
        direct = [
            sum(
                diag[0] ** i * diag[1] ** (k - i) for i in range(k + 1)
            )
            for k in range(5)
        ]
        assert list(result.coefficients) == direct


def test_supertrace_expansion_is_integral_and_matches_series() -> None:
    # The expansion oracle works on plain integers: every coefficient is an
    # int, equal to the series built from power traces and exp.
    assert supertrace_by_expansion([[2]], [], 6) == [1, 2, 4, 8, 16, 32, 64]
    assert supertrace_by_expansion([], [[3]], 6) == [1, -3, 0, 0, 0, 0, 0]
    pinned = [
        ([[0, -1], [1, -1]], [[2, 1], [1, 1]]),
        ([[-2, 1], [1, 2]], [[1, 2], [3, 4]]),
        ([[1, 2, 0], [0, -1, 1], [2, 0, 1]], [[0, 1], [-1, 0]]),
        ([[1, -1], [2, 0]], [[2, 0, 1], [1, -1, 0], [0, 1, 1]]),
    ]
    for even, odd in pinned:
        expansion = supertrace_by_expansion(even, odd, 6)
        assert all(type(c) is int for c in expansion)
        series = supertrace_sym_series(even, odd, 6)
        assert expansion == list(series.coefficients)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_absorbed_translations_match_the_image_of_i_minus_m(n: int) -> None:
    # The Smith-form test against the set (I - M)(Z/n)^4 built pointwise.
    matrices = [NEGATIVE_IDENTITY, ROTATION_ORDER_3, companion_matrix((1, 1, 1, 1)),
                companion_matrix((1, 0, -1, 0)), companion_matrix((1, 0, 0, 0))]
    for m in matrices:
        shift = IntMatrix.identity(4) - m
        image = {
            tuple(x % n for x in shift.apply_int(w))
            for w in itertools.product(range(n), repeat=4)
        }
        for v in itertools.product(range(n), repeat=4):
            assert absorbs_translation(m, v, n) == (v in image)


def test_character_count_self_check_rejects_broken_inversion(monkeypatch) -> None:
    # A Moebius function of constant 1 turns exact-order counts into
    # cumulative ones, so they no longer sum to the invariant total.
    monkeypatch.setattr(lefschetz, "_mobius", lambda n: 1)
    with pytest.raises(SelfCheckError):
        invariant_character_counts(ROTATION_ORDER_3, 3)


_SERIES_CHECK_SCRIPT = """
import contextlib, io, sys
from fractions import Fraction
import kummerlab.cli as cli
from kummerlab.lefschetz import kummer_series
from kummerlab.linalg import IntMatrix, SelfCheckError
from kummerlab.series import TruncatedSeries

exp = TruncatedSeries.exp
matrix = IntMatrix.identity(4).scale(-1)
corruptions = {
    "non-integral": lambda s: TruncatedSeries([c + Fraction(1, 2) for c in s.coefficients]),
    "negative": lambda s: TruncatedSeries([-c for c in s.coefficients]),
}
for name, corrupt in corruptions.items():
    TruncatedSeries.exp = lambda self, corrupt=corrupt: corrupt(exp(self))
    try:
        kummer_series(matrix, 4)
    except SelfCheckError:
        pass
    else:
        sys.exit(f"a {name} series went unnoticed")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["lefschetz", "--ring", "eisenstein", "--h", "[[z,0],[0,1]]",
                     "--a", "(0,0)", "--n", "3"])
sys.exit(0 if code == cli.EXIT_MATH else f"exit code {code}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_series_self_checks_survive_optimized_mode(flags) -> None:
    # A non-integral or negative series from ``exp`` raises SelfCheckError
    # in kummer_series, and ``lefschetz`` exits 1 on an error line with no
    # traceback, also when ``python -O`` strips the asserts.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, *flags, "-c", _SERIES_CHECK_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
