"""Fixed-point counts on the torus and the associated quotient varieties."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

import kummerlab.lefschetz as lefschetz
import kummerlab.verify as verify
from kummerlab.lefschetz import (
    DegenerateActionError,
    companion_matrix,
    det_one_minus_power,
    invariant_character_counts,
    kummer_series,
    lefschetz_from_census,
    lefschetz_kummer,
    lefschetz_torus,
    supertrace_sym_series,
)
from kummerlab.lattice import cokernel_order, image_contains
from kummerlab.linalg import (
    IntMatrix,
    SelfCheckError,
    elementary_divisors_via_minors,
    matrix_order,
)
from kummerlab.rings import RingId
from kummerlab.search import linear_candidates
from kummerlab.series import TruncatedSeries
from kummerlab.verify import closed_form_order5, order5_matrix, supertrace_by_expansion

NEGATIVE_IDENTITY = IntMatrix.identity(4).scale(-1)

# Multiplication by a primitive cube root of unity on both factors,
# written on the rank-four integer homology basis.
ROTATION_ORDER_3 = IntMatrix(
    [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, -1, 0], [0, 1, 0, -1]]
)


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


def test_companion_matrix_rejects_non_integer_coefficients() -> None:
    assert companion_matrix((Fraction(1), 1, 1.0, 1)) == companion_matrix((1, 1, 1, 1))
    for bad in ((Fraction(1, 2), 1, 1, 1), (1, 1, 2.7, 1)):
        with pytest.raises(ValueError, match="integers"):
            companion_matrix(bad)


def test_infinite_order_is_rejected() -> None:
    # Infinite order, a singular matrix whose chi = x^2 is not cyclotomic,
    # a non-square matrix and one larger than the 4x4 the order rule covers.
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
    # matrix_order reads chi = Phi_5 from S = m @ m (one product), then
    # confirms m^5 = S**2 @ m (two more).  M^s depends only on s mod 5, so
    # det_one_minus_power builds m^1..m^5 by binary powers (0, 1, 2, 2 and
    # 3 products) and no truncation builds more.
    m = companion_matrix((1, 1, 1, 1))
    products = 0
    matmul = IntMatrix.__matmul__

    def counting(self, other):
        nonlocal products
        products += 1
        return matmul(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting)
    for truncation in (24, 360):
        products = 0
        kummer_series(m, truncation)
        assert products == 3 + 8, truncation


def test_torus_count_is_first_determinant() -> None:
    m = companion_matrix((1, 1, 1, 1))
    assert lefschetz_torus(m) == 5
    assert lefschetz_torus(ROTATION_ORDER_3) == 9
    assert lefschetz_torus(IntMatrix.identity(4)) == 0


def test_series_shape_and_frozen_values() -> None:
    s = kummer_series(NEGATIVE_IDENTITY, 2)
    assert len(s.coefficients) == 3
    assert s.coefficients == (1, 16, 144)
    assert kummer_series(ROTATION_ORDER_3, 3).coefficients == (1, 9, 54, 252)
    with pytest.raises(ValueError):
        kummer_series(NEGATIVE_IDENTITY, -1)


def test_series_matches_the_order_five_product_form() -> None:
    # Newton's exponential of the determinant sequence against the running
    # sums of prod (1 - t^(5 nu)) / (1 - t^nu)^5: two integer routes.
    m = order5_matrix()
    for n in range(121):
        assert list(kummer_series(m, n).coefficients) == closed_form_order5(n)


def test_involution_count_matches_k3_euler_number() -> None:
    assert lefschetz_kummer(NEGATIVE_IDENTITY, 2) == 24


# Values taken from the literature, not computed here first; the
# Lefschetz number of an involution is the Euler number of its fixed locus.
# - n = 2: -1 acts trivially on the Kummer K3 surface K_1(A), so L = e(K3)
#   = 24 (Barth, Hulek, Peters and Van de Ven, Compact Complex Surfaces,
#   on Kummer surfaces).
# - n = 3: the fixed locus of -1 on the generalized Kummer fourfold K_2(A)
#   is a K3 surface and 36 isolated points, so L = 24 + 36 = 60
#   (B. Hassett and Y. Tschinkel, "Hodge theory and Lagrangian planes on
#   generalized Kummer fourfolds", Moscow Math. J. 13, 2013; L. Kamenova,
#   G. Mongardi and A. Oblomkov, "Symplectic involutions of K3^[n] type
#   and Kummer n type manifolds").
@pytest.mark.parametrize("n, expected", [(2, 24), (3, 60)])
def test_negative_identity_matches_the_literature(n: int, expected: int) -> None:
    assert lefschetz_kummer(NEGATIVE_IDENTITY, n) == expected


def test_rotation_count_frozen() -> None:
    assert lefschetz_kummer(ROTATION_ORDER_3, 3) == 36


def test_character_counts_frozen() -> None:
    assert invariant_character_counts(NEGATIVE_IDENTITY, 2) == {1: 1, 2: 15}
    assert invariant_character_counts(ROTATION_ORDER_3, 3) == {1: 1, 3: 8}


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
    assert counts == oracle
    assert counts[1] == 1


# The census's moduli: n = 1 to 12, 24, 60 and 360.
CENSUS_MODULI = (*range(1, 13), 24, 60, 360)


def census_matrices() -> list[IntMatrix]:
    """The integrality catalog and the norm-1 catalogs of the three rings."""
    return [m for _, m in verify.matrix_catalog()] + [
        linear.induced_matrix()
        for ring in RingId
        for linear in linear_candidates(ring, 1)
    ]


def test_character_counts_match_the_smith_census(
    translation_classes, character_census
) -> None:
    # The census from one checked Hermite form per prime power equals the
    # census from the Smith moduli gcd(d_i, n) of I - M, on all 11,580
    # cases.  gcd(d, 0) = d, so the moduli at n = 0 are the diagonal.
    cases = 0
    for m in census_matrices():
        _, diagonal = translation_classes(m, 0)
        for n in CENSUS_MODULI:
            moduli = tuple(gcd(d, n) for d in diagonal)
            assert invariant_character_counts(m, n) == character_census(moduli, n)
            cases += 1
    assert cases == 11580


# The index oracle's moduli: q = 2 to 12, 24, 48 and 360.
INDEX_MODULI = (*range(2, 13), 24, 48, 360)


def test_cokernel_orders_match_the_minors(clear_memos) -> None:
    # (Z/q)^r / (I - M)(Z/q)^r is the sum of the Z/gcd(d_i, q) over the
    # invariant factors d_i of I - M, padded with zeros to r.  Read from
    # gcds of minors, which share no code with any elimination, their
    # product is the index of each checked Hermite form, on all 10,808
    # cases.
    clear_memos()
    cases = 0
    for m in census_matrices():
        factors = elementary_divisors_via_minors(IntMatrix.identity(m.rows) - m)
        factors += [0] * (m.rows - len(factors))
        for q in INDEX_MODULI:
            assert cokernel_order(m, q) == prod(gcd(d, q) for d in factors), (m, q)
            cases += 1
    assert cases == 10808


def test_character_counts_match_the_enumeration_on_the_catalog() -> None:
    # The panel's enumeration lists only the orders it meets.
    for name, m in verify.matrix_catalog():
        for n in range(1, 7):
            counts = invariant_character_counts(m, n)
            assert {d: c for d, c in counts.items() if c} == (
                verify.counts_by_enumeration(m, n)
            ), (name, n)


def test_character_counts_container() -> None:
    # A plain dict over the divisors of n, ascending.
    counts = invariant_character_counts(IntMatrix.identity(4), 12)
    assert type(counts) is dict
    assert list(counts) == [1, 2, 3, 4, 6, 12]
    assert sum(counts.values()) == 12**4


def test_quotient_count_equals_weighted_series_sum() -> None:
    # Dual route: recompute the weighted combination by hand from the
    # series and the character counts.
    for matrix, n in [(NEGATIVE_IDENTITY, 2), (ROTATION_ORDER_3, 3)]:
        series = kummer_series(matrix, n)
        counts = invariant_character_counts(matrix, n)
        torus_count = lefschetz_torus(matrix)
        weighted = sum(
            mult * series[n // divisor] for divisor, mult in counts.items()
        )
        assert weighted % torus_count == 0
        assert lefschetz_kummer(matrix, n) == weighted // torus_count


def test_one_series_per_matrix_gives_every_lefschetz_number() -> None:
    # Truncation does not change the lower coefficients of the Kummer
    # series, so the integrality sweep reads every n <= 8 from one series
    # to 8: the numbers equal lefschetz_kummer's at each n.
    checked = 0
    for name, m in verify.matrix_catalog():
        base = lefschetz_torus(m)
        if base == 0:
            continue
        series = kummer_series(m, 8)
        for n in range(2, 9):
            census = invariant_character_counts(m, n)
            assert lefschetz_from_census(series, census, base) == (
                lefschetz_kummer(m, n)
            ), (name, n)
            checked += 1
    assert checked == 70
    assert verify.integrality_failures() == 0


def test_the_integrality_sweep_counts_an_inexact_division(monkeypatch) -> None:
    # Offsetting the torus number by one makes some divisions inexact, and
    # the sweep counts them.
    torus = lefschetz.lefschetz_torus
    monkeypatch.setattr(verify, "lefschetz_torus", lambda m: torus(m) + 1)
    assert verify.integrality_failures() > 0


def test_degenerate_action_raises() -> None:
    with pytest.raises(DegenerateActionError):
        lefschetz_kummer(IntMatrix.identity(4), 2)
    # An eigenvalue one on a single factor also kills the torus count.
    half_trivial = IntMatrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
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
    assert kummer_series(order_five, 2).coefficients == (1, 5, 20)
    assert invariant_character_counts(order_five, 2) == {1: 1, 2: 0}
    assert lefschetz_kummer(order_five, 2) == 4


def test_supertrace_series_closed_forms() -> None:
    # Pure even part with trace 2 gives the symmetric-power generating
    # function 1/((1-t)^2); a matching odd part cancels it to 1.
    even = [[1, 0], [0, 1]]
    result = supertrace_sym_series(even, None, 5)
    assert result == TruncatedSeries([1, 2, 3, 4, 5, 6])
    cancelled = supertrace_sym_series(even, even, 5)
    assert cancelled == TruncatedSeries([1, 0, 0, 0, 0, 0])


def test_supertrace_matches_direct_symmetric_powers() -> None:
    rng = random.Random(4321)
    for _ in range(10):
        diag = [rng.randint(-2, 2) for _ in range(2)]
        even = [[diag[0], 0], [0, diag[1]]]
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


def test_supertrace_rejects_non_integer_matrices() -> None:
    assert supertrace_sym_series([[Fraction(2)]], [], 3) == TruncatedSeries([1, 2, 4, 8])
    for even, odd in (([[Fraction(1, 2)]], []), ([], [[1, 0], [0, 2.7]])):
        with pytest.raises(ValueError, match="integers"):
            supertrace_sym_series(even, odd, 3)


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


def unpruned_supertrace(even, odd, truncation: int) -> list[int]:
    """The reference: every monomial of every product kept, and both traces
    expanded again for each degree ``k``."""

    def sym_trace(rows, degree: int) -> int:
        if degree == 0:
            return 1
        size = len(rows)
        total = 0
        for combo in itertools.combinations_with_replacement(range(size), degree):
            product = {(0,) * size: 1}
            for j in combo:
                grown: dict = {}
                for exponent, c in product.items():
                    for i in range(size):
                        key = tuple(e + (k == i) for k, e in enumerate(exponent))
                        grown[key] = grown.get(key, 0) + c * rows[i][j]
                product = grown
            target = tuple(combo.count(i) for i in range(size))
            total += product.get(target, 0)
        return total

    def ext_trace(rows, degree: int) -> int:
        if degree == 0:
            return 1
        return sum(
            IntMatrix([[rows[i][j] for j in subset] for i in subset]).det()
            for subset in itertools.combinations(range(len(rows)), degree)
        )

    return [
        sum((-1) ** (k - i) * sym_trace(even, i) * ext_trace(odd, k - i)
            for i in range(k + 1))
        for k in range(truncation + 1)
    ]


@pytest.mark.parametrize("truncation", [0, 1, 6, 8])
def test_supertrace_expansion_matches_the_unpruned_expansion(truncation: int) -> None:
    rng = random.Random(1618 + truncation)
    for d_even, d_odd in itertools.product(range(4), repeat=2):
        even = [[rng.randint(-2, 2) for _ in range(d_even)] for _ in range(d_even)]
        odd = [[rng.randint(-2, 2) for _ in range(d_odd)] for _ in range(d_odd)]
        expected = unpruned_supertrace(even, odd, truncation)
        assert supertrace_by_expansion(even, odd, truncation) == expected


def test_supertrace_expansion_takes_no_series_route(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("the expansion oracle took the series route")

    monkeypatch.setattr(TruncatedSeries, "exp", refuse)
    monkeypatch.setattr(lefschetz, "supertrace_sym_series", refuse)
    monkeypatch.setattr(verify, "supertrace_sym_series", refuse)
    assert supertrace_by_expansion([[2]], [], 6) == [1, 2, 4, 8, 16, 32, 64]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_absorbed_translations_match_the_image_of_i_minus_m(n: int, translation_classes) -> None:
    # The Smith-form test against the set (I - M)(Z/n)^4 built pointwise.
    matrices = [NEGATIVE_IDENTITY, ROTATION_ORDER_3, companion_matrix((1, 1, 1, 1)),
                companion_matrix((1, 0, -1, 0)), companion_matrix((1, 0, 0, 0))]
    for m in matrices:
        shift = IntMatrix.identity(4) - m
        key, _ = translation_classes(m, n)
        image = {
            tuple(x % n for x in shift.apply_int(w))
            for w in itertools.product(range(n), repeat=4)
        }
        for v in itertools.product(range(n), repeat=4):
            assert (not any(key(v))) == (v in image)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_image_membership_matches_the_smith_key(n: int, translation_classes) -> None:
    # The reduction against the checked Hermite form of L_n accepts
    # exactly the vectors of key zero, on every vector of (Z/n)^4, for the
    # integrality catalog and two maps with eigenvalue 1.
    half_trivial = IntMatrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    )
    matrices = [m for _, m in verify.matrix_catalog()]
    for m in [*matrices, IntMatrix.identity(4), half_trivial]:
        key, _ = translation_classes(m, n)
        for v in itertools.product(range(n), repeat=4):
            assert image_contains(m, v, n) == (not any(key(v))), (m, v)


def test_character_count_self_check_rejects_broken_inversion(monkeypatch) -> None:
    # A Moebius function of constant 1 turns exact-order counts into
    # cumulative ones, so they no longer sum to the invariant total.
    monkeypatch.setattr(lefschetz, "_mobius", lambda n: 1)
    with pytest.raises(SelfCheckError):
        invariant_character_counts(ROTATION_ORDER_3, 3)


_SERIES_CHECK_SCRIPT = """
import contextlib, io, sys
import kummerlab.cli as cli
from kummerlab.lefschetz import kummer_series
from kummerlab.linalg import IntMatrix, SelfCheckError
from kummerlab.series import TruncatedSeries

exp = TruncatedSeries.exp
matrix = IntMatrix.identity(4).scale(-1)
corruptions = {
    # Offsetting det(I - M) by one makes a division inside exp inexact.
    "non-integral": lambda s: exp(TruncatedSeries([0, s[1] + 1, *s.coefficients[2:]])),
    "negative": lambda s: TruncatedSeries([-c for c in exp(s).coefficients]),
}
for name, corrupt in corruptions.items():
    TruncatedSeries.exp = corrupt
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
    # An inexact division inside ``exp`` or a negative series raises SelfCheckError
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
