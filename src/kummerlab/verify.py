"""Reference-value panel shared by the CLI and the acceptance tests.

Every headline number the library must reproduce lives here exactly once,
as a named check pairing a frozen expected value with a closure that
recomputes it from scratch.  The ``verify-paper`` subcommand renders this
panel and the test suite consumes the same list, so the documented values
and the tested values cannot drift apart.

Several checks are cross-validations rather than single numbers: they run
an independently coded oracle (exhaustive enumeration, direct symmetric-
algebra expansion, grid search) against the production route and expect
zero mismatches.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from .enriques import FactorDecomposition, classify_free_quotient, decomposition_search
from .fixedpoint import brute_force_fixed_point, group_acts_freely, has_fixed_point
from .lattice import (
    EnumerationTooLargeError,
    solvable_by_enumeration,
    torus_system_solvable,
)
from .lefschetz import (
    DegenerateActionError,
    NonIntegralLefschetzError,
    companion_matrix,
    det_one_minus_power,
    invariant_character_counts,
    kummer_series,
    lefschetz_kummer,
    supertrace_sym_series,
)
from .linalg import IntMatrix, SelfCheckError
from .rings import RingElem, RingId, zeta6
from .series import TruncatedSeries
from .torus import TorusAuto, TorusEndo, TorusPoint


@dataclass(frozen=True)
class PanelItem:
    name: str
    expected: object
    compute: Callable[[], object]


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    actual: object
    passed: bool


# ---------------------------------------------------------------------------
# Reference instances


def order5_matrix() -> IntMatrix:
    """Companion matrix of ``x^4 + x^3 + x^2 + x + 1`` (multiplicative order 5)."""
    return companion_matrix((1, 1, 1, 1))


def _diagonal_auto(ring: RingId, d1: RingElem, d2: RingElem, coords) -> TorusAuto:
    return TorusAuto(
        TorusEndo.diagonal(d1, d2), TorusPoint.from_vector(ring, coords)
    )


def order3_auto() -> TorusAuto:
    """diag(zeta, 1) with translation (1/3, 1/3); acts freely on the 3-fibre."""
    ring = RingId.EISENSTEIN
    return _diagonal_auto(
        ring,
        RingElem.zeta(ring),
        RingElem.one(ring),
        (Fraction(1, 3), 0, Fraction(1, 3), 0),
    )


def order3_shifted_auto() -> TorusAuto:
    """Same linear part, first translation coordinate ``(1 - zeta)/3``.

    This choice kills the obstruction ``(2 + zeta) a_1``, so the induced map
    on the 3-fibre picks up fixed points.
    """
    ring = RingId.EISENSTEIN
    return _diagonal_auto(
        ring,
        RingElem.zeta(ring),
        RingElem.one(ring),
        (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3), 0),
    )


def order4_auto() -> TorusAuto:
    ring = RingId.GAUSSIAN
    return _diagonal_auto(
        ring,
        RingElem.zeta(ring),
        RingElem.one(ring),
        (Fraction(1, 4), 0, Fraction(1, 4), 0),
    )


def order4_halfpoint_auto() -> TorusAuto:
    """First translation coordinate 1/2; the square then has fixed points."""
    ring = RingId.GAUSSIAN
    return _diagonal_auto(
        ring,
        RingElem.zeta(ring),
        RingElem.one(ring),
        (Fraction(1, 2), 0, Fraction(1, 4), 0),
    )


def order6_auto() -> TorusAuto:
    """diag(zeta6, 1) with translation (1/6, 1/6); never free on the 6-fibre."""
    ring = RingId.EISENSTEIN
    return _diagonal_auto(
        ring,
        zeta6(),
        RingElem.one(ring),
        (Fraction(1, 6), 0, Fraction(1, 6), 0),
    )


def freeness_instances() -> list[tuple[str, TorusAuto, int]]:
    """The automorphisms the freeness checks decide, with their fibre index.

    Includes the prime-order powers that the group decision actually tests,
    so the grid oracle exercises the same elements end to end.
    """
    psi4 = order4_auto()
    psi4h = order4_halfpoint_auto()
    psi6 = order6_auto()
    return [
        ("order3", order3_auto(), 3),
        ("order3_shifted", order3_shifted_auto(), 3),
        ("order4_square", psi4**2, 4),
        ("order4_halfpoint_square", psi4h**2, 4),
        ("order6", psi6, 6),
        ("order6_square", psi6**2, 6),
        ("order6_cube", psi6**3, 6),
        ("k6_order3", order3_auto(), 6),
    ]


def matrix_catalog() -> list[tuple[str, IntMatrix]]:
    """Finite-order 4x4 homology actions used by the integrality sweep."""
    eis = RingId.EISENSTEIN
    gauss = RingId.GAUSSIAN
    rat = RingId.RATIONAL_INT
    zeta3 = RingElem.zeta(eis)
    i = RingElem.zeta(gauss)

    def rotation(ring: RingId) -> TorusEndo:
        one = RingElem.one(ring)
        zero = RingElem.zero(ring)
        return TorusEndo([[zero, -one], [one, zero]])

    return [
        ("companion_order5", companion_matrix((1, 1, 1, 1))),
        ("companion_order8", companion_matrix((1, 0, 0, 0))),
        ("companion_order10", companion_matrix((1, -1, 1, -1))),
        ("companion_order12", companion_matrix((1, 0, -1, 0))),
        ("minus_identity", IntMatrix.identity(4).scale(-1)),
        (
            "eisenstein_diag_zeta_one",
            TorusEndo.diagonal(zeta3, RingElem.one(eis)).induced_matrix(),
        ),
        (
            "eisenstein_diag_zeta_zeta",
            TorusEndo.diagonal(zeta3, zeta3).induced_matrix(),
        ),
        (
            "eisenstein_diag_sixth",
            TorusEndo.diagonal(zeta6(), zeta6()).induced_matrix(),
        ),
        (
            "gaussian_diag_i_one",
            TorusEndo.diagonal(i, RingElem.one(gauss)).induced_matrix(),
        ),
        (
            "gaussian_diag_i_minus_i",
            TorusEndo.diagonal(i, -i).induced_matrix(),
        ),
        ("gaussian_rotation", rotation(gauss).induced_matrix()),
        ("integer_rotation", rotation(rat).induced_matrix()),
    ]


# ---------------------------------------------------------------------------
# Independent oracle routes


def closed_form_order5(truncation: int = 5) -> list[int]:
    """Product form ``prod_nu (1 - t^(5 nu)) / (1 - t^nu)^5``, truncated."""
    one = TruncatedSeries.one(truncation)
    result = one
    for nu in range(1, truncation + 1):
        denominator = one - TruncatedSeries.monomial(nu, truncation)
        result = result * denominator.inverse() ** 5
        if 5 * nu <= truncation:
            result = result * (one - TruncatedSeries.monomial(5 * nu, truncation))
    if not result.is_integral():
        raise SelfCheckError("the order-5 product form is not integral")
    return [int(c) for c in result.coefficients]


def counts_by_enumeration(m: IntMatrix, n: int) -> dict[int, int]:
    """Census of invariant characters by walking all of ``(Z/n)^4``."""
    mt = m.transpose()
    counts: dict[int, int] = {}
    for vec in itertools.product(range(n), repeat=4):
        image = tuple(
            sum(mt[i][j] * vec[j] for j in range(4)) % n for i in range(4)
        )
        if image != vec:
            continue
        order = n // gcd(n, *vec)
        counts[order] = counts.get(order, 0) + 1
    return dict(sorted(counts.items()))


def sampled_solvability_mismatches(cases: int = 1000, seed: int = 31415) -> int:
    """Compare the normal-form decision against subgroup enumeration.

    Systems are up to 4x8 with entries in [-3, 3] and constant denominators
    at most 6.  Draws whose enumeration subgroup would exceed
    ``ENUMERATION_CAP`` are redrawn (the sample stays within the stated
    bounds either way).
    """
    rng = random.Random(seed)
    mismatches = 0
    produced = 0
    while produced < cases:
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 8)
        system = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        constants = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rows)
        )
        try:
            slow = solvable_by_enumeration(system, constants)
        except EnumerationTooLargeError:
            continue
        produced += 1
        if bool(torus_system_solvable(system, constants)) != slow:
            mismatches += 1
    return mismatches


def fixed_point_oracle_mismatches(level: int = 12) -> int:
    """Grid-search cross-check of the fixed-point decision."""
    mismatches = 0
    for _, auto, n in freeness_instances():
        if has_fixed_point(auto, n).found != brute_force_fixed_point(auto, n, level):
            mismatches += 1
    return mismatches


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _sym_power_trace(rows: list[list[int]], degree: int) -> int:
    """Trace on the degree-``degree`` symmetric power, by monomial expansion."""
    if degree == 0:
        return 1
    size = len(rows)
    if size == 0:
        return 0
    images = []
    for j in range(size):
        poly = {}
        for i in range(size):
            if rows[i][j]:
                exponent = tuple(1 if k == i else 0 for k in range(size))
                poly[exponent] = rows[i][j]
        images.append(poly)
    total = 0
    for combo in itertools.combinations_with_replacement(range(size), degree):
        exponent = [0] * size
        for j in combo:
            exponent[j] += 1
        product = {tuple([0] * size): 1}
        for j in combo:
            product = _poly_mul(product, images[j])
        total += product.get(tuple(exponent), 0)
    return total


def _exterior_power_trace(rows: list[list[int]], degree: int) -> int:
    """Trace on the degree-``degree`` exterior power: sum of principal minors."""
    if degree == 0:
        return 1
    return sum(
        IntMatrix._of([[rows[i][j] for j in subset] for i in subset]).det()
        for subset in itertools.combinations(range(len(rows)), degree)
    )


def supertrace_by_expansion(even, odd, truncation: int) -> list[int]:
    """Degree-by-degree supertrace on Sym(even) tensor Lambda(odd).

    ``even`` and ``odd`` are square integer matrices given as lists of rows.
    """
    out = []
    for k in range(truncation + 1):
        acc = 0
        for i in range(k + 1):
            j = k - i
            sign = -1 if j % 2 else 1
            acc += sign * _sym_power_trace(even, i) * _exterior_power_trace(odd, j)
        out.append(acc)
    return out


def sampled_supertrace_mismatches(
    cases: int = 100, seed: int = 27182, truncation: int = 6
) -> int:
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(cases):
        d_even = rng.randint(0, 2)
        d_odd = rng.randint(0, 2)
        even = [[rng.randint(-2, 2) for _ in range(d_even)] for _ in range(d_even)]
        odd = [[rng.randint(-2, 2) for _ in range(d_odd)] for _ in range(d_odd)]
        series = supertrace_sym_series(even, odd, truncation)
        if list(series.coefficients) != supertrace_by_expansion(even, odd, truncation):
            mismatches += 1
    return mismatches


def integrality_failures(max_n: int = 8) -> int:
    """Count the (matrix, n) pairs of the catalog whose Lefschetz number
    fails its exact division; degenerate matrices are skipped."""
    failures = 0
    for _, matrix in matrix_catalog():
        for n in range(2, max_n + 1):
            try:
                lefschetz_kummer(matrix, n)
            except DegenerateActionError:
                break
            except NonIntegralLefschetzError:
                failures += 1
    return failures


# ---------------------------------------------------------------------------
# Panel assembly


def classification_payload(classification) -> dict:
    return {
        "verdict": classification.verdict.value,
        "index": classification.index,
        "dimension": classification.dimension,
        "chi": classification.chi,
    }


def decomposition_labels(decomposition: FactorDecomposition) -> list[str]:
    return [f"{kind.value}:{dim}" for kind, dim in decomposition.factors]


def _series_ints(series: TruncatedSeries) -> list[int]:
    return [int(c) for c in series.coefficients]


def build_panel() -> list[PanelItem]:
    return [
        PanelItem(
            "lefschetz_order5",
            105,
            lambda: lefschetz_kummer(order5_matrix(), 5),
        ),
        PanelItem(
            "kummer_series_order5",
            [1, 5, 20, 65, 190, 505],
            lambda: _series_ints(kummer_series(order5_matrix(), 5)),
        ),
        PanelItem(
            "kummer_series_order5_closed_form",
            [1, 5, 20, 65, 190, 505],
            closed_form_order5,
        ),
        PanelItem(
            "det_pattern_order5",
            {1: 5, 2: 5, 3: 5, 4: 5, 6: 5, 7: 5, 5: 0, 10: 0},
            lambda: {
                s: det_one_minus_power(order5_matrix(), s)
                for s in (1, 2, 3, 4, 5, 6, 7, 10)
            },
        ),
        PanelItem(
            "character_counts_order5",
            {1: 1, 5: 4},
            lambda: invariant_character_counts(order5_matrix(), 5).as_dict(),
        ),
        PanelItem(
            "character_counts_order5_exhaustive",
            {1: 1, 5: 4},
            lambda: counts_by_enumeration(order5_matrix(), 5),
        ),
        PanelItem(
            "freeness_order3",
            True,
            lambda: group_acts_freely(order3_auto(), 3).free,
        ),
        PanelItem(
            "fixed_point_order3_shifted",
            True,
            lambda: has_fixed_point(order3_shifted_auto(), 3).found,
        ),
        PanelItem(
            "freeness_order4",
            True,
            lambda: group_acts_freely(order4_auto(), 4).free,
        ),
        PanelItem(
            "fixed_point_order4_square",
            False,
            lambda: has_fixed_point(order4_auto() ** 2, 4).found,
        ),
        PanelItem(
            "freeness_order4_halfpoint",
            False,
            lambda: group_acts_freely(order4_halfpoint_auto(), 4).free,
        ),
        PanelItem(
            "freeness_order6",
            False,
            lambda: group_acts_freely(order6_auto(), 6).free,
        ),
        PanelItem(
            "fixed_point_order6_cube",
            True,
            lambda: has_fixed_point(order6_auto() ** 3, 6).found,
        ),
        PanelItem(
            "freeness_k6_order3",
            True,
            lambda: group_acts_freely(order3_auto(), 6).free,
        ),
        PanelItem(
            "classification_k6_order3",
            {"verdict": "weak_enriques", "index": None, "dimension": 10, "chi": 2},
            lambda: classification_payload(classify_free_quotient(6, 3)),
        ),
        PanelItem(
            "classification_order3",
            {"verdict": "enriques", "index": 3, "dimension": 4, "chi": 1},
            lambda: classification_payload(classify_free_quotient(3, 3)),
        ),
        PanelItem(
            "classification_order4",
            {"verdict": "enriques", "index": 4, "dimension": 6, "chi": 1},
            lambda: classification_payload(classify_free_quotient(4, 4)),
        ),
        PanelItem(
            "decomposition_count_4_3",
            1,
            lambda: len(decomposition_search(4, 3)),
        ),
        PanelItem(
            "decomposition_counts_odd_index",
            {3: 1, 5: 1, 7: 1, 9: 1},
            lambda: {
                d: len(decomposition_search(2 * d - 2, d)) for d in (3, 5, 7, 9)
            },
        ),
        PanelItem(
            "decomposition_10_6",
            [["ihs:10"], ["cy_even:6", "ihs:4"]],
            lambda: [
                decomposition_labels(dec) for dec in decomposition_search(10, 6)
            ],
        ),
        PanelItem(
            "solvability_oracle_sampled",
            0,
            sampled_solvability_mismatches,
        ),
        PanelItem(
            "fixed_point_oracle_level12",
            0,
            fixed_point_oracle_mismatches,
        ),
        PanelItem(
            "supertrace_random_panel",
            0,
            sampled_supertrace_mismatches,
        ),
        PanelItem(
            "supertrace_geometric_closed_form",
            [1, 2, 4, 8, 16, 32, 64],
            lambda: _series_ints(supertrace_sym_series([[2]], [], 6)),
        ),
        PanelItem(
            "supertrace_sign_closed_form",
            [1, -3, 0, 0, 0, 0, 0],
            lambda: _series_ints(supertrace_sym_series([], [[3]], 6)),
        ),
        PanelItem(
            "integrality_catalog",
            0,
            integrality_failures,
        ),
    ]


def run_panel(items: list[PanelItem] | None = None) -> list[CheckResult]:
    results = []
    for item in build_panel() if items is None else items:
        actual = item.compute()
        results.append(
            CheckResult(item.name, item.expected, actual, item.expected == actual)
        )
    return results


def panel_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
