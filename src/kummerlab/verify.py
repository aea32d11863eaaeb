"""Reference-value panel shared by the CLI and the acceptance tests.

Every headline number the library must reproduce lives here exactly once,
as a named check pairing a frozen expected value with a closure that
recomputes it from scratch; each map the checks decide is stated once, as
data in :data:`PANEL_MAPS`.  The ``verify-paper`` subcommand renders this
panel and the test suite consumes the same list, so the documented values
and the tested values cannot drift apart.

Several checks are cross-validations rather than single numbers: they run
an independently coded oracle (exhaustive enumeration, direct symmetric-
algebra expansion, grid search) against the production route and expect
zero mismatches.  The production route is reached through public
functions alone: the sampled solvability check hands each random draw to
:func:`~kummerlab.lattice.torus_system_solvable`, which keeps no memo, so
the draws leave nothing behind.  The oracles compute each value once:
the sampled solvability check reads its divisors from
:func:`~kummerlab.linalg.elementary_divisors_via_minors`, which keeps a
table of minors per call, and :func:`supertrace_by_expansion` expands the
symmetric traces of every degree in one walk over the basis monomials,
one product of linear forms per monomial, each its parent's times one
form, dropping the monomials that cannot reach one it reads.  Neither
calls the code it checks.  The integrality sweep takes one Kummer series
per catalog matrix and reads every ``n`` from it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, lcm
from operator import gt
from typing import Callable

from .enriques import FactorDecomposition, classify_free_quotient, decomposition_search
from .fixedpoint import brute_force_fixed_point, group_acts_freely, has_fixed_point
from .lattice import (
    EnumerationTooLargeError,
    solvable_by_enumeration,
    torus_system_solvable,
)
from .lefschetz import (
    companion_matrix,
    det_one_minus_power,
    invariant_character_counts,
    kummer_series,
    lefschetz_from_census,
    lefschetz_kummer,
    lefschetz_torus,
    supertrace_sym_series,
)
from .linalg import IntMatrix, SelfCheckError
from .rings import RingElem, RingId, induced_matrix, zeta6
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


def _diagonal(d1: RingElem, d2: RingElem) -> IntMatrix:
    zero = RingElem.zero(d1.ring)
    return induced_matrix([[d1, zero], [zero, d2]])


# The panel's reference maps ``t_a diag(d1, d2)``: each name gives the ring,
# ``(x, y)`` of ``d1 = x + y*zeta`` and of ``d2``, and ``a`` as an integer
# vector over its level.  ``order3`` and ``order4`` act freely on the 3- and
# the 4-fibre.  ``order3_shifted`` moves ``a_1`` to ``(1 - zeta)/3``, which
# kills the obstruction ``(2 + zeta) a_1``, so the induced map on the
# 3-fibre picks up fixed points.  ``order4_halfpoint`` moves ``a_1`` to 1/2,
# and its square then has fixed points.  ``order6``, with ``d1 = zeta6``,
# is never free on the 6-fibre.
PANEL_MAPS = {
    "order3": (RingId.EISENSTEIN, (0, 1), (1, 0), (3, (1, 0, 1, 0))),
    "order3_shifted": (RingId.EISENSTEIN, (0, 1), (1, 0), (3, (1, -1, 1, 0))),
    "order4": (RingId.GAUSSIAN, (0, 1), (1, 0), (4, (1, 0, 1, 0))),
    "order4_halfpoint": (RingId.GAUSSIAN, (0, 1), (1, 0), (4, (2, 0, 1, 0))),
    "order6": (RingId.EISENSTEIN, (1, 1), (1, 0), (6, (1, 0, 1, 0))),
}


def panel_map(name: str) -> TorusAuto:
    """A fresh copy of the reference map ``name`` of :data:`PANEL_MAPS`."""
    ring, d1, d2, (level, vector) = PANEL_MAPS[name]
    return TorusAuto(
        TorusEndo(_diagonal(RingElem(ring, *d1), RingElem(ring, *d2))),
        TorusPoint.from_integers(level, vector),
    )


def freeness_instances() -> list[tuple[str, TorusAuto, int]]:
    """The automorphisms the freeness checks decide, with their fibre index.

    Includes the prime-order powers that the group decision actually tests,
    so the grid oracle exercises the same elements end to end.
    """
    psi6 = panel_map("order6")
    return [
        ("order3", panel_map("order3"), 3),
        ("order3_shifted", panel_map("order3_shifted"), 3),
        ("order4_square", panel_map("order4") ** 2, 4),
        ("order4_halfpoint_square", panel_map("order4_halfpoint") ** 2, 4),
        ("order6", psi6, 6),
        ("order6_square", psi6**2, 6),
        ("order6_cube", psi6**3, 6),
        ("k6_order3", panel_map("order3"), 6),
    ]


def matrix_catalog() -> list[tuple[str, IntMatrix]]:
    """Finite-order 4x4 homology actions used by the integrality sweep."""
    eis = RingId.EISENSTEIN
    gauss = RingId.GAUSSIAN
    rat = RingId.RATIONAL_INT
    zeta3 = RingElem.zeta(eis)
    i = RingElem.zeta(gauss)

    def rotation(ring: RingId) -> IntMatrix:
        one = RingElem.one(ring)
        zero = RingElem.zero(ring)
        return induced_matrix([[zero, -one], [one, zero]])

    return [
        ("companion_order5", order5_matrix()),
        ("companion_order8", companion_matrix((1, 0, 0, 0))),
        ("companion_order10", companion_matrix((1, -1, 1, -1))),
        ("companion_order12", companion_matrix((1, 0, -1, 0))),
        ("minus_identity", IntMatrix.identity(4).scale(-1)),
        ("eisenstein_diag_zeta_one", _diagonal(zeta3, RingElem.one(eis))),
        ("eisenstein_diag_zeta_zeta", _diagonal(zeta3, zeta3)),
        ("eisenstein_diag_sixth", _diagonal(zeta6(), zeta6())),
        ("gaussian_diag_i_one", _diagonal(i, RingElem.one(gauss))),
        ("gaussian_diag_i_minus_i", _diagonal(i, -i)),
        ("gaussian_rotation", rotation(gauss)),
        ("integer_rotation", rotation(rat)),
    ]


# ---------------------------------------------------------------------------
# Independent oracle routes


def closed_form_order5(truncation: int = 5) -> list[int]:
    """Product form ``prod_nu (1 - t^(5 nu)) / (1 - t^nu)^5``, truncated.

    Dividing by ``1 - t^nu`` is a running sum at stride ``nu``;
    multiplying by ``1 - t^(5 nu)`` subtracts at stride ``5 nu``.
    """
    coeffs = [1] + [0] * truncation
    for nu in range(1, truncation + 1):
        for _ in range(5):
            for k in range(nu, truncation + 1):
                coeffs[k] += coeffs[k - nu]
        for k in range(truncation, 5 * nu - 1, -1):
            coeffs[k] -= coeffs[k - 5 * nu]
    return coeffs


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
    """Compare the echelon decision against subgroup enumeration.

    Each draw goes to :func:`~kummerlab.lattice.torus_system_solvable`,
    the one decider, which keeps no memo: the draw's row echelon lives on
    the draw and goes with it.  The enumeration reads its divisors from
    minors, not from any echelon or normal form.

    Systems are up to 4x8 with entries in [-3, 3] and rational constants
    with denominators at most 6, put over the lcm of their reduced
    denominators as the modulus.  Draws whose enumeration subgroup would
    exceed ``ENUMERATION_CAP`` are redrawn (the sample stays within the
    stated bounds either way).
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
        draws = [(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rows)]
        modulus = lcm(*(d // gcd(x, d) for x, d in draws))
        constants = tuple(x * modulus // d for x, d in draws)
        try:
            slow = solvable_by_enumeration(system, constants, modulus)
        except EnumerationTooLargeError:
            continue
        produced += 1
        if bool(torus_system_solvable(system, constants, modulus)) != slow:
            mismatches += 1
    return mismatches


def fixed_point_oracle_mismatches(level: int = 12) -> int:
    """Grid-search cross-check of the fixed-point decision."""
    mismatches = 0
    for _, auto, n in freeness_instances():
        if has_fixed_point(auto, n).found != brute_force_fixed_point(auto, n, level):
            mismatches += 1
    return mismatches


def _sym_power_traces(rows: list[list[int]], truncation: int) -> list[int]:
    """Traces on ``Sym^0`` to ``Sym^truncation``, by monomial expansion.

    A basis monomial ``x^e`` of degree ``k`` is a multiset of ``k``
    variables; it maps to the product of the images of its variables, and
    the trace on ``Sym^k`` sums the coefficient of ``x^e`` in that product
    over the multisets.  They are walked depth first, each extended only
    by its last variable or a later one, which meets the multisets of
    each degree in ``itertools.combinations_with_replacement`` order, and
    each product is its parent's times one linear form.  Below a multiset
    whose last variable is ``j``, no variable before ``j`` gains exponent,
    so those exponents are final: a monomial above one of them can reach
    no monomial read further down and is dropped as soon as it appears.
    The coefficients read are the unpruned ones.
    """
    size = len(rows)
    traces = [1] + [0] * truncation
    images = [
        [(i, rows[i][j]) for i in range(size) if rows[i][j]] for j in range(size)
    ]

    def walk(product: dict, exponent: tuple[int, ...], last: int, degree: int):
        for j in range(last, size):
            # Exponents before `last` were bounded at the parent; those from
            # `last` to j become final here.
            child: dict = {}
            for key, c in product.items():
                if any(map(gt, key[last:j], exponent[last:j])):
                    continue
                for i, a in images[j]:
                    if i < j and key[i] == exponent[i]:
                        continue
                    grown = key[:i] + (key[i] + 1,) + key[i + 1 :]
                    child[grown] = child.get(grown, 0) + c * a
            grown = exponent[:j] + (exponent[j] + 1,) + exponent[j + 1 :]
            traces[degree + 1] += child.get(grown, 0)
            if degree + 1 < truncation:
                walk(child, grown, j, degree + 1)

    if truncation:
        walk({(0,) * size: 1}, (0,) * size, 0, 0)
    return traces


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
    The trace on each ``Sym^i(even)`` and each ``Lambda^j(odd)`` is expanded
    once, for every degree up to ``truncation``; degree ``k`` is then the
    signed convolution ``sum_(i+j=k) (-1)^j tr Sym^i tr Lambda^j``.  The
    symmetric traces of all degrees come from one walk over the basis
    monomials with one product of linear forms each, pruned by the
    exponents already final (:func:`_sym_power_traces`).  Nothing here
    calls :func:`supertrace_sym_series` or a series exponential.
    """
    sym = _sym_power_traces(even, truncation)
    ext = [_exterior_power_trace(odd, j) for j in range(truncation + 1)]
    return [
        sum((-1) ** (k - i) * sym[i] * ext[k - i] for i in range(k + 1))
        for k in range(truncation + 1)
    ]


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
    """Count the (matrix, n) pairs of the catalog, ``2 <= n <= max_n``, whose
    Lefschetz number fails a re-check; degenerate matrices are skipped.

    Truncation does not change the lower coefficients of the Kummer series,
    so one series to ``max_n`` per matrix serves every ``n``: each number
    is :func:`lefschetz_from_census` of it, as in :func:`lefschetz_kummer`.
    A series that fails its own check fails every ``n``.
    """
    failures = 0
    ns = range(2, max_n + 1)
    for _, matrix in matrix_catalog():
        base = lefschetz_torus(matrix)
        if base == 0:
            continue
        try:
            series = kummer_series(matrix, max_n)
        except SelfCheckError:
            failures += len(ns)
            continue
        for n in ns:
            try:
                census = invariant_character_counts(matrix, n)
                lefschetz_from_census(series, census, base)
            except SelfCheckError:
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
            lambda: list(kummer_series(order5_matrix(), 5).coefficients),
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
            lambda: invariant_character_counts(order5_matrix(), 5),
        ),
        PanelItem(
            "character_counts_order5_exhaustive",
            {1: 1, 5: 4},
            lambda: counts_by_enumeration(order5_matrix(), 5),
        ),
        PanelItem(
            "freeness_order3",
            True,
            lambda: group_acts_freely(panel_map("order3"), 3).free,
        ),
        PanelItem(
            "fixed_point_order3_shifted",
            True,
            lambda: has_fixed_point(panel_map("order3_shifted"), 3).found,
        ),
        PanelItem(
            "freeness_order4",
            True,
            lambda: group_acts_freely(panel_map("order4"), 4).free,
        ),
        PanelItem(
            "fixed_point_order4_square",
            False,
            lambda: has_fixed_point(panel_map("order4") ** 2, 4).found,
        ),
        PanelItem(
            "freeness_order4_halfpoint",
            False,
            lambda: group_acts_freely(panel_map("order4_halfpoint"), 4).free,
        ),
        PanelItem(
            "freeness_order6",
            False,
            lambda: group_acts_freely(panel_map("order6"), 6).free,
        ),
        PanelItem(
            "fixed_point_order6_cube",
            True,
            lambda: has_fixed_point(panel_map("order6") ** 3, 6).found,
        ),
        PanelItem(
            "freeness_k6_order3",
            True,
            lambda: group_acts_freely(panel_map("order3"), 6).free,
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
            lambda: list(supertrace_sym_series([[2]], [], 6).coefficients),
        ),
        PanelItem(
            "supertrace_sign_closed_form",
            [1, -3, 0, 0, 0, 0, 0],
            lambda: list(supertrace_sym_series([], [[3]], 6).coefficients),
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
