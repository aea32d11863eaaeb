"""Acceptance panel: twelve exact checks covering the full pipeline.

Every check recomputes its values through the public API and compares with
zero tolerance.  The panel is evaluated once per session (the
``panel_run`` fixture in ``conftest.py``, shared with the CLI tests); each
criterion prints a single PASS/FAIL line (visible under ``pytest -s`` or in
captured output) and the whole module is budgeted to finish in well under
ten seconds.
"""

from __future__ import annotations

import hashlib
import inspect

import pytest

import kummerlab.cli as cli
import kummerlab.verify as verify
from kummerlab.lattice import EnumerationTooLargeError
from kummerlab.verify import (
    CheckResult,
    PanelItem,
    build_panel,
    panel_passed,
    run_panel,
    sampled_solvability_mismatches,
    sampled_supertrace_mismatches,
)


@pytest.fixture(scope="module")
def panel(panel_run) -> dict[str, CheckResult]:
    by_name = {result.name: result for result in panel_run.results}
    by_name["__elapsed__"] = panel_run.elapsed
    return by_name


def require(panel: dict, number: int, headline: str, names: list[str]) -> None:
    failed = [
        panel[name] for name in names if not panel[name].passed
    ]
    verdict = "FAIL" if failed else "PASS"
    print(f"{verdict} criterion {number:02d}: {headline}")
    for result in failed:
        print(
            f"    {result.name}: expected {result.expected!r}, got {result.actual!r}"
        )
    assert not failed


def test_criterion_01_order5_count(panel) -> None:
    require(panel, 1, "order-5 action counts 105 on the fifth fibre", ["lefschetz_order5"])


def test_criterion_02_order5_series(panel) -> None:
    require(
        panel,
        2,
        "order-5 series is [1, 5, 20, 65, 190, 505] and matches its product form",
        ["kummer_series_order5", "kummer_series_order5_closed_form"],
    )


def test_criterion_03_determinant_pattern(panel) -> None:
    require(
        panel,
        3,
        "det(I - M^s) is 5 away from multiples of five and 0 on them",
        ["det_pattern_order5"],
    )


def test_criterion_04_character_census(panel) -> None:
    require(
        panel,
        4,
        "invariant character census {1: 1, 5: 4}, confirmed by full enumeration",
        ["character_counts_order5", "character_counts_order5_exhaustive"],
    )


def test_criterion_05_freeness_on_third_fibre(panel) -> None:
    require(
        panel,
        5,
        "order-3 pair acts freely; the shifted translation picks up fixed points",
        ["freeness_order3", "fixed_point_order3_shifted"],
    )


def test_criterion_06_freeness_on_fourth_fibre(panel) -> None:
    require(
        panel,
        6,
        "order-4 pair free including its square; half-point translation is not",
        ["freeness_order4", "fixed_point_order4_square", "freeness_order4_halfpoint"],
    )


def test_criterion_07_sixth_fibre_pair(panel) -> None:
    require(
        panel,
        7,
        "order-6 pair blocked by its involution; order-3 pair free on the "
        "sixth fibre with a chi-2 quotient",
        [
            "freeness_order6",
            "fixed_point_order6_cube",
            "freeness_k6_order3",
            "classification_k6_order3",
        ],
    )


def test_criterion_08_full_index_classifications(panel) -> None:
    require(
        panel,
        8,
        "full-index quotients classify with indices 3 and 4",
        ["classification_order3", "classification_order4"],
    )


def test_criterion_09_decomposition_enumeration(panel) -> None:
    require(
        panel,
        9,
        "factor decompositions: unique at (4,3) and odd indices; two at (10,6)",
        [
            "decomposition_count_4_3",
            "decomposition_counts_odd_index",
            "decomposition_10_6",
        ],
    )


def test_criterion_10_oracle_equivalence(panel) -> None:
    require(
        panel,
        10,
        "normal-form decisions agree with grid and enumeration oracles",
        ["fixed_point_oracle_level12", "solvability_oracle_sampled"],
    )
    # The sampled comparison must cover at least a thousand cases.
    assert (
        inspect.signature(sampled_solvability_mismatches).parameters["cases"].default
        >= 1000
    )


# The sampled oracle's draws: 1,008 systems asked, 8 of them redrawn for
# exceeding ENUMERATION_CAP, and the sha256 of the repr of the 1,000 kept
# ``(system.entries, constants, modulus)`` triples, of which 851 are
# solvable.  A resized or re-seeded sample changes these.
SAMPLED_DRAWS = (
    1008,
    8,
    "c8f7ff16ff77b239d4f67c986be5a034c057743790c3c0185f87ff954f3882d3",
    851,
)


def test_sampled_oracle_draws_are_pinned(monkeypatch) -> None:
    asked = []
    verdicts = []
    decide = verify.solvable_by_enumeration

    def recording(system, constants, modulus):
        asked.append((system.entries, tuple(constants), modulus))
        try:
            verdict = decide(system, constants, modulus)
        except EnumerationTooLargeError:
            verdicts.append(None)
            raise
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(verify, "solvable_by_enumeration", recording)
    assert sampled_solvability_mismatches() == 0
    kept = [draw for draw, verdict in zip(asked, verdicts) if verdict is not None]
    digest = hashlib.sha256(repr(kept).encode()).hexdigest()
    counts = (len(asked), verdicts.count(None), digest, verdicts.count(True))
    assert counts == SAMPLED_DRAWS


def test_criterion_11_supertrace_identities(panel) -> None:
    require(
        panel,
        11,
        "graded-trace series matches direct expansion plus both closed forms",
        [
            "supertrace_random_panel",
            "supertrace_geometric_closed_form",
            "supertrace_sign_closed_form",
        ],
    )
    assert (
        inspect.signature(sampled_supertrace_mismatches).parameters["cases"].default
        >= 100
    )


def test_criterion_12_integrality_catalog(panel) -> None:
    require(
        panel,
        12,
        "weighted coefficient sums divide exactly across the whole catalog",
        ["integrality_catalog"],
    )


def test_panel_is_complete_and_fast(panel) -> None:
    computed = {name for name in panel if not name.startswith("__")}
    assert computed == {item.name for item in build_panel()}
    assert panel["__elapsed__"] < 10.0


def test_negative_control_detects_tampering(panel_run, capsys, monkeypatch) -> None:
    # Sanity check on the harness itself: a corrupted expectation must
    # fail the panel and flip the command-line exit code.  The checks
    # replay the session's computed values instead of recomputing them.
    items = build_panel()
    actual = {result.name: result.actual for result in panel_run.results}
    broken = [
        PanelItem(
            item.name,
            [0] if item.name == "kummer_series_order5" else item.expected,
            lambda value=actual[item.name]: value,
        )
        for item in items
    ]
    results = run_panel(broken)
    assert not panel_passed(results)
    failing = [r.name for r in results if not r.passed]
    assert failing == ["kummer_series_order5"]

    monkeypatch.setattr(cli, "run_panel", lambda: results)
    code = cli.main(["verify-paper", "--format", "text"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_MATH
    assert "FAIL kummer_series_order5" in out
