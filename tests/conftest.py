"""Session-wide fixtures shared by several test modules."""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from kummerlab import fixedpoint, lattice, torus
from kummerlab.verify import CheckResult, run_panel

# Every memo of translation-independent work in the package.
MEMOS = (torus.power_sums, fixedpoint._orbit_matrix, lattice._normal_form)


@dataclass(frozen=True)
class PanelRun:
    """One evaluation of the full ``verify-paper`` panel."""

    results: list[CheckResult]
    elapsed: float


@pytest.fixture(scope="session")
def panel_run() -> PanelRun:
    """The reference panel, computed once per test session."""
    start = time.monotonic()
    results = run_panel()
    return PanelRun(results, time.monotonic() - start)


@pytest.fixture
def clear_memos():
    """A function that empties every memo, so the next calls start cold."""

    def clear() -> None:
        for memo in MEMOS:
            memo.cache_clear()

    return clear
