"""Session-wide fixtures shared by several test modules."""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from kummerlab.verify import CheckResult, run_panel


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
