"""Session-wide fixtures shared by several test modules."""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd, prod
from operator import mul

import pytest

from kummerlab import fixedpoint, lattice, torus
from kummerlab.linalg import IntMatrix, divisors, factorize, smith_normal_form
from kummerlab.verify import CheckResult, run_panel

# Every memo of translation-independent work in the package.
MEMOS = (
    torus.power_sums,
    fixedpoint._orbit_types,
    fixedpoint._orbit_matrix,
    lattice._echelon_form,
    lattice._lattice_form,
)


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


# The Smith-key reference for the classes of ``(Z/n)^r`` mod
# ``(I - M)(Z/n)^r``, which the library reads from checked Hermite forms
# (``lattice.translation_box``, ``cokernel_order`` and ``image_contains``).


def smith_classes(m: IntMatrix, n: int):
    """``(key, moduli)`` for the classes of ``(Z/n)^r`` mod ``(I - M)(Z/n)^r``.

    With ``U (I - M) V = D`` in Smith form, ``U`` maps the subgroup onto the
    product of the ``g_i (Z/n)``, ``moduli = (g_i) = (gcd(d_i, n))``.  So
    ``key(v) = ((U v)_i mod g_i)_i`` (entries with ``g_i = 1`` left out)
    agrees on two vectors exactly when they share a class, there are
    ``prod g_i`` classes, and the subgroup is the class of key zero.
    """
    u, d, _ = smith_normal_form(IntMatrix.identity(m.rows) - m)
    moduli = tuple(gcd(d[i][i], n) for i in range(m.rows))
    rows = tuple((row, g) for row, g in zip(u.entries, moduli) if g > 1)

    def key(vector) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, vector)) % g for row, g in rows)

    return key, moduli


def moduli_census(moduli, n: int) -> dict[int, int]:
    """Exact-order counts of the elements of ``prod Z/g_i``, each ``g_i | n``.

    Maps each divisor ``d`` of ``n``, ascending, to the number of elements
    of exact order ``d``: ``prod gcd(g_i, e)`` elements have order dividing
    ``e``, and Moebius inversion over the divisors of ``n`` gives the rest.
    With the moduli of :func:`smith_classes` this is the census of
    invariant characters.
    """

    def mobius(k: int) -> int:
        factors = factorize(k)
        return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)

    def dividing(e: int) -> int:
        return prod(gcd(g, e) for g in moduli)

    return {
        div: sum(mobius(div // e) * dividing(e) for e in divisors(div))
        for div in divisors(n)
    }


@pytest.fixture
def translation_classes():
    """The Smith-key reference, :func:`smith_classes`."""
    return smith_classes


@pytest.fixture
def character_census():
    """The census from Smith moduli, :func:`moduli_census`."""
    return moduli_census
