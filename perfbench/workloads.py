"""Inputs, timed passes and correctness gates of the benchmark workloads.

A workload has three parts:

- ``inputs(seed)`` builds the pass inputs; the same seed gives the same
  inputs;
- ``steps(inputs)`` splits the pass into steps, each timed on its own; the
  steps call the library only through module attributes looked up at call
  time, so a traced pass sees every call;
- ``check(inputs, outputs)`` takes the results of the steps in order,
  returns ``(attempted, failed)`` and runs outside the timed region.

Import this module only after ``env.use_checkout_source()``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import kummerlab.cli
import kummerlab.fixedpoint
import kummerlab.search
import kummerlab.verify
from kummerlab.rings import RingId
from kummerlab.torus import TorusAuto
from spans import CHECK_PREFIX


@dataclass(frozen=True)
class Step:
    """One timed call.  A traced pass records a span named ``label``."""

    run: Callable[[], object]
    label: str | None = None


# ---------------------------------------------------------------------------
# search-sweep

# The exhaustive max_norm=1 sweep: ring, n and the classes it finds.  The
# gaussian n=4 sweep (66 classes) takes as long again over the same layers;
# it is left out so that a run holds several passes.
SEARCH_RING, SEARCH_N, SEARCH_CLASSES = "eisenstein", 3, 64
SEARCH_MAX_NORM = 1

# sha256 of the ordered "h a order verdict" rows of the sweep.
SEARCH_DIGEST = "4ce4c40fe5a586d7c3f78d36faad404a73bafe5bb9351e85c907f47e3ee18f20"

# Linear parts per step.  run_search visits the linear parts in catalog
# order and each one on its own, so the steps together return the classes
# of the whole sweep in the same order; steps of 24 take about 0.4 s.
SEARCH_CHUNK = 24


def search_rows(results) -> list[str]:
    """One line per class: linear part, translation, order, quotient verdict."""
    cli = kummerlab.cli
    return [
        f"{cli.format_matrix(r.linear)} {cli.format_point(r.translation)} "
        f"{r.order} {r.classification.verdict.value}"
        for r in results
    ]


def rows_digest(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def search_inputs(seed: int) -> list:
    # The sweep is exhaustive: the seed is recorded but picks nothing.
    ring = RingId.from_token(SEARCH_RING)
    return kummerlab.search.linear_candidates(ring, SEARCH_MAX_NORM)


def search_steps(linears) -> list[Step]:
    """The catalog, as run_search builds it, then the sweep in chunks."""
    ring = RingId.from_token(SEARCH_RING)
    steps = [
        Step(lambda: kummerlab.search.linear_candidates(ring, SEARCH_MAX_NORM))
    ]
    for start in range(0, len(linears), SEARCH_CHUNK):
        chunk = linears[start : start + SEARCH_CHUNK]
        steps.append(
            Step(lambda chunk=chunk: kummerlab.search.run_search(
                SEARCH_N, ring, max_norm=SEARCH_MAX_NORM, linears=chunk
            ))
        )
    return steps


def search_check(linears, outputs) -> tuple[int, int]:
    catalog, *chunks = outputs
    results = [r for chunk in chunks for r in chunk]
    if catalog != linears or len(results) != SEARCH_CLASSES or rows_digest(
        search_rows(results)
    ) != SEARCH_DIGEST:
        return SEARCH_CLASSES, SEARCH_CLASSES
    failed = 0
    for result in results:
        auto = TorusAuto(result.linear, result.translation)
        certificates = [
            c for test in result.report.tested for c in test.report.certificates
        ]
        if not all(
            kummerlab.fixedpoint.verify_certificate(auto, SEARCH_N, c)
            for c in certificates
        ):
            failed += 1
    return SEARCH_CLASSES, failed


# ---------------------------------------------------------------------------
# freeness-deep

# Frozen free anchors: (ring, h, a, n).
FREENESS_ANCHORS = (
    ("eisenstein", "[[z,0],[0,1]]", "(1/3,1/3)", 12),
    ("gaussian", "[[z,0],[0,1]]", "(1/4,1/4)", 12),
)

# Seeded cells: (ring, order of h, n, catalog of h of that order).  The
# catalogs hold matrices with entries of norm at most 1 whose freeness
# decisions cost about the same.
FREENESS_CELLS = (
    (
        "eisenstein",
        6,
        6,
        ("[[1+z,0],[1+z,-z]]", "[[-z,0],[0,z]]", "[[0,1],[-1-z,0]]", "[[1+z,1+z],[0,-z]]"),
    ),
    (
        "eisenstein",
        3,
        6,
        ("[[z,0],[-1,-1-z]]", "[[z,-1],[0,-1-z]]", "[[-1-z,0],[0,z]]"),
    ),
    (
        "gaussian",
        12,
        8,
        ("[[0,-z],[z,-z]]", "[[z,z],[-z,0]]", "[[0,-1],[-1,-z]]", "[[0,1],[1,-z]]"),
    ),
)

MAX_TRANSLATION_DRAWS = 10_000


def _torsion_element(rng: random.Random, n: int) -> str:
    return f"{Fraction(rng.randrange(n), n)}+{Fraction(rng.randrange(n), n)}*z"


def _freeness_argv(ring: str, h: str, a: str, n: int) -> list[str]:
    return ["freeness", "--ring", ring, "--h", h, "--a", a, "--n", str(n)]


def freeness_inputs(seed: int) -> list[list[str]]:
    """The anchors, then one seeded draw per cell.

    A draw picks ``h`` from the cell's catalog and ``a`` uniformly from the
    points of ``E[n]`` whose translation keeps the order of ``(h, a)``
    equal to the order of ``h``; every draw of a cell therefore decides
    the same prime powers over the same orbit types.
    """
    rng = random.Random(f"freeness-deep/{seed}")
    argvs = [_freeness_argv(*anchor) for anchor in FREENESS_ANCHORS]
    for ring, order, n, catalog in FREENESS_CELLS:
        h = rng.choice(catalog)
        for _ in range(MAX_TRANSLATION_DRAWS):
            a = f"({_torsion_element(rng, n)},{_torsion_element(rng, n)})"
            if kummerlab.cli.parse_automorphism(ring, h, a).order() == order:
                break
        else:
            raise RuntimeError(f"no translation of order {order} drawn for {h}")
        argvs.append(_freeness_argv(ring, h, a, n))
    return argvs


def _cli(argv: list[str]) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = kummerlab.cli.main(argv)
    return code, captured.getvalue()


def freeness_steps(argvs) -> list[Step]:
    return [Step(lambda argv=argv: _cli(argv)) for argv in argvs]


def freeness_check(argvs, outputs) -> tuple[int, int]:
    failed = 0
    for index, (code, text) in enumerate(outputs):
        try:
            status = json.loads(text).get("status") if code == 0 else None
        except ValueError:
            status = None
        wanted = {"free"} if index < len(FREENESS_ANCHORS) else {"free", "not_free"}
        if status not in wanted:
            failed += 1
    return len(argvs), failed


# ---------------------------------------------------------------------------
# verify-panel

PANEL_CHECKS = 26


def panel_inputs(seed: int) -> list:
    # The panel is frozen: the seed is recorded but picks nothing.
    return kummerlab.verify.build_panel()


def panel_steps(items) -> list[Step]:
    """One step per check, labelled so that a traced pass times each check."""
    return [
        Step(lambda item=item: kummerlab.verify.run_panel([item])[0],
             CHECK_PREFIX + item.name)
        for item in items
    ]


def panel_check(items, results) -> tuple[int, int]:
    failed = sum(not r.passed for r in results)
    if not kummerlab.verify.panel_passed(results):
        failed = max(failed, 1)
    return PANEL_CHECKS, failed + abs(PANEL_CHECKS - len(results))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], object]
    steps: Callable[[object], list[Step]]
    check: Callable[[object, list], tuple[int, int]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-sweep",
            "exhaustive run_search(3, eisenstein), 64 classes: point arithmetic, "
            "the conjugacy scan and screens, many small early-stopping systems",
            search_inputs,
            search_steps,
            search_check,
        ),
        Workload(
            "freeness-deep",
            "freeness CLI on two free n=12 anchors and seeded cells: every prime "
            "power, up to 52x48 systems, Smith forms, certificates, JSON output",
            freeness_inputs,
            freeness_steps,
            freeness_check,
        ),
        Workload(
            "verify-panel",
            "the frozen verify-paper panel of 26 checks: oracles, Lefschetz "
            "series and small systems, no search",
            panel_inputs,
            panel_steps,
            panel_check,
        ),
    )
}
