"""Per-layer metrics computed from one traced pass.

``LAYER_METRICS`` fixes the names, units and directions; ``BENCHMARK.json``
lists the same metrics.  Each function span contributes ``<span>.calls``
and ``<span>.self_s``; counters recorded next to the spans and a few
ratios of useful outcomes to attempts follow; ``share.<group>`` gives
each module group's self time as a fraction of the traced pass, with
``share.unattributed`` for time outside every span, so the shares add up
to 1.
"""

from __future__ import annotations

from spans import CHECK_PREFIX, FUNCTIONS, METHODS

# Spans reported by self time only.
SELF_ONLY = ("search.run_search", "cli.main")
# Spans reported by call count only.
CALLS_ONLY = ("enriques.classify_free_quotient",)

ORACLES = (
    "fixedpoint.brute_force_fixed_point",
    "lattice.solvable_by_enumeration",
    "linalg.elementary_divisors_via_minors",
    "verify.supertrace_by_expansion",
    "verify.counts_by_enumeration",
)

GROUPS = (
    "search",
    "torus",
    "fixedpoint",
    "lattice",
    "linalg",
    "lefschetz",
    "oracles",
    "verify",
    "cli",
    "enriques",
    "unattributed",
)

COUNTERS = (
    ("search.torsion_points.points", "count"),
    ("search.linear_candidates.accepted", "count"),
    ("search.pairs_decided", "count"),
    ("search.pairs_free", "count"),
    ("fixedpoint.orbit_types.types", "count"),
    ("fixedpoint.orbit_system.rows_max", "count"),
    ("fixedpoint.orbit_system.cols_max", "count"),
    ("fixedpoint.orbit_system.entries", "count"),
    ("fixedpoint.verify_certificate.witness_calls", "count"),
    ("fixedpoint.verify_certificate.obstruction_calls", "count"),
    ("linalg.smith_normal_form.entries", "count"),
    ("cli.render_json.bytes", "bytes"),
)

# ratio name -> (numerator counter, denominator: counter or "<span>.calls")
RATIOS = {
    "search.free_ratio": ("search.pairs_free", "search.pairs_decided"),
    "fixedpoint.fixed_point_ratio": (
        "fixedpoint.has_fixed_point.found",
        "fixedpoint.has_fixed_point.calls",
    ),
    "lattice.torus_system_solvable.solvable_ratio": (
        "lattice.torus_system_solvable.solvable",
        "lattice.torus_system_solvable.calls",
    ),
}

PANEL_CHECK_NAMES = (
    "lefschetz_order5",
    "kummer_series_order5",
    "kummer_series_order5_closed_form",
    "det_pattern_order5",
    "character_counts_order5",
    "character_counts_order5_exhaustive",
    "freeness_order3",
    "fixed_point_order3_shifted",
    "freeness_order4",
    "fixed_point_order4_square",
    "freeness_order4_halfpoint",
    "freeness_order6",
    "fixed_point_order6_cube",
    "freeness_k6_order3",
    "classification_k6_order3",
    "classification_order3",
    "classification_order4",
    "decomposition_count_4_3",
    "decomposition_counts_odd_index",
    "decomposition_10_6",
    "solvability_oracle_sampled",
    "fixed_point_oracle_level12",
    "supertrace_random_panel",
    "supertrace_geometric_closed_form",
    "supertrace_sign_closed_form",
    "integrality_catalog",
)


def span_names() -> list[str]:
    return [f"{m}.{f}" for m, f in FUNCTIONS] + [f"{m}.{c}.{f}" for m, c, f in METHODS]


def group_of(span: str) -> str:
    if span in ORACLES:
        return "oracles"
    module = span.split(".", 1)[0]
    return "lefschetz" if module == "series" else module


def _spec() -> list[tuple[str, str, str]]:
    spec = []
    for span in span_names():
        if span not in SELF_ONLY:
            spec.append((f"{span}.calls", "count", "lower"))
        if span not in CALLS_ONLY:
            spec.append((f"{span}.self_s", "s", "lower"))
    spec += [(name, unit, "lower") for name, unit in COUNTERS]
    spec += [(name, "ratio", "higher") for name in RATIOS]
    spec += [(f"{CHECK_PREFIX}{name}.s", "s", "lower") for name in PANEL_CHECK_NAMES]
    spec += [(f"share.{group}", "ratio", "lower") for group in GROUPS]
    spec.append(("unattributed.self_s", "s", "lower"))
    spec.append(("trace.overhead_frac", "ratio", "lower"))
    return spec


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = tuple(_spec())


def layer_metrics(
    table: dict[str, dict[str, float]],
    counters: dict[str, int],
    traced_run_s: float,
    tracing_s: float,
) -> dict[str, float]:
    """Per-layer values from an aggregated span table and its counters.

    ``tracing_s`` is the estimated time the span wrappers added to the
    traced pass; ``trace.overhead_frac`` relates it to the rest of the pass.
    """
    values: dict[str, float] = {}
    for span in span_names():
        row = table.get(span, {"calls": 0, "self_s": 0.0})
        values[f"{span}.calls"] = row["calls"]
        values[f"{span}.self_s"] = row["self_s"]
    values.update((name, counters.get(name, 0)) for name, _ in COUNTERS)
    for name, (num, den) in RATIOS.items():
        numerator = counters.get(num, 0)
        denominator = values[den] if den in values else counters.get(den, 0)
        values[name] = numerator / denominator if denominator else 0.0
    for name in PANEL_CHECK_NAMES:
        values[f"{CHECK_PREFIX}{name}.s"] = table.get(CHECK_PREFIX + name, {}).get(
            "total_s", 0.0
        )
    attributed = sum(row["self_s"] for row in table.values())
    unattributed = traced_run_s - attributed
    shares = dict.fromkeys(GROUPS, 0.0)
    for span, row in table.items():
        group = "verify" if span.startswith(CHECK_PREFIX) else group_of(span)
        shares[group] += row["self_s"]
    shares["unattributed"] = unattributed
    values.update((f"share.{g}", s / traced_run_s) for g, s in shares.items())
    values["unattributed.self_s"] = unattributed
    values["trace.overhead_frac"] = tracing_s / (traced_run_s - tracing_s)
    return {name: values[name] for name, _, _ in LAYER_METRICS}
