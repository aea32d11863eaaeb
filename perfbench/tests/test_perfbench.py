"""Tests of the benchmark itself: input draws, self-time arithmetic, patching.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import env  # noqa: E402

env.use_checkout_source()

import kummerlab  # noqa: E402
import kummerlab.cli  # noqa: E402
import kummerlab.lattice  # noqa: E402
import kummerlab.linalg  # noqa: E402
import kummerlab.search  # noqa: E402
import kummerlab.verify  # noqa: E402
import layers  # noqa: E402
import passrun  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kummerlab.rings import RingId  # noqa: E402

ANCHORS = len(workloads.FREENESS_ANCHORS)


def _draws(seed: int) -> list[list[str]]:
    return workloads.freeness_inputs(seed)[ANCHORS:]


def test_draw_is_deterministic_per_seed():
    assert workloads.freeness_inputs(7) == workloads.freeness_inputs(7)


def test_draw_differs_across_seeds():
    draws = {json.dumps(_draws(seed)) for seed in range(5)}
    assert len(draws) == 5


@pytest.mark.parametrize("seed", range(4))
def test_drawn_argv_parses_with_cell_order(seed):
    argvs = workloads.freeness_inputs(seed)
    assert len(argvs) == ANCHORS + len(workloads.FREENESS_CELLS)
    for argv, (ring, order, n, catalog) in zip(
        argvs[ANCHORS:], workloads.FREENESS_CELLS, strict=True
    ):
        flags = dict(zip(argv[1::2], argv[2::2]))
        assert argv[0] == "freeness"
        assert flags["--ring"] == ring and int(flags["--n"]) == n
        assert flags["--h"] in catalog
        auto = kummerlab.cli.parse_automorphism(ring, flags["--h"], flags["--a"])
        assert auto.translation.is_torsion_of_level(n)
        assert auto.linear.multiplicative_order() == order
        assert auto.order() == order


def test_anchor_argvs_parse():
    for ring, h, a, n in workloads.FREENESS_ANCHORS:
        auto = kummerlab.cli.parse_automorphism(ring, h, a)
        assert auto.translation.is_torsion_of_level(n)


def test_self_time_arithmetic_on_synthetic_tree():
    tracer = spans.Tracer()
    root = tracer.record("cli.main", 0.0, 10.0, -1)
    tracer.record("linalg.smith_normal_form", 1.0, 4.0, root)
    middle = tracer.record("lattice.torus_system_solvable", 5.0, 9.0, root)
    tracer.record("linalg.smith_normal_form", 6.0, 7.0, middle)
    tracer.record("fixedpoint.brute_force_fixed_point", 11.0, 11.5, -1)

    table = tracer.aggregate()
    assert table["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["lattice.torus_system_solvable"]["self_s"] == 3.0
    assert table["linalg.smith_normal_form"] == {
        "calls": 2,
        "total_s": 4.0,
        "self_s": 4.0,
    }
    assert tracer.root_seconds() == 10.5

    values = layers.layer_metrics(table, {}, traced_run_s=12.0, tracing_s=2.0)
    assert values["unattributed.self_s"] == pytest.approx(1.5)
    assert values["share.linalg"] == pytest.approx(4.0 / 12.0)
    assert values["share.oracles"] == pytest.approx(0.5 / 12.0)
    assert values["share.cli"] == pytest.approx(3.0 / 12.0)
    shares = [v for k, v in values.items() if k.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0)
    assert values["trace.overhead_frac"] == pytest.approx(0.2)
    assert list(values) == [name for name, _, _ in layers.LAYER_METRICS]


def _small_workload():
    code = kummerlab.cli.main(
        [
            "freeness",
            "--ring",
            "eisenstein",
            "--h",
            "[[z,0],[0,1]]",
            "--a",
            "(1/3,1/3)",
            "--n",
            "3",
        ]
    )
    assert code == 0
    items = [i for i in kummerlab.verify.build_panel() if i.name == "freeness_order3"]
    assert kummerlab.verify.panel_passed(kummerlab.verify.run_panel(items))


def test_patches_are_installed_and_restored(capsys):
    before = spans.snapshot()
    original = kummerlab.linalg.smith_normal_form
    tracer = spans.Tracer()
    with spans.Tracing(tracer):
        # Every namespace that holds the function sees the wrapper.
        assert kummerlab.linalg.smith_normal_form is not original
        assert kummerlab.lattice.smith_normal_form is not original
        assert kummerlab.smith_normal_form is not original
        _small_workload()
    capsys.readouterr()
    assert spans.snapshot() == before
    assert kummerlab.lattice.smith_normal_form is original

    table = tracer.aggregate()
    assert table["cli.main"]["calls"] == 1
    assert table["cli.render_json"]["calls"] == 1
    assert table["linalg.smith_normal_form"]["calls"] > 0
    assert table["linalg.IntMatrix.det"]["calls"] > 0
    assert tracer.counters["cli.render_json.bytes"] > 0
    self_total = sum(row["self_s"] for row in table.values())
    assert self_total == pytest.approx(tracer.root_seconds())


def test_patches_are_restored_after_an_error():
    before = spans.snapshot()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracing(spans.Tracer()):
            1 / 0
    assert spans.snapshot() == before


def test_search_steps_split_the_sweep_in_catalog_order():
    catalog = workloads.search_inputs(0)[: 2 * workloads.SEARCH_CHUNK + 5]
    steps = workloads.search_steps(catalog)
    assert len(steps) == 1 + 3
    assert steps[0].run() == workloads.search_inputs(0)
    chunked = [r for step in steps[1:] for r in step.run()]
    whole = kummerlab.search.run_search(
        workloads.SEARCH_N, RingId.from_token(workloads.SEARCH_RING), linears=catalog
    )
    assert workloads.search_rows(chunked) == workloads.search_rows(whole)


def test_reference_kernel_keeps_pace_with_the_steps(monkeypatch):
    monkeypatch.setattr(reference, "timed", lambda: (0.01, 0.01))
    steps = [workloads.Step(lambda i=i: i) for i in range(3)]
    steps.append(workloads.Step(lambda: time.sleep(0.4) or 3))
    outputs, figures = passrun._measure(steps)
    assert outputs == [0, 1, 2, 3]
    kernel_s = sum(figures["reference_wall_s"])
    # Kernel runs before the first step, after the last, and enough of
    # them to stay at KERNEL_SHARE of step time.
    assert len(figures["reference_wall_s"]) >= 2
    assert kernel_s >= passrun.KERNEL_SHARE * figures["run_s"]
    assert kernel_s < passrun.KERNEL_SHARE * figures["run_s"] + 0.02


def test_times_are_scaled_by_the_reference_kernel():
    assert run._at_reference_speed(2.0, 0.1) == pytest.approx(20 * reference.REFERENCE_S)


def test_panel_check_names_match_the_panel():
    names = tuple(item.name for item in kummerlab.verify.build_panel())
    assert names == layers.PANEL_CHECK_NAMES
    assert len(names) == workloads.PANEL_CHECKS
    steps = workloads.panel_steps(workloads.panel_inputs(0))
    assert [step.label for step in steps] == [
        spans.CHECK_PREFIX + name for name in names
    ]


def test_benchmark_json_matches_the_code():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(layers.LAYER_METRICS)
