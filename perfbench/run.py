"""Run one kummerlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search-sweep --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (``passrun.py``), so passes share no
warm state and untraced passes never run patched code.

``--trace 0`` runs passes one after another while the next one still fits
in ``--seconds`` (at least one).  Before each pass it times a few fresh
interpreters that import the library and build the inputs, and tops these
probes up to ``SETUP_PROBES``.  Times are reported at reference speed
(``reference.py``): a pass is divided by the mean time of the reference
kernel runs made between its steps, a probe by the kernel runs just before
and after it, and both are multiplied by ``REFERENCE_S``.  ``run_s``,
``cpu_s`` and ``peak_rss_mb`` are medians over the passes, ``setup_s`` the
median probe.  The times as measured are printed under ``raw.`` and kept in
the results file.

``--trace 1`` runs one traced pass and reports the per-layer metrics of
``layers.py``, with the tracing overhead estimated from the span count and
the wrapper cost calibrated in the same process.

Outputs are checked outside the timed region.  A table of the metrics
goes to standard output, followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The same figures, with the host
environment, are written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
import reference

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
# Set-up probes before each pass, and at least this many in a run.
PROBES_PER_PASS = 3
SETUP_PROBES = 21
# Every child must end within this many seconds of the start of the run.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, mode: str, deadline: float) -> dict | None:
    cmd = [
        sys.executable,
        str(HERE / "passrun.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for a {mode} child")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()}")
    if mode == "setup":
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probe(workload: str, seed: int, deadline: float) -> dict:
    """Wall seconds of one fresh set-up, with the reference kernel around it."""
    before = reference.timed()
    start = time.perf_counter()
    _child(workload, seed, "setup", deadline)
    wall = time.perf_counter() - start
    after = reference.timed()
    return {"wall": wall, "ref_wall": (before[0] + after[0]) / 2}


def _at_reference_speed(seconds: float, reference_s: float) -> float:
    return seconds / reference_s * reference.REFERENCE_S


def run_timed(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Passes and set-up probes, interleaved so both see the same host."""
    reference.timed()  # warm-up, not recorded
    _setup_probe(workload, seed, deadline)  # warm-up, not recorded
    setup: list[dict] = []
    passes: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        setup += [_setup_probe(workload, seed, deadline) for _ in range(PROBES_PER_PASS)]
        passes.append(_child(workload, seed, "pass", deadline))
        longest = max(longest, time.perf_counter() - round_start)
        if time.perf_counter() - start + longest > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_probe(workload, seed, deadline))
    # Each pass against the mean of the kernel runs made during it: single
    # kernel runs are noisy, and their mean tracks the pass better than the
    # runs next to each step do.
    metrics = {
        "run_s": statistics.median(
            _at_reference_speed(p["run_s"], statistics.fmean(p["reference_wall_s"]))
            for p in passes
        ),
        "cpu_s": statistics.median(
            _at_reference_speed(p["cpu_s"], statistics.fmean(p["reference_cpu_s"]))
            for p in passes
        ),
        "setup_s": statistics.median(
            _at_reference_speed(probe["wall"], probe["ref_wall"]) for probe in setup
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    # As measured, before scaling to reference speed; printed, not gated.
    raw = {
        "raw.run_s": statistics.fmean(p["run_s"] for p in passes),
        "raw.cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
        "raw.setup_s": statistics.median(probe["wall"] for probe in setup),
        "raw.reference_s": statistics.median(
            wall for p in passes for wall in p["reference_wall_s"]
        ),
    }
    return {
        "metrics": {name: metrics[name] for name, _ in END_TO_END},
        "units": dict(END_TO_END),
        "raw": raw,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "restored": True,
        "spans_within_pass": True,
        "passes": passes,
        "setup_probes": setup,
    }


def run_traced(workload: str, seed: int, deadline: float) -> dict:
    from layers import LAYER_METRICS, layer_metrics

    traced = _child(workload, seed, "trace", deadline)
    # Span wrapper cost calibrated inside the traced process, so host speed
    # changes between processes do not enter the overhead estimate.
    tracing_s = traced["spans"] * traced["span_cost_s"]
    metrics = layer_metrics(
        traced["table"], traced["counters"], traced["run_s"], tracing_s
    )
    return {
        "metrics": metrics,
        "units": {name: unit for name, unit, _ in LAYER_METRICS},
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "restored": traced["restored"],
        # Root spans lie inside the timed pass, so they cannot cover more
        # than its run_s; otherwise the spans or the clock are wrong and
        # the unattributed remainder would be negative.
        "spans_within_pass": traced["root_s"] <= traced["run_s"],
        "traced_pass": traced,
        "tracing_s": tracing_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env.use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        if args.trace:
            report = run_traced(args.workload, args.seed, deadline)
        else:
            report = run_timed(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and report["restored"] and report["spans_within_pass"]
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env.environment(),
        "correct": correct,
        "failed_frac": failed / attempted,
        **report,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    units = report["units"]
    for name, value in report["metrics"].items():
        print(f"{name:55s} {value:14.6f} {units[name]}")
    for name, value in report.get("raw", {}).items():
        print(f"{name:55s} {value:14.6f} s")
    print(f"{'failed_frac':55s} {failed / attempted:14.6f} ratio")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
