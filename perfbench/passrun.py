"""One pass of one workload in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --mode MODE

``setup`` imports the library, builds the inputs and exits; the caller
times the whole process.  ``pass`` runs the steps of the pass untraced and
runs the reference kernel between them; ``trace`` runs the pass under span
tracing.  Both check the outputs after the timed region and print one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time

import env
import reference

# Kernel time kept at this share of step time, so that kernel runs sample
# the host's speed all through the pass, more of them after a long step.
KERNEL_SHARE = 0.125


def _measure(steps) -> tuple[list, dict]:
    """Time the pass, with reference kernel runs between its steps.

    The kernel runs before the first step and, after each step, until
    kernel time is back at ``KERNEL_SHARE`` of step time (at least once
    after the last step).  Kernel time is not part of the pass's
    ``run_s``/``cpu_s``.
    """
    outputs: list = []
    reference.timed()  # warm-up
    kernel = [reference.timed()]
    run_s = cpu_s = 0.0
    for index, step in enumerate(steps):
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        outputs.append(step.run())
        run_s += time.perf_counter() - start_wall
        cpu_s += time.process_time() - start_cpu
        last = index == len(steps) - 1
        while sum(wall for wall, _ in kernel) < KERNEL_SHARE * run_s or last:
            kernel.append(reference.timed())
            last = False
    figures = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "reference_wall_s": [wall for wall, _ in kernel],
        "reference_cpu_s": [cpu for _, cpu in kernel],
    }
    return outputs, figures


def _noop() -> None:
    return None


def _span_cost(rounds: int = 9, calls: int = 20_000) -> float:
    """Seconds one span wrapper adds to a call, measured in this process.

    Bare and wrapped calls of a no-op alternate within each round, so a
    change of host speed between rounds moves both alike; the median
    round is kept.
    """
    import spans

    costs = []
    for _ in range(rounds):
        wrapped = spans.Tracer().wrap("calibration", _noop)
        start = time.perf_counter()
        for _ in range(calls):
            _noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def _traced(steps) -> tuple[list, dict]:
    import spans

    before = spans.snapshot()
    tracer = spans.Tracer()
    with spans.Tracing(tracer):
        steps = [
            step if step.label is None
            else dataclasses.replace(step, run=tracer.wrap(step.label, step.run))
            for step in steps
        ]
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        outputs = [step.run() for step in steps]
        figures = {
            "run_s": time.perf_counter() - start_wall,
            "cpu_s": time.process_time() - start_cpu,
        }
    figures["restored"] = spans.snapshot() == before
    figures["spans"] = len(tracer.span_start)
    figures["span_cost_s"] = _span_cost()
    figures["root_s"] = tracer.root_seconds()
    figures["table"] = tracer.aggregate()
    figures["counters"] = dict(tracer.counters)
    return outputs, figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    args = parser.parse_args(argv)

    env.use_checkout_source()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.mode == "setup":
        return 0
    measure = _traced if args.mode == "trace" else _measure
    outputs, figures = measure(workload.steps(inputs))
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figures["attempted"], figures["failed"] = workload.check(inputs, outputs)
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
