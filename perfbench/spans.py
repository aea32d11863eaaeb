"""Span tracing around the public functions of each kummerlab module.

Every traced function is replaced, for the duration of a ``Tracing``
block, by a wrapper that records one span per call: name, start, end and
the span that was open when it was called.  The wrapper is installed in
every kummerlab module namespace that holds the function (so calls made
through ``from .linalg import smith_normal_form`` are caught too) and, for
methods, in the class.  Spans are kept in compact arrays in memory and
aggregated once, after the block.  Leaving the block restores every
patched attribute to the object it held before.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

PACKAGE = "kummerlab"

# (module, function) pairs traced wherever a module namespace holds them.
FUNCTIONS = (
    ("search", "run_search"),
    ("search", "torsion_points"),
    ("search", "linear_candidates"),
    ("torus", "orbit_sum_data"),
    ("fixedpoint", "group_acts_freely"),
    ("fixedpoint", "has_fixed_point"),
    ("fixedpoint", "orbit_types"),
    ("fixedpoint", "orbit_system"),
    ("fixedpoint", "verify_certificate"),
    ("fixedpoint", "brute_force_fixed_point"),
    ("lattice", "torus_system_solvable"),
    ("lattice", "verify_witness"),
    ("lattice", "verify_obstruction"),
    ("lattice", "solvable_by_enumeration"),
    ("linalg", "smith_normal_form"),
    ("linalg", "elementary_divisors_via_minors"),
    ("lefschetz", "kummer_series"),
    ("lefschetz", "invariant_character_counts"),
    ("lefschetz", "supertrace_sym_series"),
    ("verify", "supertrace_by_expansion"),
    ("verify", "counts_by_enumeration"),
    ("cli", "main"),
    ("cli", "render_json"),
    ("enriques", "classify_free_quotient"),
)

# (module, class, method) triples traced on the class itself.
METHODS = (
    ("torus", "TorusEndo", "apply"),
    ("torus", "TorusAuto", "__pow__"),
    ("torus", "TorusAuto", "order"),
    ("linalg", "IntMatrix", "__matmul__"),
    ("linalg", "IntMatrix", "det"),
    ("linalg", "IntMatrix", "apply"),
    ("series", "TruncatedSeries", "exp"),
)

CHECK_PREFIX = "verify.check."


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def _namespaces() -> list:
    """The package and every loaded kummerlab submodule."""
    return [
        m
        for key, m in sorted(sys.modules.items())
        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


# ---------------------------------------------------------------------------
# Counters recorded next to the spans


def _count_len(key: str):
    """Observer adding the length of the result to counter ``key``."""

    def observe(counters: Counter, args, kwargs, result) -> None:
        counters[key] += len(result)

    return observe


def _observe_orbit_system(counters: Counter, args, kwargs, result) -> None:
    system = result[0]
    key = "fixedpoint.orbit_system."
    counters[key + "rows_max"] = max(counters[key + "rows_max"], system.rows)
    counters[key + "cols_max"] = max(counters[key + "cols_max"], system.cols)
    counters[key + "entries"] += system.rows * system.cols


def _observe_snf(counters: Counter, args, kwargs, result) -> None:
    matrix = args[0]
    counters["linalg.smith_normal_form.entries"] += matrix.rows * matrix.cols


def _observe_solvable(counters: Counter, args, kwargs, result) -> None:
    if result.solvable:
        counters["lattice.torus_system_solvable.solvable"] += 1


def _observe_has_fixed_point(counters: Counter, args, kwargs, result) -> None:
    if result.found:
        counters["fixedpoint.has_fixed_point.found"] += 1


def _observe_certificate(counters: Counter, args, kwargs, result) -> None:
    certificate = args[2] if len(args) > 2 else kwargs["certificate"]
    kind = "witness" if certificate.witness is not None else "obstruction"
    counters[f"fixedpoint.verify_certificate.{kind}_calls"] += 1


def _observe_search_decision(counters: Counter, args, kwargs, result) -> None:
    counters["search.pairs_decided"] += 1
    if result.free:
        counters["search.pairs_free"] += 1


OBSERVERS = {
    "search.torsion_points": _count_len("search.torsion_points.points"),
    "search.linear_candidates": _count_len("search.linear_candidates.accepted"),
    "fixedpoint.orbit_types": _count_len("fixedpoint.orbit_types.types"),
    "fixedpoint.orbit_system": _observe_orbit_system,
    "fixedpoint.has_fixed_point": _observe_has_fixed_point,
    "fixedpoint.verify_certificate": _observe_certificate,
    "lattice.torus_system_solvable": _observe_solvable,
    "linalg.smith_normal_form": _observe_snf,
    # render_json emits ASCII-only JSON, so characters are bytes.
    "cli.render_json": _count_len("cli.render_json.bytes"),
}

# Observers that apply only where the given module calls the function.
CALLER_OBSERVERS = {
    ("search", "fixedpoint.group_acts_freely"): _observe_search_decision,
}


class Tracer:
    """Spans of one traced pass, held in memory until ``aggregate``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.counters: Counter = Counter()

    def record(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span (used by tests to build synthetic trees)."""
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)
        return index

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        opened = self._open
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(opened[-1] if opened else -1)
            starts.append(0.0)
            ends.append(0.0)
            opened.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                opened.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time.

        A span's self time is its duration minus the durations of its
        direct children; children of one span never overlap, because the
        traced code runs on one thread.
        """
        count = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += durations[i]
        table: dict[str, dict[str, float]] = {}
        for i in range(count):
            row = table.setdefault(
                self.names[self.span_name[i]],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            row["total_s"] += durations[i]
            row["self_s"] += durations[i] - covered[i]
        return table

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        )


class Tracing:
    """Context manager that installs the wrappers and restores them on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracing":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self) -> None:
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(_module(mod_name), fn_name)
            name = f"{mod_name}.{fn_name}"
            for namespace in _namespaces():
                for attr, value in list(vars(namespace).items()):
                    if value is not original:
                        continue
                    caller = namespace.__name__.rpartition(".")[2]
                    observe = CALLER_OBSERVERS.get((caller, name), OBSERVERS.get(name))
                    self._replace(namespace, attr, self.tracer.wrap(name, original, observe))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(_module(mod_name), cls_name)
            name = f"{mod_name}.{cls_name}.{meth}"
            self._replace(cls, meth, self.tracer.wrap(name, cls.__dict__[meth]))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __exit__(self, *exc_info) -> None:
        self.restore()


def snapshot() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every kummerlab namespace and class."""
    ids = {}
    for namespace in _namespaces():
        for attr, value in vars(namespace).items():
            ids[(namespace.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == namespace.__name__:
                for meth, member in vars(value).items():
                    ids[(f"{namespace.__name__}.{attr}", meth)] = id(member)
    return ids
