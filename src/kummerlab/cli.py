"""Command-line front end.

``kummer-lab`` exposes the library's decisions as subcommands that print
deterministic JSON (default) or plain text.  Exit codes: 0 for success,
1 for a mathematical check that fails (a verification mismatch, or a
result that fails its own re-check), 2 for usage or parse errors.

Element grammar: a ring element is a sum of terms ``p/q`` and ``p/q*z``
where ``z`` denotes the ring's distinguished root of unity (``i`` for the
gaussian ring, a primitive cube root for the eisenstein ring, ``1`` for
the plain integer ring).  Points are ``(e1,e2)``; matrices are
``[[a,b],[c,d]]`` with ring-integer entries.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .enriques import (
    all_single_factor,
    classify_free_quotient,
    decomposition_search,
)
from .fixedpoint import (
    GRID_LEVEL_CAP,
    CertificateOutcome,
    NotNTorsionError,
    brute_force_fixed_point,
    group_acts_freely,
    verify_certificate,
)
from .lefschetz import (
    DegenerateActionError,
    NonIntegralLefschetzError,
    absorbs_translation,
    invariant_character_counts,
    kummer_series,
    lefschetz_kummer,
    lefschetz_torus,
)
from .linalg import SelfCheckError
from .rings import RingElem, RingId
from .search import run_search
from .torus import TorusAuto, TorusEndo, TorusPoint, UnsupportedAutomorphismError
from .verify import classification_payload, decomposition_labels, run_panel

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


class GrammarError(ValueError):
    """Raised when an element, point, or matrix fails to parse."""


_TERM = re.compile(r"([+-]?)([^+-]+)")
_TERM_SHAPE = re.compile(r"[+-]?[^+-]+(?:[+-][^+-]+)*")


def parse_element(text: str, ring: RingId) -> tuple[Fraction, Fraction]:
    """The coordinates ``(x, y)`` of ``x + y*z``; the integer ring folds ``z = 1``."""
    s = text.replace(" ", "")
    if not s or not _TERM_SHAPE.fullmatch(s):
        raise GrammarError(f"cannot parse element {text!r}")
    x = Fraction(0)
    y = Fraction(0)
    for sign_text, body in _TERM.findall(s):
        sign = -1 if sign_text == "-" else 1
        try:
            if body == "z":
                y += sign
            elif body.endswith("*z"):
                y += sign * Fraction(body[:-2])
            else:
                x += sign * Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise GrammarError(f"cannot parse element {text!r}") from exc
    if ring is RingId.RATIONAL_INT:
        return x + y, Fraction(0)
    return x, y


def format_element(element: tuple[Fraction, Fraction]) -> str:
    x, y = element
    if y == 0:
        return str(x)
    if y == 1:
        zeta_text = "z"
    elif y == -1:
        zeta_text = "-z"
    else:
        zeta_text = f"{y}*z"
    if x == 0:
        return zeta_text
    if zeta_text.startswith("-"):
        return f"{x}{zeta_text}"
    return f"{x}+{zeta_text}"


def _split_top(text: str, opener: str, closer: str) -> list[str]:
    depth = 0
    parts: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch == opener:
            depth += 1
        elif ch == closer:
            depth -= 1
            if depth < 0:
                raise GrammarError(f"unbalanced {closer!r} in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise GrammarError(f"unbalanced {opener!r} in {text!r}")
    parts.append("".join(current))
    return parts


def parse_point(text: str, ring: RingId) -> TorusPoint:
    s = text.replace(" ", "")
    if not (s.startswith("(") and s.endswith(")")):
        raise GrammarError(f"point must look like (e1,e2), got {text!r}")
    parts = _split_top(s[1:-1], "(", ")")
    if len(parts) != 2:
        raise GrammarError(f"point must have two coordinates, got {text!r}")
    return TorusPoint.from_vector(
        ring, (*parse_element(parts[0], ring), *parse_element(parts[1], ring))
    )


def format_point(point: TorusPoint) -> str:
    coords = point.coords()
    return f"({format_element(coords[:2])},{format_element(coords[2:])})"


def parse_matrix(text: str, ring: RingId) -> TorusEndo:
    s = text.replace(" ", "")
    if not (s.startswith("[") and s.endswith("]")):
        raise GrammarError(f"matrix must look like [[a,b],[c,d]], got {text!r}")
    row_texts = _split_top(s[1:-1], "[", "]")
    if len(row_texts) != 2:
        raise GrammarError(f"matrix must have two rows, got {text!r}")
    rows = []
    for row_text in row_texts:
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise GrammarError(f"matrix rows must be bracketed, got {text!r}")
        cells = _split_top(row_text[1:-1], "[", "]")
        if len(cells) != 2:
            raise GrammarError(f"matrix rows must have two entries, got {text!r}")
        row = []
        for cell in cells:
            x, y = parse_element(cell, ring)
            if x.denominator != 1 or y.denominator != 1:
                raise GrammarError(f"matrix entry {cell!r} is not a ring integer")
            row.append(RingElem(ring, int(x), int(y)))
        rows.append(row)
    return TorusEndo(rows)


def format_matrix(endo: TorusEndo) -> str:
    rows = [
        ",".join(format_element((e.x, e.y)) for e in row) for row in endo.entries
    ]
    return "[" + ",".join(f"[{row}]" for row in rows) + "]"


def parse_automorphism(ring_token: str, h_text: str, a_text: str) -> TorusAuto:
    try:
        ring = RingId.from_token(ring_token)
    except ValueError as exc:
        raise GrammarError(str(exc)) from exc
    return TorusAuto(parse_matrix(h_text, ring), parse_point(a_text, ring))


@dataclass(frozen=True)
class CommandSpec:
    """A fully parsed invocation; formatting one reparses to an equal spec."""

    command: str
    ring: str | None = None
    h_text: str | None = None
    a_text: str | None = None
    n: int | None = None
    d: int | None = None
    dim: int | None = None
    chi: int | None = None
    level: int | None = None
    max_norm: int | None = None
    fmt: str = "json"

    def to_argv(self) -> list[str]:
        argv = [self.command]
        if self.ring is not None:
            argv += ["--ring", self.ring]
        if self.h_text is not None:
            argv += ["--h", self.h_text]
        if self.a_text is not None:
            argv += ["--a", self.a_text]
        for flag, value in (
            ("--n", self.n),
            ("--d", self.d),
            ("--dim", self.dim),
            ("--chi", self.chi),
            ("--level", self.level),
            ("--max-norm", self.max_norm),
        ):
            if value is not None:
                argv += [flag, str(value)]
        argv += ["--format", self.fmt]
        return argv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummer-lab",
        description="Exact-arithmetic decisions for natural automorphisms "
        "of generalized Kummer varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def formatted(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("json", "text"),
            default="json",
            help="output format (default json)",
        )

    def automorphism_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ring",
            required=True,
            choices=tuple(r.value for r in RingId),
            help="coefficient ring of the torus",
        )
        p.add_argument(
            "--h",
            required=True,
            dest="h_text",
            metavar="MATRIX",
            help='linear part, e.g. "[[z,0],[0,1]]"',
        )
        p.add_argument(
            "--a",
            required=True,
            dest="a_text",
            metavar="POINT",
            help='translation part, e.g. "(1/3,1/3)"',
        )
        p.add_argument("--n", required=True, type=int, help="configuration length")

    lefschetz = sub.add_parser(
        "lefschetz", help="topological Lefschetz number on the Kummer fibre"
    )
    automorphism_flags(lefschetz)
    formatted(lefschetz)

    freeness = sub.add_parser(
        "freeness", help="decide whether the generated group acts freely"
    )
    automorphism_flags(freeness)
    freeness.add_argument(
        "--level",
        type=int,
        default=None,
        help="also run the torsion-grid oracle at this level and require agreement",
    )
    formatted(freeness)

    characters = sub.add_parser(
        "characters", help="census of invariant torsion characters by exact order"
    )
    automorphism_flags(characters)
    formatted(characters)

    classify = sub.add_parser(
        "classify", help="classify the quotient of a free order-d action"
    )
    classify.add_argument("--n", required=True, type=int)
    classify.add_argument("--d", required=True, type=int, help="group order")
    formatted(classify)

    decompose = sub.add_parser(
        "decompose", help="enumerate factor decompositions for (dimension, chi)"
    )
    decompose.add_argument("--dim", required=True, type=int)
    decompose.add_argument("--chi", required=True, type=int)
    formatted(decompose)

    search = sub.add_parser(
        "search", help="sweep bounded (h, a) pairs for free actions"
    )
    search.add_argument(
        "--ring", required=True, choices=tuple(r.value for r in RingId)
    )
    search.add_argument("--n", required=True, type=int)
    search.add_argument(
        "--level", type=int, default=None, help="translation torsion level (default n)"
    )
    search.add_argument(
        "--max-norm", type=int, default=1, help="norm bound for matrix entries"
    )
    search.add_argument(
        "--h",
        dest="h_text",
        metavar="MATRIX",
        help="restrict the sweep to this linear part",
    )
    formatted(search)

    verify = sub.add_parser(
        "verify-paper", help="recompute the full reference panel and compare"
    )
    formatted(verify)

    return parser


def parse_command(argv: list[str]) -> CommandSpec:
    namespace = build_parser().parse_args(argv)
    ring = getattr(namespace, "ring", None)
    h_text = getattr(namespace, "h_text", None)
    a_text = getattr(namespace, "a_text", None)
    if ring is not None:
        ring_id = RingId.from_token(ring)
        if h_text is not None:
            h_text = format_matrix(parse_matrix(h_text, ring_id))
        if a_text is not None:
            a_text = format_point(parse_point(a_text, ring_id))
    return CommandSpec(
        command=namespace.command,
        ring=ring,
        h_text=h_text,
        a_text=a_text,
        n=getattr(namespace, "n", None),
        d=getattr(namespace, "d", None),
        dim=getattr(namespace, "dim", None),
        chi=getattr(namespace, "chi", None),
        level=getattr(namespace, "level", None),
        max_norm=getattr(namespace, "max_norm", None),
        fmt=namespace.fmt,
    )


# ---------------------------------------------------------------------------
# Handlers


def _auto_payload(spec: CommandSpec, auto: TorusAuto) -> dict:
    return {
        "ring": spec.ring,
        "h": format_matrix(auto.linear),
        "a": format_point(auto.translation),
        "n": spec.n,
    }


def _fraction_str(value: Fraction) -> str:
    return str(Fraction(value))


def _run_lefschetz(spec: CommandSpec) -> tuple[dict, int]:
    auto = parse_automorphism(spec.ring, spec.h_text, spec.a_text)
    if spec.n < 2:
        raise GrammarError("--n must be at least 2")
    if not auto.translation.is_torsion_of_level(spec.n):
        raise GrammarError(f"--a is not {spec.n}-torsion")
    matrix = auto.linear.induced_matrix()
    torus = lefschetz_torus(matrix)
    vector = auto.translation.vector(spec.n)
    if torus and not absorbs_translation(matrix, vector, spec.n):
        # The number computed is h's.  It is (h, a)'s too when a = (I - h)b
        # with b in E[n]: translation by b keeps the fibre and conjugates h
        # to (h, a).
        raise GrammarError(f"--a is not in (I - h)E[{spec.n}]")
    payload = _auto_payload(spec, auto)
    payload["command"] = "lefschetz"
    payload["induced_matrix"] = [list(row) for row in matrix.entries]
    payload["torus_lefschetz"] = torus
    payload["series"] = [int(c) for c in kummer_series(matrix, spec.n).coefficients]
    try:
        payload["kummer_lefschetz"] = lefschetz_kummer(matrix, spec.n)
        payload["status"] = "ok"
    except DegenerateActionError:
        payload["kummer_lefschetz"] = None
        payload["status"] = "degenerate"
    except NonIntegralLefschetzError as exc:
        payload["kummer_lefschetz"] = None
        payload["status"] = "non_integral"
        payload["detail"] = str(exc)
        return payload, EXIT_MATH
    return payload, EXIT_OK


def _certificate_payload(cert) -> dict:
    data: dict = {
        "element_power": cert.element_power,
        "orbit_type": list(cert.orbit_type),
        "outcome": cert.outcome.value,
    }
    if cert.witness is not None:
        data["witness"] = [
            [_fraction_str(v) for v in point.coords()] for point in cert.witness
        ]
    if cert.obstruction is not None:
        functional, pairing = cert.obstruction
        data["obstruction"] = {
            "functional": list(functional),
            "pairing": _fraction_str(pairing),
        }
    return data


def _run_freeness(spec: CommandSpec) -> tuple[dict, int]:
    if spec.level is not None and not 1 <= spec.level <= GRID_LEVEL_CAP:
        raise GrammarError(f"--level must lie in 1..{GRID_LEVEL_CAP}")
    auto = parse_automorphism(spec.ring, spec.h_text, spec.a_text)
    report = group_acts_freely(auto, spec.n)
    payload = _auto_payload(spec, auto)
    payload["command"] = "freeness"
    payload["order"] = report.order
    payload["free"] = report.free
    powers = []
    for test in report.tested:
        certs = [_certificate_payload(c) for c in test.report.certificates]
        for cert in test.report.certificates:
            if not verify_certificate(auto, spec.n, cert):
                payload["status"] = "certificate_rejected"
                payload["powers"] = powers
                return payload, EXIT_MATH
        powers.append(
            {
                "power": test.power,
                "has_fixed_point": test.report.found,
                "certificates": certs,
            }
        )
    payload["powers"] = powers
    payload["status"] = "free" if report.free else "not_free"
    if spec.level is not None:
        agreement = True
        for test in report.tested:
            brute = brute_force_fixed_point(auto**test.power, spec.n, spec.level)
            if brute != test.report.found:
                agreement = False
        payload["oracle"] = {"level": spec.level, "agrees": agreement}
        if not agreement:
            payload["status"] = "oracle_mismatch"
            return payload, EXIT_MATH
    return payload, EXIT_OK


def _run_characters(spec: CommandSpec) -> tuple[dict, int]:
    auto = parse_automorphism(spec.ring, spec.h_text, spec.a_text)
    if spec.n < 1:
        raise GrammarError("--n must be positive")
    counts = invariant_character_counts(auto.linear.induced_matrix(), spec.n)
    payload = _auto_payload(spec, auto)
    payload["command"] = "characters"
    payload["modulus"] = counts.modulus
    payload["counts"] = {str(d): c for d, c in counts.counts}
    payload["total"] = counts.total()
    return payload, EXIT_OK


def _run_classify(spec: CommandSpec) -> tuple[dict, int]:
    classification = classify_free_quotient(spec.n, spec.d)
    payload = {
        "command": "classify",
        "n": spec.n,
        "d": spec.d,
    }
    payload.update(classification_payload(classification))
    if classification.reason is not None:
        payload["reason"] = classification.reason
    return payload, EXIT_OK


def _run_decompose(spec: CommandSpec) -> tuple[dict, int]:
    decompositions = decomposition_search(spec.dim, spec.chi)
    payload = {
        "command": "decompose",
        "dimension": spec.dim,
        "chi": spec.chi,
        "count": len(decompositions),
        "decompositions": [decomposition_labels(d) for d in decompositions],
        "irreducible_only": all_single_factor(decompositions),
    }
    return payload, EXIT_OK


def _run_search(spec: CommandSpec) -> tuple[dict, int]:
    ring = RingId.from_token(spec.ring)
    linears = None
    if spec.h_text is not None:
        linears = [parse_matrix(spec.h_text, ring)]
    results = run_search(
        spec.n,
        ring,
        level=spec.level,
        max_norm=spec.max_norm or 1,
        linears=linears,
    )
    payload = {
        "command": "search",
        "ring": spec.ring,
        "n": spec.n,
        "level": spec.level if spec.level is not None else spec.n,
        "max_norm": spec.max_norm or 1,
        "restricted_to": spec.h_text,
        "count": len(results),
        "results": [
            {
                "h": format_matrix(r.linear),
                "a": format_point(r.translation),
                "order": r.order,
                "classification": classification_payload(r.classification),
            }
            for r in results
        ],
    }
    return payload, EXIT_OK


def _run_verify(spec: CommandSpec) -> tuple[dict, int]:
    results = run_panel()
    payload = {
        "command": "verify-paper",
        "checks": [
            {
                "name": r.name,
                "expected": r.expected,
                "actual": r.actual,
                "passed": r.passed,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return payload, EXIT_OK if payload["passed"] else EXIT_MATH


_HANDLERS = {
    "lefschetz": _run_lefschetz,
    "freeness": _run_freeness,
    "characters": _run_characters,
    "classify": _run_classify,
    "decompose": _run_decompose,
    "search": _run_search,
    "verify-paper": _run_verify,
}


# ---------------------------------------------------------------------------
# Rendering and entry point


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def render_text(payload: dict) -> str:
    if payload.get("command") == "verify-paper":
        lines = []
        for check in payload["checks"]:
            if check["passed"]:
                lines.append(f"PASS {check['name']}")
            else:
                lines.append(
                    f"FAIL {check['name']}: expected "
                    f"{json.dumps(check['expected'], sort_keys=True)}, got "
                    f"{json.dumps(check['actual'], sort_keys=True)}"
                )
        lines.append("all checks passed" if payload["passed"] else "FAILURES present")
        return "\n".join(lines)
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        spec = parse_command(args)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except GrammarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        payload, code = _HANDLERS[spec.command](spec)
    except (
        GrammarError,
        NotNTorsionError,
        UnsupportedAutomorphismError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SelfCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    print(render_json(payload) if spec.fmt == "json" else render_text(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
