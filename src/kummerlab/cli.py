"""Command-line front end.

``kummer-lab`` exposes the library's decisions as subcommands that print
deterministic JSON (default) or plain text.  Exit codes: 0 for success,
1 for a mathematical check that fails (a verification mismatch, or a
result that fails its own re-check), 2 for usage or parse errors.

Element grammar: a ring element is a signed sum of terms ``p``, ``p/q``,
``p*z``, ``p/q*z`` and ``z``, with ``p`` and ``q`` strings of at most
``NUMERAL_DIGIT_CAP`` digits ``0-9``; ``z`` denotes the curve's second
period (``i`` for the gaussian ring, a primitive cube root of unity for the
eisenstein ring, a period ``tau`` for the integer ring).  Points are
``(e1,e2)`` and parse without a ring: their coordinates mean the same in
every ring.  Matrices are ``[[a,b],[c,d]]`` with ring-integer entries, so
an integer-ring entry has no ``z``.  Spaces are ignored; a point or a
matrix of any other shape is refused with the shape it must have.

Each call parses argv once; a handler takes the argparse namespace and
builds its ring, matrix and point from it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction

from .enriques import (
    all_single_factor,
    classify_free_quotient,
    decomposition_search,
)
from .fixedpoint import (
    GRID_LEVEL_CAP,
    brute_force_fixed_point,
    group_acts_freely,
    verify_certificate,
)
from .lattice import image_contains
from .lefschetz import (
    invariant_character_counts,
    kummer_series,
    lefschetz_from_census,
    lefschetz_torus,
)
from .linalg import SelfCheckError
from .rings import RingElem, RingId, induced_matrix
from .search import run_search
from .torus import TorusAuto, TorusEndo, TorusPoint
from .verify import classification_payload, decomposition_labels
from .verify import panel_passed, run_panel

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

# The largest ``freeness --n``.  A tested power of prime order p has types
# up to ``n`` parts, and the system of the all-ones type is (4n+4) x 4n.
# At n = 48 the command took 0.15-0.6 s raw on eight Eisenstein, Gaussian
# and integer maps of orders 2 to 12 (Python 3.11, one core of a shared
# 2-vCPU Xeon); the panel's order-6 map took 0.3 s at 48, 0.5 s at 60
# and 0.7 s at 72, and Eisenstein [[z,0],[0,1]] with (1/3,1/3) 0.9 s at
# n = 120.  ``search`` decides freeness at its n, so the cap bounds
# ``search --n`` too.  At the cap the norm-1 sweeps took 0.3-1.9 s under
# ``python -O``, Eisenstein at level 48 the slowest; at --max-norm 4 the
# Eisenstein sweep took 17-19 s and peaked at 139 MB, the Gaussian 9-11 s
# and 152 MB.
FREENESS_N_CAP = 48


class GrammarError(ValueError):
    """Raised when an element, point, or matrix fails to parse."""


# The longest numeral.  A coordinate is a sum of terms of absolute value at
# most 10**NUMERAL_DIGIT_CAP, so the integers printed from a matrix entry
# (its echo and its induced-matrix entries, sums of a few coordinates) have
# about NUMERAL_DIGIT_CAP digits: reaching Python's 4,300-digit limit on
# int-to-text conversion would take 10**3000 terms.  ``classify --n`` and
# ``--d`` have the same cap, so the largest number it prints, 2n - 2, has
# at most one digit more.
NUMERAL_DIGIT_CAP = 1000
_NUMERAL = rf"[0-9]{{1,{NUMERAL_DIGIT_CAP}}}"
_TERM = rf"(?:({_NUMERAL})(?:/({_NUMERAL}))?(\*z)?|z)"
_ELEMENT = re.compile(rf"[+-]?{_TERM}(?:[+-]{_TERM})*")
_SIGNED_TERM = re.compile(rf"([+-]?){_TERM}")
# A point and a matrix each have one shape, whose cells are element texts:
# no bracket, parenthesis or comma.
_CELL = r"([^][(),]*)"
_POINT = re.compile(rf"\({_CELL},{_CELL}\)")
_MATRIX = re.compile(rf"\[\[{_CELL},{_CELL}\],\[{_CELL},{_CELL}\]\]")

# The most characters of a rejected text that an error message quotes.
QUOTE_CAP = 64


def _quote(text: str) -> str:
    """``text`` for an error message: whole, or a prefix and its length."""
    if len(text) <= QUOTE_CAP:
        return repr(text)
    return f"{text[:QUOTE_CAP]!r}... ({len(text)} characters)"


def parse_element(text: str) -> tuple[Fraction, Fraction]:
    """The coordinates ``(x, y)`` of ``x + y*z``."""
    s = text.replace(" ", "")
    if not _ELEMENT.fullmatch(s):
        raise GrammarError(f"cannot parse element {_quote(text)}")
    x = Fraction(0)
    y = Fraction(0)
    for sign, numerator, denominator, zeta in _SIGNED_TERM.findall(s):
        try:
            value = Fraction(int(numerator or 1), int(denominator or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise GrammarError(f"cannot parse element {_quote(text)}") from exc
        if sign == "-":
            value = -value
        if zeta or not numerator:
            y += value
        else:
            x += value
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


def parse_point(text: str) -> TorusPoint:
    match = _POINT.fullmatch(text.replace(" ", ""))
    if match is None:
        raise GrammarError(f"point must look like (e1,e2), got {_quote(text)}")
    coords = (*parse_element(match[1]), *parse_element(match[2]))
    try:
        return TorusPoint.from_vector(coords)
    except ValueError as exc:
        raise GrammarError(f"point {_quote(text)}: {exc}") from exc


def format_point(point: TorusPoint) -> str:
    coords = point.coords()
    return f"({format_element(coords[:2])},{format_element(coords[2:])})"


def parse_matrix(text: str, ring: RingId) -> TorusEndo:
    match = _MATRIX.fullmatch(text.replace(" ", ""))
    if match is None:
        raise GrammarError(f"matrix must look like [[a,b],[c,d]], got {_quote(text)}")
    entries = []
    for cell in match.groups():
        x, y = parse_element(cell)
        try:
            if x.denominator != 1 or y.denominator != 1:
                raise ValueError
            entries.append(RingElem(ring, int(x), int(y)))
        except ValueError:
            raise GrammarError(
                f"matrix entry {_quote(cell)} is not a ring integer"
            ) from None
    return TorusEndo(induced_matrix([entries[:2], entries[2:]]))


def format_matrix(endo: TorusEndo) -> str:
    # Entry (i, j) is the first column of block (i, j): the coordinates of e * 1.
    m = endo.induced_matrix()
    rows = [
        ",".join(format_element((m[i][j], m[i + 1][j])) for j in (0, 2))
        for i in (0, 2)
    ]
    return "[" + ",".join(f"[{row}]" for row in rows) + "]"


def parse_automorphism(ring_token: str, h_text: str, a_text: str) -> TorusAuto:
    ring = RingId.from_token(ring_token)
    return TorusAuto(parse_matrix(h_text, ring), parse_point(a_text))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use and shared by later calls."""
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


# ---------------------------------------------------------------------------
# Handlers


def _auto_payload(args: argparse.Namespace, auto: TorusAuto) -> dict:
    return {
        "ring": args.ring,
        "h": format_matrix(auto.linear),
        "a": format_point(auto.translation),
        "n": args.n,
    }


def _run_lefschetz(args: argparse.Namespace) -> tuple[dict, int]:
    # Grammar first, then the bounds, and only then the map's own checks.
    ring = RingId.from_token(args.ring)
    linear = parse_matrix(args.h_text, ring)
    translation = parse_point(args.a_text)
    if args.n < 2:
        raise GrammarError("--n must be at least 2")
    if not translation.is_torsion_of_level(args.n):
        raise GrammarError(f"--a is not {args.n}-torsion")
    auto = TorusAuto(linear, translation)
    matrix = auto.linear.induced_matrix()
    torus = lefschetz_torus(matrix)
    if torus:
        # The number computed is h's.  It is (h, a)'s too when a = (I - h)b
        # with b in E[n]: translation by b keeps the fibre and conjugates h
        # to (h, a).
        if not image_contains(matrix, auto.translation.vector(args.n), args.n):
            raise GrammarError(f"--a is not in (I - h)E[{args.n}]")
    series = kummer_series(matrix, args.n)
    payload = _auto_payload(args, auto)
    payload["command"] = "lefschetz"
    payload["induced_matrix"] = [list(row) for row in matrix.entries]
    payload["torus_lefschetz"] = torus
    payload["series"] = list(series.coefficients)
    if torus:
        census = invariant_character_counts(matrix, args.n)
        payload["kummer_lefschetz"] = lefschetz_from_census(series, census, torus)
        payload["status"] = "ok"
    else:
        payload["kummer_lefschetz"] = None
        payload["status"] = "degenerate"
    return payload, EXIT_OK


def _certificate_payload(cert) -> dict:
    data: dict = {
        "element_power": cert.element_power,
        "orbit_type": list(cert.orbit_type),
        "outcome": "obstructed" if cert.witness is None else "fixed_point",
    }
    if cert.witness is not None:
        data["witness"] = [
            [str(v) for v in point.coords()] for point in cert.witness
        ]
    if cert.obstruction is not None:
        functional, pairing, modulus = cert.obstruction
        data["obstruction"] = {
            "functional": list(functional),
            "pairing": str(Fraction(pairing, modulus)),
        }
    return data


def _run_freeness(args: argparse.Namespace) -> tuple[dict, int]:
    # Grammar first, then the bounds, and only then the map's own checks.
    ring = RingId.from_token(args.ring)
    linear = parse_matrix(args.h_text, ring)
    translation = parse_point(args.a_text)
    if args.level is not None and not 1 <= args.level <= GRID_LEVEL_CAP:
        raise GrammarError(f"--level must lie in 1..{GRID_LEVEL_CAP}")
    if args.n > FREENESS_N_CAP:
        raise GrammarError(f"--n is capped at {FREENESS_N_CAP}")
    if args.n < 2:
        raise GrammarError("--n must be at least 2")
    if not translation.is_torsion_of_level(args.n):
        raise GrammarError(f"--a is not {args.n}-torsion")
    auto = TorusAuto(linear, translation)
    report = group_acts_freely(auto, args.n)
    payload = _auto_payload(args, auto)
    payload["command"] = "freeness"
    payload["order"] = report.order
    payload["free"] = report.free
    for test in report.tested:
        for cert in test.report.certificates:
            if not verify_certificate(auto, args.n, cert):
                raise SelfCheckError(
                    f"the certificate of power {cert.element_power}, orbit type "
                    f"{list(cert.orbit_type)} failed its re-check"
                )
    payload["powers"] = [
        {
            "power": test.power,
            "has_fixed_point": test.report.found,
            "certificates": [_certificate_payload(c) for c in test.report.certificates],
        }
        for test in report.tested
    ]
    payload["status"] = "free" if report.free else "not_free"
    if args.level is not None:
        agreement = True
        for test in report.tested:
            brute = brute_force_fixed_point(auto**test.power, args.n, args.level)
            if brute != test.report.found:
                agreement = False
        payload["oracle"] = {"level": args.level, "agrees": agreement}
        if not agreement:
            payload["status"] = "oracle_mismatch"
            return payload, EXIT_MATH
    return payload, EXIT_OK


def _run_characters(args: argparse.Namespace) -> tuple[dict, int]:
    # Grammar first, then the bounds, and only then the map's own checks.
    ring = RingId.from_token(args.ring)
    linear = parse_matrix(args.h_text, ring)
    translation = parse_point(args.a_text)
    if args.n < 1:
        raise GrammarError("--n must be positive")
    if not translation.is_torsion_of_level(args.n):
        raise GrammarError(f"--a is not {args.n}-torsion")
    auto = TorusAuto(linear, translation)
    counts = invariant_character_counts(auto.linear.induced_matrix(), args.n)
    payload = _auto_payload(args, auto)
    payload["command"] = "characters"
    payload["modulus"] = args.n
    payload["counts"] = {str(d): c for d, c in counts.items()}
    payload["total"] = sum(counts.values())
    return payload, EXIT_OK


def _run_classify(args: argparse.Namespace) -> tuple[dict, int]:
    for flag, value in (("--n", args.n), ("--d", args.d)):
        if abs(value) >= 10**NUMERAL_DIGIT_CAP:
            raise GrammarError(f"{flag} is capped at {NUMERAL_DIGIT_CAP} digits")
    classification = classify_free_quotient(args.n, args.d)
    payload = {
        "command": "classify",
        "n": args.n,
        "d": args.d,
    }
    payload.update(classification_payload(classification))
    if classification.reason is not None:
        payload["reason"] = classification.reason
    return payload, EXIT_OK


def _run_decompose(args: argparse.Namespace) -> tuple[dict, int]:
    decompositions = decomposition_search(args.dim, args.chi)
    payload = {
        "command": "decompose",
        "dimension": args.dim,
        "chi": args.chi,
        "count": len(decompositions),
        "decompositions": [decomposition_labels(d) for d in decompositions],
        "irreducible_only": all_single_factor(decompositions),
    }
    return payload, EXIT_OK


def _run_search(args: argparse.Namespace) -> tuple[dict, int]:
    ring = RingId.from_token(args.ring)
    linears = None
    if args.h_text is not None:
        linears = [parse_matrix(args.h_text, ring)]
    # A search decides freeness at n, so it shares the freeness cap.
    if args.n > FREENESS_N_CAP:
        raise GrammarError(f"--n is capped at {FREENESS_N_CAP}")
    results = run_search(
        args.n,
        ring,
        level=args.level,
        max_norm=args.max_norm,
        linears=linears,
    )
    payload = {
        "command": "search",
        "ring": args.ring,
        "n": args.n,
        "level": args.level if args.level is not None else args.n,
        "max_norm": args.max_norm,
        "restricted_to": None if linears is None else format_matrix(linears[0]),
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


def _run_verify(args: argparse.Namespace) -> tuple[dict, int]:
    results = run_panel()
    payload = {
        "command": "verify-paper",
        "checks": [asdict(r) for r in results],
        "passed": panel_passed(results),
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
    try:
        args = build_parser().parse_args(argv)
        payload, code = _HANDLERS[args.command](args)
        # Rendering can fail too: an integer too long to print is a ValueError.
        text = render_json(payload) if args.fmt == "json" else render_text(payload)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SelfCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early.  Point stdout at devnull, so that the
        # interpreter's own flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
