"""The ``kummer-lab`` command line: grammar, payloads, and exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import kummerlab.cli as cli
import kummerlab.lattice as lattice
import kummerlab.lefschetz as lefschetz
import kummerlab.linalg as linalg
from kummerlab.enriques import DECOMPOSITION_DIM_CAP
from kummerlab.cli import (
    EXIT_MATH,
    EXIT_OK,
    EXIT_USAGE,
    FREENESS_N_CAP,
    NUMERAL_DIGIT_CAP,
    QUOTE_CAP,
    GrammarError,
    format_element,
    format_matrix,
    format_point,
    main,
    parse_automorphism,
    parse_element,
    parse_matrix,
    parse_point,
)
from kummerlab.fixedpoint import GRID_LEVEL_CAP, group_acts_freely
from kummerlab.lefschetz import KUMMER_N_CAP
from kummerlab.rings import RingId
from kummerlab.search import linear_candidates, run_search
from kummerlab.torus import TORSION_LEVEL_CAP, TorusAuto, TorusPoint
from kummerlab.verify import CheckResult

ALL_RINGS = [RingId.RATIONAL_INT, RingId.GAUSSIAN, RingId.EISENSTEIN]


def run_cli(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, argv: list[str]) -> tuple[int, dict]:
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# Grammar


def test_element_known_forms() -> None:
    assert format_element(parse_element("1/3 + 2/3*z")) == "1/3+2/3*z"
    assert format_element(parse_element("-z")) == "-z"
    assert format_element(parse_element("z")) == "z"
    assert format_element(parse_element("0")) == "0"
    assert format_element(parse_element("1/2")) == "1/2"
    assert format_element(parse_element("2-z")) == "2-z"
    # Terms accumulate regardless of order or repetition.
    assert parse_element("z+1/2+z") == (Fraction(1, 2), Fraction(2))
    assert parse_element("1/3+1/2*z") == (Fraction(1, 3), Fraction(1, 2))


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_element_round_trip_random(ring: RingId) -> None:
    # The coefficient of z is the translation's second coordinate in every
    # ring's automorphism grammar.
    rng = random.Random(424242)
    for _ in range(40):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        text = format_element((x, y))
        assert parse_element(text) == (x, y)
        auto = parse_automorphism(ring.value, "[[1,0],[0,1]]", f"({text},0)")
        assert auto.translation.coords() == (x % 1, y % 1, 0, 0)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_point_and_matrix_round_trip(ring: RingId) -> None:
    rng = random.Random(535353)
    for _ in range(20):
        point = parse_point(
            f"({rng.randint(0, 5)}/6+{rng.randint(0, 5)}/6*z,"
            f"{rng.randint(0, 5)}/6)"
        )
        assert parse_point(format_point(point)) == point
    for matrix in linear_candidates(ring, 1):
        assert parse_matrix(format_matrix(matrix), ring) == matrix


def test_integer_ring_z_is_the_second_period(capsys) -> None:
    # In an integer-ring point z is the period tau, kept apart from 1; in a
    # matrix entry it is refused, since End(E) = Z has no generator.
    ring = RingId.RATIONAL_INT
    point = parse_point("(1/3+1/3*z,1/2*z)")
    assert point.coords() == (Fraction(1, 3), Fraction(1, 3), 0, Fraction(1, 2))
    assert format_point(point) == "(1/3+1/3*z,1/2*z)"
    for cell in ("z", "1/2+1/2*z", "1-z"):
        with pytest.raises(GrammarError, match="is not a ring integer"):
            parse_matrix(f"[[{cell},0],[0,1]]", ring)
    argv = ["freeness", "--ring", "integer", "--h", "[[z,0],[0,1]]", "--a", "(0,0)",
            "--n", "2"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix entry 'z' is not a ring integer\n"


def test_grammar_rejections() -> None:
    ring = RingId.GAUSSIAN
    with pytest.raises(GrammarError):
        parse_element("i")
    with pytest.raises(GrammarError):
        parse_element("1//2")
    with pytest.raises(GrammarError):
        parse_element("z*z")
    with pytest.raises(GrammarError):
        parse_element("")
    with pytest.raises(GrammarError):
        parse_point("(1/2)")
    with pytest.raises(GrammarError):
        parse_point("1/2,1/2")
    with pytest.raises(GrammarError):
        parse_matrix("[[1,2],[3]]", ring)
    with pytest.raises(GrammarError):
        parse_matrix("[[1/2,0],[0,1]]", ring)
    with pytest.raises(GrammarError):
        parse_matrix("[[1,0],[0,1]", ring)


@pytest.mark.parametrize(
    "numeral", ["1e5", "0.5", "1e5000", ".5", "5.", "1_0", "1E3", "\u0663", "1\t"]
)
def test_numerals_are_digits_or_digit_fractions(numeral: str) -> None:
    # Exponent, decimal, underscore and non-ASCII digit forms are not in
    # the grammar, alone or as the coefficient of z.
    for text in (numeral, f"{numeral}*z", f"1+{numeral}"):
        with pytest.raises(GrammarError):
            parse_element(text)


def test_exponent_numerals_exit_two_at_once(capsys) -> None:
    # 1e5000 once parsed to a 5001-digit integer whose echo raised a
    # ValueError traceback.
    argv = ["freeness", "--ring", "eisenstein", "--h", "[[1,0],[1e5000,-1]]",
            "--a", "(0,0)", "--n", "2"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot parse element '1e5000'\n"


NINES = "9" * 4300


@pytest.mark.parametrize(
    "command, entry",
    [("freeness", f"{NINES}+{NINES}"), ("lefschetz", NINES),
     ("lefschetz", f"1/{NINES}"), ("freeness", f"{NINES}*z")],
)
def test_numerals_above_the_digit_cap_exit_two_at_once(capsys, command, entry) -> None:
    # A+A with A of 4,300 nines once reached Python's 4,300-digit limit on
    # int-to-text conversion in the echo; A alone was accepted and printed.
    argv = [command, "--ring", "eisenstein", "--h", f"[[1,{entry}],[0,-1]]",
            "--a", "(0,0)", "--n", "2"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    quoted = f"{entry[:QUOTE_CAP]!r}... ({len(entry)} characters)"
    assert captured.err == f"error: cannot parse element {quoted}\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python has no limit on int-to-text conversion",
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_payload_too_long_to_print_exits_two(capsys, fmt: str) -> None:
    # 2n - 2 for n of 4,300 nines would have 4,301 digits, past Python's
    # limit on int-to-text conversion.  The digit cap refuses such an n
    # before classifying (see the next test); main also renders inside its
    # guard, so a payload too long to print would exit 2 in the same way.
    argv = ["classify", "--n", NINES, "--d", "3", "--format", fmt]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("flag", ["--n", "--d"])
def test_classify_refuses_numbers_above_the_digit_cap(capsys, flag, fmt) -> None:
    # classify bounds its numbers by the numeral cap before classifying, and
    # says so in its own terms; NUMERAL_DIGIT_CAP digits are accepted.
    smallest_refused = "1" + "0" * NUMERAL_DIGIT_CAP
    for text, code in ((smallest_refused, EXIT_USAGE), (NINES, EXIT_USAGE),
                       ("9" * NUMERAL_DIGIT_CAP, 0)):
        values = {"--n": "6", "--d": "3", flag: text}
        argv = ["classify", "--n", values["--n"], "--d", values["--d"], "--format", fmt]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == (
                f"error: {flag} is capped at {NUMERAL_DIGIT_CAP} digits\n"
            )
        else:
            assert captured.err == ""
            assert "9" * NUMERAL_DIGIT_CAP in captured.out


POINT_SHAPE = "point must look like (e1,e2), got"
MATRIX_SHAPE = "matrix must look like [[a,b],[c,d]], got"


@pytest.mark.parametrize("flag, message", [("--h", MATRIX_SHAPE), ("--a", POINT_SHAPE)])
def test_grammar_errors_quote_a_bounded_prefix(capsys, flag, message) -> None:
    # A grammar error quotes at most QUOTE_CAP characters of the rejected
    # text and gives its full length, however long the text is; the test
    # above checks the same for a rejected element.
    rejected = "[(" * 5000
    args = {"--h": "[[z,0],[0,1]]", "--a": "(0,0)", flag: rejected}
    argv = ["freeness", "--ring", "eisenstein", "--n", "2"]
    for item in args.items():
        argv.extend(item)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    quoted = f"{rejected[:QUOTE_CAP]!r}... (10000 characters)"
    assert captured.err == f"error: {message} {quoted}\n"


def test_numeral_at_the_digit_cap_is_accepted(capsys) -> None:
    numeral = "9" * NUMERAL_DIGIT_CAP
    assert parse_element(f"-{numeral}/{numeral}*z") == (0, -1)
    assert parse_element(f"{numeral}+{numeral}") == (2 * int(numeral), 0)
    with pytest.raises(GrammarError):
        parse_element(f"1{numeral}")
    h = f"[[1,{numeral}+{numeral}*z],[0,-1]]"
    for command in ("freeness", "lefschetz"):
        argv = [command, "--ring", "eisenstein", "--h", h, "--a", "(0,0)",
                "--n", "2"]
        code, payload = run_json(capsys, argv)
        assert code == EXIT_OK
        assert payload["h"] == h


def test_messy_input_is_echoed_canonically(capsys) -> None:
    h, a = "[[ z , 0 ],[ 0 , 1 ]]", "( 2/6 , 1/3 + 0*z )"
    for command in ("freeness", "lefschetz", "characters"):
        argv = [command, "--ring", "eisenstein", "--h", h, "--a", a, "--n", "3"]
        code, payload = run_json(capsys, argv)
        assert code == EXIT_OK
        assert (payload["h"], payload["a"]) == ("[[z,0],[0,1]]", "(1/3,1/3)")
    argv = ["search", "--ring", "eisenstein", "--n", "3", "--h", "[[ 2/2*z,0 ],[0,+1]]"]
    code, payload = run_json(capsys, argv)
    assert code == EXIT_OK
    assert payload["restricted_to"] == "[[z,0],[0,1]]"


# Inputs with two faults each, and the one line reported.  Every subcommand
# checks in one order: the grammar first, then its bounds (--n, --level and
# whether --a is n-torsion), and only then the map's own checks (unit
# determinant, finite order).
TWO_FAULTS = [
    (["freeness", "--h", "[[z,0],[0,1]", "--a", "(1/3,1/3)", "--n", "49"],
     "matrix must look like [[a,b],[c,d]], got '[[z,0],[0,1]'"),
    (["freeness", "--h", "[[z,0],[0,1]]", "--a", "(1/3 1/3)", "--n", "49"],
     "point must look like (e1,e2), got '(1/3 1/3)'"),
    (["freeness", "--h", "[[q,0],[0,1]]", "--a", "(1/x,0)", "--n", "3"],
     "cannot parse element 'q'"),
    (["freeness", "--h", "[[z,0],[0,1]]", "--a", "(1/3,1//3)", "--n", "3",
      "--level", "25"], "cannot parse element '1//3'"),
    (["freeness", "--h", "[[1/2,0],[0,1]]", "--a", "(1/3,1/3)", "--n", "3",
      "--level", "25"], "matrix entry '1/2' is not a ring integer"),
    (["freeness", "--h", "[[z,0],[0,1]]", "--a", "(1/1001,0)", "--n", "49"],
     "point '(1/1001,0)': torsion level exceeds the supported cap 1000"),
    (["freeness", "--h", "[[2,0],[0,1]]", "--a", "(1/3,1/3)", "--n", "49"],
     "--n is capped at 48"),
    (["freeness", "--h", "[[2,0],[0,1]]", "--a", "(1/3,1/3)", "--n", "3",
      "--level", "0"], "--level must lie in 1..24"),
    (["freeness", "--h", "[[2,0],[0,1]]", "--a", "(1/5,0)", "--n", "3"],
     "--a is not 3-torsion"),
    (["lefschetz", "--h", "[[z,0],[0,z]", "--a", "(0,0)", "--n", "3200"],
     "matrix must look like [[a,b],[c,d]], got '[[z,0],[0,z]'"),
    (["lefschetz", "--h", "[[2,0],[0,1]]", "--a", "(0,0)", "--n", "1"],
     "--n must be at least 2"),
    (["lefschetz", "--h", "[[z,0],[0,z]]", "--a", "(1/2,0)", "--n", "1"],
     "--n must be at least 2"),
    (["characters", "--h", "[[2,0],[0,1]]", "--a", "(0,0)", "--n", "0"],
     "--n must be positive"),
    (["characters", "--h", "[[z,0],[0,z]]", "--a", "(0,0", "--n", "0"],
     "point must look like (e1,e2), got '(0,0'"),
    (["search", "--n", "49", "--h", "[[z,0]]"],
     "matrix must look like [[a,b],[c,d]], got '[[z,0]]'"),
    (["search", "--n", "3", "--level", "25", "--h", "[[z,0],[0,1/2]]"],
     "matrix entry '1/2' is not a ring integer"),
    (["search", "--n", "3", "--level", "25", "--h", "[[2,0],[0,1]]"],
     "level must be a positive divisor of n"),
    (["search", "--n", "1", "--level", "25"], "n must be at least 2"),
    (["freeness", "--h", "[[2,0],[0,1]]", "--a", "(1/5,0)", "--n", "1"],
     "--n must be at least 2"),
]


@pytest.mark.parametrize("argv, message", TWO_FAULTS, ids=range(len(TWO_FAULTS)))
def test_the_first_of_two_faults_is_reported(capsys, argv, message) -> None:
    argv = [argv[0], "--ring", "eisenstein", *argv[1:]]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flag, text, message",
    [("--a", text, POINT_SHAPE) for text in (
        "(0)", "(0,0,0)", "((0,0))", "((0),0)", "(0,0", "0,0)", "0,0", "(0,0))",
        "(0,0,)", "[0,0]", "",
    )] + [("--h", text, MATRIX_SHAPE) for text in (
        "[[z]]", "[[z,0],[0]]", "[[z,0,0],[0,1]]", "[[z,0]]", "[[z,0],[0,1],[0,1]]",
        "[[[z,0],[0,1]]]", "[[[z],0],[0,1]]", "[[z,0],[0,1]", "[z,0],[0,1]]",
        "[[z,0][0,1]]", "[z,0,0,1]", "[[z,0],[0,1],]", "[[z,0,],[0,1]]",
        "((z,0),(0,1))", "",
    )],
)
def test_malformed_shapes_exit_two_with_the_shape_message(
    capsys, flag, text, message
) -> None:
    args = {"--h": "[[z,0],[0,1]]", "--a": "(1/3,1/3)", flag: text}
    argv = ["freeness", "--ring", "eisenstein", "--n", "3"]
    for item in args.items():
        argv.extend(item)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} {text!r}\n"


def test_a_closed_pipe_exits_quietly_with_the_command_code() -> None:
    # The reader of stdout is gone before the command prints.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "kummerlab.cli", "classify", "--n", "6", "--d", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == EXIT_OK


# ---------------------------------------------------------------------------
# End-to-end commands


def test_lefschetz_command_integer_rotation(capsys) -> None:
    code, payload = run_json(
        capsys,
        [
            "lefschetz",
            "--ring",
            "integer",
            "--h",
            "[[0,-1],[1,-1]]",
            "--a",
            "(0,0)",
            "--n",
            "3",
        ],
    )
    assert code == EXIT_OK
    assert payload["status"] == "ok"
    assert payload["torus_lefschetz"] == 9
    assert payload["series"] == [1, 9, 54, 252]
    assert payload["kummer_lefschetz"] == 36
    assert payload["induced_matrix"] == [
        [0, 0, -1, 0],
        [0, 0, 0, -1],
        [1, 0, -1, 0],
        [0, 1, 0, -1],
    ]


def test_lefschetz_command_degenerate_is_reported_not_fatal(capsys) -> None:
    code, payload = run_json(
        capsys,
        [
            "lefschetz",
            "--ring",
            "integer",
            "--h",
            "[[1,0],[0,-1]]",
            "--a",
            "(0,0)",
            "--n",
            "2",
        ],
    )
    assert code == EXIT_OK
    assert payload["status"] == "degenerate"
    assert payload["kummer_lefschetz"] is None
    assert payload["torus_lefschetz"] == 0


def lefschetz_argv(ring: str, h: str, a: str, n: int) -> list[str]:
    return ["lefschetz", "--ring", ring, "--h", h, "--a", a, "--n", str(n)]


@pytest.mark.parametrize(
    "ring, a, n",
    [("eisenstein", "(1/3,0)", 3), ("gaussian", "(1/4,0)", 4),
     ("gaussian", "(1/8,0)", 4)],
)
def test_lefschetz_refuses_translations_not_conjugated_away(capsys, ring, a, n) -> None:
    # (1/3, 0) and (1/4, 0) are n-torsion but outside (I - h)E[n], so the
    # linear part's number would be wrong; (1/8, 0) is not n-torsion.
    assert main(lefschetz_argv(ring, "[[z,0],[0,z]]", a, n)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --a is not")


def test_lefschetz_accepts_translations_conjugated_away(capsys) -> None:
    # (1 + i)/4 = (1 - i) * i/4, so (I - h)b with b = (i/4, 0) absorbs it.
    for a in ("(1/4+1/4*z,0)", "(0,0)"):
        code, payload = run_json(
            capsys, lefschetz_argv("gaussian", "[[z,0],[0,z]]", a, 4)
        )
        assert code == EXIT_OK
        assert payload["kummer_lefschetz"] == 68


def test_lefschetz_computes_each_part_once(capsys, monkeypatch) -> None:
    # One request expands the series once, tests the translation once,
    # takes the character census once and one torus Lefschetz number.  The
    # test and the census read the checked Hermite form of L_q =
    # (I - M) Z^4 + q Z^4 once for each q they need: q = n = 6 for the
    # translation, q = 2 and 3 for the census.
    calls: Counter = Counter()
    for home, name in (
        (lefschetz, "kummer_series"),
        (lefschetz, "lefschetz_torus"),
        (lefschetz, "invariant_character_counts"),
        (lattice, "image_contains"),
    ):
        def counted(*args, original=getattr(home, name), name=name, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in (cli, lefschetz, lattice):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    forms: Counter = Counter()
    lattice_form = lattice._lattice_form

    def counted_form(one_minus, modulus):
        forms[modulus] += 1
        return lattice_form(one_minus, modulus)

    monkeypatch.setattr(lattice, "_lattice_form", counted_form)
    code, payload = run_json(
        capsys, lefschetz_argv("eisenstein", "[[z,0],[0,z]]", "(0,0)", 6)
    )
    assert code == EXIT_OK
    assert payload["kummer_lefschetz"] == 1350
    assert calls == {
        "kummer_series": 1,
        "lefschetz_torus": 1,
        "invariant_character_counts": 1,
        "image_contains": 1,
    }
    assert forms == {6: 1, 2: 1, 3: 1}


@pytest.mark.parametrize(
    "n, built", [(3, {3: 1}), (8, {8: 1, 2: 1, 4: 1}), (9, {9: 1, 3: 1})]
)
def test_lefschetz_builds_each_checked_form_once(
    n: int, built: dict, capsys, monkeypatch, clear_memos
) -> None:
    # The translation test reads the form of L_n, and the census the form
    # of L_q for each prime power q dividing n, n itself among them when n
    # is a prime power.  One memoised form per (M, q) means one echelon per
    # modulus, counted cold; the last generator of L_q is q e_(r-1).
    forms: Counter = Counter()
    echelon = linalg.row_echelon

    def counted_echelon(a):
        forms[a[a.rows - 1][a.cols - 1]] += 1
        return echelon(a)

    monkeypatch.setattr(linalg, "row_echelon", counted_echelon)
    clear_memos()
    code, payload = run_json(
        capsys, lefschetz_argv("eisenstein", "[[z,0],[0,z]]", "(0,0)", n)
    )
    assert code == EXIT_OK
    assert payload["status"] == "ok"
    assert forms == built


def test_a_non_integral_lefschetz_number_exits_one_with_no_payload(
    capsys, monkeypatch
) -> None:
    # Offsetting the torus number by one makes the final division inexact:
    # a failed re-check, reported on one error line with nothing printed.
    torus = lefschetz.lefschetz_torus
    monkeypatch.setattr(cli, "lefschetz_torus", lambda m: torus(m) + 1)
    argv = lefschetz_argv("eisenstein", "[[z,0],[0,z]]", "(0,0)", 3)
    assert main(argv) == EXIT_MATH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 324 is not divisible by 10\n"


def freeness_argv(ring: str, h: str, a: str, n: int) -> list[str]:
    return ["freeness", "--ring", ring, "--h", h, "--a", a, "--n", str(n)]


# sha256 of the default (JSON) ``freeness`` output, pinned so that witness
# points and obstruction pairings keep their bytes.
FREENESS_DIGESTS = [
    (freeness_argv("eisenstein", "[[z,0],[0,1]]", "(1/3,1/3)", 12),
     "95a59a304e3e19f83ac7a25556fe626be115c025fd6d806ec1e39f69af599be9"),
    (freeness_argv("gaussian", "[[z,0],[0,1]]", "(1/4,1/4)", 12),
     "8ca0c01f19a437244adee5393cd4f8874446cc3fb67b3cd0b32c9df59972e872"),
    (freeness_argv("eisenstein", "[[1+z,0],[0,1]]", "(1/6,1/6)", 6),
     "5dfbb7c370f1b40bda4e70921a860b3b710f455cb128123884bddc861279d5ae"),
    (freeness_argv("gaussian", "[[z,0],[0,1]]", "(1/2,1/4)", 4),
     "1d4f5b5a12a34027f1e6f0513d4cd4ca108640988c3123d0e8737968e33ae6fb"),
]

# The same for the character census and the Lefschetz number.
CENSUS_DIGESTS = [
    (["characters", "--ring", "eisenstein", "--h", "[[z,0],[0,z]]",
      "--a", "(0,0)", "--n", "3"],
     "6093732c7c93726900698cc49f41985d5ab7ec26f80094d6f80ea6df3883552e"),
    (["characters", "--ring", "gaussian", "--h", "[[z,0],[0,1]]",
      "--a", "(0,0)", "--n", "12"],
     "c7db54ffece283c97d26c2d6cabc06ea39e94eb3395f1f1cb59ddda34edad5f0"),
    (["lefschetz", "--ring", "gaussian", "--h", "[[z,0],[0,z]]",
      "--a", "(1/4+1/4*z,0)", "--n", "4"],
     "4b25ad189b8d54d37c1840a0bb4ed0e9df59402d5a0bfead09e4ef4d16f68594"),
    (["lefschetz", "--ring", "integer", "--h", "[[0,-1],[1,-1]]",
      "--a", "(0,0)", "--n", "3"],
     "3827a8c76990d1e16075d2db09c3f7bb5f050ba5c168d031f779887f4e2cba9b"),
]


@pytest.mark.parametrize(
    "argv, digest",
    FREENESS_DIGESTS + CENSUS_DIGESTS,
    ids=[
        "eisenstein-12",
        "gaussian-12",
        "eisenstein-6-not-free",
        "gaussian-4-not-free",
        "characters-eisenstein-3",
        "characters-gaussian-12",
        "lefschetz-gaussian-4",
        "lefschetz-integer-3",
    ],
)
def test_freeness_certificate_bytes_are_pinned(capsys, argv, digest) -> None:
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_memos_carry_no_state_between_calls(capsys, clear_memos) -> None:
    # One process may call main many times.  The n=12 anchors print the
    # same bytes on their own, after a sweep has filled the memos with
    # other linear parts and orbit types, and again from cleared memos.
    def anchors() -> list[str]:
        outputs = []
        for argv, digest in FREENESS_DIGESTS[:2]:
            code, out = run_cli(capsys, argv)
            assert code == EXIT_OK
            assert hashlib.sha256(out.encode()).hexdigest() == digest
            outputs.append(out)
        return outputs

    alone = anchors()
    assert len(run_search(3, RingId.EISENSTEIN)) == 64
    after_sweep = anchors()
    clear_memos()
    assert alone == after_sweep == anchors()


def test_freeness_command_free_instance(capsys) -> None:
    argv = [
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
    code, payload = run_json(capsys, argv)
    assert code == EXIT_OK
    assert payload["free"] is True
    assert payload["status"] == "free"
    assert payload["order"] == 3
    assert len(payload["powers"]) == 1
    certificates = payload["powers"][0]["certificates"]
    assert certificates
    assert all(c["outcome"] == "obstructed" for c in certificates)


# A map in each ring that takes the point (1/2+1/2*z,1/2+1/2*z) as its
# translation, with its verdict on the 2-fibre.
SHARED_POINT_MAPS = [
    (RingId.RATIONAL_INT, "[[-1,0],[0,1]]", "free"),
    (RingId.GAUSSIAN, "[[z,0],[0,1]]", "not_free"),
    (RingId.EISENSTEIN, "[[-1,0],[0,1]]", "free"),
]


def test_one_point_translates_maps_over_every_ring(capsys) -> None:
    # A point carries no ring: one object is the translation of an integer,
    # a Gaussian and an Eisenstein map, and each decision agrees with the
    # freeness command on that ring.
    point = TorusPoint.from_vector((Fraction(1, 2),) * 4)
    assert not hasattr(point, "ring")
    text = format_point(point)
    assert text == "(1/2+1/2*z,1/2+1/2*z)"
    assert parse_point(text) == point
    assert hash(parse_point(text)) == hash(point)
    for ring, h, status in SHARED_POINT_MAPS:
        auto = TorusAuto(parse_matrix(h, ring), point)
        assert auto.translation is point
        argv = ["freeness", "--ring", ring.value, "--h", h, "--a", text, "--n", "2"]
        code, payload = run_json(capsys, argv)
        assert code == EXIT_OK
        assert payload["status"] == status
        assert group_acts_freely(auto, 2).free is payload["free"]


def test_one_matrix_text_is_one_map_over_every_ring() -> None:
    # A map carries no ring: [[-1,0],[0,1]] parses to equal linear parts,
    # with equal hashes, over all three rings, and prints back the same.
    parts = [parse_matrix("[[-1,0],[0,1]]", ring) for ring in ALL_RINGS]
    assert all(part == parts[0] for part in parts)
    assert len({hash(part) for part in parts}) == 1
    assert {format_matrix(part) for part in parts} == {"[[-1,0],[0,1]]"}
    auto = TorusAuto(parts[0], TorusPoint.origin())
    assert not hasattr(parts[0], "ring")
    assert not hasattr(auto, "ring")


def test_freeness_command_with_grid_oracle(capsys) -> None:
    argv = [
        "freeness",
        "--ring",
        "eisenstein",
        "--h",
        "[[z,0],[0,1]]",
        "--a",
        "(1/3-1/3*z,1/3)",
        "--n",
        "3",
        "--level",
        "3",
    ]
    code, payload = run_json(capsys, argv)
    assert code == EXIT_OK
    assert payload["free"] is False
    assert payload["status"] == "not_free"
    assert payload["oracle"] == {"level": 3, "agrees": True}
    witnesses = [
        c
        for power in payload["powers"]
        for c in power["certificates"]
        if c["outcome"] == "fixed_point"
    ]
    assert witnesses and "witness" in witnesses[0]


def test_freeness_grid_level_above_cap_exits_two(capsys, monkeypatch) -> None:
    # The level cap is enforced up front, before the decision runs.
    def decide(*args, **kwargs):
        raise AssertionError("the decision ran before --level was checked")

    monkeypatch.setattr(cli, "group_acts_freely", decide)
    base = ["freeness", "--ring", "eisenstein", "--h", "[[z,0],[0,1]]",
            "--a", "(1/3,1/3)", "--n", "3", "--level"]
    for level in (str(GRID_LEVEL_CAP + 1), "900", "0"):
        assert main(base + [level]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --level must lie in 1..24")


def test_a_rejected_certificate_exits_one_with_no_payload(capsys, monkeypatch) -> None:
    # A certificate that fails its re-check is reported on one error line
    # naming its power and orbit type, and no partial payload is printed.
    monkeypatch.setattr(cli, "verify_certificate", lambda auto, n, cert: False)
    argv = freeness_argv("eisenstein", "[[z,0],[0,1]]", "(1/3,1/3)", 3)
    assert main(argv) == EXIT_MATH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the certificate of power 1, orbit type [3] failed its re-check\n"
    )


def test_characters_command(capsys) -> None:
    code, payload = run_json(
        capsys,
        [
            "characters",
            "--ring",
            "eisenstein",
            "--h",
            "[[z,0],[0,z]]",
            "--a",
            "(0,0)",
            "--n",
            "3",
        ],
    )
    assert code == EXIT_OK
    assert payload["counts"] == {"1": 1, "3": 8}
    assert payload["total"] == 9


def test_characters_refuses_translations_not_n_torsion(capsys) -> None:
    argv = ["characters", "--ring", "eisenstein", "--h", "[[z,0],[0,z]]",
            "--a", "(1/2,0)", "--n", "3"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --a is not 3-torsion\n"


def test_classify_command(capsys) -> None:
    code, payload = run_json(capsys, ["classify", "--n", "6", "--d", "3"])
    assert code == EXIT_OK
    assert payload["verdict"] == "weak_enriques"
    assert payload["dimension"] == 10
    assert payload["chi"] == 2
    code, payload = run_json(capsys, ["classify", "--n", "4", "--d", "3"])
    assert code == EXIT_OK
    assert payload["verdict"] == "invalid"
    assert "does not divide" in payload["reason"]


def test_decompose_above_dimension_cap_exits_two(capsys) -> None:
    for dim in (DECOMPOSITION_DIM_CAP + 2, 120):
        assert main(["decompose", "--dim", str(dim), "--chi", "1048576"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: total dimension is capped at 64")


@pytest.mark.parametrize("command", ["lefschetz", "characters"])
@pytest.mark.parametrize(
    "n", [KUMMER_N_CAP + 1, 3200, 1000000000000000000000000000057]
)
def test_lefschetz_and_characters_above_n_cap_exit_two(capsys, command, n) -> None:
    # Unbounded, n = 3200 expands series for over 20 s and the 31-digit
    # prime spends over 20 s in factorize.
    argv = [command, "--ring", "eisenstein", "--h", "[[z,0],[0,z]]",
            "--a", "(0,0)", "--n", str(n)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: n is capped at {KUMMER_N_CAP}")


@pytest.mark.parametrize("command", ["freeness", "lefschetz", "characters"])
def test_translation_above_torsion_level_cap_exits_two(capsys, command) -> None:
    level = TORSION_LEVEL_CAP + 1
    argv = [command, "--ring", "eisenstein", "--h", "[[z,0],[0,1]]",
            "--a", f"(1/{level},0)", "--n", str(level)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"cap {TORSION_LEVEL_CAP}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("n", [FREENESS_N_CAP + 3, 120])
def test_freeness_above_n_cap_exits_two(capsys, n) -> None:
    # Unbounded, n = 120 ran for 49 s on this map.
    argv = ["freeness", "--ring", "eisenstein", "--h", "[[z,0],[0,1]]",
            "--a", "(1/3,1/3)", "--n", str(n)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --n is capped at {FREENESS_N_CAP}")


def test_characters_at_n_cap_runs(capsys) -> None:
    argv = ["characters", "--ring", "eisenstein", "--h", "[[z,0],[0,z]]",
            "--a", "(0,0)", "--n", str(KUMMER_N_CAP)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["n"] == KUMMER_N_CAP


def patch_everywhere(monkeypatch, name: str, replacement) -> list[str]:
    """Replace ``name`` in every loaded kummerlab module that holds it."""
    holders = sorted(
        key
        for key, module in sys.modules.items()
        if key.split(".")[0] == "kummerlab" and hasattr(module, name)
    )
    for key in holders:
        monkeypatch.setattr(sys.modules[key], name, replacement)
    return holders


def test_characters_checks_the_n_cap_before_factoring(capsys, monkeypatch) -> None:
    # Trial division of a large prime n runs for minutes, so the census
    # refuses n above the cap before anything factors it.
    def refuse(*args):
        raise AssertionError("n was factored before the cap was checked")

    assert "kummerlab.lefschetz" in patch_everywhere(monkeypatch, "factorize", refuse)
    argv = ["characters", "--ring", "eisenstein", "--h", "[[z,0],[0,z]]",
            "--a", "(0,0)", "--n", str(KUMMER_N_CAP + 1)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n is capped at {KUMMER_N_CAP}\n"


@pytest.mark.parametrize(
    "argv",
    [
        lefschetz_argv("eisenstein", "[[z,0],[0,z]]", "(1/12-1/12*z,0)", 12),
        lefschetz_argv("gaussian", "[[z,0],[0,z]]", "(1/4+1/4*z,0)", 360),
        ["characters", "--ring", "eisenstein", "--h", "[[z,0],[0,z]]",
         "--a", "(0,0)", "--n", "360"],
        ["characters", "--ring", "gaussian", "--h", "[[z,0],[0,1]]",
         "--a", "(0,0)", "--n", "12"],
    ],
    ids=["lefschetz-eisenstein-12", "lefschetz-gaussian-360",
         "characters-eisenstein-360", "characters-gaussian-12"],
)
def test_lefschetz_and_characters_take_no_smith_form(capsys, monkeypatch, argv) -> None:
    # The translation test and the census read checked Hermite forms, each
    # the row echelon of its generators by linalg.row_echelon: with every
    # Smith form and every other row echelon refusing, wherever the package
    # holds one, so that no orbit system is decided either, the output is
    # the one computed without the refusal.
    code, expected = run_cli(capsys, argv)
    assert code == EXIT_OK

    def refuse(*args):
        raise AssertionError("a normal form was taken")

    echelon = linalg.row_echelon
    assert "kummerlab.linalg" in patch_everywhere(monkeypatch, "smith_normal_form", refuse)
    assert "kummerlab.lattice" in patch_everywhere(monkeypatch, "row_echelon", refuse)
    monkeypatch.setattr(linalg, "row_echelon", echelon)
    assert run_cli(capsys, argv) == (EXIT_OK, expected)
    refused = lefschetz_argv("eisenstein", "[[z,0],[0,z]]", "(1/12,0)", 12)
    assert main(refused) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --a is not in (I - h)E[12]\n"


@pytest.mark.parametrize("n, level", [(FREENESS_N_CAP + 1, "3"), (96, "3"), (49, "0")])
def test_search_above_n_cap_exits_two(capsys, monkeypatch, n, level) -> None:
    # Unbounded, --n 96 --level 3 ran for 108 s.
    def sweep(*args, **kwargs):
        raise AssertionError("the search ran before --n was checked")

    monkeypatch.setattr(cli, "run_search", sweep)
    argv = ["search", "--ring", "eisenstein", "--n", str(n), "--level", level]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --n is capped at {FREENESS_N_CAP}\n"


@pytest.mark.parametrize("level", ["0", "-3", "25"])
def test_search_level_outside_cap_exits_two(capsys, level) -> None:
    argv = ["search", "--ring", "eisenstein", "--n", "3", "--level", level]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: level must be a positive divisor of n")


@pytest.mark.parametrize(
    "ring, n, count",
    [("integer", 25, 0), ("gaussian", 25, 0), ("eisenstein", 25, 0), ("integer", 48, 18)],
)
def test_search_above_the_grid_level_cap_runs(capsys, ring, n, count) -> None:
    # The search's level defaults to n and is bounded by n alone, so every
    # n up to FREENESS_N_CAP runs; GRID_LEVEL_CAP bounds only the grid
    # oracle.  The other two rings' n=48 counts are pinned in CI.
    assert n > GRID_LEVEL_CAP
    code, payload = run_json(capsys, ["search", "--ring", ring, "--n", str(n)])
    assert code == EXIT_OK
    assert (payload["level"], payload["count"]) == (n, count)


def test_decompose_command(capsys) -> None:
    code, payload = run_json(capsys, ["decompose", "--dim", "10", "--chi", "6"])
    assert code == EXIT_OK
    assert payload["count"] == 2
    assert payload["decompositions"] == [["ihs:10"], ["cy_even:6", "ihs:4"]]
    assert payload["irreducible_only"] is False


def test_search_command_restricted(capsys) -> None:
    code, payload = run_json(
        capsys,
        [
            "search",
            "--ring",
            "eisenstein",
            "--n",
            "3",
            "--h",
            "[[z,0],[0,1]]",
        ],
    )
    assert code == EXIT_OK
    assert payload["restricted_to"] == "[[z,0],[0,1]]"
    assert payload["count"] == 16
    assert len(payload["results"]) == 16
    for result in payload["results"]:
        assert result["order"] == 3
        assert result["classification"]["verdict"] == "enriques"


def test_search_max_norm_zero_finds_nothing(capsys) -> None:
    # Only 0 has norm 0, so no matrix has a unit determinant.
    code, payload = run_json(
        capsys, ["search", "--ring", "eisenstein", "--n", "3", "--max-norm", "0"]
    )
    assert code == EXIT_OK
    assert payload["max_norm"] == 0
    assert payload["count"] == 0
    assert payload["results"] == []


def test_json_output_is_deterministic(capsys) -> None:
    argv = [
        "freeness",
        "--ring",
        "gaussian",
        "--h",
        "[[z,0],[0,1]]",
        "--a",
        "(1/4,1/4)",
        "--n",
        "4",
    ]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_text_format_renders_flat_lines(capsys) -> None:
    code, out = run_cli(
        capsys, ["classify", "--n", "3", "--d", "3", "--format", "text"]
    )
    assert code == EXIT_OK
    assert "verdict: enriques" in out
    assert "chi: 1" in out


def test_usage_errors_exit_two(capsys) -> None:
    assert main(["freeness", "--ring", "eisenstein", "--h", "[[z,0],[0,1]]",
                 "--a", "(1/2)", "--n", "3"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["nonsense"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["freeness", "--ring", "eisenstein", "--n", "3"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["classify", "--n", "1", "--d", "1"]) == EXIT_USAGE
    capsys.readouterr()
    # A translation that is not n-torsion cannot act on the fibre.
    assert main(["freeness", "--ring", "eisenstein", "--h", "[[z,0],[0,1]]",
                 "--a", "(1/5,0)", "--n", "3"]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_paper_passes(panel_run, capsys, monkeypatch) -> None:
    # The panel itself is computed once per session (conftest.py).
    monkeypatch.setattr(cli, "run_panel", lambda: panel_run.results)
    code, payload = run_json(capsys, ["verify-paper"])
    assert code == EXIT_OK
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])
    names = [check["name"] for check in payload["checks"]]
    assert len(names) == len(set(names))


def test_verify_paper_negative_control(capsys, monkeypatch) -> None:
    # A doctored panel run must flip the exit code and name the failure.
    def doctored():
        return [
            CheckResult("kummer_series_order5", [1, 2, 3], [1, 2, 4], False),
            CheckResult("det_pattern", "x", "x", True),
        ]

    monkeypatch.setattr(cli, "run_panel", doctored)
    code, out = run_cli(capsys, ["verify-paper", "--format", "text"])
    assert code == EXIT_MATH
    assert "FAIL kummer_series_order5" in out
    assert "PASS det_pattern" in out
    assert "FAILURES present" in out
