"""The ``kummer-lab`` command line: grammar, payloads, and exit codes."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import kummerlab.cli as cli
from kummerlab.enriques import DECOMPOSITION_DIM_CAP
from kummerlab.cli import (
    EXIT_MATH,
    EXIT_OK,
    EXIT_USAGE,
    CommandSpec,
    GrammarError,
    format_element,
    format_matrix,
    format_point,
    main,
    parse_command,
    parse_element,
    parse_matrix,
    parse_point,
)
from kummerlab.fixedpoint import GRID_LEVEL_CAP
from kummerlab.rings import RingId
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
    ring = RingId.EISENSTEIN
    assert format_element(parse_element("1/3 + 2/3*z", ring)) == "1/3+2/3*z"
    assert format_element(parse_element("-z", ring)) == "-z"
    assert format_element(parse_element("z", RingId.GAUSSIAN)) == "z"
    assert format_element(parse_element("0", ring)) == "0"
    assert format_element(parse_element("1/2", RingId.RATIONAL_INT)) == "1/2"
    assert format_element(parse_element("2-z", ring)) == "2-z"
    # Terms accumulate regardless of order or repetition.
    assert parse_element("z+1/2+z", ring) == (Fraction(1, 2), Fraction(2))
    # The integer ring folds z = 1 into the rational coordinate.
    assert parse_element("1/3+1/2*z", RingId.RATIONAL_INT) == (Fraction(5, 6), 0)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_element_round_trip_random(ring: RingId) -> None:
    rng = random.Random(424242)
    for _ in range(40):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        element = (x + y, Fraction(0)) if ring is RingId.RATIONAL_INT else (x, y)
        assert parse_element(format_element(element), ring) == element


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_point_and_matrix_round_trip(ring: RingId) -> None:
    rng = random.Random(535353)
    for _ in range(20):
        point = parse_point(
            f"({rng.randint(0, 5)}/6+{rng.randint(0, 5)}/6*z,"
            f"{rng.randint(0, 5)}/6)",
            ring,
        )
        assert parse_point(format_point(point), ring) == point
    matrix = parse_matrix("[[z,1],[-1,0]]", ring)
    assert parse_matrix(format_matrix(matrix), ring) == matrix


def test_integer_ring_folds_before_the_integrality_test() -> None:
    # ``1/2 + 1/2*z`` is the ring integer 1 once z = 1 is folded in, so it
    # is accepted as a matrix entry; points fold the same way.
    ring = RingId.RATIONAL_INT
    assert format_matrix(parse_matrix("[[1/2+1/2*z,0],[0,1]]", ring)) == "[[1,0],[0,1]]"
    assert format_point(parse_point("(1/3+1/3*z,1/2*z)", ring)) == "(2/3,1/2)"
    with pytest.raises(GrammarError):
        parse_matrix("[[1/2+1/2*z,0],[0,1]]", RingId.EISENSTEIN)


def test_grammar_rejections() -> None:
    ring = RingId.GAUSSIAN
    with pytest.raises(GrammarError):
        parse_element("i", ring)
    with pytest.raises(GrammarError):
        parse_element("1//2", ring)
    with pytest.raises(GrammarError):
        parse_element("z*z", ring)
    with pytest.raises(GrammarError):
        parse_element("", ring)
    with pytest.raises(GrammarError):
        parse_point("(1/2)", ring)
    with pytest.raises(GrammarError):
        parse_point("1/2,1/2", ring)
    with pytest.raises(GrammarError):
        parse_matrix("[[1,2],[3]]", ring)
    with pytest.raises(GrammarError):
        parse_matrix("[[1/2,0],[0,1]]", ring)
    with pytest.raises(GrammarError):
        parse_matrix("[[1,0],[0,1]", ring)


def test_command_spec_round_trip() -> None:
    spec = CommandSpec(
        command="freeness",
        ring="eisenstein",
        h_text="[[z,0],[0,1]]",
        a_text="(1/3,1/3)",
        n=3,
        fmt="json",
    )
    assert parse_command(spec.to_argv()) == spec
    search_spec = CommandSpec(
        command="search", ring="gaussian", n=4, max_norm=1, fmt="text"
    )
    assert parse_command(search_spec.to_argv()) == search_spec


def test_command_spec_canonicalizes_input_text() -> None:
    spec = parse_command(
        [
            "freeness",
            "--ring",
            "eisenstein",
            "--h",
            "[[ z , 0 ],[ 0 , 1 ]]",
            "--a",
            "( 2/6 , 1/3 + 0*z )",
            "--n",
            "3",
        ]
    )
    assert spec.h_text == "[[z,0],[0,1]]"
    assert spec.a_text == "(1/3,1/3)"


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
    # The grid walks level**4 starts, so the cap is enforced up front,
    # before the decision runs.
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


@pytest.mark.parametrize("level", ["0", "-3", "25"])
def test_search_level_outside_cap_exits_two(capsys, level) -> None:
    argv = ["search", "--ring", "eisenstein", "--n", "3", "--level", level]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: level must lie in 1..24")


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
