"""Truncated power series with integer coefficients and Newton's exponential."""

from __future__ import annotations

import ast
import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kummerlab.linalg import SelfCheckError
from kummerlab.series import TruncatedSeries


def product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated product, by direct convolution."""
    n = a.truncation
    return TruncatedSeries(
        [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]
    )


def one(truncation: int) -> TruncatedSeries:
    return TruncatedSeries([1] + [0] * truncation)


def power_sums(even, odd, truncation: int) -> TruncatedSeries:
    """``sum_a a^k - sum_b b^k``, ``k >= 1``: exp gives ``prod (1 - b t) / prod (1 - a t)``."""
    return TruncatedSeries(
        [0]
        + [
            sum(a**k for a in even) - sum(b**k for b in odd)
            for k in range(1, truncation + 1)
        ]
    )


def random_sums(rng: random.Random, truncation: int) -> tuple[list, list, TruncatedSeries]:
    even = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
    odd = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
    return even, odd, power_sums(even, odd, truncation)


def test_constructors_and_coefficients() -> None:
    s = TruncatedSeries([1, 16, 144])
    assert s.coefficients == (1, 16, 144)
    assert s.truncation == 2
    assert s[2] == 144
    with pytest.raises(IndexError):
        s[3]
    assert s == TruncatedSeries((1, 16, 144))
    assert hash(s) == hash(TruncatedSeries([1, 16, 144]))
    assert repr(s) == "TruncatedSeries([1, 16, 144])"
    with pytest.raises(ValueError):
        TruncatedSeries([])
    for bad in (Fraction(1), Fraction(1, 2), 1.0):
        with pytest.raises(ValueError):
            TruncatedSeries([0, bad])


def test_constant_term_preconditions() -> None:
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1]).exp()
    assert TruncatedSeries([0]).exp() == one(0)
    assert TruncatedSeries([0] * 6).exp() == one(5)


def test_geometric_series_inverse() -> None:
    # Power sums c^k give 1/(1 - c t); their negatives give 1 - c t.
    for c in range(-3, 4):
        geometric = TruncatedSeries([0] + [c**k for k in range(1, 7)]).exp()
        assert geometric.coefficients == tuple(c**k for k in range(7))
        linear = TruncatedSeries([0] + [-(c**k) for k in range(1, 7)]).exp()
        assert linear.coefficients == (1, -c, 0, 0, 0, 0, 0)
        assert product(geometric, linear) == one(6)


def test_inverse_random() -> None:
    # Signed power sums of integers expand to the rational function they
    # come from, and negating them inverts the series.
    rng = random.Random(777)
    for _ in range(30):
        even, odd, sums = random_sums(rng, 7)
        expected = one(7)
        for a in even:
            expected = product(expected, TruncatedSeries([a**k for k in range(8)]))
        for b in odd:
            expected = product(expected, TruncatedSeries([1, -b] + [0] * 6))
        assert sums.exp() == expected
        negated = TruncatedSeries([-c for c in sums.coefficients]).exp()
        assert product(sums.exp(), negated) == one(7)


def test_pow_matches_repeated_multiplication() -> None:
    # exp(k a) is the k-th power of exp(a).
    rng = random.Random(555)
    for _ in range(15):
        _, _, sums = random_sums(rng, 6)
        power = one(6)
        for k in range(4):
            assert TruncatedSeries([k * c for c in sums.coefficients]).exp() == power
            power = product(power, sums.exp())


def test_exp_turns_sums_into_products() -> None:
    rng = random.Random(999)
    for _ in range(15):
        _, _, a = random_sums(rng, 6)
        _, _, b = random_sums(rng, 6)
        total = TruncatedSeries([x + y for x, y in zip(a.coefficients, b.coefficients)])
        assert total.exp() == product(a.exp(), b.exp())


def test_exp_of_monomial() -> None:
    # exp(t) has coefficient 1/2 at t^2: the division by 2 is inexact.
    assert TruncatedSeries([0, 1]).exp().coefficients == (1, 1)
    with pytest.raises(SelfCheckError, match="must be integers"):
        TruncatedSeries([0, 1, 0]).exp()


def test_integrality_check() -> None:
    # exp(2t) = 1 + 2t + 2t^2 + (4/3)t^3 + ...: integral to degree 2 only.
    assert TruncatedSeries([0, 2, 0]).exp().coefficients == (1, 2, 2)
    with pytest.raises(SelfCheckError):
        TruncatedSeries([0, 2, 0, 0]).exp()
    # The involution -I: sigma_k = 16 * sum of k/s over the odd s dividing k.
    assert TruncatedSeries([0, 16, 32]).exp().coefficients == (1, 16, 144)
    with pytest.raises(SelfCheckError):
        TruncatedSeries([0, 17, 32]).exp()


# The integer modules do not import fractions, and the modules on the
# decision path do not import the rings: a map is its integer matrix.
@pytest.mark.parametrize(
    "name, banned",
    [
        *(
            pytest.param(name, "fractions", id=name)
            for name in (
                "series", "lefschetz", "lattice", "search", "enriques", "rings",
                "fixedpoint",
            )
        ),
        *(
            pytest.param(name, ".rings", id=f"{name}-rings")
            for name in ("torus", "fixedpoint", "lattice")
        ),
    ],
)
def test_integer_modules_do_not_import_fractions(name: str, banned: str) -> None:
    module = importlib.import_module(f"kummerlab.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add("." * node.level + node.module.split(".")[0])
    assert banned not in imported
