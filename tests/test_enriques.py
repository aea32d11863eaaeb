"""Classification of free cyclic quotients and their factor decompositions."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

import kummerlab.enriques as enriques
from kummerlab.enriques import (
    FactorDecomposition,
    FactorKind,
    QuotientClassification,
    QuotientVerdict,
    _factor_chi,
    classify_free_quotient,
    decomposition_search,
    holomorphic_euler_ihs,
    is_irreducible_feasible,
)


def classification_branches(n: int, d: int) -> tuple:
    """``(verdict, index, dimension, chi, reason)`` as ``classify_free_quotient``
    stored them before they became properties; kept as the reference."""
    if n % d != 0:
        reason = f"group order {d} does not divide {n}"
        return QuotientVerdict.INVALID, None, None, None, reason
    if d == n:
        return QuotientVerdict.ENRIQUES, d, 2 * n - 2, 1, None
    return QuotientVerdict.WEAK_ENRIQUES, None, 2 * n - 2, n // d, None


def test_classification_properties_match_the_stored_branches() -> None:
    fields = [f.name for f in dataclasses.fields(QuotientClassification)]
    assert fields == ["n", "d"]
    for n, d in itertools.product(range(2, 61), repeat=2):
        c = classify_free_quotient(n, d)
        assert (c.verdict, c.index, c.dimension, c.chi, c.reason) == (
            classification_branches(n, d)
        ), (n, d)


def test_full_index_quotients() -> None:
    for n in (2, 3, 4, 6, 12):
        result = classify_free_quotient(n, n)
        assert result.verdict is QuotientVerdict.ENRIQUES
        assert result.index == n
        assert result.dimension == 2 * n - 2
        assert result.chi == 1
        assert result.reason is None


def test_proper_divisor_quotients() -> None:
    result = classify_free_quotient(6, 3)
    assert result.verdict is QuotientVerdict.WEAK_ENRIQUES
    assert result.dimension == 10
    assert result.chi == 2
    result = classify_free_quotient(6, 2)
    assert result.verdict is QuotientVerdict.WEAK_ENRIQUES
    assert result.chi == 3
    result = classify_free_quotient(12, 4)
    assert result.chi == 3
    assert result.dimension == 22


def test_non_divisor_is_invalid() -> None:
    result = classify_free_quotient(4, 3)
    assert result.verdict is QuotientVerdict.INVALID
    assert result.dimension is None
    assert result.chi is None
    assert "3" in result.reason and "4" in result.reason


def test_degenerate_parameters_raise() -> None:
    with pytest.raises(ValueError):
        classify_free_quotient(1, 1)
    with pytest.raises(ValueError):
        classify_free_quotient(4, 1)
    with pytest.raises(ValueError):
        classify_free_quotient(0, 2)


def test_holomorphic_euler_numbers() -> None:
    assert holomorphic_euler_ihs(2) == 2
    assert holomorphic_euler_ihs(4) == 3
    assert holomorphic_euler_ihs(10) == 6
    with pytest.raises(ValueError):
        holomorphic_euler_ihs(3)
    with pytest.raises(ValueError):
        holomorphic_euler_ihs(0)


def test_chi_matches_quotient_of_euler_numbers() -> None:
    # The invariant chi of the quotient times the index recovers the
    # chi of the covering variety.
    for n in range(2, 13):
        for d in range(2, n + 1):
            if n % d:
                continue
            result = classify_free_quotient(n, d)
            assert result.chi * d == holomorphic_euler_ihs(2 * n - 2)


def brute_force_decompositions(dimension: int, chi: int) -> set[tuple]:
    """Independent oracle: multisets of factors by exhaustive splitting."""
    factors = []
    for dim in range(2, dimension + 1, 2):
        factors.append((FactorKind.IHS, dim, dim // 2 + 1))
        if dim >= 4:
            factors.append((FactorKind.CY_EVEN, dim, 2))
    found = set()
    for count in range(1, dimension // 2 + 1):
        for combo in itertools.combinations_with_replacement(factors, count):
            if sum(f[1] for f in combo) != dimension:
                continue
            product = 1
            for f in combo:
                product *= f[2]
            if product != chi:
                continue
            found.add(tuple(sorted((f[0].value, f[1]) for f in combo)))
    return found


@pytest.mark.parametrize(
    "dimension, chi",
    [(4, 3), (4, 2), (6, 4), (6, 2), (8, 5), (8, 4), (10, 6), (10, 3), (12, 4)],
)
def test_search_agrees_with_brute_force(dimension: int, chi: int) -> None:
    results = decomposition_search(dimension, chi)
    as_multisets = {
        tuple(sorted((kind.value, dim) for kind, dim in dec.factors))
        for dec in results
    }
    assert len(as_multisets) == len(results), "no duplicate decompositions"
    assert as_multisets == brute_force_decompositions(dimension, chi)
    for dec in results:
        assert dec.dimension() == dimension
        assert dec.chi() == chi


def unpruned_decompositions(dimension: int, chi: int) -> list[FactorDecomposition]:
    """The decomposition search without the reach prune, in the same order."""
    candidates = []
    for dim in range(dimension, 1, -2):
        candidates.append((FactorKind.IHS, dim))
        if dim >= 4:
            candidates.append((FactorKind.CY_EVEN, dim))
    found = []

    def recurse(start: int, dim_left: int, chi_left: int, acc: list) -> None:
        if dim_left == 0:
            if chi_left == 1:
                found.append(FactorDecomposition(tuple(acc)))
            return
        for index in range(start, len(candidates)):
            kind, dim = candidates[index]
            if dim > dim_left or chi_left % _factor_chi(kind, dim):
                continue
            acc.append((kind, dim))
            recurse(index, dim_left - dim, chi_left // _factor_chi(kind, dim), acc)
            acc.pop()

    recurse(0, dimension, chi, [])
    return found


def test_reach_prune_keeps_every_decomposition() -> None:
    # A factor of dimension d gives at most 2^(d/2), so the prune only cuts
    # branches that find nothing: the lists, and their order, are unchanged.
    nonempty = 0
    for dimension in range(2, 33, 2):
        for chi in range(1, 417):
            expected = unpruned_decompositions(dimension, chi)
            assert decomposition_search(dimension, chi) == expected
            nonempty += bool(expected)
    assert nonempty == 640


def test_unreachable_chi_is_pruned_at_the_root(monkeypatch) -> None:
    # chi = 2^24 3^6 5^3 7^2 exceeds 2^32, the most that 64 dimensions of
    # factors can give, so no factor is tried; unpruned this takes about 1 s.
    calls = []
    monkeypatch.setattr(
        enriques, "_factor_chi", lambda kind, dim: calls.append(dim) or 2
    )
    assert decomposition_search(64, 74912366592000) == []
    assert calls == []


def test_known_decomposition_lists() -> None:
    assert decomposition_search(4, 3) == [
        FactorDecomposition(((FactorKind.IHS, 4),))
    ]
    ten_six = decomposition_search(10, 6)
    assert [dec.factors for dec in ten_six] == [
        ((FactorKind.IHS, 10),),
        ((FactorKind.CY_EVEN, 6), (FactorKind.IHS, 4)),
    ]
    assert decomposition_search(4, 7) == []


def test_irreducibility_screen() -> None:
    # chi = dim/2 + 1 with no product alternative forces a single factor.
    assert is_irreducible_feasible(4, 3)
    assert is_irreducible_feasible(6, 2)
    assert not is_irreducible_feasible(10, 6)
    assert not is_irreducible_feasible(4, 7)


def test_factor_invariants() -> None:
    dec = FactorDecomposition(((FactorKind.CY_EVEN, 6), (FactorKind.IHS, 4)))
    assert dec.dimension() == 10
    assert dec.chi() == 2 * 3
