"""Classification of free cyclic quotients and Euler-characteristic splittings.

A free action of a cyclic group of order ``d`` on the ``2(n-1)``-dimensional
generalized Kummer variety produces a quotient whose canonical bundle has
order ``d`` and whose holomorphic Euler characteristic is ``n/d`` (the cover
has characteristic ``n``).  The quotient is an Enriques variety of index
``d`` exactly when that characteristic is one, i.e. ``d == n``; proper
divisors give the weak variant, and non-divisors are inconsistent.

The decomposition search enumerates how a product of irreducible-symplectic
and even-dimensional Calabi-Yau factors could carry a given dimension and
holomorphic Euler characteristic: a ``2m``-dimensional irreducible-symplectic
factor contributes ``m + 1`` and an even Calabi-Yau factor contributes ``2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# Set from the slowest chi measured at dimension 64 without the reach prune
# in ``decomposition_search`` (about 1 s, Python 3.11, one core of a 2-vCPU
# Xeon).  The prune answers that input at once; the cap stays until a new
# worst case is measured.
DECOMPOSITION_DIM_CAP = 64


class QuotientVerdict(Enum):
    ENRIQUES = "enriques"
    WEAK_ENRIQUES = "weak_enriques"
    INVALID = "invalid"


@dataclass(frozen=True)
class QuotientClassification:
    """The free quotient of the ``2(n-1)``-fold by a cyclic group of order ``d``.

    Every invariant is read from ``(n, d)``, as the module docstring derives.
    """

    n: int
    d: int

    @property
    def verdict(self) -> QuotientVerdict:
        if self.n % self.d:
            return QuotientVerdict.INVALID
        if self.chi == 1:
            return QuotientVerdict.ENRIQUES
        return QuotientVerdict.WEAK_ENRIQUES

    @property
    def index(self) -> int | None:
        return self.d if self.chi == 1 else None

    @property
    def dimension(self) -> int | None:
        return None if self.n % self.d else 2 * self.n - 2

    @property
    def chi(self) -> int | None:
        return None if self.n % self.d else self.n // self.d

    @property
    def reason(self) -> str | None:
        if self.n % self.d:
            return f"group order {self.d} does not divide {self.n}"
        return None


def holomorphic_euler_ihs(dimension: int) -> int:
    """Holomorphic Euler characteristic of an irreducible-symplectic variety."""
    if dimension < 2 or dimension % 2 != 0:
        raise ValueError("irreducible-symplectic varieties have even dimension >= 2")
    return dimension // 2 + 1


def symplectic_screen(order: int, multiplier_order: int, n: int) -> bool:
    """Whether a cyclic group of this order could act freely on the ``2(n-1)``-fold.

    The fold has ``h^{0,2j} = 1`` for ``0 <= j < n``, and a generator ``g``
    multiplies its symplectic form by ``omega = det h``.  A free ``g^k``,
    ``0 < k < d``, has holomorphic Lefschetz number ``sum_{j<n} omega^{jk}
    = 0`` (Atiyah-Bott), which holds exactly when ``omega^k != 1`` and
    ``omega^{kn} = 1``.  So a free action of order ``d`` has ``ord(omega)
    = d`` and ``d | n``; averaged over the group, the same sums give the
    ``chi = n/d`` of :func:`classify_free_quotient`.  The trivial group
    (``d = 1``) passes, since it acts freely vacuously.
    """
    return multiplier_order == order and n % order == 0


def classify_free_quotient(n: int, d: int) -> QuotientClassification:
    """Classify the quotient of the ``2(n-1)``-fold by a free order-``d`` action."""
    if n < 2:
        raise ValueError("the variety parameter must be at least 2")
    if d < 2:
        raise ValueError("the group order must be at least 2")
    return QuotientClassification(n, d)


class FactorKind(Enum):
    IHS = "ihs"
    CY_EVEN = "cy_even"


def _factor_chi(kind: FactorKind, dim: int) -> int:
    return holomorphic_euler_ihs(dim) if kind is FactorKind.IHS else 2


@dataclass(frozen=True)
class FactorDecomposition:
    """A multiset of factors, stored sorted (largest dimension first)."""

    factors: tuple[tuple[FactorKind, int], ...]

    def dimension(self) -> int:
        return sum(dim for _, dim in self.factors)

    def chi(self) -> int:
        out = 1
        for kind, dim in self.factors:
            out *= _factor_chi(kind, dim)
        return out


def decomposition_search(dimension: int, chi: int) -> list[FactorDecomposition]:
    """All factor multisets with the given total dimension and product chi.

    Candidate factors are irreducible-symplectic pieces of any even dimension
    ``>= 2`` and even-dimensional Calabi-Yau pieces of dimension ``>= 4``.
    The enumeration is exhaustive over non-increasing factor sequences and
    emits decompositions in a fixed lexicographic order.
    """
    if dimension < 2 or dimension % 2 != 0:
        raise ValueError("total dimension must be even and at least 2")
    if dimension > DECOMPOSITION_DIM_CAP:
        raise ValueError(f"total dimension is capped at {DECOMPOSITION_DIM_CAP}")
    if chi < 1:
        raise ValueError("the Euler characteristic must be positive")
    candidates: list[tuple[FactorKind, int]] = []
    for dim in range(dimension, 1, -2):
        candidates.append((FactorKind.IHS, dim))
        if dim >= 4:
            candidates.append((FactorKind.CY_EVEN, dim))

    found: list[FactorDecomposition] = []

    def recurse(start: int, dim_left: int, chi_left: int, acc: list[tuple[FactorKind, int]]) -> None:
        # A factor of dimension d gives at most 2^(d/2) (d/2 + 1 or 2), so
        # factors filling dim_left reach at most 2^(dim_left/2).
        if chi_left > 2 ** (dim_left // 2):
            return
        if dim_left == 0:
            if chi_left == 1:
                found.append(FactorDecomposition(tuple(acc)))
            return
        for index in range(start, len(candidates)):
            kind, dim = candidates[index]
            if dim > dim_left:
                continue
            contribution = _factor_chi(kind, dim)
            if chi_left % contribution != 0:
                continue
            acc.append((kind, dim))
            recurse(index, dim_left - dim, chi_left // contribution, acc)
            acc.pop()

    recurse(0, dimension, chi, [])
    return found


def all_single_factor(decompositions: list[FactorDecomposition]) -> bool:
    """True when the list is nonempty and each decomposition has one factor."""
    return bool(decompositions) and all(
        len(dec.factors) == 1 for dec in decompositions
    )


def is_irreducible_feasible(dimension: int, chi: int) -> bool:
    """True when every admissible decomposition consists of a single factor."""
    return all_single_factor(decomposition_search(dimension, chi))
