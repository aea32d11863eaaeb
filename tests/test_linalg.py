"""Exact integer matrices and their normal forms."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kummerlab.lattice as lattice
from kummerlab.linalg import (
    IntMatrix,
    binary_power,
    divisors,
    elementary_divisors_via_minors,
    factorize,
    matrix_order,
    smith_normal_form,
)
from kummerlab.rings import RingElem, RingId, units
from kummerlab.search import run_search
from kummerlab.verify import matrix_catalog


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 7) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_smith_form_frozen_example() -> None:
    a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    u, d, v = smith_normal_form(a)
    assert u @ a @ v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diagonal = [d[i][i] for i in range(3)]
    assert diagonal == [2, 2, 156]
    assert elementary_divisors_via_minors(a) == [2, 2, 156]


def dense_product(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The textbook row-by-column product, kept as the reference."""
    columns = list(zip(*y.entries))
    return IntMatrix(
        [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in x.entries]
    )


def sparse_matrix(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    return IntMatrix(
        [
            [rng.randint(-5, 5) if rng.random() < 0.2 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_sparse_product_matches_dense_reference() -> None:
    rng = random.Random(313)
    for _ in range(40):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        make = rng.choice([random_matrix, sparse_matrix])
        x = make(rng, rows, inner)
        y = make(rng, inner, cols)
        assert x @ y == dense_product(x, y)
    assert IntMatrix.zeros(2, 3) @ IntMatrix.zeros(3, 4) == IntMatrix.zeros(2, 4)
    with pytest.raises(ValueError):
        IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)


def test_smith_form_random_properties() -> None:
    # Dense, sparse and rank-deficient inputs, square, wide and tall.  The
    # transforms are re-checked with the dense reference product and with
    # determinants, the diagonal against gcds of minors.
    rng = random.Random(707)
    shapes = set()
    deficient = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.choice(["dense", "sparse", "low_rank"])
        if kind == "dense":
            a = random_matrix(rng, rows, cols)
        elif kind == "sparse":
            a = sparse_matrix(rng, rows, cols)
        else:
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            a = dense_product(
                random_matrix(rng, rows, inner, 3), random_matrix(rng, inner, cols, 3)
            )
        u, d, v = smith_normal_form(a)
        assert dense_product(dense_product(u, a), v) == d
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
        diagonal = [d[i][i] for i in range(min(rows, cols))]
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        nonzero = [x for x in diagonal if x]
        assert diagonal == nonzero + [0] * (len(diagonal) - len(nonzero))
        assert all(x > 0 and y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
        assert elementary_divisors_via_minors(a) == nonzero
        deficient += len(nonzero) < min(rows, cols)
        shapes.add((rows > cols) - (rows < cols))
    assert shapes == {-1, 0, 1}
    assert deficient >= 10


# Every Smith form computed by the full Eisenstein n=3 sweep, in call
# order: their count and the sha256 of their reprs, one per line.  The
# digest is that of a pivot search that scans every row to the end, so it
# holds the early-stopping search to the same transforms.
SWEEP_SMITH_FORMS = 252
SWEEP_SMITH_DIGEST = "13d00b15aa3ec24be56c2c8a1f17d4ffd77b96f03c1d1e3e4db6ff58b9283048"


def test_smith_forms_of_the_eisenstein_sweep_are_pinned(monkeypatch) -> None:
    forms = []

    def recording(a: IntMatrix):
        form = smith_normal_form(a)
        forms.append(form)
        return form

    monkeypatch.setattr(lattice, "smith_normal_form", recording)
    assert len(run_search(3, RingId.EISENSTEIN)) == 64
    assert len(forms) == SWEEP_SMITH_FORMS
    digest = hashlib.sha256("\n".join(map(repr, forms)).encode()).hexdigest()
    assert digest == SWEEP_SMITH_DIGEST


_MUTATION_SCRIPT = """
import sys
import kummerlab.linalg as linalg
from kummerlab.linalg import IntMatrix, SelfCheckError, smith_normal_form

elimination = linalg._smith_elimination


def corrupt_u_inverse(u, d, v, u_inv_t, v_inv):
    u_inv_t[0][-1] += 1


def corrupt_v_inverse(u, d, v, u_inv_t, v_inv):
    v_inv[-1][0] -= 1


def scale_u_row(u, d, v, u_inv_t, v_inv):
    # U @ A @ V == D still holds and the diagonal is still a divisor
    # chain, but det U is now +-2.
    u[-1] = [2 * x for x in u[-1]]
    d[-1] = [2 * x for x in d[-1]]


def scale_v_column(u, d, v, u_inv_t, v_inv):
    for row in v:
        row[-1] *= 2
    for row in d:
        row[-1] *= 2


def corrupt_d(u, d, v, u_inv_t, v_inv):
    # Transforms and inverses stay consistent, D no longer matches them.
    d[-1][-1] += d[0][0]


matrices = [
    IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]),
    IntMatrix([[1, 2, 3], [2, 4, 6]]),
    IntMatrix([[0, 3], [1, 1], [2, 2], [1, 0]]),
]
corruptions = [
    (corrupt_u_inverse, "not unimodular"),
    (corrupt_v_inverse, "not unimodular"),
    (scale_u_row, "not unimodular"),
    (scale_v_column, "not unimodular"),
    (corrupt_d, "transform check failed"),
]
for corrupt, expected in corruptions:
    for a in matrices:
        def patched(a, corrupt=corrupt):
            out = elimination(a)
            corrupt(*out)
            return out

        linalg._smith_elimination = patched
        try:
            smith_normal_form(a)
        except SelfCheckError as exc:
            if expected not in str(exc):
                sys.exit(f"{corrupt.__name__}: caught by the wrong check: {exc}")
        else:
            sys.exit(f"{corrupt.__name__} went unnoticed on {a!r}")
        linalg._smith_elimination = elimination
        smith_normal_form(a)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_corrupted_transforms_raise_self_check_error(flags) -> None:
    # A wrong tracked inverse, and a transform scaled by 2 together with D
    # so that U @ A @ V == D still holds, must both fail the unimodularity
    # check; a wrong D must fail the transform check.  Both hold also when
    # ``python -O`` strips the asserts.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, *flags, "-c", _MUTATION_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_smith_form_zero_matrix() -> None:
    a = IntMatrix.zeros(3, 2)
    u, d, v = smith_normal_form(a)
    assert u @ a @ v == d
    assert d.is_zero()
    assert elementary_divisors_via_minors(a) == []


def test_determinant_matches_cofactor_expansion() -> None:
    rng = random.Random(909)

    def cofactor_det(rows: list[list[int]]) -> int:
        size = len(rows)
        if size == 1:
            return rows[0][0]
        total = 0
        for j in range(size):
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            sign = -1 if j % 2 else 1
            total += sign * rows[0][j] * cofactor_det(minor)
        return total

    for _ in range(20):
        size = rng.randint(1, 4)
        a = random_matrix(rng, size, size)
        assert a.det() == cofactor_det([list(row) for row in a.entries])


def test_matrix_ring_operations() -> None:
    rng = random.Random(111)
    for _ in range(20):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 3, 3)
        identity = IntMatrix.identity(3)
        assert a @ identity == a
        assert identity @ a == a
        assert (a + b) - b == a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()
        assert a**3 == a @ a @ a
        assert a**0 == identity
        assert a.scale(2) == a + a
        assert (a @ b).det() == a.det() * b.det()


def test_block_assembly() -> None:
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix.zeros(2, 2)
    stacked = IntMatrix.block([[a, b], [b, a]])
    assert stacked.rows == 4
    assert stacked.cols == 4
    assert stacked[0][1] == 2
    assert stacked[2][2] == 1
    assert stacked[3][2] == 3
    assert stacked[0][2] == 0


def test_apply_returns_exact_rationals() -> None:
    a = IntMatrix([[2, 1], [0, 3]])
    image = a.apply([Fraction(1, 2), Fraction(1, 3)])
    assert image == (Fraction(4, 3), Fraction(1))


# The orders the catalog's names promise, each a least power equal to I.
CATALOG_ORDERS = {
    "companion_order5": 5,
    "companion_order8": 8,
    "companion_order10": 10,
    "companion_order12": 12,
    "minus_identity": 2,
    "eisenstein_diag_zeta_one": 3,
    "eisenstein_diag_zeta_zeta": 3,
    "eisenstein_diag_sixth": 6,
    "gaussian_diag_i_one": 4,
    "gaussian_diag_i_minus_i": 4,
    "gaussian_rotation": 4,
    "integer_rotation": 4,
}


def least_power_to_identity(m: IntMatrix, bound: int = 24) -> int | None:
    power = m
    for k in range(1, bound + 1):
        if power == IntMatrix.identity(m.rows):
            return k
        power = power @ m
    return None


def test_matrix_order_on_the_catalog() -> None:
    catalog = dict(matrix_catalog())
    assert set(catalog) == set(CATALOG_ORDERS)
    for name, m in catalog.items():
        assert matrix_order(m) == CATALOG_ORDERS[name] == least_power_to_identity(m)


def test_matrix_order_of_units_matches_ring_powers() -> None:
    for ring in (RingId.RATIONAL_INT, RingId.GAUSSIAN, RingId.EISENSTEIN):
        one = RingElem.one(ring)
        for u in units(ring):
            order = next(k for k in range(1, 7) if u**k == one)
            assert matrix_order(IntMatrix(u.regular_representation())) == order


def test_matrix_order_matches_least_power_on_random_matrices() -> None:
    rng = random.Random(55)
    for _ in range(300):
        size = rng.randint(1, 4)
        m = random_matrix(rng, size, size, 1)
        expected = least_power_to_identity(m)
        if expected is None:
            with pytest.raises(ValueError):
                matrix_order(m)
        else:
            assert matrix_order(m) == expected


def test_factorisation_and_divisors() -> None:
    for n in range(1, 400):
        pairs = factorize(n)
        product = 1
        for p, e in pairs:
            assert all(p % q for q in range(2, p))
            product *= p**e
        assert product == n
        assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    with pytest.raises(ValueError):
        factorize(0)


def test_binary_power_counts_products() -> None:
    calls = []

    def product(x, y):
        calls.append((x, y))
        return x * y

    assert binary_power(3, 13, 1, product) == 3**13
    # 13 = 0b1101: three multiplications into the result, three squarings.
    assert len(calls) == 6
    assert binary_power(3, 0, 1, product) == 1
    with pytest.raises(ValueError):
        binary_power(3, -1, 1, product)
