"""Exact integer matrices and their normal forms."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

import kummerlab.lattice as lattice
from kummerlab.cli import main
from kummerlab.fixedpoint import has_fixed_point
from kummerlab.lefschetz import companion_matrix
from kummerlab.linalg import (
    CYCLOTOMIC,
    CYCLOTOMIC_ORDERS,
    IntMatrix,
    SelfCheckError,
    binary_power,
    characteristic_polynomial,
    divisors,
    elementary_divisors_via_minors,
    factorize,
    matrix_order,
    newton_exponential,
    smith_form_rows,
    smith_normal_form,
)
from kummerlab.rings import (
    RingElem,
    RingId,
    induced_matrix,
    ring_elements_up_to_norm,
    units,
)
from kummerlab.search import run_search
from kummerlab.series import TruncatedSeries
from kummerlab.verify import matrix_catalog, panel_map


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 7) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def stack_blocks(grid) -> IntMatrix:
    """The matrix with the 2-d grid of :class:`IntMatrix` blocks ``grid``,
    each block row of one height."""
    return IntMatrix(
        [
            [x for block in block_row for x in block[i]]
            for block_row in grid
            for i in range(block_row[0].rows)
        ]
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


def test_constructor_rejects_non_integer_entries() -> None:
    assert IntMatrix([[Fraction(4, 2), 2.0], [True, -3]]).entries == ((2, 2), (1, -3))
    for bad in ([[Fraction(1, 2), 2]], [[1, 2.7]], [["3"]]):
        with pytest.raises(ValueError, match="integers"):
            IntMatrix(bad)


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


def test_nonzero_rows_are_the_nonzeros_of_the_entries() -> None:
    rng = random.Random(1212)
    for _ in range(60):
        make = rng.choice([random_matrix, sparse_matrix])
        a = make(rng, rng.randint(1, 8), rng.randint(1, 8))
        view = a.nonzero_rows()
        assert [dict(row) for row in view] == [
            {j: x for j, x in enumerate(row) if x} for row in a.entries
        ]
        assert a.nonzero_rows() is view
        # The elimination works on copies: a second form of the same
        # object, which reads the same view, is the first one again.
        assert smith_normal_form(a) == smith_normal_form(a)
        assert [dict(row) for row in view] == [
            {j: x for j, x in enumerate(row) if x} for row in a.entries
        ]
        with pytest.raises(TypeError):
            view[0][0] = 1
        # Handed the same dicts, the sparse constructor writes the same rows
        # and serves the dicts as its nonzero rows.
        rows = [dict(row) for row in view]
        b = IntMatrix.from_nonzero_rows(rows, a.cols)
        assert b.entries == a.entries
        assert [dict(row) for row in b.nonzero_rows()] == rows
        with pytest.raises(TypeError):
            b.nonzero_rows()[0][0] = 1


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


# Every Smith form of an orbit system computed by the full Eisenstein n=3
# sweep from cold memos, in call order: their count and the sha256 of their
# reprs as dense (U, D, V), one per line.  The memo normalises each
# distinct system once, so the count is the number of distinct systems the
# sweep solves.  The digest is that of a pivot search that scans every row
# to the end, so it holds the early-stopping search to the same transforms.
# The sweep lists its translation classes from a Hermite box
# (lattice.translation_box), so it takes no dense Smith form of I - M;
# the dense forms are counted apart.
SWEEP_SMITH_FORMS = 45
SWEEP_SMITH_DIGEST = "e4b7ca50769d0cf39a3cbfd6649f1e2303fabe3ac127a76d201b88d0484f71ce"
SWEEP_CLASS_FORMS = 0


def test_smith_forms_of_the_eisenstein_sweep_are_pinned(
    monkeypatch, clear_memos
) -> None:
    systems = []
    forms = []
    class_forms = []

    def recording(a: IntMatrix):
        systems.append(a)
        forms.append(smith_normal_form(a))
        return smith_form_rows(a)

    def recording_dense(a: IntMatrix):
        form = smith_normal_form(a)
        class_forms.append(form)
        return form

    clear_memos()
    monkeypatch.setattr(lattice, "smith_form_rows", recording)
    monkeypatch.setattr(lattice, "smith_normal_form", recording_dense)
    assert len(run_search(3, RingId.EISENSTEIN)) == 64
    assert len(forms) == SWEEP_SMITH_FORMS
    assert len(set(systems)) == len(systems), "a system was normalised twice"
    digest = hashlib.sha256("\n".join(map(repr, forms)).encode()).hexdigest()
    assert digest == SWEEP_SMITH_DIGEST
    assert len(class_forms) == SWEEP_CLASS_FORMS


# The same pin for the Smith forms that the two free n=12 ``freeness``
# anchors take from cold memos, in call order: 12 systems, the largest
# 52x48.  The digest was computed before the unit-pivot shortcut and the
# row-sparse column operation, so it holds them to the same transforms.
ANCHOR_SMITH_FORMS = 12
ANCHOR_SMITH_DIGEST = "42d8509f2e251a77d159c3747acf36e33ad88de277b9606dcfef0b4c4bd903b6"


def test_smith_forms_of_the_freeness_anchors_are_pinned(
    monkeypatch, capsys, clear_memos
) -> None:
    forms = []

    def recording(a: IntMatrix):
        forms.append(smith_normal_form(a))
        return smith_form_rows(a)

    clear_memos()
    monkeypatch.setattr(lattice, "smith_form_rows", recording)
    for ring, point in (("eisenstein", "(1/3,1/3)"), ("gaussian", "(1/4,1/4)")):
        argv = ["freeness", "--ring", ring, "--h", "[[z,0],[0,1]]", "--a", point]
        assert main([*argv, "--n", "12"]) == 0
    capsys.readouterr()
    assert len(forms) == ANCHOR_SMITH_FORMS
    assert max((d.rows, d.cols) for _, d, _ in forms) == (52, 48)
    digest = hashlib.sha256("\n".join(map(repr, forms)).encode()).hexdigest()
    assert digest == ANCHOR_SMITH_DIGEST


# And for 300 seeded random systems of up to 8x8 with entries in [-6, 6],
# dense and sparse.  Unlike the orbit systems, whose pivots are mostly
# units, they take 254 non-unit pivots and 49 repairs of a pivot that does
# not divide the rest of its block.
RANDOM_SMITH_DIGEST = "6d9e4d07023bf0adc599e0f1a5bff56ab4e190359735368f9ac647b30900a71c"


def test_smith_forms_of_random_systems_are_pinned() -> None:
    rng = random.Random(2020)
    forms = []
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice([0.3, 0.7, 1.0])
        a = IntMatrix(
            [
                [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        forms.append(smith_normal_form(a))
    digest = hashlib.sha256("\n".join(map(repr, forms)).encode()).hexdigest()
    assert digest == RANDOM_SMITH_DIGEST


def dense_elimination(a: IntMatrix, repairs: list[int] | None = None):
    """The elimination over dense rows, kept as the reference.

    The same pivot rule and operations as ``linalg._smith_elimination``,
    each one a pass over whole rows and columns.  Returns ``(U, D, V)``.
    Each repair of a pivot that does not divide the rest of its block
    appends its stage to ``repairs``, when given.
    """
    rows, cols = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(src: int, dst: int, k: int) -> None:
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src: int, dst: int, k: int) -> None:
        for row in d + v:
            row[dst] += k * row[src]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e and (best is None or abs(e) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    for t in range(min(rows, cols)):
        while True:
            pos = find_pivot(t)
            if pos is None:
                break
            d[t], d[pos[0]] = d[pos[0]], d[t]
            u[t], u[pos[0]] = u[pos[0]], u[t]
            for row in d + v:
                row[t], row[pos[1]] = row[pos[1]], row[t]
            pivot = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    add_row(t, i, -(d[i][t] // pivot))
                    dirty = dirty or d[i][t] != 0
            if dirty:
                continue
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    add_col(t, j, -(d[t][j] // pivot))
                    dirty = dirty or d[t][j] != 0
            if dirty:
                continue
            offender = next(
                (
                    i
                    for i in range(t + 1, rows)
                    for j in range(t + 1, cols)
                    if d[i][j] % pivot != 0
                ),
                None,
            )
            if offender is None:
                break
            if repairs is not None:
                repairs.append(t)
            add_row(offender, t, 1)
        if pos is None:
            break
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return IntMatrix(u), IntMatrix(d), IntMatrix(v)


def block_sparse_matrix(
    rng: random.Random,
    blocks: int,
    draw=lambda rng: random_matrix(rng, 4, 4, 3),
) -> IntMatrix:
    """A ``(4 blocks + 4) x 4 blocks`` draw shaped like an orbit system:
    a band of random 4x4 blocks, each from ``draw``, and a full last block
    row."""
    grid = []
    for bi in range(blocks + 1):
        row = []
        for bj in range(blocks):
            full = bi == blocks or bj in (bi, bi - 1)
            filled = full and rng.random() < 0.7
            row.append(draw(rng) if filled else IntMatrix.zeros(4, 4))
        grid.append(row)
    return stack_blocks(grid)


# sha256 of repr(has_fixed_point(panel_map("order6"), 24)), computed with the
# dense elimination.
ORDER6_REPORT_DIGEST = "df3f3337d01bace9ef14706dc6533b35df363aecb998d042ba522939310eb550"


def test_smith_forms_match_the_dense_reference(monkeypatch, capsys, clear_memos) -> None:
    # Every orbit system of the two freeness-deep anchors and of the
    # panel's order-6 map at n=24, from cold memos, then seeded dense and
    # block-sparse draws: the sparse elimination returns the dense one's
    # (U, D, V) exactly.
    systems = []

    def recording(a: IntMatrix):
        systems.append(a)
        return smith_form_rows(a)

    clear_memos()
    monkeypatch.setattr(lattice, "smith_form_rows", recording)
    for ring, point in (("eisenstein", "(1/3,1/3)"), ("gaussian", "(1/4,1/4)")):
        argv = ["freeness", "--ring", ring, "--h", "[[z,0],[0,1]]", "--a", point]
        assert main([*argv, "--n", "12"]) == 0
    capsys.readouterr()
    anchors = len(systems)
    report = repr(has_fixed_point(panel_map("order6"), 24))
    assert hashlib.sha256(report.encode()).hexdigest() == ORDER6_REPORT_DIGEST
    assert (anchors, len(systems) - anchors) == (ANCHOR_SMITH_FORMS, 125)
    rng = random.Random(2028)
    for _ in range(40):
        systems.append(random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), 9))
    for blocks in (1, 2, 3, 4) * 5:
        systems.append(block_sparse_matrix(rng, blocks))
    for a in systems:
        assert smith_normal_form(a) == dense_elimination(a), a


# Entries whose gcds are often 2 or 3 while single entries are not
# multiples of each other, so that a least pivot often fails to divide the
# rest of its block.
REPAIR_ENTRIES = (0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9)


def repair_matrix(rng: random.Random, rows: int, cols: int) -> IntMatrix:
    return IntMatrix(
        [[rng.choice(REPAIR_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    )


def test_smith_forms_match_the_dense_reference_when_pivots_are_repaired() -> None:
    # The branch that adds to the pivot row a row holding an entry the
    # pivot does not divide.  Of the orbit systems in the test above, only
    # the order-6 map's take it.  Seeded dense draws and tall block-sparse
    # draws from REPAIR_ENTRIES take it many times, and the sparse
    # elimination still returns the dense one's (U, D, V).
    rng = random.Random(2033)
    systems = [
        repair_matrix(rng, rng.randint(3, 8), rng.randint(3, 8)) for _ in range(300)
    ]
    for blocks in (1, 2, 3, 4) * 10:
        systems.append(
            block_sparse_matrix(rng, blocks, lambda rng: repair_matrix(rng, 4, 4))
        )
    repaired = {"dense": 0, "block-sparse": 0}
    for index, a in enumerate(systems):
        repairs: list[int] = []
        assert smith_normal_form(a) == dense_elimination(a, repairs), a
        repaired["dense" if index < 300 else "block-sparse"] += len(repairs)
    assert repaired["dense"] >= 50
    assert repaired["block-sparse"] >= 15


_MUTATION_SCRIPT = """
import sys
import kummerlab.linalg as linalg
from kummerlab.linalg import IntMatrix, SelfCheckError, smith_normal_form

elimination = linalg._smith_elimination

# The elimination returns sparse rows, {column: entry} dicts: U, D, the
# columns of V, the rows of U^-T and of V^-1.


def axpy(dst, src, k):
    for j, y in src.items():
        dst[j] = dst.get(j, 0) + k * y


def corrupt_u_inverse(u, d, v_cols, u_inv_t, v_inv):
    last = len(u_inv_t) - 1
    u_inv_t[0][last] = u_inv_t[0].get(last, 0) + 1


def corrupt_v_inverse(u, d, v_cols, u_inv_t, v_inv):
    v_inv[-1][0] = v_inv[-1].get(0, 0) - 1


def scale_u_row(u, d, v_cols, u_inv_t, v_inv):
    # U @ A @ V == D still holds and the diagonal is still a divisor
    # chain, but det U is now +-2.
    u[-1] = {j: 2 * x for j, x in u[-1].items()}
    d[-1] = {j: 2 * x for j, x in d[-1].items()}


def scale_v_column(u, d, v_cols, u_inv_t, v_inv):
    last = len(v_cols) - 1
    v_cols[last] = {i: 2 * x for i, x in v_cols[last].items()}
    for row in d:
        if last in row:
            row[last] *= 2


def corrupt_d(u, d, v_cols, u_inv_t, v_inv):
    # Transforms and inverses stay consistent, D no longer matches them.
    last = len(v_cols) - 1
    d[-1][last] = d[-1].get(last, 0) + d[0][0]


def leave_off_diagonal(u, d, v_cols, u_inv_t, v_inv):
    # The row operation "add row 0 to row 1", mirrored in U and U^-1:
    # U @ A @ V == D and both inverse pairs still hold, the diagonal is
    # unchanged, but D[1][0] is now D[0][0], which is nonzero.
    axpy(d[1], d[0], 1)
    axpy(u[1], u[0], 1)
    axpy(u_inv_t[0], u_inv_t[1], -1)


def negate_row(u, d, v_cols, u_inv_t, v_inv):
    # Row 0 of D, U and U^-T negated together: everything stays consistent
    # and -d1 still divides every later diagonal entry.
    for rows in (d, u, u_inv_t):
        rows[0] = {j: -x for j, x in rows[0].items()}


def store_zeros(u, d, v_cols, u_inv_t, v_inv):
    # An explicit 0 at an empty position of every matrix, off the diagonal
    # of D too: the same matrices, so the same certified output.
    for rows, width in (
        (u, len(u)), (d, len(v_cols)), (v_cols, len(v_cols)),
        (u_inv_t, len(u)), (v_inv, len(v_cols)),
    ):
        for row in rows:
            j = next((j for j in range(width) if j not in row), None)
            if j is not None:
                row[j] = 0


def key_outside(which, key):
    def corrupt(u, d, v_cols, u_inv_t, v_inv):
        rows = (u, d, v_cols, u_inv_t, v_inv)[which]
        width = len(v_cols) if which in (1, 2, 4) else len(u)
        rows[0][width if key == "width" else -1] = 1
    corrupt.__name__ = f"key_outside_{which}_{key}"
    return corrupt


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
    (leave_off_diagonal, "not a non-negative diagonal"),
    (negate_row, "not a non-negative diagonal"),
] + [
    (key_outside(which, key), "do not fit the matrix")
    for which in range(5)
    for key in ("width", "negative")
]
for a in matrices:
    expected = smith_normal_form(a)

    def patched(a):
        out = elimination(a)
        store_zeros(*out)
        return out

    linalg._smith_elimination = patched
    try:
        if smith_normal_form(a) != expected:
            sys.exit(f"stored zeros changed the output on {a!r}")
    finally:
        linalg._smith_elimination = elimination
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
    # check; a wrong D must fail the transform check; an off-diagonal or
    # negative entry that keeps everything else consistent must fail the
    # diagonal check.  Explicit zeros stored in the sparse rows leave the
    # output as it was, and a column index outside the matrix fails the
    # shape check rather than raising IndexError.  All of this holds also
    # when ``python -O`` strips the asserts.
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


def divisors_by_determinants(a: IntMatrix) -> list[int]:
    """The reference: ``D_k`` is the gcd of ``IntMatrix.det`` over every
    ``k x k`` minor, with no table and no early exit."""
    divisors = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows_sel in itertools.combinations(range(a.rows), k):
            for cols_sel in itertools.combinations(range(a.cols), k):
                minor = IntMatrix([[a[i][j] for j in cols_sel] for i in rows_sel])
                g = math.gcd(g, minor.det())
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def test_minor_table_matches_determinants_of_every_minor() -> None:
    # Every shape of 1-5 rows and 1-8 columns, entries in [-4, 4]: a dense
    # draw, twice a draw from [-2, 2] (so D_1 is even), one with a zero row
    # and a zero column, one with a row repeated up to sign (rank-deficient)
    # and the zero matrix.
    rng = random.Random(2027)
    kinds = {"zero": 0, "deficient": 0, "nontrivial": 0}
    for rows in range(1, 6):
        for cols in range(1, 9):
            dense = random_matrix(rng, rows, cols, 4)
            doubled = random_matrix(rng, rows, cols, 2).scale(2)
            holes = [list(row) for row in random_matrix(rng, rows, cols, 4).entries]
            holes[rng.randrange(rows)] = [0] * cols
            zero_col = rng.randrange(cols)
            for row in holes:
                row[zero_col] = 0
            repeated = [list(row) for row in random_matrix(rng, rows, cols, 4).entries]
            repeated[-1] = [rng.choice([-1, 1]) * x for x in repeated[0]]
            zero = IntMatrix.zeros(rows, cols)
            for a in (dense, doubled, IntMatrix(holes), IntMatrix(repeated), zero):
                expected = divisors_by_determinants(a)
                assert elementary_divisors_via_minors(a) == expected
                kinds["zero"] += not expected
                kinds["deficient"] += len(expected) < min(rows, cols)
                kinds["nontrivial"] += any(d > 1 for d in expected)
    assert kinds["zero"] >= 40
    assert kinds["deficient"] >= 80
    assert kinds["nontrivial"] >= 40


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
    stacked = stack_blocks([[a, b], [b, a]])
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


@pytest.mark.parametrize(
    "ring", [RingId.RATIONAL_INT, RingId.GAUSSIAN, RingId.EISENSTEIN], ids=str
)
def test_matrix_order_matches_least_power_on_the_catalogs(ring: RingId) -> None:
    # Every unit-determinant matrix with entries of norm at most 2, those
    # of infinite order included.
    entries = ring_elements_up_to_norm(ring, 2)
    for p, q, r, s in itertools.product(entries, repeat=4):
        if not (p * s - q * r).is_unit():
            continue
        m = induced_matrix(((p, q), (r, s)))
        expected = least_power_to_identity(m)
        if expected is None:
            with pytest.raises(ValueError, match="infinite multiplicative order"):
                matrix_order(m)
        else:
            assert matrix_order(m) == expected


def poly_product(polys) -> list[int]:
    out = [1]
    for f in polys:
        step = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                step[i + j] += a * b
        out = step
    return out


def test_cyclotomic_table() -> None:
    # x^d - 1 is the product of Phi_e over the divisors e of d.
    for d in CYCLOTOMIC:
        x_d_minus_one = [1] + [0] * (d - 1) + [-1]
        assert poly_product(CYCLOTOMIC[e] for e in divisors(d)) == x_d_minus_one
    # Products of Phi_d of total degree 1 to 4: 2 + 6 + 10 + 24 of them.
    assert len(CYCLOTOMIC_ORDERS) == 42
    assert set(CYCLOTOMIC_ORDERS.values()) == set(CYCLOTOMIC)


def block_diagonal(blocks) -> IntMatrix:
    return stack_blocks(
        [
            [
                b if j == i else IntMatrix.zeros(b.rows, c.cols)
                for j, c in enumerate(blocks)
            ]
            for i, b in enumerate(blocks)
        ]
    )


def test_each_cyclotomic_product_has_order_lcm() -> None:
    # The block diagonal of the factors' companions has chi as its
    # characteristic polynomial and order lcm(d).  The companion of chi
    # itself agrees when the factors are distinct; with a repeated factor
    # it is not semisimple, so its order is infinite.
    seen = 0
    for size in range(1, 5):
        for ds in itertools.combinations_with_replacement(CYCLOTOMIC, size):
            chi = tuple(poly_product(CYCLOTOMIC[d] for d in ds))
            if len(chi) > 5:
                continue
            seen += 1
            order = CYCLOTOMIC_ORDERS[chi]
            assert order == math.lcm(*ds)
            diagonal = block_diagonal(
                [companion_matrix(CYCLOTOMIC[d][:0:-1]) for d in ds]
            )
            assert characteristic_polynomial(diagonal, diagonal @ diagonal) == chi
            assert matrix_order(diagonal) == order == least_power_to_identity(diagonal)
            companion = companion_matrix(chi[:0:-1])
            assert characteristic_polynomial(companion, companion @ companion) == chi
            if len(set(ds)) == len(ds):
                assert matrix_order(companion) == order
                assert least_power_to_identity(companion) == order
            else:
                assert least_power_to_identity(companion) is None
                with pytest.raises(ValueError, match="infinite multiplicative order"):
                    matrix_order(companion)
    assert seen == len(CYCLOTOMIC_ORDERS)


def test_characteristic_polynomial_matches_determinants() -> None:
    # chi(k) = det(k I - m) at five integers pins all coefficients.
    rng = random.Random(21)
    for _ in range(200):
        size = rng.randint(1, 4)
        m = random_matrix(rng, size, size, 9)
        chi = characteristic_polynomial(m, m @ m)
        assert len(chi) == size + 1
        for k in range(-2, 3):
            value = sum(c * k ** (size - i) for i, c in enumerate(chi))
            assert value == (IntMatrix.identity(size).scale(k) - m).det()


def test_characteristic_polynomial_checks_its_divisions() -> None:
    # A wrong square gives p_1^2 - p_2 = 3, which 2 does not divide.
    wrong = IntMatrix([[1, 0], [0, 0]])
    with pytest.raises(SelfCheckError):
        characteristic_polynomial(IntMatrix.identity(2), wrong)


def characteristic_loop(traces, size: int) -> tuple[int, ...]:
    """Newton's identities as ``characteristic_polynomial`` ran them on its
    own, before it called ``newton_exponential``; kept as the reference."""
    chi = [1]
    for k in range(1, size + 1):
        c, r = divmod(-sum(map(mul, reversed(chi), traces)), k)
        if r:
            raise SelfCheckError("Newton's identities left a remainder")
        chi.append(c)
    return tuple(chi)


def exp_loop(c) -> tuple[int, ...]:
    """Newton's recurrence as ``TruncatedSeries.exp`` ran it on its own,
    before it called ``newton_exponential``; kept as the reference."""
    out = [1]
    for k in range(1, len(c)):
        f, r = divmod(sum(c[j] * out[k - j] for j in range(1, k + 1)), k)
        if r:
            raise SelfCheckError("series coefficients must be integers")
        out.append(f)
    return tuple(out)


def newton_outcome(routine, *args):
    """The routine's coefficients, or ``SelfCheckError`` if it raised one."""
    try:
        return tuple(routine(*args))
    except SelfCheckError:
        return SelfCheckError


def test_newton_exponential_matches_the_loops_it_replaced() -> None:
    # A wrong square makes traces that no integer matrix has, so about half
    # of the characteristic polynomials leave a remainder; random series
    # do too, and power sums of integers never do.
    rng = random.Random(2024)
    outcomes = []
    for _ in range(300):
        size = rng.randint(1, 4)
        m = random_matrix(rng, size, size, 4)
        square = m @ m if rng.random() < 0.5 else random_matrix(rng, size, size, 4)
        traces = [
            sum(x[i][i] for i in range(size))
            for x in (m, square, square @ m, square @ square)
        ]
        expected = newton_outcome(characteristic_loop, traces, size)
        assert newton_outcome(characteristic_polynomial, m, square) == expected
        sums = (0, *(-p for p in traces[:size]))
        assert newton_outcome(newton_exponential, sums) == expected
        outcomes.append(expected)
    for _ in range(300):
        length = rng.randint(1, 12)
        if rng.random() < 0.5:
            roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            c = [0] + [sum(a**k for a in roots) for k in range(1, length)]
        else:
            c = [0] + [rng.randint(-9, 9) for _ in range(1, length)]
        expected = newton_outcome(exp_loop, c)
        assert newton_outcome(newton_exponential, c) == expected
        series = newton_outcome(lambda: TruncatedSeries(c).exp().coefficients)
        assert series == expected
        outcomes.append(expected)
    failures = outcomes.count(SelfCheckError)
    assert 100 < failures < len(outcomes) - 100


def test_non_semisimple_matrices_with_cyclotomic_chi_have_infinite_order() -> None:
    blocks = [IntMatrix([[-1, 1], [0, -1]])]
    for tail in ((1, 1), (1, 0), (1, -1)):  # Phi_3, Phi_4, Phi_6
        c = companion_matrix(tail)
        i, o = IntMatrix.identity(2), IntMatrix.zeros(2, 2)
        blocks.append(stack_blocks([[c, i], [o, c]]))
    for m in blocks:
        assert characteristic_polynomial(m, m @ m) in CYCLOTOMIC_ORDERS
        assert least_power_to_identity(m) is None
        with pytest.raises(ValueError, match="infinite multiplicative order"):
            matrix_order(m)

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
    # 13 = 0b1101: the result starts as 3 itself, then three squarings
    # and two multiplications into it, for bits 2 and 3.
    assert len(calls) == 5
    assert binary_power(3, 0, 1, product) == 1
    with pytest.raises(ValueError):
        binary_power(3, -1, 1, product)


def test_binary_power_never_multiplies_by_one() -> None:
    one = object()

    def product(x, y):
        assert x is not one and y is not one
        return x * y

    for exponent in range(1, 70):
        assert binary_power(3, exponent, one, product) == 3**exponent
    assert binary_power(3, 0, one, product) is one


def test_matrix_powers_build_the_identity_only_for_exponent_zero(monkeypatch) -> None:
    m = IntMatrix([[0, -1], [1, 1]])
    built = []
    identity = IntMatrix.identity

    def counted(size):
        built.append(size)
        return identity(size)

    monkeypatch.setattr(IntMatrix, "identity", counted)
    assert m**1 == m
    assert m**6 == identity(2)
    assert m**7 == m
    assert built == []
    assert m**0 == identity(2)
    assert built == [2]
    with pytest.raises(ValueError):
        m ** -1
