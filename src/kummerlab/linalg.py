"""Integer matrices with exact normal forms.

Everything here is plain arbitrary-precision integer arithmetic.  The two
workhorses are :func:`smith_normal_form`, which returns the full transform
data ``U * A * V = D`` with unimodular ``U`` and ``V``, and the fraction-free
Bareiss determinant.  The normal forms re-verify their own output and raise
:class:`SelfCheckError` on a mismatch; the checks are not ``assert``
statements, so they also run under ``python -O``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul


class SelfCheckError(ArithmeticError):
    """A computed result failed its own independent re-check."""


class IntMatrix:
    """An immutable rectangular matrix with integer entries."""

    __slots__ = ("_rows",)

    def __init__(self, entries) -> None:
        rows = tuple(tuple(int(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows in matrix input")
        self._rows = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def block(cls, grid) -> "IntMatrix":
        """Assemble a matrix from a 2-d grid of IntMatrix blocks."""
        out: list[list[int]] = []
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ValueError("block heights disagree")
            for i in range(height):
                out.append([e for b in block_row for e in b._rows[i]])
        return cls(out)

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._rows[i]

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in row] for row in self._rows])

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix([[k * a for a in row] for row in self._rows])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = tuple(zip(*other._rows))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._rows]
        )

    def __pow__(self, exponent: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ValueError("powers need a square matrix")
        if exponent < 0:
            raise ValueError("negative matrix powers are not supported")
        result = IntMatrix.identity(self.rows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self._rows)))

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self._rows)

    def apply(self, vector) -> tuple[Fraction, ...]:
        """Multiply by a rational column vector."""
        vec = tuple(Fraction(v) for v in vector)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum((a * v for a, v in zip(row, vec)), Fraction(0)) for row in self._rows)

    def apply_int(self, vector) -> tuple[int, ...]:
        """Multiply by an integer column vector, exactly."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, row, vector)) for row in self._rows)

    def det(self) -> int:
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        m = [list(row) for row in self._rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def _check_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes disagree")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._rows]!r})"


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Args:
        a: any integer matrix.

    Returns:
        ``(U, D, V)`` with ``U @ a @ V == D``, ``U`` and ``V`` unimodular and
        ``D`` diagonal with non-negative entries ``d1 | d2 | ...`` followed by
        zeros.

    The pivot at each stage is the nonzero entry of minimal absolute value in
    the remaining block, ties broken in row-major order, which makes the
    output deterministic.
    """
    rows, cols = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src: int, dst: int, k: int) -> None:
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src: int, dst: int, k: int) -> None:
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        best_abs = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = d[i][j]
                if e != 0 and (best_abs is None or abs(e) < best_abs):
                    best = (i, j)
                    best_abs = abs(e)
        return best

    for t in range(min(rows, cols)):
        while True:
            pos = find_pivot(t)
            if pos is None:
                break
            swap_rows(t, pos[0])
            swap_cols(t, pos[1])
            pivot = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    add_row(t, i, -(d[i][t] // pivot))
                    if d[i][t] != 0:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    add_col(t, j, -(d[t][j] // pivot))
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if pos is None:
            break
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]

    mu = IntMatrix(u)
    md = IntMatrix(d)
    mv = IntMatrix(v)
    if mu @ a @ mv != md:
        raise SelfCheckError("Smith normal form transform check failed")
    if abs(mu.det()) != 1 or abs(mv.det()) != 1:
        raise SelfCheckError("Smith normal form transforms are not unimodular")
    diag = [md[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        if not ((x == 0 and y == 0) or (x != 0 and y % x == 0)):
            raise SelfCheckError("Smith normal form diagonal is not a divisor chain")
    return mu, md, mv


def hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form ``U @ a == H`` with unimodular ``U``.

    Pivots are positive, entries above a pivot are reduced into ``[0, pivot)``
    and zero rows sink to the bottom.
    """
    rows, cols = a.rows, a.cols
    h = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        # euclidean elimination in column c below row r
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(h[i][c]))
            small, other = nz[0], nz[1]
            q = h[other][c] // h[small][c]
            h[other] = [x - q * y for x, y in zip(h[other], h[small])]
            u[other] = [x - q * y for x, y in zip(u[other], u[small])]
        nz = [i for i in range(r, rows) if h[i][c] != 0]
        if not nz:
            continue
        i = nz[0]
        h[r], h[i] = h[i], h[r]
        u[r], u[i] = u[i], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    mu = IntMatrix(u)
    mh = IntMatrix(h)
    if mu @ a != mh:
        raise SelfCheckError("Hermite normal form transform check failed")
    if abs(mu.det()) != 1:
        raise SelfCheckError("Hermite normal form transform is not unimodular")
    return mu, mh


def elementary_divisors_via_minors(a: IntMatrix) -> list[int]:
    """Elementary divisors from gcds of k x k minors.

    This is the classical determinantal-divisor route: ``D_k`` is the gcd of
    all ``k x k`` minors and ``d_k = D_k / D_{k-1}``.  It shares no code with
    :func:`smith_normal_form`, which makes it usable as an independent
    cross-check (at exponential cost, so keep the inputs small).
    """
    divisors = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows_sel in combinations(range(a.rows), k):
            for cols_sel in combinations(range(a.cols), k):
                sub = IntMatrix([[a[i][j] for j in cols_sel] for i in rows_sel])
                g = gcd(g, sub.det())
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors
