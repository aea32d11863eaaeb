"""Integer matrices with exact normal forms.

Everything here is plain arbitrary-precision integer arithmetic.  The
workhorse is :func:`smith_normal_form`, which returns the full transform
data ``U * A * V = D`` with unimodular ``U`` and ``V``; the fraction-free
Bareiss determinant serves the Lefschetz numbers and the cross-checks.
The package's one binary power, factorisation and multiplicative order
live here too.

A Smith form certifies itself exactly, with a zero-skipping product and an
inverse pair in place of determinants; :func:`smith_normal_form` says how.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import add, matmul, mul, sub


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
    def _of(cls, rows) -> "IntMatrix":
        """Wrap rows that are already integer sequences of equal length."""
        matrix = cls.__new__(cls)
        matrix._rows = tuple(map(tuple, rows))
        return matrix

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 1:
            raise ValueError("matrix dimensions must be positive")
        return cls._of(_identity_rows(n))

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

    def _entrywise(self, other: "IntMatrix", op) -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes disagree")
        return IntMatrix._of(map(op, ra, rb) for ra, rb in zip(self._rows, other._rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in row] for row in self._rows])

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix([[k * a for a in row] for row in self._rows])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Exact product that skips zero entries.

        Each row of the result is accumulated as a combination of the rows
        of ``other``, weighted by the nonzero entries of the matching row of
        ``self``, so sparse factors cost in proportion to their nonzeros.
        Weights of ``+-1``, the common case in unimodular transforms, add or
        subtract a row without multiplying.
        """
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        zero = (0,) * other.cols
        out = []
        for row in self._rows:
            acc = zero
            for a, other_row in zip(row, other._rows):
                if a == 1:
                    acc = list(map(add, acc, other_row))
                elif a == -1:
                    acc = list(map(sub, acc, other_row))
                elif a:
                    acc = list(map(add, acc, map(a.__mul__, other_row)))
            out.append(tuple(acc))
        return IntMatrix._of(out)

    def __pow__(self, exponent: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ValueError("powers need a square matrix")
        return binary_power(self, exponent, IntMatrix.identity(self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(zip(*self._rows))

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._rows]!r})"


def binary_power(base, exponent: int, one, product=matmul):
    """``base ** exponent`` by repeated squaring, from the neutral ``one``."""
    if exponent < 0:
        raise ValueError("negative powers are not supported")
    result = one
    while exponent:
        if exponent & 1:
            result = product(result, base)
        exponent >>= 1
        if exponent:
            base = product(base, base)
    return result


def matrix_order(m: IntMatrix) -> int:
    """Multiplicative order of a square integer matrix of size at most 4.

    A finite order of such a matrix is 1, 2, 3, 4, 5, 6, 8, 10 or 12: its
    eigenvalues are roots of unity whose Galois orbits fill at most four
    places.  So ``m`` has finite order only if ``m^24 == I`` or, for
    orders 5 and 10, ``m^12 == m^2``; each order returned is the least
    power found equal to ``I``.  Raises ``ValueError`` for a matrix that
    is not square, is larger than 4x4, or has infinite order.
    """
    if m.rows != m.cols or m.rows > 4:
        raise ValueError("orders are decided for square matrices up to 4x4")
    identity = IntMatrix.identity(m.rows)
    p2 = m @ m
    p3 = p2 @ m
    p6 = p3 @ p3
    p12 = p6 @ p6
    if p12 @ p12 == identity:
        p4 = p2 @ p2
        ladder = ((1, m), (2, p2), (3, p3), (4, p4), (6, p6), (12, p12), (8, p4 @ p4))
        return next((k for k, power in ladder if power == identity), 24)
    if p12 == p2:
        p5 = p3 @ p2
        if p5 == identity:
            return 5
        if p5 @ p5 == identity:
            return 10
    raise ValueError("matrix has infinite multiplicative order")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of ``n >= 1`` as ``(p, e)`` pairs, ``p`` ascending."""
    if n < 1:
        raise ValueError("only positive integers are factorised")
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of ``n >= 1``, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _smith_elimination(a: IntMatrix):
    """Diagonalize ``a`` by elementary operations, tracking the inverses.

    Returns ``(u, d, v, u_inv_t, v_inv)`` as lists of rows, with
    ``u @ a @ v == d``.  Every row operation on ``u`` is mirrored by the
    inverse column operation on ``u^-1`` and every column operation on
    ``v`` by the inverse row operation on ``v^-1``.  ``u^-1`` is kept
    transposed, so that its column operations are row operations too.
    """
    rows, cols = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = _identity_rows(rows)
    u_inv_t = _identity_rows(rows)
    v = _identity_rows(cols)
    v_inv = _identity_rows(cols)

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def swap_cols(i: int, j: int) -> None:
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src: int, dst: int, k: int) -> None:
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]
        u_inv_t[src] = [x - k * y for x, y in zip(u_inv_t[src], u_inv_t[dst])]

    def add_col(src: int, dst: int, k: int) -> None:
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]
        v_inv[src] = [x - k * y for x, y in zip(v_inv[src], v_inv[dst])]

    def find_pivot(t: int) -> tuple[int, int] | None:
        # The first entry of least absolute value in row-major order; no
        # entry beats a unit, so the scan stops at the first one.
        best = None
        best_abs = 0
        for i in range(t, rows):
            row = d[i]
            if not any(row[t:]):
                continue
            for j in range(t, cols):
                e = row[j]
                if e and (not best_abs or abs(e) < best_abs):
                    best, best_abs = (i, j), abs(e)
                    if best_abs == 1:
                        return best
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
            u_inv_t[t] = [-x for x in u_inv_t[t]]
    return u, d, v, u_inv_t, v_inv


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

    The output certifies itself before it is returned, exactly and at about
    the cost of the elimination, and raises :class:`SelfCheckError` on a
    mismatch.  The checks are not ``assert`` statements, so they also run
    under ``python -O``:

    * ``U @ a @ V == D`` is checked with the matrix product, which skips
      zero entries, so the sparse orbit systems and their transforms are
      cheap to multiply;
    * unimodularity is checked without determinants: the elimination also
      builds ``U^-1`` and ``V^-1`` by the inverse elementary operations, and
      ``U @ U^-1 == I`` and ``V @ V^-1 == I`` are checked with the same
      product.  Integer matrices ``X`` and ``Y`` with ``X @ Y == I`` both
      have determinant ``+-1``, so this is an exact proof;
    * the diagonal must be a divisor chain.
    """
    u, d, v, u_inv_t, v_inv = _smith_elimination(a)
    mu, md, mv = IntMatrix._of(u), IntMatrix._of(d), IntMatrix._of(v)
    if mu @ a @ mv != md:
        raise SelfCheckError("Smith normal form transform check failed")
    # U @ U^-1 == I is checked in its transposed form U^-T @ U^T == I.
    if IntMatrix._of(u_inv_t) @ mu.transpose() != IntMatrix.identity(a.rows) or (
        mv @ IntMatrix._of(v_inv) != IntMatrix.identity(a.cols)
    ):
        raise SelfCheckError("Smith normal form transforms are not unimodular")
    diag = [md[i][i] for i in range(min(a.rows, a.cols))]
    for x, y in zip(diag, diag[1:]):
        if not ((x == 0 and y == 0) or (x != 0 and y % x == 0)):
            raise SelfCheckError("Smith normal form diagonal is not a divisor chain")
    return mu, md, mv


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
                sub = IntMatrix._of([[a[i][j] for j in cols_sel] for i in rows_sel])
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
