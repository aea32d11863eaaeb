"""Integer matrices with exact normal forms.

Everything here is plain arbitrary-precision integer arithmetic.  The
workhorse is :func:`smith_normal_form`, which returns the full transform
data ``U * A * V = D`` with unimodular ``U`` and ``V``; the fraction-free
Bareiss determinant serves the Lefschetz numbers and the cross-checks.
The package's one binary power, factorisation, multiplicative order and
Newton recurrence (:func:`newton_exponential`) live here too.

:func:`matrix_order` reads the characteristic polynomial from ``M @ M``
by Newton's identities.  A polynomial that is not a product of
cyclotomic polynomials means infinite order after that one product;
otherwise the order is the lcm ``L`` of their indices if ``M^L = I``,
and infinite if not.

The Smith form is eliminated over sparse rows, ``{column: entry}`` dicts,
so a step costs about the nonzeros it touches, not the size of the
matrix.  It starts from :meth:`IntMatrix.nonzero_rows`, each matrix's
nonzeros found once and kept, or handed over at construction by
:meth:`IntMatrix.from_nonzero_rows`, as the orbit systems are.  The pivot
search keeps each row's least ``(|entry|, column)`` and recomputes it
only for the rows an operation changed, and a row holds an entry the
pivot does not divide exactly when the pivot does not divide the gcd of
its entries.  The form certifies itself exactly, with inverse pairs in
place of determinants, the transform checked as ``U * A = D * V^-1``,
and ``D`` checked to be a non-negative diagonal divisor chain.  Each
check is a set of sparse row combinations, about O(nnz) of its factors,
and forms no :class:`IntMatrix` product.

:func:`smith_form_rows` is the certified core: it returns ``U`` by its
sparse rows, the diagonal of ``D`` and ``V`` by its sparse columns, and
its docstring says how each check works.  :func:`smith_normal_form` only
makes those three dense.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from operator import add, itemgetter, matmul, mul, sub
from types import MappingProxyType


# Entries kept by each memo of translation-independent work: the
# ``torus.power_sums`` tables, the orbit-system matrices of ``fixedpoint``
# and their Smith forms in ``lattice``.  At ``freeness --n 48``, the cap,
# the tested powers of orders 2 and 3 of one order-6 linear part have
# 25 + 17 orbit types, so 256 entries hold the systems of six such linear
# parts; the Eisenstein n=3 sweep solves 45 distinct systems, n=12 149.
MEMO_SIZE = 256


class SelfCheckError(ArithmeticError):
    """A computed result failed its own independent re-check."""


class IntMatrix:
    """An immutable rectangular matrix with integer entries."""

    # ``_nonzero`` is filled by the first call of :meth:`nonzero_rows`.
    __slots__ = ("_rows", "_nonzero")

    def __init__(self, entries) -> None:
        given = [tuple(row) for row in entries]
        rows = tuple(tuple(map(int, row)) for row in given)
        if rows != tuple(given):
            raise ValueError("matrix entries must be integers")
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
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        return cls._of([[0] * cols] * rows)

    @classmethod
    def from_nonzero_rows(cls, rows: list[dict[int, int]], cols: int) -> "IntMatrix":
        """The ``len(rows) x cols`` matrix whose row ``i`` has the nonzeros ``rows[i]``.

        Each row is a ``{column: entry}`` dict of nonzero integers at
        columns in ``range(cols)``, its keys ascending, as
        :meth:`nonzero_rows` would find them; the caller guarantees this.
        The dicts become the matrix's :meth:`nonzero_rows`, behind
        read-only views, so no row is scanned for its nonzeros, and the
        dense rows are written from them.
        """
        matrix = _dense(rows, cols)
        matrix._nonzero = tuple(map(MappingProxyType, rows))
        return matrix

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

    def nonzero_rows(self) -> tuple[MappingProxyType, ...]:
        """Each row's nonzeros as a read-only ``{column: entry}`` mapping.

        The rows are scanned once per matrix; later calls return the same
        tuple of the same mappings.
        """
        try:
            return self._nonzero
        except AttributeError:
            self._nonzero = tuple(
                MappingProxyType(dict(filter(itemgetter(1), enumerate(row))))
                for row in self._rows
            )
            return self._nonzero

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
        ``self``, so a sparse left factor costs in proportion to its
        nonzeros.  Weights of ``+-1``, the common case in the integer
        matrices of maps and their powers, add or subtract a row without
        multiplying.  The Smith form's self-check does not use it; it
        combines sparse rows itself.
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
        if exponent == 0:
            return IntMatrix.identity(self.rows)
        return binary_power(self, exponent, None)

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
    """``base ** exponent`` by repeated squaring.

    The result starts from the power of ``base`` at the lowest set bit of
    the exponent, so ``one`` is never a factor: it is returned only for
    exponent 0.
    """
    if exponent < 0:
        raise ValueError("negative powers are not supported")
    if not exponent:
        return one
    while not exponent & 1:
        base = product(base, base)
        exponent >>= 1
    result = base
    exponent >>= 1
    while exponent:
        base = product(base, base)
        if exponent & 1:
            result = product(result, base)
        exponent >>= 1
    return result


# The cyclotomic polynomials of degree at most 4, leading coefficient first.
CYCLOTOMIC = {
    1: (1, -1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def _poly_mul(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two coefficient tuples."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def _cyclotomic_orders() -> dict[tuple[int, ...], int]:
    """Each product of cyclotomic polynomials of degree 1 to 4, to ``lcm(d)``.

    Factors are taken in the order of :data:`CYCLOTOMIC`, each at or after
    the last one, and only while the degree stays at most 4, so each of
    the 42 products is formed once.
    """
    table = {}
    indices = list(CYCLOTOMIC)
    frontier = [((1,), 1, 0)]
    while frontier:
        poly, order, start = frontier.pop()
        for i in range(start, len(indices)):
            factor = CYCLOTOMIC[indices[i]]
            if len(poly) + len(factor) > 6:
                continue
            product = _poly_mul(poly, factor)
            table[product] = lcm(order, indices[i])
            frontier.append((product, table[product], i))
    return table


CYCLOTOMIC_ORDERS = _cyclotomic_orders()


def newton_exponential(sums) -> tuple[int, ...]:
    """``f_0..f_N`` of ``exp(sum_k c_k t^k / k)`` for ``sums = (c_0, ..., c_N)``.

    The package's one Newton loop: ``k f_k = c_1 f_(k-1) + ... + c_k f_0``
    from ``f_0 = 1``, with ``c_0`` unread.  A division with a remainder
    raises :class:`SelfCheckError`, so an integer result proves integrality.
    """
    c = sums[1:]
    out = [1]
    for k in range(1, len(sums)):
        f, r = divmod(sum(map(mul, c, reversed(out))), k)
        if r:
            raise SelfCheckError("Newton's recurrence: coefficients must be integers")
        out.append(f)
    return tuple(out)


def characteristic_polynomial(m: IntMatrix, square: IntMatrix) -> tuple[int, ...]:
    """``det(x I - m)`` of a matrix up to 4x4, leading coefficient first.

    ``square`` is ``m @ m``.  The power sums ``p_k = tr m^k`` for ``k <= 4``
    are read from ``m`` and ``square`` alone, as ``tr m^3 = sum S_ij m_ji``
    and ``tr m^4 = sum S_ij S_ji``.  By Newton's identities the coefficients
    are :func:`newton_exponential` of ``(0, -p_1, ..., -p_n)``, and for an
    integer matrix its checked divisions are exact.
    """
    a, s = m.entries, square.entries
    n = m.rows
    sums = (
        0,
        -sum(a[i][i] for i in range(n)),
        -sum(s[i][i] for i in range(n)),
        -sum(sum(map(mul, row, col)) for row, col in zip(s, zip(*a))),
        -sum(sum(map(mul, row, col)) for row, col in zip(s, zip(*s))),
    )
    return newton_exponential(sums[: n + 1])


def matrix_order(m: IntMatrix) -> int:
    """Multiplicative order of a square integer matrix of size at most 4.

    The order is read from the characteristic polynomial ``chi`` of ``m``,
    which costs the one product ``m @ m``
    (:func:`characteristic_polynomial`).

    * If ``m`` has finite order, its eigenvalues are roots of unity, so
      each irreducible factor of the integer polynomial ``chi`` is the
      minimal polynomial of a root of unity: a cyclotomic ``Phi_d``
      (Kronecker).  With ``deg chi <= 4`` only ``d`` in 1, 2, 3, 4, 5, 6,
      8, 10 and 12 fit.  A ``chi`` that is not a product of these, which
      is not in :data:`CYCLOTOMIC_ORDERS`, means infinite order.
    * Otherwise let ``L = lcm(d)`` over the factors.  If ``m^L == I``, the
      minimal polynomial of ``m`` divides ``x^L - 1``, which has no
      repeated roots, so ``m`` is semisimple and its order is the lcm of
      its eigenvalues' orders.  Every primitive ``d``-th root of unity is
      an eigenvalue, so the order is exactly ``L``.  If ``m^L != I``, then
      ``m`` is not semisimple, although all its eigenvalues are ``L``-th
      roots of unity; a finite order would make it semisimple with
      ``m^L == I``, so the order is infinite.

    ``m^L`` is ``(m @ m) ** (L // 2)``, times ``m`` when ``L`` is odd.
    Raises ``ValueError`` for a matrix that is not square, is larger than
    4x4, or has infinite order.
    """
    if m.rows != m.cols or m.rows > 4:
        raise ValueError("orders are decided for square matrices up to 4x4")
    square = m @ m
    order = CYCLOTOMIC_ORDERS.get(characteristic_polynomial(m, square))
    if order is not None:
        identity = IntMatrix.identity(m.rows)
        power = binary_power(square, order // 2, identity)
        if order % 2:
            power = power @ m
        if power == identity:
            return order
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


def _axpy(dst: dict[int, int], src: dict[int, int], k: int) -> None:
    """``dst += k * src`` over the nonzeros of ``src``; zeros are dropped."""
    for j, y in src.items():
        x = dst.get(j, 0) + k * y
        if x:
            dst[j] = x
        else:
            dst.pop(j, None)


def _smith_elimination(a: IntMatrix):
    """Diagonalize ``a`` by elementary operations, tracking the inverses.

    Every matrix is a list of sparse rows, ``{column: entry}`` dicts that
    hold no zeros.  Returns ``(u, d, v_cols, u_inv_t, v_inv)``, with
    ``u @ a @ v == d`` and ``v_cols`` the columns of ``v``.  Every row
    operation on ``u`` is mirrored by the inverse column operation on
    ``u^-1`` and every column operation on ``v`` by the inverse row
    operation on ``v^-1``.  ``u^-1`` is kept transposed and ``v`` by its
    columns, so that all of these are row operations, each an axpy over
    the nonzeros of its source row.

    At stage ``t`` the rows and columns before ``t`` are zero outside the
    diagonal, so only rows from ``t`` on can hold an entry in a column
    from ``t`` on.

    The pivot search reads one cached fact per row of ``d``: its least
    ``(|entry|, column)``.  A fact is dropped when an operation changes
    its row (the target of a row addition, a row whose columns a swap
    relabels, the pivot row after its column operations), moves with its
    row in a row swap, and is recomputed when the search next reads the
    row, so a search costs one comparison per remaining row and a scan
    only of the rows changed since the last one.  A row holds an entry the
    pivot does not divide exactly when the gcd of its entries is not a
    multiple of the pivot.
    """
    rows, cols = a.rows, a.cols
    # Mutable copies of the read-only nonzero rows that ``a`` keeps.
    d = [row.copy() for row in a.nonzero_rows()]
    u = [{i: 1} for i in range(rows)]
    u_inv_t = [{i: 1} for i in range(rows)]
    v_cols = [{j: 1} for j in range(cols)]
    v_inv = [{j: 1} for j in range(cols)]
    # ``least[i]`` is the least ``(|entry|, column)`` of ``d[i]``, or None
    # when it must be recomputed.
    least: list[tuple[int, int] | None] = [None] * rows

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]
        least[i], least[j] = least[j], least[i]

    def swap_cols(t: int, j: int) -> None:
        for i, row in enumerate(d[t:], t):
            if t in row or j in row:
                x, y = row.pop(t, 0), row.pop(j, 0)
                if x:
                    row[j] = x
                if y:
                    row[t] = y
                least[i] = None
        v_cols[t], v_cols[j] = v_cols[j], v_cols[t]
        v_inv[t], v_inv[j] = v_inv[j], v_inv[t]

    def add_row(src: int, dst: int, k: int) -> None:
        _axpy(d[dst], d[src], k)
        _axpy(u[dst], u[src], k)
        _axpy(u_inv_t[src], u_inv_t[dst], -k)
        least[dst] = None

    def find_pivot(t: int) -> tuple[int, int] | None:
        # The first entry of least absolute value in row-major order: the
        # least (|entry|, column) of a row, kept only if it beats every
        # earlier row.  No entry beats a unit, so the scan stops at the
        # first row that holds one.
        best = None
        best_abs = 0
        for i in range(t, rows):
            row = d[i]
            if row:
                fact = least[i]
                if fact is None:
                    fact = least[i] = min((abs(e), j) for j, e in row.items())
                e = fact[0]
                if not best_abs or e < best_abs:
                    best, best_abs = (i, fact[1]), e
                    if e == 1:
                        return best
        return best

    for t in range(min(rows, cols)):
        while True:
            pos = find_pivot(t)
            if pos is None:
                break
            if pos[0] != t:
                swap_rows(t, pos[0])
            if pos[1] != t:
                swap_cols(t, pos[1])
            pivot_row = d[t]
            pivot = pivot_row[t]
            dirty = False
            for i in range(t + 1, rows):
                x = d[i].get(t)
                if x:
                    add_row(t, i, -(x // pivot))
                    if t in d[i]:
                        dirty = True
            if dirty:
                continue
            # Column t is now zero below the pivot, so a column operation
            # from it changes the pivot row of ``d`` alone.  The operations
            # commute: each reads only the pivot, its own entry and the
            # unchanged column t of ``v`` and rows of ``v^-1``.
            for j in [j for j in pivot_row if j != t]:
                k = -(pivot_row[j] // pivot)
                x = pivot_row[j] + k * pivot
                if x:
                    pivot_row[j] = x
                    dirty = True
                else:
                    del pivot_row[j]
                _axpy(v_cols[j], v_cols[t], k)
                _axpy(v_inv[t], v_inv[j], -k)
            least[t] = None
            if dirty:
                continue
            if pivot in (1, -1):
                # A unit divides every entry, so there is no offender.
                break
            offender = next(
                (i for i in range(t + 1, rows) if gcd(*d[i].values()) % pivot),
                None,
            )
            if offender is None:
                break
            add_row(offender, t, 1)
        if pos is None:
            break
        if d[t][t] < 0:
            for m in (d, u, u_inv_t):
                m[t] = {j: -x for j, x in m[t].items()}
    return u, d, v_cols, u_inv_t, v_inv


def _accumulate(
    acc: dict[int, int], weights: dict[int, int], rows: list[dict[int, int]]
) -> dict[int, int]:
    """Add ``sum_j weights[j] * rows[j]`` to the sparse row ``acc``; return it.

    Zeros are not dropped, so test the result with ``any(acc.values())``.
    """
    get = acc.get
    for j, w in weights.items():
        for k, x in rows[j].items():
            acc[k] = get(k, 0) + w * x
    return acc


def _transpose(rows: list[dict[int, int]], width: int) -> list[dict[int, int]]:
    """The ``width`` columns of a matrix given by sparse rows, as sparse rows."""
    out: list[dict[int, int]] = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _dense(rows: list[dict[int, int]], width: int) -> IntMatrix:
    out = []
    for row in rows:
        dense = [0] * width
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return IntMatrix._of(out)


def smith_form_rows(
    a: IntMatrix,
) -> tuple[list[dict[int, int]], tuple[int, ...], list[dict[int, int]]]:
    """The certified Smith normal form, kept sparse.

    Args:
        a: any integer matrix.

    Returns:
        ``(u, diagonal, v_cols)``: the rows of ``U`` as ``{column: entry}``
        dicts, the ``min(rows, cols)`` diagonal entries of ``D``, and the
        columns of ``V`` as ``{row: entry}`` dicts, with ``U @ a @ V == D``,
        ``U`` and ``V`` unimodular and ``D`` diagonal with non-negative
        entries ``d1 | d2 | ...`` followed by zeros.  The dicts are fresh
        on every call.

    The pivot at each stage is the nonzero entry of minimal absolute value in
    the remaining block, ties broken in row-major order, which makes the
    output deterministic.  The elimination works on sparse rows, copied
    from :meth:`IntMatrix.nonzero_rows`, so a row or column operation
    costs in proportion to the nonzeros it reads, not to the width of the
    matrix, and the pivot search reads one cached least entry per row,
    rescanning only the rows that changed since it last read them.

    The output certifies itself before it is returned, exactly and at
    about the cost of the elimination, and raises :class:`SelfCheckError`
    on a mismatch.  The checks are not ``assert`` statements, so they also
    run under ``python -O``.  Each is a set of sparse row combinations that
    costs about the nonzeros of its factors, and they run in this order,
    each with its own message:

    * every row is a row of a matrix of the right shape: a column index
      outside the matrix is a failure, not an ``IndexError``;
    * unimodularity, without determinants: the elimination also builds
      ``U^-1`` and ``V^-1`` by the inverse elementary operations, and
      ``U @ U^-1 == I`` (as ``U^-T @ U^T == I``, a combination of the
      columns of ``U`` for each row of ``U^-T``) and ``V @ V^-1 == I`` are
      checked.  Integer matrices ``X`` and ``Y`` with ``X @ Y == I`` both
      have determinant ``+-1``, so this is an exact proof;
    * the transform, as ``U @ a == D @ V^-1``, with ``a`` read from its
      nonzero rows and not from anything the elimination built.
      Multiplying on the right by ``V`` and using ``V^-1 @ V == I``, which
      follows from the checked ``V @ V^-1 == I`` for square matrices,
      gives ``U @ a @ V == D`` exactly, and no product with ``V`` is
      formed;
    * ``D`` is diagonal with non-negative entries, its nonzeros counted by
      value, so a stored zero is a zero;
    * the diagonal is a divisor chain.
    """
    rows, cols = a.rows, a.cols
    u, d, v_cols, u_inv_t, v_inv = _smith_elimination(a)
    row_keys, col_keys = set(range(rows)), set(range(cols))
    for matrix, height, keys in (
        (u, rows, row_keys),
        (d, rows, col_keys),
        (v_cols, cols, col_keys),
        (u_inv_t, rows, row_keys),
        (v_inv, cols, col_keys),
    ):
        if len(matrix) != height or not keys.issuperset(chain.from_iterable(matrix)):
            raise SelfCheckError("Smith normal form rows do not fit the matrix")
    # Row i of U^-T @ U^T - I and of V @ V^-1 - I must be zero.
    u_cols = _transpose(u, rows)
    v_rows = _transpose(v_cols, cols)
    for left, right in ((u_inv_t, u_cols), (v_rows, v_inv)):
        if any(any(_accumulate({i: -1}, row, right).values()) for i, row in enumerate(left)):
            raise SelfCheckError("Smith normal form transforms are not unimodular")
    # Row i of U @ a - D @ V^-1 must be zero.
    a_rows = a.nonzero_rows()
    for u_row, d_row in zip(u, d):
        acc = _accumulate({}, u_row, a_rows)
        if any(_accumulate(acc, {j: -x for j, x in d_row.items()}, v_inv).values()):
            raise SelfCheckError("Smith normal form transform check failed")
    diag = [d[i].get(i, 0) for i in range(min(rows, cols))]
    # D is diagonal when its only nonzero entries are those of the diagonal.
    nonzeros = sum(1 for row in d for x in row.values() if x)
    if nonzeros != len(diag) - diag.count(0) or min(diag) < 0:
        raise SelfCheckError("Smith normal form D is not a non-negative diagonal")
    for x, y in zip(diag, diag[1:]):
        if not ((x == 0 and y == 0) or (x != 0 and y % x == 0)):
            raise SelfCheckError("Smith normal form diagonal is not a divisor chain")
    return u, tuple(diag), v_cols


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms, as dense matrices.

    Returns ``(U, D, V)`` with ``U @ a @ V == D``, ``U`` and ``V``
    unimodular and ``D`` diagonal with non-negative entries
    ``d1 | d2 | ...`` followed by zeros.  This is :func:`smith_form_rows`,
    which computes and certifies the form, with its three parts made
    dense and nothing else done.
    """
    u, diagonal, v_cols = smith_form_rows(a)
    d = [{i: x} for i, x in enumerate(diagonal)] + [{}] * (a.rows - len(diagonal))
    return _dense(u, a.rows), _dense(d, a.cols), _dense(v_cols, a.cols).transpose()


def elementary_divisors_via_minors(a: IntMatrix) -> list[int]:
    """Elementary divisors from gcds of k x k minors.

    This is the classical determinantal-divisor route: ``D_k`` is the gcd of
    all ``k x k`` minors and ``d_k = D_k / D_{k-1}``.  It shares no code with
    :func:`smith_normal_form`, which makes it usable as an independent
    cross-check (at exponential cost, so keep the inputs small).

    Each ``k x k`` minor is expanded along its first row, from the
    ``(k-1) x (k-1)`` minors of the rows below it.  A per-call table keeps
    every minor of size 3 or more, so each of the ``C(rows, k) C(cols, k)``
    minors of size ``k`` is computed at most once, from at most ``k``
    products of an entry and a smaller minor; an entry is read off and a
    ``2 x 2`` minor costs two products, so those are not stored.  No
    :class:`IntMatrix` is built and no determinant taken per minor.  The
    scan of size ``k`` stops at ``gcd = 1``; a minor it skipped is
    computed when a larger one needs it.
    """
    entries = a.entries
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def minor(rows_sel: tuple[int, ...], cols_sel: tuple[int, ...]) -> int:
        top = entries[rows_sel[0]]
        if len(rows_sel) == 1:
            return top[cols_sel[0]]
        if len(rows_sel) == 2:
            low = entries[rows_sel[1]]
            i, j = cols_sel
            return top[i] * low[j] - top[j] * low[i]
        key = (rows_sel, cols_sel)
        value = table.get(key)
        if value is None:
            below = rows_sel[1:]
            value = 0
            for t, j in enumerate(cols_sel):
                if top[j]:
                    term = top[j] * minor(below, cols_sel[:t] + cols_sel[t + 1 :])
                    value += -term if t % 2 else term
            table[key] = value
        return value

    divisors = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows_sel in combinations(range(a.rows), k):
            for cols_sel in combinations(range(a.cols), k):
                g = gcd(g, minor(rows_sel, cols_sel))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors
