"""Integer matrices, their row echelon and Smith forms.

Everything here is plain arbitrary-precision integer arithmetic.  Every
orbit system is decided from :func:`row_echelon`, a unimodular ``U`` with
``U * A = [E; 0]``, kept by sparse rows with no inverse and no column
transform; the decision re-checks its own witness or obstruction, so the
echelon needs no certificate of its own.  :func:`row_echelon` is a pure
function, and a matrix computes its own echelon once, on first request,
and keeps it (:meth:`IntMatrix.echelon`), so a memoised orbit system is
eliminated once however often it is solved.  The same routine builds every
Hermite form of ``lattice``, from the generators of the lattice, each
row's witness read from its row of ``U``; the forms check themselves.
The fraction-free Bareiss determinant serves the Lefschetz numbers and
the cross-checks.
The package's one binary power, factorisation, multiplicative order and
Newton recurrence (:func:`newton_exponential`) live here too.

:func:`matrix_order` reads the characteristic polynomial from ``M @ M``
by Newton's identities.  A polynomial that is not a product of
cyclotomic polynomials means infinite order after that one product;
otherwise the order is the lcm ``L`` of their indices if ``M^L = I``,
and infinite if not.

The echelon is eliminated over sparse rows, ``{column: entry}`` dicts,
with an index from each column to the rows that hold it, so a step costs
about the nonzeros it touches, not the size of the matrix.  It starts
from :meth:`IntMatrix.nonzero_rows`, each matrix's nonzeros found once
and kept, or handed over at construction by
:meth:`IntMatrix.from_nonzero_rows`, as the orbit systems are.

:func:`smith_normal_form` is the dense Smith form ``U * A * V = D``,
checked by determinants and one product; no decision reads it, and it
is kept as the form that tests and the benchmark's tracing read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from operator import add, itemgetter, matmul, mul, sub
from types import MappingProxyType


# Entries kept by each of the four memos of translation-independent work:
# the ``torus.power_sums`` tables per ``(M, l)``, ``fixedpoint.orbit_types``
# per ``(n, order)``, the orbit-system matrices of ``fixedpoint``, keyed by
# the blocks they are built from, each keeping its row echelon (``U`` and
# ``E`` by sparse rows, no inverse and no column transform), and the
# checked Hermite forms of ``(I - M) Z^4 + q Z^4`` in ``lattice``, one per
# ``(M, q)``.  Misses/hits of each, in that order, in one cold pass of each
# benchmark workload:
#
#   search-sweep    84/538   1/263   45/435    0/0
#   freeness-deep   20/84    6/1     29/15     0/0
#   verify-panel    10/91    5/12    20/35    54/58
#
# No workload fills one.  ``has_fixed_point`` of the order-6 panel map at
# n = 48 builds 729 distinct systems: 729 misses, no hit, 256 held.
MEMO_SIZE = 256


class SelfCheckError(ArithmeticError):
    """A computed result failed its own independent re-check."""


class IntMatrix:
    """An immutable rectangular matrix with integer entries."""

    # ``_nonzero`` and ``_echelon`` are filled by the first call of
    # :meth:`nonzero_rows` and :meth:`echelon`.
    __slots__ = ("_rows", "_nonzero", "_echelon")

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

    def echelon(self) -> tuple[list[dict[int, int]], list[int], list[dict[int, int]]]:
        """The :func:`row_echelon` of this matrix, computed once and kept.

        Later calls return the same ``(u, pivots, echelon)``, whose lists
        and dicts the caller must not change; they are kept without
        read-only views, which would slow every one-off decision.
        :func:`row_echelon` is looked up at the first call, so a replaced
        one is the one that runs.
        """
        try:
            return self._echelon
        except AttributeError:
            self._echelon = row_echelon(self)
            return self._echelon

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
        multiplying.
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
        """Exact determinant by fraction-free Bareiss elimination.

        A row with a zero in the pivot column is left as it is when the
        pivot equals the previous one, since its update would be
        ``x * pivot // prev = x``.
        """
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
            top = m[k]
            a = top[k]
            for i in range(k + 1, n):
                row = m[i]
                b = row[k]
                if b or a != prev:
                    # Entries before k are zero in both rows, and entry k
                    # becomes b * a - b * a = 0.
                    m[i] = [(x * a - b * y) // prev for x, y in zip(row, top)]
            prev = a
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


def _dense(rows: list[dict[int, int]], width: int) -> IntMatrix:
    out = []
    for row in rows:
        dense = [0] * width
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return IntMatrix._of(out)


def _axpy(dst: dict[int, int], src: dict[int, int], k: int) -> None:
    """``dst += k * src`` over the nonzeros of ``src``; zeros are dropped."""
    for j, y in src.items():
        x = dst.get(j, 0) + k * y
        if x:
            dst[j] = x
        else:
            dst.pop(j, None)


def row_echelon(
    a: IntMatrix,
) -> tuple[list[dict[int, int]], list[int], list[dict[int, int]]]:
    """A unimodular ``U`` with ``U @ a = [E; 0]`` and ``E`` in row echelon form.

    Returns ``(u, pivots, echelon)``: the rows of ``U`` as sparse
    ``{column: entry}`` dicts, and for each of the ``rank`` rows of ``E``
    its pivot column, ascending, and its nonzeros.  ``u[k] @ a`` is
    ``echelon[k]`` for ``k < rank``, whose first nonzero is a positive
    entry at ``pivots[k]``; the rows ``u[rank:]`` map ``a`` to zero.  The
    dicts are fresh on every call.

    Column by column, the rows not yet taken as pivots that hold the
    column are reduced against the one of least ``(|entry|, row)`` by
    integer row operations, until one row holds it; that row is the
    column's pivot.  An index from each column to the rows that hold it
    is kept up to date by every operation, so a column costs only the
    rows that hold it.  No inverse and no column transform is kept, and
    nothing is checked here: the decisions that read the form re-check
    their witnesses and obstructions against ``a`` itself.  It is also
    the kernel of every Hermite form of ``lattice``, whose rows are the
    echelon of the lattice's generators; those forms check themselves
    with code that shares nothing with it.
    """
    d = [row.copy() for row in a.nonzero_rows()]
    u = [{i: 1} for i in range(a.rows)]
    # holders[j] is the set of rows, not yet pivots, with a nonzero at j.
    holders: list[set[int]] = [set() for _ in range(a.cols)]
    for i, row in enumerate(d):
        for j in row:
            holders[j].add(i)
    top = []
    for c, held in enumerate(holders):
        while len(held) > 1:
            p = min(held, key=lambda i: (abs(d[i][c]), i))
            pivot_row, pivot = d[p], d[p][c]
            for i in [i for i in held if i != p]:
                row = d[i]
                k = -(row[c] // pivot)
                for j, y in pivot_row.items():
                    x = row.get(j, 0) + k * y
                    if x:
                        if j not in row:
                            holders[j].add(i)
                        row[j] = x
                    elif j in row:
                        del row[j]
                        holders[j].discard(i)
                _axpy(u[i], u[p], k)
        if held:
            (p,) = held
            for j in d[p]:
                holders[j].discard(p)
            if d[p][c] < 0:
                d[p] = {j: -x for j, x in d[p].items()}
                u[p] = {j: -x for j, x in u[p].items()}
            top.append((c, p))
    kernel = sorted(set(range(a.rows)).difference(p for _, p in top))
    return (
        [u[p] for _, p in top] + [u[i] for i in kernel],
        [c for c, _ in top],
        [d[p] for _, p in top],
    )


def _smith_elimination(a: IntMatrix) -> tuple[list[list[int]], ...]:
    """The rows of ``(U, D, V)`` with ``U @ a @ V == D``, by dense elimination.

    At stage ``t`` the pivot is the first entry of least absolute value,
    in row-major order, of the block from ``(t, t)``.  It is moved to
    ``(t, t)`` and cleared from its column by row operations, then from
    its row by column operations, until both are clear; a row of the
    block below that holds an entry the pivot does not divide is then
    added to the pivot row, and the stage starts again.
    """
    rows, cols = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = _identity_rows(rows)
    v = _identity_rows(cols)

    def find_pivot(t: int) -> tuple[int, int] | None:
        # No entry beats a unit, so the first row that holds one holds the
        # pivot, and only a block without units is scanned entry by entry.
        for i in range(t, rows):
            block = d[i][t:]
            units = [block.index(x) for x in (1, -1) if x in block]
            if units:
                return i, t + min(units)
        best, best_abs = None, 0
        for i in range(t, rows):
            for j in range(t, cols):
                e = abs(d[i][j])
                if e and (not best_abs or e < best_abs):
                    best, best_abs = (i, j), e
        return best

    def add_row(src: int, dst: int, k: int) -> None:
        for m in (d, u):
            m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]

    for t in range(min(rows, cols)):
        while True:
            pos = find_pivot(t)
            if pos is None:
                break
            i, j = pos
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
            for row in chain(d, v):
                row[t], row[j] = row[j], row[t]
            pivot = d[t][t]
            for i in range(t + 1, rows):
                if d[i][t]:
                    add_row(t, i, -(d[i][t] // pivot))
            if any(d[i][t] for i in range(t + 1, rows)):
                continue
            # Column t is zero below the pivot, so a column operation from
            # it changes only the pivot row of ``d``.
            for j in range(t + 1, cols):
                if d[t][j]:
                    k = -(d[t][j] // pivot)
                    d[t][j] += k * pivot
                    for row in v:
                        row[j] += k * row[t]
            if any(d[t][t + 1 :]):
                continue
            if pivot in (1, -1):
                # A unit divides every entry, so there is no offender.
                break
            offender = next(
                (i for i in range(t + 1, rows) if any(x % pivot for x in d[i][t + 1 :])),
                None,
            )
            if offender is None:
                break
            add_row(offender, t, 1)
        if pos is None:
            break
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return u, d, v


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms, certified.

    Returns ``(U, D, V)`` with ``U @ a @ V == D``, ``U`` and ``V``
    unimodular and ``D`` diagonal with non-negative entries
    ``d1 | d2 | ...`` followed by zeros; the pivot rule of
    :func:`_smith_elimination` makes it deterministic.  No decision in
    the package reads it.  The form is checked before it is returned,
    densely and not with ``assert``, so also under ``python -O``; a
    failure raises :class:`SelfCheckError` with its own message:

    * ``|det U| = |det V| = 1``, by the Bareiss :meth:`IntMatrix.det`;
    * ``U @ a @ V == D``;
    * ``D`` is a non-negative diagonal;
    * its diagonal is a divisor chain.
    """
    u, d, v = (IntMatrix._of(m) for m in _smith_elimination(a))
    if abs(u.det()) != 1 or abs(v.det()) != 1:
        raise SelfCheckError("Smith normal form transforms are not unimodular")
    if u @ a @ v != d:
        raise SelfCheckError("Smith normal form transform check failed")
    diag = [d[i][i] for i in range(min(a.rows, a.cols))]
    nonzeros = sum(len(row) - row.count(0) for row in d.entries)
    if nonzeros != len(diag) - diag.count(0) or min(diag) < 0:
        raise SelfCheckError("Smith normal form D is not a non-negative diagonal")
    for x, y in zip(diag, diag[1:]):
        if not ((x == 0 and y == 0) or (x != 0 and y % x == 0)):
            raise SelfCheckError("Smith normal form diagonal is not a divisor chain")
    return u, d, v


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
