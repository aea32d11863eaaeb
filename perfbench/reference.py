"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the same pass can take twice as long when a
neighbour loads the core, for seconds to minutes at a time, and wall and
CPU time slow down together.  The benchmark therefore runs this kernel
between the timed steps and relates each pass to the kernel's time during
it.  Multiplied by ``REFERENCE_S``, the kernel's time on the unloaded host,
the ratio gives the pass's seconds at reference speed.

The kernel is part of the benchmark and never changes with the library.
It does the kinds of work the library spends its time on: fraction-free
elimination with growing integers, exact ``Fraction`` sums, and dictionary
and set updates over a megabyte of tuples.  It keeps that working set
small, so that it never sets a pass's peak resident memory.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Seconds the kernel takes on an unloaded host (Intel Xeon, Python 3.11.7);
# about the 10th percentile of its runs there.
REFERENCE_S = 0.012

_rng = random.Random(5)
_MATRIX = [[_rng.randrange(-9, 10) for _ in range(18)] for _ in range(18)]
_KEYS = [(_rng.randrange(10**6), _rng.randrange(10**6)) for _ in range(10_000)]


def kernel() -> int:
    # Bareiss elimination, as in the library's determinants.
    m = [row[:] for row in _MATRIX]
    size = len(m)
    previous = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    break
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k] or 1
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    counts: dict[tuple[int, int], int] = {}
    for _ in range(4):
        for key in _KEYS:
            counts[key] = counts.get(key, 0) + 1
    residues = {(a % 997, b % 991) for a, b in _KEYS}
    return m[-1][-1] % 1009 + len(residues) + total.numerator % 7


def timed() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    start_wall = time.perf_counter()
    start_cpu = time.process_time()
    kernel()
    return time.perf_counter() - start_wall, time.process_time() - start_cpu
