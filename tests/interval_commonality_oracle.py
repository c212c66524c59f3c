"""The belief of a spectral fusion through commonalities: an oracle for ``chebfusion.fuse``.

The commonality of an interval density m at (x, y) is its mass on the
intervals (u, v) with u <= x and v >= y,

    C(x, y) = int_{-1}^{x} int_{y}^{1} m(u, v) dv du
            = sum_k sum_l c[k][l] B_k(x) A_l(y),

the belief form of ``dsmfuse.chebseries`` with the roles of its two axes
swapped.  A meet takes the larger low end and the smaller high end, so it
lies in {u <= x, v >= y} exactly when both operands do, and the commonality
of a conjunctive fusion is the product of its operands' (the commonality
form of the conjunctive rule: Shafer, *A Mathematical Theory of Evidence*,
1976; Smets, IEEE PAMI 12(5), 1990).  By inclusion-exclusion over u < lo
and v > hi, the belief of (lo, hi) under a unit-mass density is

    bel(lo, hi) = 1 - C(lo, -1) - C(1, hi) + C(lo, hi).

So the belief of a fusion of any number of densities needs each input's C
at three points and no fused series; nothing is truncated to a degree.
"""

import math
from operator import mul

from dsmfuse import chebseries as cs


def commonality(rows, x, y):
    """C(x, y) of the density whose leading block is ``rows``."""
    a, b = cs.belief_basis(y, x, len(rows))
    return sum(map(mul, b, [sum(map(mul, row, a)) for row in rows]))


def fused_belief(blocks, lo, hi):
    """bel(lo, hi) of the conjunctive fusion of the densities with these leading blocks."""

    def fused(x, y):
        return math.prod(commonality(rows, x, y) for rows in blocks)

    return 1 - fused(lo, -1.0) - fused(1.0, hi) + fused(lo, hi)
