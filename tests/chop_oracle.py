"""The former ``chebfusion.chop``, verbatim, with standardChop's zero-plateau branch.

Aurentz & Trefethen's standardChop cuts at the plateau point when the
envelope is zero there.  ``chebfusion.chop`` drops that branch, which its
scan cannot reach; this copy keeps it, so the two must give equal degrees
on every series.
"""

import numpy as np

from dsmfuse.chebfusion import _EPS, ChebDensity


def chop(d: ChebDensity) -> int:
    """Degree at which the coefficients of ``d`` reach their round-off plateau.

    This is Aurentz & Trefethen's standardChop ("Chopping a Chebyshev
    series", ACM TOMS 2017) with tol = machine epsilon, run on the shell
    envelope: entry k is the largest |c[i, j]| with max(i, j) >= k.  A
    series of fewer than 17 coefficients per axis, or one whose envelope has
    no plateau, keeps its degree; a longer all-zero series chops to 0.
    """
    n = d.degree + 1
    if n < 17:
        return d.degree
    a = np.abs(d._block)
    env = np.zeros(n)  # zero past the block
    env[: a.shape[0]] = np.maximum(a.max(axis=0), a.max(axis=1))
    env = np.maximum.accumulate(env[::-1])[::-1]
    if env[0] == 0:
        return 0
    env /= env[0]
    # Plateau: the first j (1-based, as in the paper) at which the envelope
    # is below tol^(2/3) and flat from j to j2 = round(1.25 j + 5).
    j = np.arange(2, n + 1)
    j2 = (1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = env[j - 1], env[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (e1 == 0) | (e2 / e1 > 3 * (1 - np.log(e1) / np.log(_EPS)))
    hits = np.flatnonzero(plateau)
    if hits.size == 0:
        return d.degree
    plateau_point, j2 = j[hits[0]] - 1, j2[hits[0]]
    if env[plateau_point - 1] == 0:
        return plateau_point - 1
    # Cut where the envelope up to j2, tilted up by a line that favours
    # shorter series, is least; the first entry below tol^(7/6) counts as
    # tol^(7/6) and ends the search.
    floor = _EPS ** (7 / 6)
    j3 = np.count_nonzero(env >= floor)
    head = env[: min(j2, j3 + 1)]
    head[j3:] = floor
    tilted = np.log10(head) + np.linspace(0, -np.log10(_EPS) / 3, head.size)
    return max(int(np.argmin(tilted)), 1) - 1
