"""Staircases as per-column threshold tuples.

This is how :mod:`dsmfuse.ordered` represented staircases before it moved to
the interval bits of truth tables.  A staircase over n atoms is a tuple whose
entry j is the largest first coordinate present in column j, or None when the
column is empty: (i, j) belongs to it iff ``t[j]`` is defined and
``i <= t[j]``.  Meet and join are the pointwise minimum and maximum, and the
staircases are enumerated by brute force over all subsets of the triangle.
Apart from ``table_of``, which maps a pair set to the truth-table bits the
tests compare with, none of it touches truth tables, so the tests hold the
bitwise model against it.
"""


def validate(n, t):
    """Raise ValueError unless t is a non-empty increasing threshold tuple."""
    if len(t) != n:
        raise ValueError("threshold array length must equal n")
    if all(v is None for v in t):
        raise ValueError("staircase must be non-empty")
    prev = None
    for j, v in enumerate(t):
        if v is None:
            if prev is not None:
                raise ValueError("columns must stay defined once defined")
            continue
        if not 0 <= v <= j:
            raise ValueError(f"threshold {v} out of range for column {j}")
        if prev is not None and v < prev:
            raise ValueError("thresholds must be non-decreasing")
        prev = v
    return t


def point(x, n):
    """The single atom a{x}: pairs (i, j) with i <= x <= j."""
    return validate(n, tuple(None if j < x else x for j in range(n)))


def meet(t1, t2):
    """Pointwise minimum of thresholds; None when empty."""
    t = tuple(
        None if a is None or b is None else min(a, b) for a, b in zip(t1, t2)
    )
    return None if all(v is None for v in t) else validate(len(t), t)


def join(t1, t2):
    """Pointwise maximum of thresholds."""
    t = tuple(
        b if a is None else a if b is None else max(a, b) for a, b in zip(t1, t2)
    )
    return validate(len(t), t)


def smile(p):
    """Join over the clauses of the meet of their min and max atom points."""
    result = None
    for clause in p.clauses:
        idx = [i for i in range(p.n) if clause >> i & 1]
        s = meet(point(min(idx), p.n), point(max(idx), p.n))
        result = s if result is None else join(result, s)
    return result


def from_pairs(n, pairs):
    """The threshold tuple of an explicit increasing pair set."""
    cols = {}
    for i, j in pairs:
        cols[j] = max(i, cols.get(j, -1))
    return validate(n, tuple(cols.get(j) for j in range(n)))


def pairs_of(t):
    """The pair set of a threshold tuple."""
    return frozenset(
        (i, j) for j, v in enumerate(t) if v is not None for i in range(v + 1)
    )


def table_of(pairs):
    """Truth-table bits of the contiguous atom sets {i..j} for the given pairs."""
    return sum(1 << (1 << j + 1) - (1 << i) for i, j in pairs)


def enumerate_staircases(n):
    """Every non-empty increasing subset of the triangle, as threshold tuples."""
    triangle = [(i, j) for j in range(n) for i in range(j + 1)]
    out = []
    for bits in range(1, 1 << len(triangle)):
        subset = {triangle[k] for k in range(len(triangle)) if bits >> k & 1}
        if all(
            (a, b) in subset
            for (i, j) in subset
            for a in range(i + 1)
            for b in range(j, n)
        ):
            out.append(from_pairs(n, subset))
    return out
