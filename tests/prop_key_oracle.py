"""The representative order key by a clause scan: the old ``prebool.prop_key``.

``prebool.prop_key`` walks only the set bits of ``table & ~grow(table)``,
the clauses.  This module keeps the version it replaced, verbatim: it reads
the clauses through ``Proposition.clauses``, which tests every one of the
2^n atom sets, and sorts their atom tuples.  ``enumerate_hyperpower``
sorts by this key here as it did before.
"""

from dsmfuse.prebool import Proposition, _atom_tuples, _up_sets, upsets


def prop_key(p: Proposition) -> tuple[tuple[int, ...], ...]:
    """Deterministic total-order key: sorted tuple of sorted clause tuples."""
    atom_tuples = _atom_tuples(p.n)
    return tuple(sorted(atom_tuples[c] for c in p.clauses))


def enumerate_hyperpower(n: int) -> list[Proposition]:
    """All distinct propositions over n atoms, sorted by :func:`prop_key`."""
    tables = upsets(n, _up_sets(n)[0])
    return sorted((Proposition(n, t) for t in tables), key=prop_key)
