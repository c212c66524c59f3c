"""Per-value basic belief assignments: the oracle for ``belief``.

The finite engine once stored one mass per class representative and added
masses in their own arithmetic, a ``Fraction`` addition (and its gcd) per
term.  ``belief`` now keeps integer numerators over one denominator; this
module keeps the per-value version, sharing only the errors and
``MASS_TOL``, so that exact results can be compared value by value and
float results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from dsmfuse.belief import MASS_TOL, BbaError, InconsistentBelief
from dsmfuse.prebool import Proposition, Quotient, format_proposition, meet


@dataclass(frozen=True)
class FiniteBba:
    """Normalized mass function over the representatives of an algebra."""

    algebra: Quotient
    mass: Mapping[Proposition, object]
    exhaustive: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        cleaned = {}
        total = 0
        for p, v in self.mass.items():
            rep = self.algebra.class_of(p)
            if v != v or abs(v) == math.inf:
                raise BbaError(f"non-finite mass {v} at {format_proposition(rep)}")
            if v < 0:
                raise BbaError(f"negative mass at {format_proposition(rep)}")
            if v == 0:
                continue
            if rep == self.algebra.bottom:
                raise BbaError("mass on BOTTOM is forbidden")
            if self.exhaustive and rep == self.algebra.top:
                raise BbaError("mass on TOP violates the exhaustivity convention")
            cleaned[rep] = cleaned.get(rep, 0) + v
            total += v
        if abs(total - 1) > MASS_TOL:
            raise BbaError(f"total mass {total} is not 1")
        object.__setattr__(self, "mass", cleaned)

    def __getitem__(self, p: Proposition):
        return self.mass.get(self.algebra.class_of(p), 0)


def _focal_keys(m: FiniteBba) -> list[tuple[int, object]]:
    key = m.algebra.key
    return [(key(p), v) for p, v in m.mass.items()]


def _mass_below(focal: list[tuple[int, object]], K: int):
    return sum(v for k, v in focal if not k & ~K)


def bel(m: FiniteBba, phi: Proposition):
    return _mass_below(_focal_keys(m), m.algebra.key(phi))


def bel_table(m: FiniteBba) -> dict[Proposition, object]:
    focal, key = _focal_keys(m), m.algebra.key
    return {rep: _mass_below(focal, key(rep)) for rep in m.algebra.representatives}


def bba_from_bel(
    algebra: Quotient,
    bel_values: Mapping[Proposition, object],
    exhaustive: bool = True,
) -> FiniteBba:
    """Sweep the classes in ascending key order, peeling off the mass below."""
    values = {algebra.class_of(p): v for p, v in bel_values.items()}
    missing = [p for p in algebra.representatives if p not in values]
    if missing:
        raise BbaError(f"belief table misses {format_proposition(missing[0])}")
    keys = {rep: algebra.key(rep) for rep in algebra.representatives}
    mass: dict[Proposition, object] = {}
    below: list[tuple[int, object]] = []
    for phi in sorted(keys, key=keys.__getitem__):
        K = keys[phi]
        mv = values[phi] - _mass_below(below, K)
        if mv < -MASS_TOL:
            raise InconsistentBelief(phi, mv)
        if mv > 0:
            mass[phi] = mv
            below.append((K, mv))
    top = algebra.top
    if exhaustive and isinstance(mass.get(top), float) and mass[top] <= MASS_TOL:
        del mass[top]
    return FiniteBba(algebra, mass, exhaustive=exhaustive)


def fuse(m1: FiniteBba, m2: FiniteBba) -> FiniteBba:
    """Conjunctive combination: product masses land on the pairwise meet."""
    if m1.algebra is not m2.algebra:
        raise BbaError("cannot fuse assignments over different algebras")
    alg = m1.algebra
    out: dict[Proposition, object] = {}
    for p1, v1 in m1.mass.items():
        for p2, v2 in m2.mass.items():
            target = alg.class_of(meet(p1, p2))
            out[target] = out.get(target, 0) + v1 * v2
    return FiniteBba(alg, out, exhaustive=m1.exhaustive and m2.exhaustive)
