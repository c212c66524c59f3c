"""Basic belief assignments over finite insulated pre-Boolean algebras.

Masses are stored sparsely on class representatives of a :class:`Quotient`.
Values may be floats or :class:`fractions.Fraction`; all operations are pure
and preserve the value type, so rational inputs give exact results.  Belief
and its inversion compare integer class keys (:meth:`Quotient.key`): phi lies
below psi iff ``key(phi) & ~key(psi) == 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .prebool import Proposition, Quotient, format_proposition

MASS_TOL = 1e-12


class BbaError(ValueError):
    pass


class InconsistentBelief(BbaError):
    """Belief inversion recovered a negative mass."""

    def __init__(self, proposition: Proposition, value) -> None:
        self.proposition = proposition
        self.value = value
        super().__init__(
            f"negative recovered mass {value} at {format_proposition(proposition)}"
        )


@dataclass(frozen=True)
class FiniteBba:
    """Normalized mass function over the representatives of an algebra.

    With ``exhaustive=True`` (the default) all mass lives strictly between
    BOTTOM and TOP; otherwise TOP may carry mass, BOTTOM never does.
    """

    algebra: Quotient
    mass: Mapping[Proposition, object]
    exhaustive: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        cleaned = {}
        total = 0
        for p, v in self.mass.items():
            rep = self.algebra.class_of(p)
            # NaN fails every comparison, so it would pass the checks below
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
    # Total mass of the keyed focal elements whose keys lie inside K.
    return sum(v for k, v in focal if not k & ~K)


def bel(m: FiniteBba, phi: Proposition):
    """Cumulative mass over every class below phi (phi included)."""
    return _mass_below(_focal_keys(m), m.algebra.key(phi))


def bel_table(m: FiniteBba) -> dict[Proposition, object]:
    """Belief of every representative of the algebra."""
    focal, key = _focal_keys(m), m.algebra.key
    return {rep: _mass_below(focal, key(rep)) for rep in m.algebra.representatives}


def bba_from_bel(
    algebra: Quotient,
    bel_values: Mapping[Proposition, object],
    exhaustive: bool = True,
) -> FiniteBba:
    """Invert a belief table back into its mass function.

    Sweeps the classes in ascending :meth:`Quotient.key` order, a linear
    extension of the order, peeling off the mass already recovered strictly
    below each class.  A recovered mass below ``-MASS_TOL`` signals an
    inconsistent belief table.
    """
    values = {algebra.class_of(p): v for p, v in bel_values.items()}
    missing = [p for p in algebra.representatives if p not in values]
    if missing:
        raise BbaError(
            f"belief table misses {format_proposition(missing[0])} "
            f"(and {len(missing) - 1} more)" if len(missing) > 1
            else f"belief table misses {format_proposition(missing[0])}"
        )
    keys = {rep: algebra.key(rep) for rep in algebra.representatives}
    mass: dict[Proposition, object] = {}
    # Masses recovered so far, by key.  Their classes were swept before phi,
    # so each one that lies below phi lies strictly below it.
    below: list[tuple[int, object]] = []
    for phi in sorted(keys, key=keys.__getitem__):
        K = keys[phi]
        mv = values[phi] - _mass_below(below, K)
        if mv < -MASS_TOL:
            raise InconsistentBelief(phi, mv)
        if mv > 0:
            mass[phi] = mv
            below.append((K, mv))
    return FiniteBba(algebra, mass, exhaustive=exhaustive)


def fuse(m1: FiniteBba, m2: FiniteBba) -> FiniteBba:
    """Conjunctive combination: product masses land on the pairwise meet.

    On an insulated algebra no cross product collapses to BOTTOM, so the
    output total is the product of the input totals and no renormalization
    is needed.
    """
    if m1.algebra is not m2.algebra:
        raise BbaError("cannot fuse assignments over different algebras")
    alg = m1.algebra
    out: dict[Proposition, object] = {}
    for p1, v1 in m1.mass.items():
        for p2, v2 in m2.mass.items():
            target = alg.meet(p1, p2)
            out[target] = out.get(target, 0) + v1 * v2
    return FiniteBba(alg, out, exhaustive=m1.exhaustive and m2.exhaustive)
