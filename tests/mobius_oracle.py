"""Belief inversion by the Möbius function of the class lattice.

An oracle for ``belief.bba_from_bel`` that shares nothing with its sweep:
m(phi) = sum over psi <= phi of mu(psi, phi) * bel(psi).  The class keys of
a quotient of the free algebra are the up-sets of its kept atom sets, a
distributive lattice under inclusion.  There mu(psi, phi) = (-1)^|D| when
D = key(phi) & ~key(psi) is an antichain of atom sets, the interval then
being Boolean, and 0 otherwise (Rota 1964; Stanley, *EC1*, Ex. 3.9.6).
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def _mobius_of_difference(delta):
    sets = [s for s in range(delta.bit_length()) if delta >> s & 1]
    if any(a != b and a & b == a for a in sets for b in sets):
        return 0
    return -1 if len(sets) % 2 else 1


def invert(algebra, bel_values):
    """Masses of the representatives, by Möbius inversion; zeros dropped."""
    keys = {rep: algebra.key(rep) for rep in algebra.representatives}
    mass = {}
    for phi, K in keys.items():
        v = sum(
            _mobius_of_difference(K & ~k) * bel_values[psi]
            for psi, k in keys.items()
            if not k & ~K and bel_values[psi]
        )
        if v:
            mass[phi] = v
    return mass
