"""Conjunctive fusion through commonalities: an oracle for ``belief.fuse``.

The commonality of a class J is q(J) = sum of m(K) over the classes K above
J, that is the keys K with ``J & ~K == 0``.  A meet ``k1 & k2`` lies above J
exactly when both operands do, so the fused commonality is the product
q1(J)·q2(J) (Smets' commonality form of the conjunctive rule; Kennes, IEEE
Trans. SMC 22(2), 1992).  The masses come back by peeling in descending key
order: m(J) = q(J) minus the masses already recovered above J, each of
which lies on a larger key.  It works on class keys and plain numbers,
by direct sums, and shares no code with ``dsmfuse``.
"""


def commonality(keys, mass):
    """q(J) for every key J, from masses by key."""
    return {J: sum(v for K, v in mass.items() if not J & ~K) for J in keys}


def fuse(keys, m1, m2):
    """The nonzero fused masses by key, BOTTOM's key 0 included."""
    q1, q2 = commonality(keys, m1), commonality(keys, m2)
    mass = {}
    for J in sorted(keys, reverse=True):
        v = q1[J] * q2[J] - sum(v for K, v in mass.items() if not J & ~K)
        if v:
            mass[J] = v
    return mass
