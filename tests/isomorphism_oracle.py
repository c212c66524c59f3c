"""The staircase theorem checked by brute force over the order quotient.

This is how :func:`dsmfuse.ordered.verify_isomorphism` worked before it
became one identity on the order constraints' kept mask.  It builds the
free algebra and its quotient by ``od.order_constraints(n)``, maps every
non-trivial element through :func:`dsmfuse.ordered.smile`, and checks that
equal classes are exactly equal staircase tables, that the meet and join of
every pair of classes transport to the staircases' ``&`` and ``|``, and
that the class count matches the staircase enumeration.  The constraints
are looked up on the module at call time, so a test can substitute mutants.
"""

from dataclasses import dataclass

from dsmfuse import ordered as od
from dsmfuse import prebool as pb


@dataclass
class OracleReport:
    n: int
    class_count: int
    staircase_count: int
    bijection_ok: bool
    morphism_ok: bool
    counterexamples: list

    @property
    def ok(self):
        return (
            self.bijection_ok
            and self.morphism_ok
            and self.class_count == self.staircase_count
        )


def verify_isomorphism(n):
    universe = pb.enumerate_hyperpower(n)
    q = pb.Quotient(universe, od.order_constraints(n))
    problems = []

    # Classes are held by key, whose meet and join are ``&`` and ``|``.
    # BOTTOM's interval part is empty, and a meet of two classes may land there.
    key_to_stair = {q.key(q.bottom): 0}
    stair_to_key = {}
    bijection_ok = True
    for p in universe:
        if p.is_bottom or p.is_top:
            continue
        k = q.key(p)
        s = od.smile(p).table
        if key_to_stair.setdefault(k, s) != s:
            bijection_ok = False
            problems.append(f"class of {pb.format_proposition(p)} maps to two staircases")
        if stair_to_key.setdefault(s, k) != k:
            bijection_ok = False
            problems.append(f"staircase of {pb.format_proposition(p)} hits two classes")

    morphism_ok = True
    reps = [r for r in q.representatives if r != q.bottom and r != q.top]
    keyed = [(r, q.key(r)) for r in reps]
    for p1, k1 in keyed:
        for p2, k2 in keyed:
            s1, s2 = key_to_stair[k1], key_to_stair[k2]
            pair = f"{pb.format_proposition(p1)}, {pb.format_proposition(p2)}"
            if s1 & s2 != key_to_stair.get(k1 & k2):
                morphism_ok = False
                problems.append(f"meet mismatch at {pair}")
            if s1 | s2 != key_to_stair.get(k1 | k2):
                morphism_ok = False
                problems.append(f"join mismatch at {pair}")

    return OracleReport(
        n=n,
        class_count=len(reps),
        staircase_count=len(od.enumerate_staircases(n)),
        bijection_ok=bijection_ok,
        morphism_ok=morphism_ok,
        counterexamples=problems[:20],
    )
