"""ker(phi) by elimination: the reference for the Hilbert-series proof.

`starquiver.invariants.verify_conjecture` proves that the kernel of the
cycle map is the minors ideal without computing the kernel.  This module
computes it the long way, by eliminating the arrow variables from the graph
ideal of phi, and the tests compare the two.  Run as a script, it makes the
same comparison over QQ at the arm parameters given, and exits 1 unless the
eliminated kernel's reduced basis is the proof's `kernel_generators`:

    python tests/kernel_oracle.py 4,3,3
"""

from __future__ import annotations

import sys

from starquiver.groebner import DEFAULT_BUDGET, CheckFailed, GroebnerBudget, Ideal, eliminate
from starquiver.invariants import phi_map, verify_conjecture, wv_table
from starquiver.poly import QQ, Poly, VarTable
from starquiver.quiver import ArmParams, StarQuiver, build_star_quiver
from starquiver.reconstruction import canonical_relation


def graph_ideal(Q: StarQuiver, budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """The graph ideal of phi over Q's field: on the arrows, then the w/v
    symbols, the canonical relation plus one tag ``y - phi(y)`` per symbol."""
    wv = wv_table(Q.p)
    joint = VarTable(tuple(Q.table.names) + tuple(wv.names))
    gens = [canonical_relation(Q).rename(joint)]
    for sym, image in phi_map(Q).items():
        gens.append(Poly.var(joint, Q.field, sym) - image.rename(joint))
    return Ideal(joint, gens, field=Q.field, budget=budget)


def kernel_ideal(p, field=QQ, budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """ker(phi), by eliminating the arrow variables from the graph ideal;
    over a prime field, the kernel of phi over that field."""
    p = ArmParams.parse(p)
    Q = build_star_quiver(p, field)
    result = eliminate(graph_ideal(Q, budget), Q.table.names)
    if result.table != wv_table(p):
        raise CheckFailed("the kept block is not exactly the w/v table")
    return result


def eliminated_generators(p, field=QQ) -> list:
    """The eliminated kernel's reduced basis, as the reports print it."""
    return [g.to_str() for g in kernel_ideal(p, field).groebner_basis()]


def main(argv) -> int:
    status = 0
    for spec in argv:
        rep = verify_conjecture(spec)
        ours = [g.to_str() for g in rep.kernel_generators]
        agree = rep.status == "confirmed" and ours == eliminated_generators(spec)
        print(f"kernel oracle: p={spec}: proof {rep.status}, "
              f"elimination {'agrees' if agree else 'DISAGREES'}")
        status |= not agree
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
