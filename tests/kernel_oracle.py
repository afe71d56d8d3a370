"""ker(phi) by elimination: the reference for the Hilbert-series proof.

`starquiver.invariants.verify_conjecture` proves that the kernel of the
cycle map is the minors ideal without computing the kernel.  This module
computes it the long way, by eliminating the arrow variables from the graph
ideal of phi, and the tests compare the two.  `eliminate` is the engine's
block-order elimination; no command eliminates anything, so it lives here,
with the tests that run it.  Run as a script, this module makes the same
comparison over QQ at the arm parameters given, and exits 1 unless the
eliminated kernel's reduced basis is the proof's `kernel_generators`:

    python tests/kernel_oracle.py 4,3,3
"""

from __future__ import annotations

import sys
from typing import Iterable

from starquiver.groebner import DEFAULT_BUDGET, CheckFailed, GroebnerBudget, Ideal
from starquiver.invariants import phi_map, verify_conjecture, wv_table
from starquiver.poly import GREVLEX, QQ, MonomialOrder, Poly, VarTable
from starquiver.quiver import ArmParams, StarQuiver, build_star_quiver
from starquiver.reconstruction import canonical_relation


def eliminate(ideal: Ideal, drop: Iterable[str]) -> Ideal:
    """Intersect with the subring omitting `drop`, via a block elimination order.

    The result lives on the reduced VarTable, under grevlex, with the
    ideal's field and budget.  Its generators are its reduced basis (the
    filtered basis is one, by the elimination property of block orders, and
    grevlex agrees with the block order on the kept variables), packed
    straight from the engine terms of the elimination run, whose counters
    it keeps as its `stats`.
    """
    drop = list(drop)
    for name in drop:
        if name not in ideal.table:
            raise KeyError(f"unknown variable {name!r}")
    drop_set = set(drop)
    if not drop_set:
        return ideal
    keep = [n for n in ideal.table.names if n not in drop_set]
    if not keep:
        raise ValueError("cannot eliminate every variable")
    drop_ordered = [n for n in ideal.table.names if n in drop_set]
    work = Ideal(ideal.table, ideal.gens, order=MonomialOrder([drop_ordered, keep]),
                 field=ideal.field, budget=ideal.budget)
    work._ensure_basis()
    decode, shifts = work._codec.decode, work._codec._shifts
    # the exponent fields of the dropped variables
    dmask = sum(0xFFFF << shifts[ideal.table.index(n)] for n in drop_ordered)
    kept = [ideal.table.index(n) for n in keep]
    out = Ideal(VarTable(keep), (), order=GREVLEX, field=ideal.field, budget=ideal.budget)

    def repack(mono):
        exps = decode(mono)
        return out._codec.encode(tuple([exps[i] for i in kept]))

    # an element whose lead is free of `drop` lies in the subring, by the
    # elimination property; grevlex on the kept variables is the block order
    # restricted to them, so the repacked terms and elements stay in order
    out._set_basis([(repack(lead), lc, tuple((repack(m), c) for m, c in tail))
                    for lead, lc, tail in work._basis_engine if not lead & dmask])
    out.stats = work.stats
    out.gens = out._basis_poly
    return out


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
