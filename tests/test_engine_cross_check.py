"""Cross-check the Buchberger engine against an independent implementation.

Runs only when sympy is importable; compares reduced bases, membership
verdicts and elimination ideals on seeded random ideals under both
supported global orders.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from starquiver.groebner import Ideal
from starquiver.poly import GREVLEX, LEX, Poly, QQ, VarTable

from kernel_oracle import eliminate
from test_groebner import leading_term

NAMES = ("x", "y", "z")


def _random_poly(table, rng, terms=3, deg=3):
    out = Poly.zero(table, QQ)
    for _ in range(terms):
        exps = [0] * len(table)
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(len(table))] += 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        out = out + Poly.monomial(table, QQ, tuple(exps), coeff)
    return out


def _to_sympy(p, syms):
    expr = 0
    for exps, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            term *= s ** e
        expr += term
    return expr


def _from_sympy(expr, table, syms):
    poly = sympy.Poly(expr, *syms)
    out = {}
    for exps, c in poly.terms():
        out[tuple(int(e) for e in exps)] = Fraction(int(c.p), int(c.q))
    return Poly(table, QQ, out)


def _sympy_basis(gens, table, order, sym_order):
    syms = sympy.symbols(table.names)
    theirs = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order=sym_order)
    converted = set()
    for e in theirs.exprs:
        p = _from_sympy(e, table, syms)
        # sympy emits primitive integer polynomials; compare monic forms
        converted.add(p.scale(QQ.inv(leading_term(p, order)[1])))
    return converted


@pytest.mark.parametrize("order,sym_order", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_reduced_bases_match_sympy(order, sym_order):
    rng = random.Random(f"cross:{sym_order}")
    table = VarTable(NAMES)
    for trial in range(15):
        gens = [_random_poly(table, rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = Ideal(table, gens, order=order).groebner_basis()
        assert set(ours) == _sympy_basis(gens, table, order, sym_order), f"trial {trial}"


def _random_binomial(table, rng, deg=3):
    def monomial():
        exps = [0] * len(table)
        for _ in range(rng.randint(1, deg)):
            exps[rng.randrange(len(table))] += 1
        return tuple(exps)

    return (Poly.monomial(table, QQ, monomial(), Fraction(1))
            - Poly.monomial(table, QQ, monomial(), Fraction(rng.choice([1, 2, -3]))))


@pytest.mark.parametrize("order,sym_order", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_binomial_bases_match_sympy(order, sym_order):
    # binomial ideals with many generators give many pairs with shared
    # lcms, so every pair criterion of the engine prunes something here
    rng = random.Random(f"binomial:{sym_order}")
    pruned = {"mf": 0, "coprime": 0, "b": 0}
    for trial in range(12):
        table = VarTable(("x", "y", "z", "w", "v")[:rng.randint(4, 5)])
        gens = [g for g in (_random_binomial(table, rng) for _ in range(rng.randint(4, 6)))
                if not g.is_zero()]
        ideal = Ideal(table, gens, order=order)
        ours = ideal.groebner_basis()
        assert set(ours) == _sympy_basis(gens, table, order, sym_order), f"trial {trial}"
        pruned["mf"] += ideal.stats.pruned_mf
        pruned["coprime"] += ideal.stats.pruned_coprime
        pruned["b"] += ideal.stats.pruned_b
    assert all(pruned.values()), pruned


def test_membership_verdicts_match_sympy():
    rng = random.Random("membership")
    table = VarTable(NAMES)
    syms = sympy.symbols(NAMES)
    for _ in range(10):
        gens = [g for g in (_random_poly(table, rng) for _ in range(2))
                if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(table, gens)
        G = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                           order="grevlex", domain=sympy.QQ)
        for _ in range(5):
            probe = _random_poly(table, rng, terms=2, deg=2)
            remainder = G.reduce(_to_sympy(probe, syms))[1]
            assert I.contains(probe) == (remainder == 0)
            assert I.normal_form(probe) == _from_sympy(remainder, table, syms)


def test_elimination_ideals_match_sympy():
    # sympy's side: a lex basis with the dropped variables first, its
    # elements free of them, and the reduced grevlex basis of those
    rng = random.Random("eliminate")
    names = ("x", "y", "z", "w")
    table = VarTable(names)
    syms = sympy.symbols(names)
    for trial in range(12):
        gens = [g for g in (_random_poly(table, rng, deg=2) for _ in range(rng.randint(2, 3)))
                if not g.is_zero()]
        drop = sorted(rng.sample(names, rng.randint(1, 2)))
        keep = VarTable([n for n in names if n not in drop])
        ours = eliminate(Ideal(table, gens), drop)
        assert ours.table == keep and ours.order == GREVLEX
        assert ours.gens == ours.groebner_basis()
        dropped = [s for s in syms if s.name in drop]
        kept = [s for s in syms if s.name not in drop]
        lex = sympy.groebner([_to_sympy(g, syms) for g in gens], *dropped, *kept, order="lex")
        free = [_from_sympy(e, keep, kept) for e in lex.exprs
                if not e.free_symbols & set(dropped)]
        expected = _sympy_basis(free, keep, GREVLEX, "grevlex") if free else set()
        assert set(ours.groebner_basis()) == expected, f"trial {trial}"
