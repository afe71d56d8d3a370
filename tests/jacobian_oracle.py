"""The whole Jacobian ideal: the reference for the Euler-cofactor certificate.

`starquiver.charts.smoothness_certificate` proves that a chart's Jacobian
ideal is the unit ideal by one combination of its relations and minors,
whose cofactors the chart builder names.  This module builds the Jacobian
ideal itself, the relations plus every maximal minor of their Jacobian
matrix, and the tests ask its reduced basis the same question.  It builds
the ideal twice: from the packed generators, through the engine's own
`_derivative` and `_minor`, and from Polys, term by term.
"""

from __future__ import annotations

import itertools

from starquiver import groebner
from starquiver.groebner import Ideal


def engine_generators(ideal: Ideal) -> list:
    """The generators as the basis run packs them: over QQ each is the
    integer multiple that clears its denominators."""
    return [groebner._to_engine(g, ideal._codec, ideal._q) for g in ideal.gens]


def jacobian_engine_generators(ideal: Ideal) -> list:
    """The packed generators, then their Jacobian's maximal minors: every
    partial derivative of one relation, or the 2x2 minors f_a g_b - f_b g_a
    of two, in `itertools.combinations` order."""
    rels = engine_generators(ideal)
    codec, q, n = ideal._codec, ideal._q, len(ideal.table)
    jac = [[groebner._derivative(f, i, codec, q) for i in range(n)] for f in rels]
    if len(rels) == 1:
        minors = jac[0]
    elif len(rels) == 2:
        f, g = jac
        minors = [groebner._minor(f[a], g[b], f[b], g[a], codec, q)
                  for a, b in itertools.combinations(range(n), 2)]
    else:
        raise ValueError(f"Jacobian minors of {len(rels)} relations: expected one or two")
    return [*rels, *minors]


def jacobian_ideal(ideal: Ideal) -> Ideal:
    """The Jacobian ideal of `jacobian_engine_generators`, on the ideal's
    table, order, field and budget; over QQ a generator is a nonzero
    multiple of the Poly one, which leaves the ideal as it is."""
    codec, q = ideal._codec, ideal._q
    gens = [groebner._from_engine(terms, 1, codec, ideal.table, ideal.field, q)
            for terms in jacobian_engine_generators(ideal)]
    return Ideal(ideal.table, gens, order=ideal.order, field=ideal.field, budget=ideal.budget)


def reference_jacobian_generators(ideal: Ideal) -> tuple:
    """The generators and the maximal minors of their Jacobian, built from
    Polys: all partial derivatives of one relation, or the 2x2 minors
    f_a g_b - f_b g_a of two, in `itertools.combinations` order."""
    jac = [[f.derivative(v) for v in ideal.table.names] for f in ideal.gens]
    if len(jac) == 1:
        minors = jac[0]
    else:
        f, g = jac
        minors = [f[a] * g[b] - f[b] * g[a]
                  for a, b in itertools.combinations(range(len(ideal.table)), 2)]
    return tuple(ideal.gens) + tuple(minors)
