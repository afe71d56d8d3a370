"""The reference for `Poly.substitute`: its earlier body, kept verbatim.

That version multiplied every source term out as a one-term Poly times the
product of its bound variables' targets.  `Poly.substitute` now folds the
targets of at most one term into the exponents and the coefficient, and the
tests compare the two, terms and their order, on random polynomials.  Call
it as `substitute(poly, bindings, table)`.
"""

from __future__ import annotations

from typing import Mapping

from starquiver.poly import Poly, VarTable


def substitute(self, bindings: Mapping[str, Poly], table: VarTable | None = None) -> Poly:
    """Simultaneous substitution into `table` (default: this polynomial's).

    A bound variable maps to its target, a Poly on `table` or a constant;
    an unbound one maps by name, and raises ValueError only if it occurs
    and `table` has no variable of that name.
    """
    src = self.table
    table = src if table is None else table
    f = self.field
    images = {}
    for name, target in bindings.items():
        i = src.index(name)
        if not isinstance(target, Poly):
            target = Poly.const(table, f, target)
        elif (target.table, target.field) != (table, f):
            raise ValueError("binding target on a different VarTable or field")
        images[i] = target
    by_name: dict = {}   # unbound source index -> target index
    powers: dict = {}
    out: dict = {}
    n = len(table)
    zero = f.zero
    for exps, c in self.terms.items():
        residual = [0] * n
        term = None
        for i, e in enumerate(exps):
            if not e:
                continue
            target = images.get(i)
            if target is None:
                j = by_name.get(i)
                if j is None:
                    name = src.names[i]
                    if name not in table:
                        raise ValueError(f"variable {name!r} has no image in target table")
                    j = by_name[i] = table.index(name)
                residual[j] += e
                continue
            if e > 1:
                key = (i, e)
                target = powers.get(key)
                if target is None:
                    target = powers[key] = images[i] ** e
            term = target if term is None else term * target
        mono = Poly._raw(table, f, {tuple(residual): c})
        for ex, v in (mono if term is None else mono * term).terms.items():
            cur = out.get(ex)
            if cur is None:
                out[ex] = v
            else:
                s = f.add(cur, v)
                if s == zero:
                    del out[ex]
                else:
                    out[ex] = s
    return Poly._raw(table, f, out)
