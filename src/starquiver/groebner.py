"""Buchberger engine: reduced Groebner bases and the certificates built on them.

The certificates are normal forms, ideal equality, Krull dimension (for
`gb`) and the Jacobian combination.

Each monomial is one Python int: the key of the one order type,
``MonomialOrder.sort_key``, packed above the exponent vector (16-bit fields,
one guard bit each), so that integer comparison realises the order, integer
addition realises monomial multiplication, and divisibility and lcm are O(1)
bit tricks on the low half.  A basis element is stored once, as its lead
monomial, lead coefficient and tail terms.  Coefficient arithmetic is
integer-only, and the characteristic ``q`` is the engine's only coefficient
switch: ``q = 0`` is fraction-free over the rationals (primitive integer
polynomials with a positive lead, scaled during reduction), and a prime
``q`` is modular over F_q (monic polynomials, every coefficient reduced
mod q).  One reduction loop, one S-polynomial and one normaliser serve both.

Pairs are installed by the Gebauer-Moeller update (M, F and B criteria,
coprime leads) and selected by the total degree of their lcm, read off the
packed int (normal selection, ties broken by the order).  The run's
counters come back as :class:`EngineStats`.  Budgets cap S-pairs (those
left after the M and F criteria), total degree and wall-clock time; a
breached budget raises :class:`Inconclusive`, never returns a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .poly import (
    GREVLEX,
    MonomialOrder,
    Poly,
    QQ,
    PrimeField,
    VarTable,
    format_terms,
    parse_order,
    parse_poly,
)

_FIELD_BITS = 16
_GUARD_BIT = 15
_MAX_EXP = (1 << _GUARD_BIT) - 1


class Inconclusive(RuntimeError):
    """A budget (S-pairs, degree or time) was exhausted before an answer."""

    def __init__(self, reason: str, **detail):
        super().__init__(reason + (f" [{detail}]" if detail else ""))
        self.reason = reason
        self.detail = detail


class CheckFailed(RuntimeError):
    """A mathematical consistency check failed: a counterexample or a bug."""


@dataclass(frozen=True)
class GroebnerBudget:
    """Caps for one basis computation; exceeding any raises Inconclusive."""

    max_spairs: int = 200_000
    max_degree: int = 200
    time_cap: float | None = None

    def fresh(self) -> "_BudgetState":
        return _BudgetState(self)


class _BudgetState:
    def __init__(self, cfg: GroebnerBudget):
        self.cfg = cfg
        self.spairs = 0
        self.t0 = time.monotonic()

    def tick_spair(self):
        self.spairs += 1
        if self.spairs > self.cfg.max_spairs:
            raise Inconclusive("S-pair budget exceeded", spairs=self.spairs)
        self.check_time()

    def check_degree(self, deg: int):
        if deg > self.cfg.max_degree:
            raise Inconclusive("degree budget exceeded", degree=deg)

    def check_time(self):
        if self.cfg.time_cap is not None and time.monotonic() - self.t0 > self.cfg.time_cap:
            raise Inconclusive("time budget exceeded", elapsed=time.monotonic() - self.t0)


DEFAULT_BUDGET = GroebnerBudget()


# ---------------------------------------------------------------------------
# monomial codec
# ---------------------------------------------------------------------------

def _exponent_overflow(exponent: int):
    """Raise for an exponent that does not fit below a field's guard bit.

    A product of two monomials, each exponent below 2^15, still holds every
    exponent exactly in its 16-bit field, and it overflows iff it sets a
    guard bit; every product made in the engine is checked that way."""
    raise Inconclusive("exponent exceeds packed-field capacity", exponent=exponent)


class _Codec:
    """Packs the monomials of a VarTable's size under a MonomialOrder into
    ints; it reads only `len(table)` and `order.blocks_for(table)`.

    A monomial is one int of three parts.  The top part packs
    `MonomialOrder.sort_key`, one field per part of the key; below it sits
    the total degree, the slot that selects the pairs; the low half is the
    exponent vector, one 16-bit field per variable whose top bit is a
    guard.  Every part is a sum of exponents, so the whole int is linear in
    them: a monomial is the sum of its exponents times the monomials of the
    single variables.  Integer comparison is the order itself (equal keys
    mean equal exponents, so the degree slot below never decides a
    comparison), integer addition is monomial multiplication, and the
    guard-bit tests of divisibility and lcm read only the low half: a
    borrow never runs out of it, and ``& guard`` ignores the parts above
    even of a negative difference.

    A key part and the degree slot are at most a total degree, below
    n * 2^16 for n variables even in a product of two monomials, so a field
    of 16 + n.bit_length() bits holds each.  No wider field is used: every
    monomial, and every int op on it, grows with the field width.
    """

    def __init__(self, table: VarTable, order: MonomialOrder):
        n = len(table)
        low = _FIELD_BITS * n
        part_bits = _FIELD_BITS + n.bit_length()
        self._deg_shift = low
        self._deg_mask = (1 << part_bits) - 1
        high = low + part_bits
        self._shifts = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        # a variable's packed sort_key, last part lowest: its block of m
        # owns m parts (`ones` holds 1 in each), each 1 for the variable but
        # the one that subtracts it, which the block's first variable lacks
        keys, base = [0] * n, n
        for block in order.blocks_for(table):
            base -= len(block)
            ones = (((1 << (part_bits * len(block))) - 1) // ((1 << part_bits) - 1)
                    << (part_bits * base))
            for s, i in enumerate(block):
                keys[i] = ones - (1 << (part_bits * (base + s - 1))) if s else ones
        self._units = tuple((key << high) + (1 << low) + (1 << s)
                            for key, s in zip(keys, self._shifts))
        self._field_units = self._units[::-1]  # by field, lowest first
        self.guard = 0
        for s in self._shifts:
            self.guard |= 1 << (s + _GUARD_BIT)
        self.mask_all = (1 << low) - 1

    def encode(self, exps) -> int:
        mono = 0
        for e, u in zip(exps, self._units):
            if e > _MAX_EXP:
                _exponent_overflow(e)
            mono += e * u
        return mono

    def decode(self, mono: int) -> tuple:
        # a tuple of a list: built at its length, unlike one from an iterator
        return tuple([(mono >> s) & 0xFFFF for s in self._shifts])

    def lift(self, low: int) -> int:
        """The monomial whose exponent half is `low` (an lcm, say); only its
        nonzero fields are visited, top down."""
        mono = 0
        units = self._field_units
        while low:
            f = (low.bit_length() - 1) // _FIELD_BITS
            e = low >> (f * _FIELD_BITS)
            mono += e * units[f]
            low ^= e << (f * _FIELD_BITS)
        return mono

    def deg(self, mono: int) -> int:
        """Total degree, read off the exponent half."""
        return sum((mono >> s) & 0xFFFF for s in self._shifts)

    def slot_deg(self, mono: int) -> int:
        """Total degree of a whole monomial (not of an exponent half), read
        off its degree slot in one shift."""
        return (mono >> self._deg_shift) & self._deg_mask

    def divides(self, divisor: int, mono: int) -> bool:
        g = self.guard
        return ((mono | g) - divisor) & g == g

    def lcm(self, a: int, b: int) -> int:
        """The exponent half of lcm(a, b); `lift` gives the monomial."""
        g = self.guard
        sel = ((a | g) - b) & g
        mask = (sel >> _GUARD_BIT) * 0xFFFF
        return (a & mask) | (b & (self.mask_all ^ mask))


# the codecs in use, by (variable count, the order's blocks as indices)
_codecs: dict = {}
_CODECS_KEPT = 16


def _codec(table: VarTable, order: MonomialOrder) -> _Codec:
    """The one codec of a variable count and order blocks: a `_Codec` reads
    nothing else of its table and order, the packing being positional, so
    every fibre chart of a run, with its oracle ideal, shares one.  Few are
    kept, the oldest built going first."""
    key = (len(table), order.blocks_for(table))
    codec = _codecs.get(key)
    if codec is None:
        if len(_codecs) >= _CODECS_KEPT:
            del _codecs[next(iter(_codecs))]
        codec = _codecs[key] = _Codec(table, order)
    return codec


# ---------------------------------------------------------------------------
# engine polynomials: lists of (monomial, int coeff), descending; a basis
# element is stored once, as (lead, lead coeff, tail terms)
# ---------------------------------------------------------------------------

def _clearing(p: Poly, q: int) -> int:
    """The integer `_to_engine` multiplies p by: over QQ the lcm of its
    denominators (by `reduce`: lcm(*generator) grows the small-tuple free
    lists on every call), over F_q 1."""
    return 1 if q else reduce(lcm, (c.denominator for c in p.terms.values()), 1)


def _to_engine(p: Poly, codec: _Codec, q: int):
    """Engine terms of p: residues mod q, or (q = 0) p times `_clearing`."""
    denlcm = _clearing(p, q)
    items = [(codec.encode(exps), c % q if q else c.numerator * (denlcm // c.denominator))
             for exps, c in p.terms.items()]
    items.sort(reverse=True)
    return items


def _from_engine(terms, den: int, codec: _Codec, table: VarTable, field, q: int) -> Poly:
    """The Poly of engine terms divided by den."""
    if q:
        inv = pow(den, -1, q)
        out = {codec.decode(m): c * inv % q for m, c in terms}
    else:
        out = {codec.decode(m): Fraction(c, den) for m, c in terms}
    return Poly(table, field, out)


def _normalize(terms, q: int):
    """The basis element of nonzero descending terms: monic over F_q; over
    ZZ (q = 0) primitive with a positive lead."""
    lead, lc = terms[0]
    if q:
        inv = pow(lc, -1, q)
        if inv != 1:
            terms = [(m, c * inv % q) for m, c in terms]
    else:
        g = 0
        for _, c in terms:
            g = gcd(g, c)
            if g == 1:
                break
        if lc < 0:
            g = -g
        if g != 1:
            terms = [(m, c // g) for m, c in terms]
    return lead, terms[0][1], tuple(terms[1:])


def _reduce_full(terms, basis, codec: _Codec, q: int, bud: _BudgetState):
    """Full multivariate division of `terms` by `basis`: (remainder, scale).

    `terms` is descending, as every caller's is.  The remainder is
    descending, and it is the remainder of scale * terms: each ZZ step
    multiplies the work polynomial by a positive integer, whose product is
    scale (always 1 over F_q).  `basis` holds elements made by `_normalize`.
    The leading terms that no basis lead divides are the remainder's as
    they stand, so only the rest enter the heap; when no lead divides any
    term the remainder is a copy of `terms`, with scale 1.
    """
    guard = codec.guard
    # `start` is the first term that a basis lead divides
    for start, (m, _) in enumerate(terms):
        for lead, _, _ in basis:
            if lead <= m and ((m | guard) - lead) & guard == guard:
                break
        else:
            continue
        break
    else:
        return list(terms), 1
    out = list(terms[:start])
    terms = terms[start:]
    coeffs = dict(terms)
    heap = [-m for m, _ in terms]
    heapify(heap)
    steps = 0
    scale = 1
    while heap:
        m = -heappop(heap)
        c = coeffs.pop(m, None)
        if c is None:
            continue
        for lead, lc, tail in basis:
            if lead <= m and ((m | guard) - lead) & guard == guard:
                break
        else:
            out.append((m, c))
            continue
        steps += 1
        if steps % 1024 == 0:
            bud.check_time()
        f = m - lead
        if not q:
            # scale the work polynomial so the lead cancels in ZZ; basis
            # leads are positive, so d > 0 and mult > 0
            d = gcd(c, lc)
            mult = lc // d
            c //= d
            if mult != 1:
                scale *= mult
                for k in coeffs:
                    coeffs[k] *= mult
                if out:
                    out = [(om, ov * mult) for om, ov in out]
        for t, tc in tail:
            k = t + f
            cur = coeffs.get(k, 0)  # stored coefficients are never 0
            v = cur - c * tc
            if q:
                v %= q
            if v:
                if not cur:
                    if k & guard:
                        _exponent_overflow(max(codec.decode(k)))
                    heappush(heap, -k)
                coeffs[k] = v
            elif cur:
                del coeffs[k]
    return out, scale


def _spoly(gi, gj, lcm_mono: int, codec: _Codec, q: int):
    """Descending terms of the S-polynomial; the leads cancel, so only the
    two tails are multiplied out."""
    li, ai, ti = gi
    lj, aj, tj = gj
    # both leads are positive, and over F_q both are 1, so lam is 1 there
    lam = lcm(ai, aj)
    mi, mj = lam // ai, lam // aj
    fi, fj = lcm_mono - li, lcm_mono - lj
    acc = {t + fi: mi * c for t, c in ti}
    for t, c in tj:
        k = t + fj
        acc[k] = acc.get(k, 0) - mj * c
    return _collect(acc, codec, q)


def _collect(acc: dict, codec: _Codec, q: int):
    """The descending terms of a sum of monomial products, by monomial.
    Each coefficient is reduced mod q, and a zero one dropped; every term
    kept is checked against the guard bits (a product that cancels leaves
    no monomial behind)."""
    guard = codec.guard
    items = []
    for k, v in acc.items():
        if q:
            v %= q
        if v:
            if k & guard:
                _exponent_overflow(max(codec.decode(k)))
            items.append((k, v))
    items.sort(reverse=True)
    return items


def _derivative(terms, var: int, codec: _Codec, q: int):
    """Descending engine terms of the partial derivative in variable `var`.
    A term divisible by the variable loses one unit of it, an int
    subtraction that keeps the terms in order, and its coefficient is
    multiplied by the exponent read from the variable's field; mod q the
    term drops out when q divides that exponent."""
    shift, unit = codec._shifts[var], codec._units[var]
    out = []
    for m, c in terms:
        e = (m >> shift) & 0xFFFF
        if e:
            c *= e
            if q:
                c %= q
            if c:
                out.append((m - unit, c))
    return out


def _minor(fa, gb, fb, ga, codec: _Codec, q: int):
    """Descending engine terms of the 2x2 minor fa gb - fb ga: a product
    of monomials is a sum of packed ints."""
    acc: dict = {}
    for left, right, sign in ((fa, gb, 1), (fb, ga, -1)):
        for m1, c1 in left:
            for m2, c2 in right:
                k = m1 + m2
                acc[k] = acc.get(k, 0) + sign * c1 * c2
    return _collect(acc, codec, q)


@dataclass(frozen=True, slots=True)
class EngineStats:
    """Deterministic counters of one Buchberger run.

    Pairs are counted as the Gebauer-Moeller update installs them: every new
    pair formed is pruned by the M/F criteria, dropped as coprime, or queued;
    a queued pair is later dropped by the B criterion or reduced.
    `elements_added` counts the nonzero reductions, not the seed generators.
    `degree_peak` is the largest total degree of a basis lead.
    """

    pairs_formed: int
    pruned_mf: int
    pruned_coprime: int
    pruned_b: int
    pairs_reduced: int
    zero_reductions: int
    elements_added: int
    basis_peak: int
    degree_peak: int


def _buchberger(gens, codec: _Codec, q: int, bud: _BudgetState):
    """Buchberger with the Gebauer-Moeller pair update; the pair of least
    lcm total degree is reduced first, ties broken by the order.

    Each element's lead total degree is recorded once, as it enters the
    basis.  A kept pair's lcm degree is at most the sum of its two lead
    degrees, so it is computed, and checked against the degree budget, only
    when that sum is over the cap: the budget trips at the same pair, with
    the same degree, as a check on every kept pair.

    Returns (reduced basis, EngineStats).  A nonzero constant in the basis
    short-circuits to the unit ideal, which is sound: the reduced basis is
    then exactly {1}.
    """
    G: list = []  # basis elements (lead, lead coeff, tail)
    degs: list[int] = []  # total degree of each element's lead
    guard, mask_all = codec.guard, codec.mask_all
    lcm_of, deg = codec.lcm, codec.deg
    max_degree = bud.cfg.max_degree
    pairs: list = []  # heap of (total degree of lcm, lcm, i, j)
    active: list[int] = []  # indices whose lead no later lead divides
    formed = pruned_mf = pruned_coprime = pruned_b = 0
    reduced = zero = added = degree_peak = 0

    def stats():
        return EngineStats(formed, pruned_mf, pruned_coprime, pruned_b, reduced,
                           zero, added, len(G), degree_peak)

    def update(t: int):
        """Install the pairs of G[t] (Gebauer & Moeller, JSC 1988).  A pair's
        lcm degree is computed only when its lead degrees sum over the cap."""
        nonlocal formed, pruned_mf, pruned_coprime, pruned_b, degree_peak
        h = G[t][0]
        dh = degs[t]
        degree_peak = max(degree_peak, dh)
        # the new lcms are kept as exponent halves: a divisor's is never
        # larger, so every lcm sorts after its divisors; on ties a coprime
        # pair comes first (F criterion)
        new = []
        for i in active:
            a = G[i][0]
            lp = lcm_of(a, h)
            new.append((lp, lp != (a + h) & mask_all, i))
        new.sort()
        formed += len(new)
        kept: list[int] = []
        installed = []
        for lp, not_coprime, i in new:
            # M and F: the lcm of a kept pair divides this one (kept lcms
            # come earlier in the sort, so none is larger)
            lpg = lp | guard
            for k in kept:
                if (lpg - k) & guard == guard:
                    pruned_mf += 1
                    break
            else:
                kept.append(lp)
                if degs[i] + dh > max_degree:
                    bud.check_degree(deg(lp))
                bud.tick_spair()
                if not_coprime:
                    mono = codec.lift(lp)
                    installed.append((codec.slot_deg(mono), mono, i, t))
                else:
                    pruned_coprime += 1
        # B: drop an old pair whose lcm LT(h) divides, unless the lcm equals
        # lcm(LT(i), LT(h)) or lcm(LT(j), LT(h))
        dropped = [pr for pr in pairs
                   if h <= pr[1] and ((pr[1] | guard) - h) & guard == guard
                   and lcm_of(G[pr[2]][0], h) != pr[1] & mask_all
                   and lcm_of(G[pr[3]][0], h) != pr[1] & mask_all]
        if dropped:
            pruned_b += len(dropped)
            gone = set(dropped)
            pairs[:] = [pr for pr in pairs if pr not in gone]
            pairs.extend(installed)
            heapify(pairs)
        else:
            # heap keys are unique, so pushing pops in the same order
            for pr in installed:
                heappush(pairs, pr)
        # LT(h) divides LT(i) exactly when their lcm is LT(i)
        active[:] = [i for lp, _, i in new if lp != G[i][0] & mask_all]
        active.append(t)

    def enter(h):
        G.append(_normalize(h, q))
        degs.append(deg(h[0][0]))

    # seed basis by interreducing the input generators
    for g in sorted((g for g in gens if g), key=lambda t: t[0][0]):
        h = _reduce_full(g, G, codec, q, bud)[0]
        if not h:
            continue
        if h[0][0] == 0:  # constant: unit ideal
            return [(0, 1, ())], stats()
        enter(h)

    for t in range(len(G)):
        update(t)

    while pairs:
        _, lcm_mono, i, j = heappop(pairs)
        bud.check_time()
        s = _spoly(G[i], G[j], lcm_mono, codec, q)
        h = _reduce_full(s, G, codec, q, bud)[0]
        reduced += 1
        if not h:
            zero += 1
            continue
        added += 1
        if h[0][0] == 0:
            return [(0, 1, ())], stats()
        enter(h)
        bud.check_degree(degs[-1])
        update(len(G) - 1)

    # every element enters reduced by the earlier ones, so no earlier lead
    # divides a later one, and `active` is exactly the minimal basis
    return _reduced_basis([G[i] for i in active], codec, q, bud), stats()


def _reduced_basis(minimal, codec: _Codec, q: int, bud: _BudgetState):
    """Tail-reduce a minimal basis; the result is the unique reduced basis."""
    kept = sorted(minimal, key=lambda e: e[0])
    # no other kept lead divides a kept lead, and a lead divides no smaller
    # monomial, so reducing a tail by all of `kept` reduces it by the others
    final = []
    for lead, lc, tail in kept:
        r, scale = _reduce_full(tail, kept, codec, q, bud)
        final.append(_normalize([(lead, lc * scale), *r], q))
    return final


# ---------------------------------------------------------------------------
# public ideal interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionReport:
    """Krull dimension plus a witnessing maximal independent variable set.

    Dimension -1 means the unit ideal (empty variety); the witness then is
    empty.  Otherwise no leading monomial of the reduced basis is supported
    entirely inside the witness set, and no larger variable set has that
    property.
    """

    dimension: int
    witness: tuple


class Ideal:
    """Generators plus a lazily cached reduced Groebner basis, and the
    builder's `cofactors` for `jacobian_combination`, if it knows them."""

    def __init__(self, table: VarTable, gens: Sequence[Poly],
                 order: MonomialOrder = GREVLEX, field=None,
                 budget: GroebnerBudget = DEFAULT_BUDGET,
                 cofactors: Mapping[int | tuple, Poly] | None = None):
        gens = tuple(gens)
        if field is None:
            field = gens[0].field if gens else QQ
        for g in (*gens, *(cofactors or {}).values()):
            if g.table != table:
                raise ValueError("generator on a different VarTable")
            if g.field != field:
                raise ValueError("generator over a different coefficient field")
        self.table = table
        self.field = field
        self.order = order
        self.gens = gens
        self.cofactors = cofactors
        self._gens_engine = None
        self.budget = budget
        self._codec = _codec(table, order)
        self._q = field.q if isinstance(field, PrimeField) else 0
        self._basis_engine = None
        self._polys = None
        self.stats: EngineStats | None = None

    # -- generators ----------------------------------------------------------

    def _engine_gens(self) -> list:
        """The generators in engine form, converted once: the basis run,
        the Jacobian combination and the generator match read the same
        terms."""
        if self._gens_engine is None:
            self._gens_engine = [_to_engine(g, self._codec, self._q) for g in self.gens]
        return self._gens_engine

    def gens_text(self) -> list:
        """Each generator as `Poly.to_str(self.order)` writes it, its terms
        read in the order of its packed form, which sorts them by the order
        already: no generator is sorted again."""
        decode, names = self._codec.decode, self.table.names
        text = []
        for g, packed in zip(self.gens, self._engine_gens()):
            exponents = [decode(m) for m, _ in packed]
            text.append(format_terms([(e, g.terms[e]) for e in exponents], names))
        return text

    # -- basis ---------------------------------------------------------------

    def _ensure_basis(self):
        if self._basis_engine is not None:
            return
        bud = self.budget.fresh()
        basis, self.stats = _buchberger(self._engine_gens(), self._codec, self._q, bud)
        self._set_basis(basis)

    def _set_basis(self, basis):
        self._basis_engine = basis
        self._polys = None

    @property
    def _basis_poly(self) -> tuple:
        """The engine basis as Polys, converted on first read: the
        certificates and the ideal comparison read the engine form only."""
        if self._polys is None:
            self._polys = tuple(
                _from_engine([(lead, lc), *tail], lc, self._codec, self.table, self.field, self._q)
                for lead, lc, tail in self._basis_engine
            )
        return self._polys

    def groebner_basis(self) -> tuple:
        """The reduced Groebner basis (monic, sorted by leading monomial)."""
        self._ensure_basis()
        return self._basis_poly

    # -- queries -------------------------------------------------------------

    def _reduce(self, p: Poly):
        """Engine remainder and scale of p on division by the reduced basis;
        p must lie in the ideal's ring.  Zero needs no basis."""
        if p.table != self.table or p.field != self.field:
            raise ValueError("polynomial incompatible with ideal")
        if p.is_zero():
            return [], 1
        self._ensure_basis()
        terms = _to_engine(p, self._codec, self._q)
        return _reduce_full(terms, self._basis_engine, self._codec, self._q, self.budget.fresh())

    def normal_form(self, p: Poly) -> Poly:
        """Remainder of p on division by the reduced basis; 0 iff p is a member."""
        r, scale = self._reduce(p)
        if not self._q:
            # undo the fraction-free scaling and _to_engine's denominator lcm
            scale *= _clearing(p, 0)
        return _from_engine(r, scale, self._codec, self.table, self.field, self._q)

    def contains(self, p: Poly) -> bool:
        """Exact ideal membership via normal form."""
        return not self._reduce(p)[0]

    def contains_one(self) -> bool:
        """True iff the ideal is the whole ring (empty variety)."""
        self._ensure_basis()
        b = self._basis_engine
        return len(b) == 1 and b[0][0] == 0

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens over {self.field!r}, order {self.order!r})"


def jacobian_combination(ideal: Ideal) -> Poly:
    """sum_k c_k g_k over the ideal's `cofactors`, which lies in its Jacobian
    ideal: a nonzero constant proves that the unit ideal, with no basis.

    A key k is a generator's index, or one column per generator naming a
    maximal minor of their Jacobian: f_a for one, f_a g_b - f_b g_a for two.
    Only those minors are formed, on the packed engine terms, every product
    checked against the guard bits.  Over QQ the engine holds generator i
    times its `_clearing` l_i and cofactor c times d_c, so the integer sum
    lifts each term to D L, D = lcm d_c and L = prod l_i, and divides once.
    """
    if ideal.cofactors is None:
        raise ValueError("the ideal names no Jacobian cofactors")
    codec, q = ideal._codec, ideal._q
    rels = ideal._engine_gens()
    clear = [_clearing(g, q) for g in ideal.gens]
    whole = prod(clear)
    cofactors = [(key, _to_engine(c, codec, q), _clearing(c, q))
                 for key, c in ideal.cofactors.items()]
    den = lcm(*[d for _, _, d in cofactors])
    acc: dict = {}
    for key, cofactor, d in cofactors:
        if isinstance(key, int):
            g, lift = rels[key], whole // clear[key]
        elif len(key) == len(rels) == 1:
            g, lift = _derivative(rels[0], key[0], codec, q), 1
        elif len(key) == len(rels) == 2:
            f, h = ([_derivative(r, i, codec, q) for i in key] for r in rels)
            g, lift = _minor(f[0], h[1], f[1], h[0], codec, q), 1
        else:
            raise ValueError(f"Jacobian minor {key} of {len(rels)} relations: "
                             "expected one or two, one column each")
        lift *= den // d
        for m1, c1 in cofactor:
            c1 *= lift
            for m2, c2 in g:
                k = m1 + m2
                acc[k] = acc.get(k, 0) + c1 * c2
    # D L is 1 over F_q
    return Poly(ideal.table, ideal.field, {codec.decode(m): Fraction(c, den * whole)
                                           for m, c in _collect(acc, codec, q)})


def _min_hitting_set(minimal: list, idx: int, hitting: set, best: list) -> None:
    """Branch and bound: extend `hitting` to hit minimal[idx:], keeping the
    smallest complete hitting set found so far in best[0]."""
    if best[0] is not None and len(hitting) >= len(best[0]):
        return
    while idx < len(minimal) and minimal[idx] & hitting:
        idx += 1
    if idx == len(minimal):
        best[0] = set(hitting)
        return
    for v in sorted(minimal[idx]):
        hitting.add(v)
        _min_hitting_set(minimal, idx + 1, hitting, best)
        hitting.remove(v)


def krull_dimension(ideal: Ideal) -> DimensionReport:
    """Combinatorial dimension from the leading-term ideal.

    dim = n - (minimum hitting set of the leading-monomial supports); a
    variable set is independent iff it contains no leading support entirely,
    i.e. iff its complement hits every support.
    """
    n = len(ideal.table)
    if ideal.contains_one():
        return DimensionReport(-1, ())
    # leading monomials under the order the engine ran, straight from its basis
    decode = ideal._codec.decode
    supports = [frozenset(i for i, e in enumerate(decode(lead)) if e)
                for lead, _, _ in ideal._basis_engine]
    # minimalize: keep only inclusion-minimal supports
    supports.sort(key=len)
    minimal: list[frozenset] = []
    for s in supports:
        if not any(m <= s for m in minimal):
            minimal.append(s)
    if not minimal:
        return DimensionReport(n, tuple(ideal.table.names))
    best: list = [None]
    _min_hitting_set(minimal, 0, set(), best)
    hit = best[0]
    witness = tuple(ideal.table.names[i] for i in range(n) if i not in hit)
    return DimensionReport(n - len(hit), witness)


def same_generators(a: Ideal, b: Ideal) -> bool:
    """True when the ideals' nonzero generators form the same set up to
    units, which `_normalize`'s engine form fixes: then the ideals are
    equal, with no basis."""
    if (a.table, a.order, a.field) != (b.table, b.order, b.field):
        return False
    return ({_normalize(g, a._q) for g in a._engine_gens() if g}
            == {_normalize(g, b._q) for g in b._engine_gens() if g})


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    """True iff the two ideals coincide (same VarTable and field required).

    Under one order the reduced bases decide it: the two codecs pack alike,
    and `_normalize` makes each reduced element's engine form unique, so the
    engine bases are compared without building a Poly."""
    if a.table != b.table:
        raise ValueError("ideals on different VarTables")
    if a.field != b.field:
        raise ValueError("ideals over different coefficient fields")
    if a.order == b.order:
        a._ensure_basis()
        b._ensure_basis()
        return a._basis_engine == b._basis_engine
    return all(a.contains(g) for g in b.gens) and all(b.contains(g) for g in a.gens)


# ---------------------------------------------------------------------------
# ideal text files
# ---------------------------------------------------------------------------

def write_ideal_text(ideal: Ideal) -> str:
    lines = [
        "vars: " + ", ".join(ideal.table.names),
        "order: " + ideal.order.spec(),
    ]
    for g in ideal.gens:
        lines.append(g.to_str(ideal.order))
    return "\n".join(lines) + "\n"


def read_ideal_text(text: str, field=QQ,
                    budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """Parse the one-polynomial-per-line format with vars/order header."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vars:"):
        raise ValueError("ideal file must start with a 'vars:' header")
    names = [n.strip() for n in lines[0][len("vars:"):].split(",") if n.strip()]
    if not names:
        raise ValueError("the 'vars:' header of the ideal file names no variable")
    table = VarTable(names)
    order = GREVLEX
    body = lines[1:]
    if body and body[0].startswith("order:"):
        order = parse_order(body[0][len("order:"):].strip())
        body = body[1:]
    gens = [parse_poly(ln, table, field) for ln in body]
    return Ideal(table, gens, order=order, field=field, budget=budget)
