"""Buchberger engine: reduced Groebner bases and the certificates built on them.

Monomials are packed into Python ints twice over: an order ``code`` that
packs the key of the one order type, ``MonomialOrder.sort_key``, so that
integer comparison realises the order and integer addition realises
monomial multiplication, and a ``packed`` exponent vector
(16-bit fields, one guard bit each) supporting O(1) divisibility and lcm via
bit tricks.  Coefficient arithmetic is integer-only, and the characteristic
``q`` is the engine's only coefficient switch: ``q = 0`` is fraction-free
over the rationals (primitive integer polynomials with a positive lead,
scaled during reduction), and a prime ``q`` is modular over F_q (monic
polynomials, every coefficient reduced mod q).  One reduction loop, one
S-polynomial and one normaliser serve both.

Pairs are installed by the Gebauer-Moeller update (M, F and B criteria,
coprime leads), and the run's counters come back as :class:`EngineStats`.
Budgets cap S-pairs (those left after the M and F criteria), polynomial
degree and wall-clock time; a breached budget raises :class:`Inconclusive`,
never returns a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import (
    GREVLEX,
    MonomialOrder,
    Poly,
    QQ,
    PrimeField,
    VarTable,
    parse_order,
    parse_poly,
)

_FIELD_BITS = 16
_GUARD_BIT = 15
_CODE_BITS = 32
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

    A product of two packed monomials, each field below 2^15, still holds
    every exponent exactly in its 16-bit field, and it overflows iff it sets
    a guard bit; every product made in the engine is checked that way."""
    raise Inconclusive("exponent exceeds packed-field capacity", exponent=exponent)


class _Codec:
    """Packs exponent vectors for one (VarTable, MonomialOrder) pair.

    The order code packs `MonomialOrder.sort_key`, one 32-bit field per part,
    so integer comparison of codes is the order itself.  Every part is a sum
    of exponents, so the packed key is linear in them: a monomial's code is
    the sum of its exponents times the packed keys of the single variables.
    """

    def __init__(self, table: VarTable, order: MonomialOrder):
        n = len(table)
        key = order.sort_key(table)
        self._weights = tuple(
            sum(part << (_CODE_BITS * k) for k, part in enumerate(reversed(key(unit))))
            for unit in ((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))
        self._pshift = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        self.guard = 0
        for s in self._pshift:
            self.guard |= 1 << (s + _GUARD_BIT)
        self.mask_all = (1 << (_FIELD_BITS * n)) - 1

    def encode(self, exps) -> tuple[int, int]:
        packed = 0
        code = 0
        for e, s, w in zip(exps, self._pshift, self._weights):
            if e > _MAX_EXP:
                _exponent_overflow(e)
            packed += e << s
            code += e * w
        return code, packed

    def decode(self, packed: int) -> tuple:
        return tuple((packed >> s) & 0xFFFF for s in self._pshift)

    def code_of_packed(self, packed: int) -> int:
        return sum(((packed >> s) & 0xFFFF) * w for s, w in zip(self._pshift, self._weights))

    def deg(self, packed: int) -> int:
        return sum((packed >> s) & 0xFFFF for s in self._pshift)

    def divides(self, divisor_packed: int, packed: int) -> bool:
        g = self.guard
        return ((packed | g) - divisor_packed) & g == g

    def lcm(self, a: int, b: int) -> int:
        g = self.guard
        sel = ((a | g) - b) & g
        mask = (sel >> _GUARD_BIT) * 0xFFFF
        return (a & mask) | (b & (self.mask_all ^ mask))

    def vars_mask(self, indices: Iterable[int]) -> int:
        m = 0
        for i in indices:
            m |= 0xFFFF << self._pshift[i]
        return m


# ---------------------------------------------------------------------------
# engine polynomials: lists of (code, packed, int coeff), descending by code
# ---------------------------------------------------------------------------

def _to_engine(p: Poly, codec: _Codec, q: int):
    """Engine terms of p: residues mod q, or (q = 0) p times its denominator lcm."""
    if not p.terms:
        return []
    denlcm = 1 if q else lcm(*(c.denominator for c in p.terms.values()))
    items = []
    for exps, c in p.terms.items():
        code, packed = codec.encode(exps)
        items.append((code, packed, c % q if q else c.numerator * (denlcm // c.denominator)))
    items.sort(key=lambda t: t[0], reverse=True)
    return items


def _from_engine(terms, codec: _Codec, table: VarTable, field, q: int,
                 monic: bool = True, scale: int = 1) -> Poly:
    """Back to a Poly divided by its lead, or with monic=False by scale."""
    if not terms:
        return Poly.zero(table, field)
    den = terms[0][2] if monic else scale
    if q:
        inv = pow(den, -1, q)
        out = {codec.decode(packed): c * inv % q for _, packed, c in terms}
    else:
        out = {codec.decode(packed): Fraction(c, den) for _, packed, c in terms}
    return Poly(table, field, out)


def _normalize(terms, q: int):
    """Monic over F_q; over ZZ (q = 0) primitive with a positive lead."""
    if not terms:
        return terms
    if q:
        inv = pow(terms[0][2], -1, q)
        if inv == 1:
            return terms
        return [(code, packed, c * inv % q) for code, packed, c in terms]
    g = 0
    for _, _, c in terms:
        g = gcd(g, c)
        if g == 1:
            break
    if terms[0][2] < 0:
        g = -g
    if g == 1:
        return terms
    return [(code, packed, c // g) for code, packed, c in terms]


def _reduce_full(terms, basis, codec: _Codec, q: int,
                 bud: _BudgetState | None = None):
    """Full multivariate division of `terms` by `basis`: (remainder, scale).

    The remainder is descending, and it is the remainder of scale * terms:
    each ZZ step multiplies the work polynomial by a positive integer, whose
    product is scale (always 1 over F_q).  `basis` entries are (lt_code,
    lt_packed, lt_coeff, tail) with tail the remaining terms, each
    normalised by `_normalize`.
    """
    if not terms:
        return [], 1
    guard = codec.guard
    coeffs = {}
    packs = {}
    heap = []
    for code, packed, c in terms:
        coeffs[code] = c
        packs[code] = packed
        heappush(heap, -code)
    out = []
    steps = 0
    scale = 1
    while heap:
        code = -heappop(heap)
        c = coeffs.pop(code, None)
        if c is None:
            continue
        packed = packs.pop(code)
        red = None
        for be in basis:
            lp = be[1]
            if lp <= packed and ((packed | guard) - lp) & guard == guard:
                red = be
                break
        if red is None:
            out.append((code, packed, c))
            continue
        steps += 1
        if bud is not None and steps % 1024 == 0:
            bud.check_time()
        lt_code, lt_packed, lt_coeff, tail = red
        fcode = code - lt_code
        fpack = packed - lt_packed
        if not q:
            # scale the work polynomial so the lead cancels in ZZ; basis
            # leads are positive, so d > 0 and mult > 0
            d = gcd(c, lt_coeff)
            mult = lt_coeff // d
            c //= d
            if mult != 1:
                scale *= mult
                for k in coeffs:
                    coeffs[k] *= mult
                if out:
                    out = [(oc, op, ov * mult) for oc, op, ov in out]
        for tc, tp, tcf in tail:
            nc = tc + fcode
            cur = coeffs.get(nc, 0)  # stored coefficients are never 0
            v = cur - c * tcf
            if q:
                v %= q
            if v:
                if not cur:
                    npk = tp + fpack
                    if npk & guard:
                        _exponent_overflow(max(codec.decode(npk)))
                    packs[nc] = npk
                    heappush(heap, -nc)
                coeffs[nc] = v
            elif cur:
                del coeffs[nc]
                del packs[nc]
    return out, scale


def _as_basis_elem(terms):
    code, packed, c = terms[0]
    return (code, packed, c, tuple(terms[1:]))


def _spoly(gi, gj, lcm_code, lcm_packed, codec: _Codec, q: int):
    ci, pi, ai = gi[0]
    cj, pj, aj = gj[0]
    acc = {}
    packs = {}
    # both leads are positive, and over F_q both are 1, so lam is 1 there
    lam = lcm(ai, aj)
    mi, mj = lam // ai, lam // aj
    fci, fpi = lcm_code - ci, lcm_packed - pi
    for tc, tp, tcf in gi:
        nc = tc + fci
        acc[nc] = acc.get(nc, 0) + mi * tcf
        packs[nc] = tp + fpi
    fcj, fpj = lcm_code - cj, lcm_packed - pj
    for tc, tp, tcf in gj:
        nc = tc + fcj
        acc[nc] = acc.get(nc, 0) - mj * tcf
        packs[nc] = tp + fpj
    guard = codec.guard
    items = []
    for c, v in acc.items():
        if q:
            v %= q
        if v:
            npk = packs[c]
            if npk & guard:
                _exponent_overflow(max(codec.decode(npk)))
            items.append((c, npk, v))
    items.sort(key=lambda t: t[0], reverse=True)
    return items


@dataclass(frozen=True, slots=True)
class EngineStats:
    """Deterministic counters of one Buchberger run.

    Pairs are counted as the Gebauer-Moeller update installs them: every new
    pair formed is pruned by the M/F criteria, dropped as coprime, or queued;
    a queued pair is later dropped by the B criterion or reduced.
    `elements_added` counts the nonzero reductions, not the seed generators.
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
    """Buchberger with the Gebauer-Moeller pair update, normal selection.

    Returns (reduced basis, EngineStats).  A nonzero constant in the basis
    short-circuits to the unit ideal, which is sound: the reduced basis is
    then exactly {1}.
    """
    G: list = []
    lt_packs: list[int] = []
    guard = codec.guard
    pairs: list = []  # heap of (deg, code, lcm_packed, i, j)
    active: list[int] = []  # indices whose lead no later lead divides
    formed = pruned_mf = pruned_coprime = pruned_b = 0
    reduced = zero = added = degree_peak = 0

    def stats():
        return EngineStats(formed, pruned_mf, pruned_coprime, pruned_b, reduced,
                           zero, added, len(G), degree_peak)

    def update(t: int):
        """Install the pairs of G[t] (Gebauer & Moeller, JSC 1988)."""
        nonlocal formed, pruned_mf, pruned_coprime, pruned_b, degree_peak
        h = lt_packs[t]
        degree_peak = max(degree_peak, codec.deg(h))
        # a divisor's packed int is never larger, so every lcm sorts after
        # its divisors; on ties a coprime pair comes first (F criterion)
        new = []
        for i in active:
            lp = codec.lcm(lt_packs[i], h)
            new.append((lp, lp != lt_packs[i] + h, i))
        new.sort()
        formed += len(new)
        kept: list[int] = []
        installed = []
        for lp, not_coprime, i in new:
            # M and F: the lcm of a kept pair divides this one
            lpg = lp | guard
            if any(k <= lp and (lpg - k) & guard == guard for k in kept):
                pruned_mf += 1
                continue
            kept.append(lp)
            deg = codec.deg(lp)
            bud.check_degree(deg)
            bud.tick_spair()
            if not_coprime:
                installed.append((deg, codec.code_of_packed(lp), lp, i, t))
            else:
                pruned_coprime += 1
        # B: drop an old pair whose lcm LT(h) divides, unless the lcm equals
        # lcm(LT(i), LT(h)) or lcm(LT(j), LT(h))
        old = len(pairs)
        pairs[:] = [pr for pr in pairs
                    if not (h <= pr[2] and ((pr[2] | guard) - h) & guard == guard
                            and codec.lcm(lt_packs[pr[3]], h) != pr[2]
                            and codec.lcm(lt_packs[pr[4]], h) != pr[2])]
        pruned_b += old - len(pairs)
        pairs.extend(installed)
        heapify(pairs)
        active[:] = [i for i in active if not codec.divides(h, lt_packs[i])]
        active.append(t)

    # seed basis by interreducing the input generators
    for g in sorted((g for g in gens if g), key=lambda t: t[0][0]):
        h = _reduce_full(g, [_as_basis_elem(x) for x in G], codec, q, bud)[0]
        if not h:
            continue
        h = _normalize(h, q)
        if h[0][1] == 0:  # constant: unit ideal
            return [[(0, 0, 1)]], stats()
        G.append(h)
        lt_packs.append(h[0][1])

    for t in range(len(G)):
        update(t)

    basis_elems = [_as_basis_elem(g) for g in G]
    while pairs:
        _, lcm_code, lcm_packed, i, j = heappop(pairs)
        bud.check_time()
        s = _spoly(G[i], G[j], lcm_code, lcm_packed, codec, q)
        h = _reduce_full(s, basis_elems, codec, q, bud)[0]
        reduced += 1
        if not h:
            zero += 1
            continue
        h = _normalize(h, q)
        added += 1
        if h[0][1] == 0:
            return [[(0, 0, 1)]], stats()
        bud.check_degree(codec.deg(h[0][1]))
        t = len(G)
        G.append(h)
        lt_packs.append(h[0][1])
        basis_elems.append(_as_basis_elem(h))
        update(t)

    return _reduced_basis(G, codec, q, bud), stats()


def _reduced_basis(G, codec: _Codec, q: int, bud: _BudgetState):
    """Minimalize and tail-reduce; the result is the unique reduced basis."""
    order = sorted(range(len(G)), key=lambda k: G[k][0][0])
    kept: list = []
    for k in order:
        lt = G[k][0][1]
        if any(codec.divides(e[0][1], lt) for e in kept):
            continue
        kept.append(G[k])
    final = []
    for idx, g in enumerate(kept):
        others = [_as_basis_elem(h) for j, h in enumerate(kept) if j != idx]
        r = _reduce_full(g, others, codec, q, bud)[0]
        final.append(_normalize(r, q))
    final.sort(key=lambda t: t[0][0])
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
    """Generators plus a lazily cached reduced Groebner basis."""

    def __init__(self, table: VarTable, gens: Sequence[Poly],
                 order: MonomialOrder = GREVLEX, field=None,
                 budget: GroebnerBudget = DEFAULT_BUDGET):
        gens = tuple(gens)
        for g in gens:
            if g.table != table:
                raise ValueError("generator on a different VarTable")
        if field is None:
            field = gens[0].field if gens else QQ
        for g in gens:
            if g.field != field:
                raise ValueError("generator over a different coefficient field")
        self.table = table
        self.field = field
        self.order = order
        self.gens = gens
        self.budget = budget
        self._codec = _Codec(table, order)
        self._q = field.q if isinstance(field, PrimeField) else 0
        self._basis_engine = None
        self._basis_poly = None
        self.stats: EngineStats | None = None

    # -- basis ---------------------------------------------------------------

    def _ensure_basis(self):
        if self._basis_engine is not None:
            return
        gens_engine = [_to_engine(g, self._codec, self._q) for g in self.gens]
        bud = self.budget.fresh()
        basis, self.stats = _buchberger(gens_engine, self._codec, self._q, bud)
        self._basis_engine = basis
        self._basis_poly = tuple(
            _from_engine(t, self._codec, self.table, self.field, self._q)
            for t in basis
        )

    def groebner_basis(self) -> tuple:
        """The reduced Groebner basis (monic, sorted by leading monomial)."""
        self._ensure_basis()
        return self._basis_poly

    def _basis_elems(self):
        self._ensure_basis()
        return [_as_basis_elem(t) for t in self._basis_engine]

    def _seed_basis(self, basis_engine, stats):
        # used by eliminate(): the filtered basis is already reduced, so it
        # is also the generators, and stats are those of the elimination run
        self._basis_engine = basis_engine
        self.stats = stats
        self.gens = self._basis_poly = tuple(
            _from_engine(t, self._codec, self.table, self.field, self._q)
            for t in basis_engine
        )

    # -- queries -------------------------------------------------------------

    def _reduce(self, p: Poly):
        """Engine remainder and scale of p on division by the reduced basis;
        p must lie in the ideal's ring.  Zero needs no basis."""
        if p.table != self.table or p.field != self.field:
            raise ValueError("polynomial incompatible with ideal")
        if p.is_zero():
            return [], 1
        terms = _to_engine(p, self._codec, self._q)
        return _reduce_full(terms, self._basis_elems(), self._codec, self._q, self.budget.fresh())

    def normal_form(self, p: Poly) -> Poly:
        """Remainder of p on division by the reduced basis; 0 iff p is a member."""
        r, scale = self._reduce(p)
        if not self._q:
            # undo the fraction-free scaling and _to_engine's denominator lcm
            scale *= lcm(*(c.denominator for c in p.terms.values()))
        return _from_engine(r, self._codec, self.table, self.field, self._q,
                            monic=False, scale=scale)

    def contains(self, p: Poly) -> bool:
        """Exact ideal membership via normal form."""
        return not self._reduce(p)[0]

    def contains_one(self) -> bool:
        """True iff the ideal is the whole ring (empty variety)."""
        self._ensure_basis()
        b = self._basis_engine
        return len(b) == 1 and b[0][0][1] == 0

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens over {self.field!r}, order {self.order!r})"


def eliminate(ideal: Ideal, drop: Iterable[str]) -> Ideal:
    """Intersect with the subring omitting `drop`, via a block elimination order.

    The result lives on the reduced VarTable, under grevlex, with the
    ideal's field and budget.  Its generators are its reduced basis (the
    filtered basis is one, by the elimination property of block orders,
    and grevlex agrees with the block order on the kept variables), packed
    straight from the engine terms of the elimination run.
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
    decode = work._codec.decode
    dmask = work._codec.vars_mask([ideal.table.index(n) for n in drop_ordered])
    kept = [ideal.table.index(n) for n in keep]
    out = Ideal(VarTable(keep), (), order=GREVLEX, field=ideal.field, budget=ideal.budget)

    def repack(packed):
        exps = decode(packed)
        return out._codec.encode(tuple(exps[i] for i in kept))

    # grevlex on the kept variables is the block order restricted to them,
    # so the repacked terms and basis elements stay in order
    out._seed_basis([[(*repack(p), c) for _, p, c in t] for t in work._basis_engine
                     if not any(p & dmask for _, p, _ in t)], work.stats)
    return out


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
    supports = [frozenset(i for i, e in enumerate(decode(t[0][1])) if e)
                for t in ideal._basis_engine]
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


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    """True iff the two ideals coincide (same VarTable and field required)."""
    if a.table != b.table:
        raise ValueError("ideals on different VarTables")
    if a.field != b.field:
        raise ValueError("ideals over different coefficient fields")
    if a.order == b.order:
        return a.groebner_basis() == b.groebner_basis()
    return all(a.contains(g) for g in b.gens) and all(b.contains(g) for g in a.gens)


def leading_term(p: Poly, order: MonomialOrder = GREVLEX):
    """(exponents, coefficient) of the leading term under the given order."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    return p.sorted_terms(order)[0]


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
    table = VarTable(names)
    order = GREVLEX
    body = lines[1:]
    if body and body[0].startswith("order:"):
        order = parse_order(body[0][len("order:"):].strip())
        body = body[1:]
    gens = [parse_poly(ln, table, field) for ln in body]
    return Ideal(table, gens, order=order, field=field, budget=budget)
