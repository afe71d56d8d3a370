"""Exact sparse multivariate polynomial arithmetic.

A polynomial is a dict mapping dense exponent tuples (one non-negative int
per variable of its VarTable) to nonzero coefficients.  Coefficients live in
a configurable field: the rationals (``fractions.Fraction``) or a word-sized
prime field (ints reduced mod q).  All operations are pure; every value is
immutable after construction, so polynomials can be shared freely between
threads or processes.

The zero polynomial is the empty dict, so equal polynomials always compare
equal (canonical form).  A coefficient is zero exactly when it is falsy (a
Fraction by its numerator, an F_q element as an int in [0, q)), so the hot
paths test zeros by truthiness.

`Poly.substitute` is the one map of variables, within a VarTable or into
another one: `rename` and `evaluate` are calls into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Exponents = tuple  # one int per variable
Coeff = Union[Fraction, int]


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (covers word-sized inputs)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Python's default limit on the digits of an int read from a string
_MAX_EXPONENT = 4300


def _fraction(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent beyond _MAX_EXPONENT in
    magnitude, whose power of ten would take unbounded time to build."""
    exponent = text.lower().partition("e")[2].strip()
    if exponent.lstrip("+-").replace("_", "").isdecimal() and abs(int(exponent)) > _MAX_EXPONENT:
        raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT} in magnitude")
    return Fraction(text)


class RationalField:
    """Exact rational coefficients (arbitrary-precision Fraction)."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return _fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def sum(self, values):
        return sum(values, Fraction(0))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_q for a word-sized prime q; elements are ints in [0, q)."""

    def __init__(self, q: int):
        if not (2 <= q < 2**62):
            raise ValueError(f"prime field modulus out of range: {q}")
        if not _is_probable_prime(q):
            raise ValueError(f"prime field modulus not prime: {q}")
        self.q = q
        self.name = f"F{q}"
        self.zero = 0
        self.one = 1 % q

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.q
        if isinstance(value, Fraction):
            den = value.denominator % self.q
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.q}")
            return value.numerator % self.q * pow(den, -1, self.q) % self.q
        if isinstance(value, str):
            return self.coerce(_fraction(value))
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return a * b % self.q

    def neg(self, a):
        return -a % self.q

    def sum(self, values):
        return sum(values) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, -1, self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("Fq", self.q))

    def __repr__(self):
        return self.name


QQ = RationalField()


def parse_field(spec: str):
    """Parse a field spec: ``q`` for the rationals or ``fp:65521`` for F_q,
    ignoring case and outer spaces."""
    spec = spec.strip().lower()
    if spec == "q":
        return QQ
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r} (expected 'q' or 'fp:Q')")


# ---------------------------------------------------------------------------
# variable tables
# ---------------------------------------------------------------------------

class VarTable:
    """An ordered list of distinct variable names, fixed after creation."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for n in names:
            if not n or not (n[0].isalpha()) or not all(c.isalnum() or c == "_" for c in n):
                raise ValueError(f"invalid variable name {n!r}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, VarTable) and other.names == self.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({', '.join(self.names)})"


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True, repr=False)
class MonomialOrder:
    """A total order on monomials compatible with multiplication.

    Every order is an ordered partition of the variables, graded reverse
    lexicographic within each block, earlier blocks dominating.  A ``block``
    order names its blocks; the two orders that fit any table name none:
    ``lex`` puts each variable in a block of its own and ``grevlex`` all of
    them in one.
    """

    blocks: tuple = ()
    kind: str = "block"

    def __post_init__(self):
        blocks = tuple(tuple(b) for b in self.blocks)
        flat = [n for b in blocks for n in b]
        if len(set(flat)) != len(flat):
            raise ValueError("variable repeated across blocks")
        if self.kind not in ("block", "lex", "grevlex") or (self.kind == "block") != bool(blocks):
            raise ValueError(f"malformed monomial order {self.kind!r} {blocks!r}")
        object.__setattr__(self, "blocks", blocks)

    def blocks_for(self, table: VarTable) -> tuple:
        """The blocks as tuples of variable indices of `table`."""
        if self.kind == "lex":
            return tuple((i,) for i in range(len(table)))
        if self.kind == "grevlex":
            return (tuple(range(len(table))),)
        resolved = tuple(tuple(table.index(n) for n in b) for b in self.blocks)
        covered = {i for b in resolved for i in b}
        missing = [n for i, n in enumerate(table.names) if i not in covered]
        if missing:
            raise ValueError(f"block order does not cover variables {missing}")
        return resolved

    def sort_key(self, table: VarTable):
        """The order on `table`: a function from an exponent vector to a tuple
        of non-negative ints, ascending with the monomial.  Each block gives
        its degree, then its degree less each exponent from the last."""
        blocks = self.blocks_for(table)

        def key(exps) -> tuple:
            out = []
            for block in blocks:
                deg = sum([exps[i] for i in block])
                out.append(deg)
                out.extend(deg - exps[i] for i in reversed(block[1:]))
            return tuple(out)

        return key

    def spec(self) -> str:
        if self.kind != "block":
            return self.kind
        return "block(" + " | ".join(",".join(b) for b in self.blocks) + ")"

    def __repr__(self):
        return self.spec()


LEX = MonomialOrder(kind="lex")
GREVLEX = MonomialOrder(kind="grevlex")


def parse_order(spec: str) -> MonomialOrder:
    """Parse ``lex``, ``grevlex`` or ``block(x,y | z,w)``."""
    spec = spec.strip()
    if spec == "lex":
        return LEX
    if spec == "grevlex":
        return GREVLEX
    if spec.startswith("block(") and spec.endswith(")"):
        body = spec[len("block("):-1]
        blocks = []
        for part in body.split("|"):
            names = [n.strip() for n in part.split(",") if n.strip()]
            if not names:
                raise ValueError(f"empty block in order spec {spec!r}")
            blocks.append(names)
        return MonomialOrder(blocks)
    raise ValueError(f"unknown monomial order {spec!r}")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Immutable sparse polynomial over a VarTable and coefficient field."""

    __slots__ = ("table", "field", "terms")

    def __init__(self, table: VarTable, field, terms: Mapping[Exponents, Coeff]):
        clean = {}
        n = len(table)
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise ValueError("exponent vector length does not match VarTable")
            coeff = field.coerce(coeff)
            if coeff:
                clean[tuple(exps)] = coeff
        self.table = table
        self.field = field
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, table, field, terms: dict) -> "Poly":
        # internal fast path: terms already canonical
        p = object.__new__(cls)
        p.table = table
        p.field = field
        p.terms = terms
        return p

    @classmethod
    def zero(cls, table, field) -> "Poly":
        return cls._raw(table, field, {})

    @classmethod
    def const(cls, table, field, value) -> "Poly":
        c = field.coerce(value)
        if not c:
            return cls.zero(table, field)
        return cls._raw(table, field, {(0,) * len(table): c})

    @classmethod
    def var(cls, table, field, name: str) -> "Poly":
        i = table.index(name)
        exps = [0] * len(table)
        exps[i] = 1
        return cls._raw(table, field, {tuple(exps): field.one})

    @classmethod
    def monomial(cls, table, field, exps: Exponents, coeff=1) -> "Poly":
        return cls(table, field, {tuple(exps): coeff})

    @classmethod
    def var_product(cls, table, field, names: Iterable[str]) -> "Poly":
        """The product of distinct variables: one monomial, built at once."""
        exps = [0] * len(table)
        for name in names:
            exps[table.index(name)] = 1
        return cls.monomial(table, field, exps)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self):
        """The coefficient of the constant monomial (zero if absent)."""
        return self.terms.get((0,) * len(self.table), self.field.zero)

    def variables_used(self) -> tuple:
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return tuple(self.table.names[i] for i in sorted(used))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.table == self.table
            and other.field == self.field
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.table, self.field, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Poly"):
        if self.table != other.table:
            raise ValueError("polynomials on different VarTables")
        if self.field != other.field:
            raise ValueError("polynomials over different coefficient fields")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.table, self.field, other)
        self._check_compatible(other)
        f = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            cur = out.get(exps)
            if cur is None:
                out[exps] = c
            else:
                s = f.add(cur, c)
                if not s:
                    del out[exps]
                else:
                    out[exps] = s
        return Poly._raw(self.table, f, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        f = self.field
        return Poly._raw(self.table, f, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.table, self.field, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_compatible(other)
        f = self.field
        mul = f.mul
        out: dict = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                # a tuple of a list: built at its length, unlike one from an iterator
                exps = tuple([x + y for x, y in zip(e1, e2)])
                c = mul(c1, c2)
                cur = out.get(exps)
                if cur is None:
                    out[exps] = c
                else:
                    s = f.add(cur, c)
                    if not s:
                        del out[exps]
                    else:
                        out[exps] = s
        return Poly._raw(self.table, f, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "Poly":
        f = self.field
        c = f.coerce(value)
        if not c:
            return Poly.zero(self.table, f)
        return Poly._raw(self.table, f, {e: f.mul(c, v) for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.const(self.table, self.field, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name: str) -> "Poly":
        """Formal partial derivative with respect to the named variable."""
        i = self.table.index(name)
        f = self.field
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            nexps = exps[:i] + (e - 1,) + exps[i + 1:]
            nc = f.mul(c, f.coerce(e))
            cur = out.get(nexps)
            out[nexps] = nc if cur is None else f.add(cur, nc)
        return Poly(self.table, f, out)

    def substitute(self, bindings: Mapping[str, "Poly"], table: VarTable | None = None) -> "Poly":
        """Simultaneous substitution into `table` (default: this polynomial's).

        A bound variable maps to its target, a Poly on `table` or a constant;
        an unbound one maps by name, and raises ValueError only if it occurs
        and `table` has no variable of that name.

        A target of at most one term, like a variable mapped by name, folds
        into each source term's exponents and coefficient; only the targets
        of two or more terms are multiplied out, in variable order.
        """
        src = self.table
        table = src if table is None else table
        f = self.field
        mul = f.mul
        images = {}
        for name, target in bindings.items():
            i = src.index(name)
            if not isinstance(target, Poly):
                target = Poly.const(table, f, target)
            elif (target.table, target.field) != (table, f):
                raise ValueError("binding target on a different VarTable or field")
            images[i] = target
        # the image of an occurring variable whose target has at most one
        # term, found on first use: the term's (index, exponent) pairs and its
        # coefficient, None for 1; zero is 1 with coefficient 0.  1 is every
        # field's one, and a Fraction compares fast with an int.
        folded: dict = {}
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
                fold = folded.get(i)
                if fold is None:
                    target = images.get(i)
                    if target is None:
                        name = src.names[i]
                        if name not in table:
                            raise ValueError(f"variable {name!r} has no image in target table")
                        fold = folded[i] = (((table.index(name), 1),), None)
                    elif len(target.terms) > 1:
                        if e > 1:
                            key = (i, e)
                            target = powers.get(key)
                            if target is None:
                                target = powers[key] = images[i] ** e
                        term = target if term is None else term * target
                        continue
                    else:
                        at, coeff = next(iter(target.terms.items()), ((), zero))
                        fold = folded[i] = (tuple([(j, t) for j, t in enumerate(at) if t]),
                                            None if coeff == 1 else coeff)
                places, coeff = fold
                for j, t in places:
                    residual[j] += t * e
                if coeff is not None:
                    for _ in range(e):
                        c = mul(c, coeff)
            if not c:  # a variable bound to zero occurs
                continue
            if term is None:
                image = ((tuple(residual), c),)
            else:
                unit = c == 1
                image = [(tuple([r + x for r, x in zip(residual, ex)]), v if unit else mul(c, v))
                         for ex, v in term.terms.items()]
            for ex, v in image:
                cur = out.get(ex)
                if cur is None:
                    out[ex] = v
                else:
                    s = f.add(cur, v)
                    if not s:
                        del out[ex]
                    else:
                        out[ex] = s
        return Poly._raw(table, f, out)

    def evaluate(self, point: Mapping[str, Coeff]):
        """Evaluate at a scalar point; every variable occurring must be bound."""
        return self.substitute(point, VarTable(())).constant_value()

    def to_field(self, field) -> "Poly":
        """Re-coerce all coefficients into another field (e.g. QQ -> F_q)."""
        return Poly(self.table, field, self.terms)

    def rename(self, table: VarTable, mapping: Mapping[str, str] | None = None) -> "Poly":
        """Move to another VarTable; a variable maps to `mapping[name]` where
        that is in `table`, otherwise by name."""
        return self.substitute({a: Poly.var(table, self.field, b)
                                for a, b in (mapping or {}).items()
                                if a in self.table and b in table}, table)

    # -- printing -----------------------------------------------------------

    def sorted_terms(self, order: MonomialOrder = GREVLEX):
        """Terms in descending monomial order."""
        key = order.sort_key(self.table)
        return sorted(self.terms.items(), key=lambda item: key(item[0]), reverse=True)

    def to_str(self, order: MonomialOrder = GREVLEX) -> str:
        return format_terms(self.sorted_terms(order), self.table.names)

    def __repr__(self):
        return f"Poly({self.to_str()})"


def format_terms(terms, names) -> str:
    """The text of (exponents, coefficient) terms, in the order given: the
    one term formatter, which `Poly.to_str` feeds its sorted terms and
    `Ideal.gens_text` each generator's packed terms.  A term prints its
    coefficient, but not a coefficient 1 before a variable (1 is every
    field's one), then its variables in the order of `names`, each with its
    exponent above 1; a negative rational prints as a minus sign."""
    parts = []
    for exps, coeff in terms:
        mono = "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e])
        negative = isinstance(coeff, Fraction) and coeff.numerator < 0
        mag = -coeff if negative else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if parts:
            parts.append(f" - {body}" if negative else f" + {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return "".join(parts) or "0"


def poly_prod(polys: Iterable[Poly], table: VarTable, field) -> Poly:
    total = Poly.const(table, field, 1)
    for p in polys:
        total = total * p
    return total


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Syntax or identifier error, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, self.pos
        c = self.text[self.pos]
        if c.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", self.text[self.pos:j]), self.pos
        if c.isalpha():
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("name", self.text[self.pos:j]), self.pos
        if c in "+-*/^()":
            return ("op", c), self.pos
        raise ParseError(f"unexpected character {c!r}", self.pos)

    def next(self):
        tok, pos = self.peek()
        if tok is not None:
            self.pos = pos + len(tok[1])
        return tok, pos


def parse_poly(text: str, table: VarTable, field=QQ) -> Poly:
    """Parse an ASCII polynomial expression into canonical form.

    Grammar: expr := ('+'|'-')? term (('+'|'-') term)*; term := factor
    ('*' factor)*; factor := base ('^' uint)?; base := rational | identifier
    | '(' expr ')'.  Whitespace is insignificant.
    """
    tz = _Tokenizer(text)

    def parse_expr() -> Poly:
        tok, _ = tz.peek()
        negate = False
        if tok == ("op", "+") or tok == ("op", "-"):
            tz.next()
            negate = tok[1] == "-"
        result = parse_term()
        if negate:
            result = -result
        while True:
            tok, _ = tz.peek()
            if tok == ("op", "+"):
                tz.next()
                result = result + parse_term()
            elif tok == ("op", "-"):
                tz.next()
                result = result - parse_term()
            else:
                return result

    def parse_term() -> Poly:
        result = parse_factor()
        while True:
            tok, _ = tz.peek()
            if tok == ("op", "*"):
                tz.next()
                result = result * parse_factor()
            else:
                return result

    def parse_factor() -> Poly:
        base = parse_base()
        tok, _ = tz.peek()
        if tok == ("op", "^"):
            tz.next()
            tok, pos = tz.next()
            if tok is None or tok[0] != "int":
                raise ParseError("expected integer exponent after '^'", pos)
            return base ** int(tok[1])
        return base

    def parse_base() -> Poly:
        tok, pos = tz.next()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        kind, value = tok
        if kind == "int":
            num = int(value)
            tok2, _ = tz.peek()
            if tok2 == ("op", "/"):
                tz.next()
                tok3, pos3 = tz.next()
                if tok3 is None or tok3[0] != "int":
                    raise ParseError("expected integer denominator after '/'", pos3)
                den = int(tok3[1])
                if den == 0:
                    raise ParseError("zero denominator", pos3)
                return Poly.const(table, field, Fraction(num, den))
            return Poly.const(table, field, num)
        if kind == "name":
            if value not in table:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return Poly.var(table, field, value)
        if tok == ("op", "("):
            inner = parse_expr()
            tok2, pos2 = tz.next()
            if tok2 != ("op", ")"):
                raise ParseError("expected ')'", pos2)
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)

    try:
        result = parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", tz.pos) from None
    tok, pos = tz.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", pos)
    return result
