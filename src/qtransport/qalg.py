"""Quantum torus algebra with exact Laurent-polynomial coefficients.

The torus has generators w_1..w_N subject to w_i w_j = q^{-2 eps_ij} w_j w_i,
where eps is a skew-symmetric half-integer form.  We work over Z[v, v^-1] with
q = v^2 and store the integer matrix E = 2*eps, so every phase that appears is
an integer power of v.  Elements are kept in the Weyl (symmetric-ordered)
monomial basis

    :w^a: ,  a in Z^N,

with the product rule  :w^a: :w^b: = v^{-a.E.b} :w^{a+b}:  (a.E.b = a^T E b).

A QElem stores each term c v^k :w^a: under one int key, its code

    code(a, k) = sum_i a_i 2^(16 i) + k 2^(16 N),

signed 16-bit digits a_i with k above them, unbounded.  Codes add like
exponents, so a term product is one sum, code(a, k) + code(b, l) -
(a.E.b << 16 N), with a and the row a^T E memoised per form by the code of
:w^a:; the reversed product :w^b: :w^a: adds the same shifted phase
instead.  Sums, scaling by v-powers and the inverse of a unit monomial
(code -> -code) are int-keyed dict work.  Rendering reads the digits
a_i + 2^15 of code + offset as one UTF-16 code point each (see QElem.render).
Exactness: the span of a QElem bounds every |a_i| of its terms and stays
below LIMIT = 2^14; a product refuses x.span + y.span >= LIMIT with
ValueError before it adds anything.  So a digit sum stays below 2^15 in size
and never carries into the next digit.
"""

from __future__ import annotations

import struct
from operator import itemgetter, mul

LIMIT = 1 << 14  # every stored span is below this


class NotAUnit(ValueError):
    """Raised when a monomial inverse is requested for a non-invertible element."""


class QScalar:
    """A Laurent polynomial in v with integer coefficients, stored sparsely."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: {v-exponent: coefficient}, zero coefficients dropped
        clean = {}
        if terms:
            for k, c in terms.items():
                if c:
                    clean[int(k)] = int(c)
        self.terms = clean

    @classmethod
    def zero(cls) -> "QScalar":
        return cls()

    @classmethod
    def one(cls) -> "QScalar":
        return cls({0: 1})

    @classmethod
    def from_int(cls, n: int) -> "QScalar":
        return cls({0: n})

    @classmethod
    def v_power(cls, k: int) -> "QScalar":
        return cls({k: 1})

    @classmethod
    def q_power(cls, k: int) -> "QScalar":
        """q^k with q = v^2."""
        return cls({2 * k: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "QScalar") -> "QScalar":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = QScalar.__new__(QScalar)
        res.terms = out
        return res

    def __neg__(self) -> "QScalar":
        res = QScalar.__new__(QScalar)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __mul__(self, other: "QScalar") -> "QScalar":
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = QScalar.__new__(QScalar)
        res.terms = out
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, QScalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self) -> str:
        return _laurent(self.terms)

    def __repr__(self) -> str:
        return self.render()


def _laurent(terms) -> str:
    """c v^k terms {k: c} as "c*v^k" ("c" at k = 0) in increasing k; "0" if none."""
    if not terms:
        return "0"
    return " + ".join(
        [f"{c}" if k == 0 else f"{c}*v^{k}" for k, c in sorted(terms.items())]
    )


class _Digits(dict):
    """Text "a_1,a_2,...," of a run of digits, each the code point a_i + 2^15.

    Filled on first lookup; render looks up runs of at most _CHUNK digits.
    """

    __slots__ = ()

    def __missing__(self, run):
        text = self[run] = "".join([f"{ord(ch) - 0x8000}," for ch in run])
        return text


_DIGITS = _Digits()
_CHUNK = 8  # digits per cached run


class _Rows(dict):
    """Monomial code of :w^a: -> (a, a^T E, pick, vals), computed on first lookup.

    E is skew, so entry j of a^T E is -(E a)_j, one dot product per generator.
    vals holds the nonzero entries of a^T E and pick takes the entries of b
    at their indices, so a^T E b is sum(map(mul, vals, pick(b))).  pick is
    an itemgetter; for one index or none it takes a slice, which is still a
    tuple.
    """

    __slots__ = ("form",)

    def __missing__(self, code):
        a = self.form.decode(code)[0]
        row = tuple(-sum(map(mul, e, a)) for e in self.form.E)
        nz = [j for j, e in enumerate(row) if e]
        if len(nz) > 1:
            pick = itemgetter(*nz)
        else:
            pick = itemgetter(slice(nz[0], nz[0] + 1) if nz else slice(0))
        memo = self[code] = a, row, pick, tuple([row[j] for j in nz])
        return memo


class SkewForm:
    """The commutation data of the torus: an integer skew-symmetric matrix E = 2*eps.

    It also holds the codec of packed terms and the memo rows (see _Rows).
    """

    __slots__ = ("E", "n", "shift", "offset", "fmt", "rows")

    def __init__(self, E):
        rows = [tuple(int(x) for x in row) for row in E]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("E must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("E must be skew-symmetric")
        self.E = tuple(rows)
        self.n = n
        self.shift = 16 * n  # bits below k in a code
        # 2^15 in every digit: code + offset has the digits a_i + 2^15 >= 0.
        self.offset = int.from_bytes(b"\x00\x80" * n, "little")
        self.fmt = f"<{n}h"
        self.rows = _Rows()
        self.rows.form = self

    def encode(self, exps, k=0) -> int:
        """The code of v^k :w^exps:, for digits below 2^15 in size."""
        u = int.from_bytes(struct.pack(self.fmt, *exps), "little")
        return (u ^ self.offset) - self.offset + (k << self.shift)

    def decode(self, code):
        """(exponent tuple, k) of a code: the inverse of encode."""
        c = code + self.offset
        k = c >> self.shift
        # XOR turns each digit a_i + 2^15 into a_i mod 2^16, a signed short.
        low = (c - (k << self.shift)) ^ self.offset
        return struct.unpack(self.fmt, low.to_bytes(2 * self.n, "little")), k

    def pairing(self, a, b) -> int:
        """a^T E b for integer exponent vectors a, b."""
        return sum(map(mul, self.rows[self.encode(a)][1], b))

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewForm) and self.E == other.E

    def __hash__(self):
        return hash(self.E)

    def __repr__(self) -> str:
        return f"SkewForm({[list(r) for r in self.E]})"


def _same_form(a: "QElem", b: "QElem") -> SkewForm:
    if a.form is not b.form and a.form != b.form:
        raise ValueError("elements live on different quantum tori")
    return a.form


def check_span(span, what="torus exponents"):
    """Refuse a span that packed terms cannot hold exactly."""
    if span >= LIMIT:
        raise ValueError(
            f"{what} may reach {span} in size; packed terms hold at most {LIMIT - 1}"
        )


class QElem:
    """An element of the quantum torus in the Weyl monomial basis.

    terms maps the code of each term c v^k :w^a: to its nonzero int c, and
    span bounds every |a_i|.  The constructor validates and packs a decoded
    view {exponent tuple: QScalar}.  It compares by value, is not hashable
    and has no *: qmul is the product.
    """

    __slots__ = ("form", "terms", "span")

    def __init__(self, form: SkewForm, terms=None):
        clean, span = {}, 0
        for exps, c in (terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != form.n:
                raise ValueError("exponent vector has wrong length")
            span = max([span, *map(abs, key)])
            check_span(span)
            for k, x in c.terms.items():
                clean[form.encode(key, k)] = x
        self.form, self.terms, self.span = form, clean, span

    @classmethod
    def zero(cls, form: SkewForm) -> "QElem":
        return cls(form)

    @classmethod
    def one(cls, form: SkewForm) -> "QElem":
        return from_sums(form, {0: 1}, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "QElem") -> "QElem":
        form = _same_form(self, other)
        out = dict(self.terms)
        get = out.get
        for code, c in other.terms.items():
            out[code] = get(code, 0) + c
        return from_sums(form, out, max(self.span, other.span))

    def __neg__(self) -> "QElem":
        return from_sums(self.form, {t: -c for t, c in self.terms.items()}, self.span)

    def __sub__(self, other: "QElem") -> "QElem":
        return self + (-other)

    def scale(self, c: QScalar) -> "QElem":
        out = {}
        add_scaled(out, self, c.terms.items())
        return from_sums(self.form, out, self.span)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QElem)
            and self.form == other.form
            and self.terms == other.terms
        )

    def render(self) -> str:
        """Each monomial as "(coefficient) * w[a_1,...,a_N]", in exponent order.

        The low 16N bits of code + offset are 2N little-endian bytes, one
        digit a_i + 2^15 per 16-bit field; read as UTF-16 each digit is one
        code point, never a surrogate since |a_i| < 2^14, so strings of them
        sort as the exponent tuples do.  A monomial's v-powers are grouped
        under its string, and its text is built from cached runs of digits.
        """
        if not self.terms:
            return "0"
        form = self.form
        shift, off, width = form.shift, form.offset, 2 * form.n
        mask = (1 << shift) - 1
        mons = {}
        for code, c in self.terms.items():
            u = code + off
            run = (u & mask).to_bytes(width, "little").decode("utf-16-le")
            coeff = mons.get(run)
            if coeff is None:
                mons[run] = {u >> shift: c}
            else:
                coeff[u >> shift] = c
        cuts = range(0, form.n, _CHUNK)
        digits = _DIGITS
        return " + ".join([
            f"({_laurent(mons[run])}) * w["
            f"{''.join([digits[run[i:i + _CHUNK]] for i in cuts])[:-1]}]"
            for run in sorted(mons)
        ])

    def __repr__(self) -> str:
        return self.render()


def weyl(form: SkewForm, exponents, coeff: QScalar | None = None) -> QElem:
    """The Weyl-ordered monomial :w^a: (optionally scaled by a coefficient)."""
    return QElem(form, {tuple(exponents): QScalar.one() if coeff is None else coeff})


def qmul(x: QElem, y: QElem, rev=None) -> QElem:
    """Product in the torus: :w^a: :w^b: = v^{-a.E.b} :w^{a+b}:.

    With a dict rev, the same pass also adds the terms of y x into it (see
    add_product).
    """
    sums = {}
    return from_sums(x.form, sums, add_product(sums, x, y, rev))


def add_product(sums, x: QElem, y: QElem, rev=None) -> int:
    """Add the terms of x y into flat sums {code: int}, and of y x into rev.

    Each term's monomial code looks up a and the nonzero entries of a^T E
    once, so each term pair is one short dot product and one int key.  E is
    skew, so the pair's term of y x differs only by the phase's sign: with a
    dict rev, one pass serves both orders.  Returns the span of either
    product; raises ValueError, before adding anything, when the span would
    reach LIMIT.
    """
    form = x.form
    if y.form is not form:
        _same_form(x, y)
    span = x.span + y.span
    if span >= LIMIT:
        check_span(span)
    shift, off, rows = form.shift, form.offset, form.rows
    # a loop, not a comprehension: most products have one term on each side
    right = []
    for tb, cb in y.terms.items():
        right.append((tb, cb, rows[tb - ((tb + off) >> shift << shift)][0]))
    get = sums.get
    for ta, ca in x.terms.items():
        _, _, pick, vals = rows[ta - ((ta + off) >> shift << shift)]
        for tb, cb, eb in right:
            phase = sum(map(mul, vals, pick(eb))) << shift
            c = ca * cb
            key = ta + tb - phase
            sums[key] = get(key, 0) + c
            if rev is not None:
                key = ta + tb + phase
                rev[key] = rev.get(key, 0) + c
    return span


def add_scaled(sums, x: QElem, coeff) -> None:
    """Add x times a Laurent polynomial, given as (v-power, int) pairs, into sums."""
    shift = x.form.shift
    get = sums.get
    for k, ck in coeff:
        dk = k << shift
        for code, cx in x.terms.items():
            key = code + dk
            sums[key] = get(key, 0) + cx * ck


def from_sums(form: SkewForm, sums, span) -> QElem:
    """The QElem of flat sums {code: int} within span; it owns sums if no zeros."""
    res = QElem.__new__(QElem)
    res.form, res.span = form, span
    res.terms = sums if all(sums.values()) else {t: c for t, c in sums.items() if c}
    return res


def invert_monomial(x: QElem) -> QElem:
    """Invert a single Weyl monomial with unit coefficient +-v^k.

    Since a.E.a = 0, the inverse of c :w^a: is c^-1 :w^{-a}: with no extra
    phase, and its code is minus the code of c :w^a:.  Anything that is not
    such a monomial raises NotAUnit.
    """
    if len({x.form.decode(code)[0] for code in x.terms}) != 1:
        raise NotAUnit("not a single monomial")
    if len(x.terms) != 1:
        raise NotAUnit("coefficient is not a monomial in v")
    (code, n), = x.terms.items()
    if n not in (1, -1):
        raise NotAUnit("coefficient is not a unit of Z[v, v^-1]")
    return from_sums(x.form, {-code: n}, x.span)
