"""Quantum torus algebra with exact Laurent-polynomial coefficients.

The torus has generators w_1..w_N subject to w_i w_j = q^{-2 eps_ij} w_j w_i,
where eps is a skew-symmetric half-integer form.  We work over Z[v, v^-1] with
q = v^2 and store the integer matrix E = 2*eps, so every phase that appears is
an integer power of v.  Elements are kept in the Weyl (symmetric-ordered)
monomial basis

    :w^a: ,  a in Z^N,

with the product rule  :w^a: :w^b: = v^{-a.E.b} :w^{a+b}:  (a.E.b = a^T E b).

The pairing is bilinear, so the product computes the row vector a^T E once per
distinct left exponent vector a, memoised on the SkewForm; each phase is then
one dot product with b.
"""

from __future__ import annotations

from operator import add, mul


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
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            parts.append(f"{c}" if k == 0 else f"{c}*v^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.render()


class _Rows(dict):
    """The memo of one skew form: exponent tuple a -> the row vector a^T E.

    A missing row is computed on first lookup.  E is skew, so entry j of
    a^T E is -(E a)_j, one dot product per generator.
    """

    __slots__ = ("E",)

    def __init__(self, E):
        super().__init__()
        self.E = E

    def __missing__(self, a):
        row = self[a] = tuple(-sum(map(mul, e, a)) for e in self.E)
        return row


class SkewForm:
    """The commutation data of the torus: an integer skew-symmetric matrix E = 2*eps.

    rows memoises a^T E for every exponent tuple a looked up in it.
    """

    __slots__ = ("E", "n", "rows")

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
        self.rows = _Rows(self.E)

    def pairing(self, a, b) -> int:
        """a^T E b for integer exponent vectors a, b."""
        return sum(map(mul, self.rows[tuple(a)], b))

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


class QElem:
    """An element of the quantum torus in the Weyl monomial basis.

    terms maps an exponent vector (tuple of ints of length form.n) to its
    QScalar coefficient; zero coefficients are never stored.
    """

    __slots__ = ("form", "terms")

    def __init__(self, form: SkewForm, terms=None):
        self.form = form
        clean = {}
        if terms:
            for exps, c in terms.items():
                key = tuple(int(e) for e in exps)
                if len(key) != form.n:
                    raise ValueError("exponent vector has wrong length")
                if not c.is_zero():
                    clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls, form: SkewForm) -> "QElem":
        return cls(form)

    @classmethod
    def one(cls, form: SkewForm) -> "QElem":
        return cls(form, {(0,) * form.n: QScalar.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "QElem") -> "QElem":
        form = _same_form(self, other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = s
        res = QElem.__new__(QElem)
        res.form = form
        res.terms = out
        return res

    def __neg__(self) -> "QElem":
        res = QElem.__new__(QElem)
        res.form = self.form
        res.terms = {exps: -c for exps, c in self.terms.items()}
        return res

    def __sub__(self, other: "QElem") -> "QElem":
        return self + (-other)

    def scale(self, c: QScalar) -> "QElem":
        out = {}
        for exps, x in self.terms.items():
            p = x * c
            if not p.is_zero():
                out[exps] = p
        res = QElem.__new__(QElem)
        res.form = self.form
        res.terms = out
        return res

    def __mul__(self, other: "QElem") -> "QElem":
        return qmul(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QElem)
            and self.form == other.form
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.form, frozenset((e, c) for e, c in self.terms.items())))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps].render()
            body = ",".join(str(e) for e in exps)
            parts.append(f"({coeff}) * w[{body}]")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.render()


def weyl(form: SkewForm, exponents, coeff: QScalar | None = None) -> QElem:
    """The Weyl-ordered monomial :w^a: (optionally scaled by a coefficient)."""
    return QElem(form, {tuple(exponents): QScalar.one() if coeff is None else coeff})


def qmul(x: QElem, y: QElem) -> QElem:
    """Product in the torus: :w^a: :w^b: = v^{-a.E.b} :w^{a+b}:."""
    form = _same_form(x, y)
    sums = {}
    add_product(sums, x, y)
    return from_sums(form, sums)


def add_product(sums, x: QElem, y: QElem) -> None:
    """Add the terms of x y into flat sums {exps: {v-power: int}}.

    The row a^T E is looked up once per left term, and each coefficient
    product lands in the plain map of its result monomial, so a sum of many
    products builds no QScalar or QElem until from_sums.
    """
    rows = _same_form(x, y).rows
    right = [(eb, cb.terms.items()) for eb, cb in y.terms.items()]
    for ea, ca in x.terms.items():
        row = rows[ea]
        left = ca.terms.items()
        for eb, cb in right:
            shift = sum(map(mul, row, eb))
            key = tuple(map(add, ea, eb))
            acc = sums.get(key)
            if acc is None:
                acc = sums[key] = {}
            for k1, c1 in left:
                for k2, c2 in cb:
                    k = k1 + k2 - shift
                    acc[k] = acc.get(k, 0) + c1 * c2


def from_sums(form: SkewForm, sums) -> QElem:
    """The QElem of flat sums {exps: {v-power: int}}, zeros dropped."""
    out = {}
    for key, acc in sums.items():
        terms = {k: c for k, c in acc.items() if c}
        if terms:
            c = QScalar.__new__(QScalar)
            c.terms = terms
            out[key] = c
    res = QElem.__new__(QElem)
    res.form = form
    res.terms = out
    return res


def invert_monomial(x: QElem) -> QElem:
    """Invert a single Weyl monomial with unit coefficient +-v^k.

    Since a.E.a = 0, the inverse of c :w^a: is c^-1 :w^{-a}: with no extra
    phase.  Anything that is not such a monomial raises NotAUnit.
    """
    if len(x.terms) != 1:
        raise NotAUnit("not a single monomial")
    (exps, c), = x.terms.items()
    if len(c.terms) != 1:
        raise NotAUnit("coefficient is not a monomial in v")
    (k, n), = c.terms.items()
    if n not in (1, -1):
        raise NotAUnit("coefficient is not a unit of Z[v, v^-1]")
    return weyl(x.form, tuple(-e for e in exps), QScalar({-k: n}))
