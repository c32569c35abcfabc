"""Tests for the quantum-torus coefficient ring and Weyl-ordered elements.

Expected values in the frozen tests were computed by hand from the defining
relations (w_i w_j = q^{-2 eps_ij} w_j w_i with q = v^2 and E = 2*eps) before
the implementation was written.  The memoised product is checked against a
straightforward term-by-term product kept here as the oracle.
"""

import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransport import qalg
from qtransport.ncmat import QMatrix, matmul
from qtransport.network import build_triangle, transport_matrix
from qtransport.qalg import (
    NotAUnit,
    QElem,
    QScalar,
    SkewForm,
    invert_monomial,
    qmul,
    weyl,
)
from qtransport.verify import check_rtt


# ---------------------------------------------------------------------------
# reference oracles: the decoded view, the double-loop pairing, the
# term-by-term product and the tuple-sorted rendering
# ---------------------------------------------------------------------------


def monomials(x):
    """The decoded view {exponent tuple: QScalar} of a QElem."""
    out = {}
    for code, c in x.terms.items():
        exps, k = x.form.decode(code)
        out.setdefault(exps, {})[k] = c
    return {exps: QScalar(c) for exps, c in out.items()}


def oracle_render(x):
    """QElem.render through exponent tuples sorted as tuples and str of each digit."""
    if not x.terms:
        return "0"
    mons = monomials(x)
    parts = []
    for exps in sorted(mons):
        c = mons[exps].terms
        coeff = " + ".join(f"{c[k]}" if k == 0 else f"{c[k]}*v^{k}" for k in sorted(c))
        parts.append(f"({coeff}) * w[{','.join(map(str, exps))}]")
    return " + ".join(parts)


def oracle_pairing(form, a, b):
    """a^T E b as a double loop over the nonzero exponents."""
    E = form.E
    total = 0
    for i, ai in enumerate(a):
        if ai:
            row = E[i]
            total += ai * sum(row[j] * bj for j, bj in enumerate(b) if bj)
    return total


def oracle_qmul(x, y):
    """:w^a: :w^b: = v^{-a.E.b} :w^{a+b}: term by term, in QScalar arithmetic."""
    form = x.form
    out = {}
    for ea, ca in monomials(x).items():
        for eb, cb in monomials(y).items():
            key = tuple(a + b for a, b in zip(ea, eb))
            c = (ca * cb) * QScalar.v_power(-oracle_pairing(form, ea, eb))
            s = out.get(key)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return QElem(form, out)


# ---------------------------------------------------------------------------
# scalar ring Z[v, v^-1]
# ---------------------------------------------------------------------------


def test_scalar_basic_arithmetic():
    v = QScalar.v_power(1)
    vm = QScalar.v_power(-1)
    s = v + vm
    assert s * s == QScalar({2: 1, 0: 2, -2: 1})
    assert s - s == QScalar.zero()
    assert (v - vm) * (v + vm) == QScalar({2: 1, -2: -1})
    assert QScalar.from_int(3) * QScalar.v_power(-2) == QScalar({-2: 3})
    assert -v == QScalar({1: -1})


def test_scalar_q_power_is_v_squared():
    assert QScalar.q_power(1) == QScalar.v_power(2)
    assert QScalar.q_power(-3) == QScalar.v_power(-6)


def test_scalar_zero_one():
    assert QScalar.zero().is_zero()
    assert not QScalar.one().is_zero()
    assert QScalar.one() * QScalar.v_power(5) == QScalar.v_power(5)
    assert QScalar.zero() * QScalar.v_power(5) == QScalar.zero()
    assert QScalar({3: 0}) == QScalar.zero()


def bar(x):
    """The bar involution v -> v^-1, which reverses products.

    On a QElem it fixes the Weyl monomials :w^a:, so it acts on the
    coefficients only.
    """
    if isinstance(x, QScalar):
        return QScalar({-k: c for k, c in x.terms.items()})
    return QElem(x.form, {exps: bar(c) for exps, c in monomials(x).items()})


def test_scalar_bar_frozen():
    # bar: v -> v^-1, fixed on integers
    s = QScalar({2: 1, -2: -1})  # v^2 - v^-2
    assert bar(s) == QScalar({-2: 1, 2: -1})
    assert bar(bar(s)) == s
    assert bar(QScalar.from_int(7)) == QScalar.from_int(7)


def test_scalar_render_frozen():
    assert QScalar.zero().render() == "0"
    assert QScalar.one().render() == "1"
    assert QScalar.from_int(-3).render() == "-3"
    assert QScalar({2: 1, -2: -1}).render() == "-1*v^-2 + 1*v^2"
    assert QScalar({0: 2, 3: 1}).render() == "2 + 1*v^3"
    assert QScalar({1: -4}).render() == "-4*v^1"


def test_scalar_add_and_mul():
    x = QScalar({1: 2})
    y = QScalar({0: 1})
    assert x + y == QScalar({1: 2, 0: 1})
    assert x * y == x


# ---------------------------------------------------------------------------
# skew form
# ---------------------------------------------------------------------------


def test_skewform_validates():
    SkewForm([[0, 2], [-2, 0]])
    with pytest.raises(ValueError):
        SkewForm([[0, 2], [2, 0]])
    with pytest.raises(ValueError):
        SkewForm([[1]])
    with pytest.raises(ValueError):
        SkewForm([[0, 2]])


def test_skewform_pairing():
    form = SkewForm([[0, 2], [-2, 0]])
    assert form.pairing((1, 0), (0, 1)) == 2
    assert form.pairing((0, 1), (1, 0)) == -2
    assert form.pairing((1, 1), (1, 1)) == 0
    assert form.n == 2


# ---------------------------------------------------------------------------
# Weyl-ordered elements: frozen products
# ---------------------------------------------------------------------------

FORM2 = SkewForm([[0, 2], [-2, 0]])  # eps_12 = 1


def test_weyl_monomial_has_unit_coefficient():
    x = weyl(FORM2, (1, 0))
    assert monomials(x) == {(1, 0): QScalar.one()}


def test_qmul_generators_frozen():
    w1 = weyl(FORM2, (1, 0))
    w2 = weyl(FORM2, (0, 1))
    # w1 * w2 = v^{-(1,0).E.(0,1)} :w^(1,1): = v^-2 :w^(1,1):
    assert qmul(w1, w2) == weyl(FORM2, (1, 1), QScalar.v_power(-2))
    assert qmul(w2, w1) == weyl(FORM2, (1, 1), QScalar.v_power(2))


def test_qmul_is_commutation_relation():
    # w1 w2 = q^{-2 eps_12} w2 w1 with eps_12 = 1, i.e. factor v^-4
    w1 = weyl(FORM2, (1, 0))
    w2 = weyl(FORM2, (0, 1))
    lhs = qmul(w1, w2)
    rhs = qmul(w2, w1).scale(QScalar.q_power(-2))
    assert lhs == rhs


def test_qmul_sum_distributes_frozen():
    w1 = weyl(FORM2, (1, 0))
    w2 = weyl(FORM2, (0, 1))
    s = w1 + w2
    p = qmul(s, s)
    expected = (
        weyl(FORM2, (2, 0))
        + weyl(FORM2, (0, 2))
        + weyl(FORM2, (1, 1), QScalar({-2: 1, 2: 1}))
    )
    assert p == expected


def test_qelem_add_cancels():
    x = weyl(FORM2, (1, 0))
    assert (x - x).is_zero()
    assert (x + (-x)).is_zero()


def test_qelem_scale():
    x = weyl(FORM2, (1, 0))
    assert x.scale(QScalar.zero()).is_zero()
    assert x.scale(QScalar.from_int(2)) == weyl(FORM2, (1, 0), QScalar.from_int(2))


def test_qelem_one():
    one = QElem.one(FORM2)
    x = weyl(FORM2, (1, -2), QScalar({3: 2}))
    assert qmul(one, x) == x
    assert qmul(x, one) == x


def test_qelem_render_frozen():
    form3 = SkewForm([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    x = weyl(form3, (1, 0, -1), QScalar({2: 1, -2: -1}))
    assert x.render() == "(-1*v^-2 + 1*v^2) * w[1,0,-1]"
    assert QElem.zero(form3).render() == "0"
    two_terms = weyl(form3, (1, 0, 0)) + weyl(form3, (0, 2, 0), QScalar({1: 2}))
    assert two_terms.render() == "(2*v^1) * w[0,2,0] + (1) * w[1,0,0]"
    assert QElem.one(form3).render() == "(1) * w[0,0,0]"


def test_qelem_bar_is_coefficientwise():
    x = weyl(FORM2, (1, 1), QScalar({2: 1}))
    assert bar(x) == weyl(FORM2, (1, 1), QScalar({-2: 1}))


# ---------------------------------------------------------------------------
# monomial inversion
# ---------------------------------------------------------------------------


def test_invert_monomial_frozen():
    x = weyl(FORM2, (1, 2), QScalar.v_power(3))
    xi = invert_monomial(x)
    assert xi == weyl(FORM2, (-1, -2), QScalar.v_power(-3))
    assert qmul(x, xi) == QElem.one(FORM2)
    assert qmul(xi, x) == QElem.one(FORM2)


def test_invert_monomial_negative_unit():
    x = weyl(FORM2, (0, 1), QScalar({-1: -1}))
    xi = invert_monomial(x)
    assert qmul(x, xi) == QElem.one(FORM2)
    assert qmul(xi, x) == QElem.one(FORM2)


def test_invert_monomial_rejects_nonunits():
    with pytest.raises(NotAUnit):
        invert_monomial(weyl(FORM2, (1, 0)) + weyl(FORM2, (0, 1)))
    with pytest.raises(NotAUnit):
        invert_monomial(weyl(FORM2, (1, 0), QScalar.from_int(2)))
    with pytest.raises(NotAUnit):
        invert_monomial(weyl(FORM2, (1, 0), QScalar({0: 1, 1: 1})))
    with pytest.raises(NotAUnit):
        invert_monomial(QElem.zero(FORM2))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


def random_form(rng, n):
    e = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e[i][j] = rng.randint(-3, 3)
            e[j][i] = -e[i][j]
    return SkewForm(e)


def random_scalar(rng):
    return QScalar({rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(1, 2))})


def random_elem(rng, form):
    x = QElem.zero(form)
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(-2, 2) for _ in range(form.n))
        x = x + weyl(form, exps, random_scalar(rng))
    return x


def test_qmul_associative_bulk():
    rng = random.Random(20250815)
    for trial in range(1000):
        form = random_form(rng, rng.randint(1, 6))
        x, y, z = (random_elem(rng, form) for _ in range(3))
        assert qmul(qmul(x, y), z) == qmul(x, qmul(y, z)), f"trial {trial}"


@st.composite
def skew_forms(draw, n):
    upper = draw(
        st.lists(
            st.integers(min_value=-2, max_value=2),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    e = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            e[i][j] = upper[k]
            e[j][i] = -upper[k]
            k += 1
    return SkewForm(e)


def exponents(n):
    return st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)


@st.composite
def elems(draw, form):
    x = QElem.zero(form)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        coeff = QScalar(
            draw(
                st.dictionaries(
                    st.integers(min_value=-2, max_value=2),
                    st.integers(min_value=-2, max_value=2),
                    min_size=1,
                    max_size=2,
                )
            )
        )
        x = x + weyl(form, draw(exponents(form.n)), coeff)
    return x


@st.composite
def form_and_elems(draw, count):
    form = draw(skew_forms(draw(st.integers(min_value=1, max_value=4))))
    return form, [draw(elems(form)) for _ in range(count)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(form_and_elems(2))
def test_qmul_matches_oracle(data):
    _, (x, y) = data
    assert qmul(x, y) == oracle_qmul(x, y)
    assert qmul(y, x) == oracle_qmul(y, x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(form_and_elems(3))
def test_qmul_leaves_the_reversed_product_in_rev(data):
    # one pass gives x y and adds y x into rev, fresh or already holding terms
    _, (x, y, z) = data
    rev = {}
    assert qmul(x, y, rev=rev) == oracle_qmul(x, y)
    span = x.span + y.span
    assert qalg.from_sums(x.form, rev, span) == oracle_qmul(y, x)
    rev = dict(z.terms)
    assert qmul(x, y, rev=rev) == oracle_qmul(x, y)
    assert qalg.from_sums(x.form, rev, max(span, z.span)) == z + oracle_qmul(y, x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(form_and_elems(3))
def test_qmul_associative_hypothesis(data):
    _, (x, y, z) = data
    assert qmul(qmul(x, y), z) == qmul(x, qmul(y, z))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(form_and_elems(2))
def test_bar_antiautomorphism(data):
    _, (x, y) = data
    assert bar(qmul(x, y)) == qmul(bar(y), bar(x))
    assert bar(bar(x)) == x


@st.composite
def form_and_vectors(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return draw(skew_forms(n)), [draw(exponents(n)) for _ in range(3)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(form_and_vectors(), st.integers(-3, 3), st.integers(-3, 3))
def test_pairing_is_bilinear_and_skew(data, s, t):
    form, (a, b, c) = data
    sa_tb = tuple(s * ai + t * bi for ai, bi in zip(a, b))
    p = form.pairing
    assert p(a, b) == oracle_pairing(form, a, b)
    assert p(sa_tb, c) == s * p(a, c) + t * p(b, c)
    assert p(c, sa_tb) == s * p(c, a) + t * p(c, b)
    assert p(a, b) == -p(b, a)
    assert p(a, a) == 0


@st.composite
def two_forms(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    first = draw(skew_forms(n))
    second = draw(skew_forms(n).filter(lambda f: f != first))
    return first, second


@settings(max_examples=100, deadline=None, derandomize=True)
@given(two_forms(), st.data())
def test_row_memo_is_per_form(forms, data):
    first, second = forms
    n = first.n
    a, b = data.draw(exponents(n)), data.draw(exponents(n))
    x1, y1 = weyl(first, a), weyl(first, b)
    x2, y2 = weyl(second, a), weyl(second, b)
    assert qmul(x1, y1) == oracle_qmul(x1, y1)
    assert qmul(x2, y2) == oracle_qmul(x2, y2)
    # generators where the two forms differ multiply to different phases
    i, j = next(
        (i, j) for i in range(n) for j in range(n) if first.E[i][j] != second.E[i][j]
    )
    unit = [tuple(int(k == m) for k in range(n)) for m in (i, j)]
    p1 = qmul(weyl(first, unit[0]), weyl(first, unit[1]))
    p2 = qmul(weyl(second, unit[0]), weyl(second, unit[1]))
    assert monomials(p1) != monomials(p2)


def test_rtt_memoises_each_transport_exponent_once(monkeypatch):
    # check_rtt multiplies transport entries only, and the product looks up
    # a^T E once per left monomial instead of pairing term by term: the memo
    # ends up holding exactly the codes of the distinct exponent vectors of
    # the entries, each computed once, and pairing is never called.
    computed = []
    missing = qalg._Rows.__missing__

    def counting(rows, a):
        computed.append(a)
        return missing(rows, a)

    def per_pair(form, a, b):
        raise AssertionError("qmul paired a term pair")

    monkeypatch.setattr(qalg._Rows, "__missing__", counting)
    monkeypatch.setattr(SkewForm, "pairing", per_pair)
    m = transport_matrix(build_triangle(3))
    assert check_rtt(m).passed
    form = m.form
    distinct = {form.encode(e) for row in m.data for x in row for e in monomials(x)}
    assert sorted(computed) == sorted(distinct)
    assert set(form.rows) == distinct
    units = [tuple(int(k == j) for k in range(form.n)) for j in range(form.n)]
    for code, (a, row, pick, vals) in form.rows.items():
        assert form.decode(code) == (a, 0)
        assert row == tuple(oracle_pairing(form, a, u) for u in units)
        # the sparse phase: vals are the nonzero entries of a^T E, in order
        assert vals == tuple(e for e in row if e)
        assert [sum(map(mul, vals, pick(u))) for u in units] == list(row)


def test_generator_commutation_random_forms():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 6)
        form = random_form(rng, n)
        i, j = rng.randrange(n), rng.randrange(n)
        ei = tuple(1 if k == i else 0 for k in range(n))
        ej = tuple(1 if k == j else 0 for k in range(n))
        wi, wj = weyl(form, ei), weyl(form, ej)
        # w_i w_j = q^{-2 eps_ij} w_j w_i, and E_ij = 2 eps_ij
        factor = QScalar.v_power(-2 * form.E[i][j])
        assert qmul(wi, wj) == qmul(wj, wi).scale(factor)


def test_weyl_reordering_formula():
    # A product of generators in a given order equals
    # v^{-sum_{s<t} E[i_s][i_t]} times the Weyl monomial of the total exponent.
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 5)
        form = random_form(rng, n)
        word = [rng.randrange(n) for _ in range(rng.randint(2, 5))]
        prod = QElem.one(form)
        for i in word:
            prod = qmul(prod, weyl(form, tuple(1 if k == i else 0 for k in range(n))))
        phase = -sum(
            form.E[word[s]][word[t]]
            for s in range(len(word))
            for t in range(s + 1, len(word))
        )
        total = [0] * n
        for i in word:
            total[i] += 1
        assert prod == weyl(form, tuple(total), QScalar.v_power(phase))


def test_invert_monomial_random_roundtrip():
    rng = random.Random(41)
    for _ in range(200):
        form = random_form(rng, rng.randint(1, 5))
        exps = tuple(rng.randint(-3, 3) for _ in range(form.n))
        sign = rng.choice([1, -1])
        x = weyl(form, exps, QScalar({rng.randint(-4, 4): sign}))
        xi = invert_monomial(x)
        assert qmul(x, xi) == QElem.one(form)
        assert qmul(xi, x) == QElem.one(form)


# ---------------------------------------------------------------------------
# packed terms: the codec, the span limit, and a tuple-keyed differential
# ---------------------------------------------------------------------------

TOP = qalg.LIMIT - 1  # the largest digit a stored span allows


def _assert_span_holds(x):
    """Every decoded digit lies within x.span, below the limit; no zero terms."""
    assert x.span < qalg.LIMIT
    for code, c in x.terms.items():
        exps, _ = x.form.decode(code)
        assert all(abs(a) <= x.span for a in exps)
        assert type(c) is int and c


@pytest.mark.parametrize("n", [1, 28, 78])
def test_codes_round_trip_at_the_largest_digits(n):
    form = SkewForm([[0] * n for _ in range(n)])
    rng = random.Random(n)
    vectors = [(TOP,) * n, (-TOP,) * n, (0,) * n]
    digits = (TOP, -TOP, 1, -1, 0)
    vectors += [tuple(rng.choice(digits) for _ in range(n)) for _ in range(4)]
    for a in vectors:
        for k in (0, 1, -1, 2**40, -(2**40)):
            code = form.encode(a, k)
            assert form.decode(code) == (a, k)
            assert form.decode(-code) == (tuple(-x for x in a), -k)
        for b in vectors:
            # digit sums reach 2 * TOP < 2^15 and carry into no neighbour
            total = tuple(x + y for x, y in zip(a, b))
            assert form.decode(form.encode(a, 3) + form.encode(b, -5)) == (total, -2)


def test_constructor_refuses_digits_at_the_limit():
    assert weyl(FORM2, (TOP, -TOP)).span == TOP
    for exps in ((qalg.LIMIT, 0), (0, -qalg.LIMIT)):
        with pytest.raises(ValueError, match="may reach 16384 in size"):
            weyl(FORM2, exps)


def test_product_at_the_span_limit_matches_oracle_and_past_it_raises():
    form = SkewForm([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    half = qalg.LIMIT // 2
    x = weyl(form, (half, -half, 3), QScalar({1: 2, -1: -1})) + weyl(form, (1, 0, -1))
    y = weyl(form, (half - 1, 1 - half, 0), QScalar.v_power(2)) + weyl(form, (0, 2, 1))
    assert (x.span, y.span) == (half, half - 1)
    p = qmul(x, y)
    assert p.span == TOP
    assert (TOP, -TOP, 3) in monomials(p)
    assert p == oracle_qmul(x, y)
    assert qmul(y, x) == oracle_qmul(y, x)
    _assert_span_holds(p)
    # a sum keeps the larger span, so one more factor of 2 crosses the limit
    wide = y + weyl(form, (0, 0, half))
    assert wide.span == half
    with pytest.raises(ValueError, match="may reach 16384 in size"):
        qmul(x, wide)
    with pytest.raises(ValueError, match="may reach 16384 in size"):
        matmul(QMatrix.from_rows(form, [[x]]), QMatrix.from_rows(form, [[wide]]))


def _tuple_add(x, y):
    """x + y on {exps: QScalar} maps, zeros dropped."""
    out = dict(x)
    for exps, c in y.items():
        s = out[exps] + c if exps in out else c
        if s.is_zero():
            out.pop(exps, None)
        else:
            out[exps] = s
    return out


def _wide_elem(rng, form):
    """Up to four monomials, negative digits up to 4096, several v-powers each."""
    x = QElem.zero(form)
    for _ in range(rng.randint(1, 4)):
        exps = tuple(
            rng.choice((rng.randint(-3, 3), rng.randint(-4096, 4096)))
            for _ in range(form.n)
        )
        powers = rng.sample(range(-4, 5), rng.randint(1, 3))
        coeff = QScalar({k: rng.choice((-2, -1, 1, 3)) for k in powers})
        x = x + weyl(form, exps, coeff)
    return x


def test_packed_arithmetic_matches_tuple_oracle():
    rng = random.Random(20261018)
    scalars = [
        QScalar({1: 1, -1: 1}),
        QScalar({2: 1, -2: -1}),
        QScalar({0: -3}),
        QScalar.zero(),
        QScalar.v_power(-5),
    ]
    for trial in range(300):
        form = random_form(rng, rng.randint(1, 5))
        shared = _wide_elem(rng, form)
        # x and y share the terms of shared with opposite signs, so x + y
        # cancels them
        x = shared + _wide_elem(rng, form)
        y = _wide_elem(rng, form) - shared
        mx, my = monomials(x), monomials(y)
        c = rng.choice(scalars + [random_scalar(rng)])
        neg_y = {e: -s for e, s in my.items()}
        cases = [
            (qmul(x, y), monomials(oracle_qmul(x, y))),
            (qmul(y, x), monomials(oracle_qmul(y, x))),
            (x + y, _tuple_add(mx, my)),
            (x - y, _tuple_add(mx, neg_y)),
            (-y, neg_y),
            (x.scale(c), {e: s * c for e, s in mx.items() if not (s * c).is_zero()}),
        ]
        for got, want in cases:
            assert monomials(got) == want, f"trial {trial}"
            assert got == QElem(form, want)
            _assert_span_holds(got)
        exps = next(iter(mx))
        k, sign = rng.randint(-6, 6), rng.choice((1, -1))
        u = weyl(form, exps, QScalar({k: sign}))
        inv = invert_monomial(u)
        assert monomials(inv) == {tuple(-a for a in exps): QScalar({-k: sign})}
        assert qmul(u, inv) == QElem.one(form) == qmul(inv, u)
        _assert_span_holds(inv)
        with pytest.raises(NotAUnit, match="coefficient is not a monomial in v"):
            invert_monomial(u + u.scale(QScalar.v_power(1)))


def _render_elem(rng, n):
    """Up to six monomials sharing prefixes, digits up to TOP in size, and
    coefficients with negative, zero and positive v-powers, some several."""
    digits = (TOP, -TOP, 0, 1, -1, 255, 256, -256, 4096)
    base = [rng.choice((rng.choice(digits), rng.randint(-TOP, TOP))) for _ in range(n)]
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = list(base)
        for i in rng.sample(range(n), min(n, rng.randint(0, 3))):
            exps[i] = rng.choice((rng.choice(digits), rng.randint(-TOP, TOP)))
        powers = rng.sample(range(-5, 6), rng.randint(1, 4))
        terms[tuple(exps)] = QScalar({k: rng.choice((-7, -1, 1, 2, 12)) for k in powers})
    return QElem(SkewForm([[0] * n for _ in range(n)]), terms)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 20])
def test_render_matches_tuple_oracle(n):
    rng = random.Random(1000 + n)
    for _ in range(60):
        x = _render_elem(rng, n)
        assert x.render() == oracle_render(x)
        assert (-x).render() == oracle_render(-x)
    assert QElem.zero(SkewForm([[0] * n for _ in range(n)])).render() == "0"


def test_render_matches_oracle_on_transport_entries():
    m = transport_matrix(build_triangle(4))
    assert [x.render() for row in m.data for x in row] == [
        oracle_render(x) for row in m.data for x in row
    ]
