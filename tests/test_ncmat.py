"""Tests for matrices with noncommuting quantum-torus entries.

Frozen products and inverses were computed by hand from the Weyl product rule
before implementation; see the inline comments for the derivations.  The
dense matmul and the two-order sheet product that the sparse kernels replaced
live on at the end of this file as oracles for a differential test, and so
does classical_act as it was with both sides, one scaled QElem per hit.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransport import ncmat
from qtransport.qalg import LIMIT, QElem, QScalar, SkewForm, qmul, weyl
from qtransport.ncmat import (
    NotInvertibleInSupportedClass,
    QMatrix,
    add_acted,
    classical_act,
    invert_restricted,
    lift1,
    lift2,
    matmul,
    sandwich,
    sheet_product,
    swap_sheets,
    transpose_q,
)
from qtransport.rmat import QQ, CMatrix, build_P_rect

FORM2 = SkewForm([[0, 2], [-2, 0]])
FORM3 = SkewForm([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])


def w(form, *exps):
    return weyl(form, exps)


def test_matmul_frozen():
    w1, w2 = w(FORM2, 1, 0), w(FORM2, 0, 1)
    a = QMatrix.from_rows(FORM2, [[w1, w2], [QElem.zero(FORM2), w1]])
    b = QMatrix.from_rows(FORM2, [[w2, QElem.zero(FORM2)], [w1, w2]])
    p = matmul(a, b)
    # (0,0): w1 w2 + w2 w1 = (v^-2 + v^2) :w^(1,1):
    assert p.entry(0, 0) == weyl(FORM2, (1, 1), QScalar({-2: 1, 2: 1}))
    assert p.entry(0, 1) == w(FORM2, 0, 2)
    assert p.entry(1, 0) == w(FORM2, 2, 0)
    assert p.entry(1, 1) == weyl(FORM2, (1, 1), QScalar.v_power(-2))


def test_matmul_identity():
    rng = random.Random(3)
    m = _random_qmatrix(rng, FORM3, 3, 2)
    assert matmul(QMatrix.identity(3, FORM3), m) == m
    assert matmul(m, QMatrix.identity(2, FORM3)) == m


def test_matmul_associative_random():
    rng = random.Random(11)
    for _ in range(25):
        a = _random_qmatrix(rng, FORM3, 2, 3)
        b = _random_qmatrix(rng, FORM3, 3, 2)
        c = _random_qmatrix(rng, FORM3, 2, 2)
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def test_transpose_q_of_product_literal():
    # transpose_q swaps entry positions without reordering the noncommuting
    # factors: transpose_q(A B)[i, j] == sum_k A[j, k] B[k, i].
    rng = random.Random(5)
    for _ in range(20):
        a = _random_qmatrix(rng, FORM3, 2, 3)
        b = _random_qmatrix(rng, FORM3, 3, 2)
        t = transpose_q(matmul(a, b))
        for i in range(t.rows):
            for j in range(t.cols):
                expected = QElem.zero(FORM3)
                for k in range(3):
                    expected = expected + qmul(a.entry(j, k), b.entry(k, i))
                assert t.entry(i, j) == expected


def test_sheet_product_frozen():
    w1, w2, w3 = w(FORM3, 1, 0, 0), w(FORM3, 0, 1, 0), w(FORM3, 0, 0, 1)
    a = QMatrix.from_rows(FORM3, [[w1, w2]])  # 1 x 2
    b = QMatrix.from_rows(FORM3, [[w3], [w1]])  # 2 x 1
    products = ncmat.entry_products(a, b)
    s12 = sheet_product(a, b, products)
    # rows composite (a-row, b-row), cols composite (a-col, b-col)
    assert (s12.rows, s12.cols) == (2, 2)
    assert s12.entry(0, 0) == qmul(w1, w3)
    assert s12.entry(0, 1) == qmul(w2, w3)
    assert s12.entry(1, 0) == qmul(w1, w1)
    assert s12.entry(1, 1) == qmul(w2, w1)
    s21 = swap_sheets(sheet_product(b, a, products), b.rows, b.cols)
    assert s21.entry(0, 0) == qmul(w3, w1)
    assert s21.entry(0, 1) == qmul(w3, w2)
    assert s21.entry(1, 0) == qmul(w1, w1)
    assert s21.entry(1, 1) == qmul(w1, w2)


def test_sheet_product_equals_lifted_matmul():
    rng = random.Random(17)
    for _ in range(10):
        a = _random_qmatrix(rng, FORM3, 2, 2)
        b = _random_qmatrix(rng, FORM3, 3, 2)
        products = ncmat.entry_products(a, b)
        assert sheet_product(a, b, products) == matmul(lift1(a, b.rows), lift2(b, a.cols))
        assert swap_sheets(sheet_product(b, a, products), b.rows, b.cols) == matmul(
            lift2(b, a.rows), lift1(a, b.cols)
        )


def test_sheet_product_flip_commutative_case():
    # With commuting entries, P (1)A(2)B P = (1)B(2)A.
    form = SkewForm([[0, 0], [0, 0]])
    rng = random.Random(23)
    a = _random_qmatrix(rng, form, 2, 2)
    b = _random_qmatrix(rng, form, 2, 2)
    p = build_P_rect(2, 2)
    products = ncmat.entry_products(a, b)
    flipped = classical_act(p, dense_classical_act(p, sheet_product(a, b, products), "right"))
    assert flipped == sheet_product(b, a, products)


def test_classical_act_frozen():
    w1 = w(FORM2, 1, 0)
    m = QMatrix.from_rows(FORM2, [[w1], [w(FORM2, 0, 1)]])
    c = CMatrix(2, 2, {(0, 0): QScalar.q_power(1), (0, 1): QScalar.one()})
    left = classical_act(c, m)
    assert left.entry(0, 0) == w1.scale(QScalar.q_power(1)) + w(FORM2, 0, 1)
    assert left.entry(1, 0).is_zero()
    assert left == dense_classical_act(c, m, "left")
    right = dense_classical_act(c.transpose(), transpose_q(m), "right")
    assert right.entry(0, 0) == left.entry(0, 0)


def test_classical_act_composition():
    rng = random.Random(31)
    m = _random_qmatrix(rng, FORM3, 3, 3)
    c1 = CMatrix(3, 3, {(0, 1): QScalar.one(), (2, 2): QScalar.v_power(1)})
    c2 = CMatrix(3, 3, {(1, 1): QScalar.v_power(-1), (1, 2): QScalar.one()})
    assert classical_act(c1, classical_act(c2, m)) == classical_act(c1 * c2, m)
    act = dense_classical_act
    assert act(c2, act(c1, m, "right"), "right") == act(c1 * c2, m, "right")


COEFFS = {"1": 1, "-1": -1, "QQ": QQ, "v^3": QScalar.v_power(3)}


@pytest.mark.parametrize("coeff", list(COEFFS.values()), ids=list(COEFFS))
@pytest.mark.parametrize("side", ["left", "right", None])
def test_add_acted_matches_classical_act_oracle(side, coeff):
    # coeff (C m), coeff (m C) or coeff m, summed into flat cells, against
    # the two-sided classical_act and QElem.scale, entry for entry.
    rng = random.Random(f"{side}:{coeff}")
    scale = coeff if isinstance(coeff, QScalar) else QScalar.from_int(coeff)
    for _ in range(30):
        m = _wide_qmatrix(rng, FORM3, rng.randint(1, 4), rng.randint(1, 4))
        if side is None:
            c, shape, want = None, (m.rows, m.cols), m.scale(scale)
        elif side == "left":
            c = _sparse_cmatrix(rng, rng.randint(1, 4), m.rows)
            shape = (c.rows, m.cols)
            want = dense_classical_act(c, m, side).scale(scale)
        else:
            c = _sparse_cmatrix(rng, m.cols, rng.randint(1, 4))
            shape = (m.rows, c.cols)
            want = dense_classical_act(c, m, side).scale(scale)
        cells = {}
        span = add_acted(cells, m, coeff, c, side)
        assert QMatrix.from_cells(*shape, FORM3, cells, span) == want
        digits = [a for sums in cells.values() for t in sums
                  for a in FORM3.decode(t)[0]]
        assert all(abs(a) <= span < LIMIT for a in digits)


def test_add_acted_sums_into_shared_cells():
    # evaluate adds every term of a relation into one map of cells
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = _wide_qmatrix(rng, FORM3, n, n)
        c = _sparse_cmatrix(rng, n, n)
        cells = {}
        span = max(
            add_acted(cells, m, QQ, c, "left"),
            add_acted(cells, m, -1, c, "right"),
            add_acted(cells, m, 1, None, None),
        )
        want = (
            dense_classical_act(c, m, "left").scale(QQ)
            - dense_classical_act(c, m, "right")
            + m
        )
        assert QMatrix.from_cells(n, n, FORM3, cells, span) == want


# Scalars a constant entry or a coefficient takes in the relations: each
# one sends a cell's first write down its own path (a plain copy for 1).
FIRST = {
    "1": QScalar.one(),
    "-1": QScalar.from_int(-1),
    "v^3": QScalar.v_power(3),
    "QQ": QQ,
}


def _constant(rng, rows, cols, scalars, density=0.4):
    """rows x cols entries drawn from scalars; empty rows and columns are common."""
    entries = {
        (i, j): rng.choice(scalars)
        for i in range(rows)
        for j in range(cols)
        if rng.random() < density
    }
    return CMatrix(rows, cols, entries)


@pytest.mark.parametrize("sheet", [1, 2])
def test_sandwich_matches_lifted_oracle(sheet):
    # (s)X C (t)Y as verify builds it: one pass over C's nonzeros, against
    # the dense matmul of lift(X) with the two-sided classical_act of C on
    # lift(Y), on both sheet orders
    rng = random.Random(f"sandwich:{sheet}")
    lift_x, lift_y = (lift1, lift2) if sheet == 1 else (lift2, lift1)
    scalars = list(FIRST.values())
    for trial in range(60):
        form = (FORM2, FORM3)[trial % 2]
        dims = [1, 1, 1, 1] if trial < 6 else [rng.randint(1, 3) for _ in range(4)]
        # wide entries: several v-powers, digits up to half the limit
        x = _wide_qmatrix(rng, form, *dims[:2], big=LIMIT // 2 - 1)
        y = _wide_qmatrix(rng, form, *dims[2:], big=LIMIT // 2 - 1)
        if trial % 5 == 0:  # an empty row of X and an empty column of Y
            x.data[0] = [QElem.zero(form)] * x.cols
            for row in y.data:
                row[-1] = QElem.zero(form)
        a, b = lift_x(x, y.rows), lift_y(y, x.cols)
        c = _constant(rng, a.cols, b.rows, scalars, density=(0, 0.2, 0.5)[trial % 3])
        want = dense_matmul(a, dense_classical_act(c, b, "left"))
        assert sandwich(a, c, b, ncmat.entry_products(x, y)) == want, trial


@pytest.mark.parametrize("sheet", [1, 2])
def test_sandwiches_through_one_memo_multiply_each_entry_pair_once(sheet, monkeypatch):
    # (s)X C (t)Y, then (t)Y C' (s)X, through one table of X with Y: both
    # match the lifted oracle, and each unordered
    # pair of nonzero entries is multiplied once, in the table, under
    # however many links of C and C' it meets
    made = []

    def counted(x, y, rev=None):
        made.append(frozenset((id(x), id(y))))
        return qmul(x, y, rev=rev)

    monkeypatch.setattr(ncmat, "qmul", counted)
    rng = random.Random(f"memo:{sheet}")
    lift_x, lift_y = (lift1, lift2) if sheet == 1 else (lift2, lift1)
    for trial in range(30):
        form = (FORM2, FORM3)[trial % 2]
        dims = [rng.randint(1, 3) for _ in range(4)]
        x = _wide_qmatrix(rng, form, *dims[:2], big=LIMIT // 2 - 1)
        y = _wide_qmatrix(rng, form, *dims[2:], big=LIMIT // 2 - 1)
        words = [(lift_x(x, y.rows), lift_y(y, x.cols)), (lift_y(y, x.rows), lift_x(x, y.cols))]
        made.clear()
        products = ncmat.entry_products(x, y)
        for a, b in words:
            c = _constant(rng, a.cols, b.rows, list(FIRST.values()), density=0.6)
            want = dense_matmul(a, dense_classical_act(c, b, "left"))
            assert sandwich(a, c, b, products) == want, trial
        xs, ys = ([e for row in m.data for e in row if e.terms] for m in (x, y))
        pairs = [frozenset((id(e), id(f))) for e in xs for f in ys]
        assert sorted(made, key=sorted) == sorted(pairs, key=sorted), trial


def test_sandwich_refuses_a_span_past_the_limit():
    half = LIMIT // 2
    x = QMatrix.from_rows(FORM2, [[w(FORM2, half, 0)]])
    y = QMatrix.from_rows(FORM2, [[w(FORM2, 0, half - 1)]])
    c = CMatrix(1, 1, {(0, 0): QQ})
    assert sandwich(x, c, y, ncmat.entry_products(x, y)) == matmul(x, y).scale(QQ)
    y = QMatrix.from_rows(FORM2, [[w(FORM2, 0, half)]])
    with pytest.raises(ValueError, match="may reach 16384 in size"):
        sandwich(x, c, y, ncmat.entry_products(x, y))


def _spans_hold(m):
    """Whether every entry of m has a span at least its largest |digit|."""
    return all(
        abs(a) <= x.span
        for row in m.data
        for x in row
        for code in x.terms
        for a in m.form.decode(code)[0]
    )


def test_products_keep_the_largest_span():
    # The output takes the largest span of its products, not the last one:
    # the first pair made is wide, (5,-3) times (0,1), and every later pair
    # is narrow.  Random wide entries then carry spans from 0 to 99.
    wide, narrow = w(FORM2, 5, -3), w(FORM2, 0, 1)
    a = QMatrix.from_rows(FORM2, [[wide, narrow], [narrow, narrow]])
    b = QMatrix.from_rows(FORM2, [[narrow, narrow], [narrow, narrow]])
    c = CMatrix(2, 2, {(0, 0): QScalar.one(), (1, 1): QQ})
    assert _spans_hold(matmul(a, b))
    assert _spans_hold(sandwich(a, c, b, ncmat.entry_products(a, b)))
    rng = random.Random(41)
    for trial in range(40):
        form = (FORM2, FORM3)[trial % 2]
        a = _wide_qmatrix(rng, form, 3, 2, big=rng.randint(1, 99))
        b = _wide_qmatrix(rng, form, 2, 3, big=rng.randint(1, 99))
        c = _constant(rng, 2, 2, list(FIRST.values()), density=0.7)
        assert _spans_hold(matmul(a, b)), trial
        assert _spans_hold(sandwich(a, c, b, ncmat.entry_products(a, b))), trial


@pytest.mark.parametrize("name", list(FIRST))
@pytest.mark.parametrize("side", ["left", "right", None])
def test_add_acted_first_contribution_into_fresh_and_shared_cells(side, name):
    # Every scalar that reaches a cell is first: the constant's entries, or
    # with no constant the coefficient (1 and -1 passed as ints, as the
    # relations do).  A fresh cell takes a copy of the entry's terms, which
    # the later adds must not write through to m; a second call then adds
    # into the same cells in place.
    rng = random.Random(f"first:{side}:{name}")
    first = FIRST[name]
    coeff = {"1": 1, "-1": -1}.get(name, first)
    for _ in range(20):
        n = rng.randint(1, 4)
        m, m2 = (_wide_qmatrix(rng, FORM3, n, n) for _ in range(2))
        before = [[dict(x.terms) for x in row] for row in m.data]
        if side is None:
            c, want = None, m.scale(first) + m2.scale(first)
        else:
            c = _constant(rng, n, n, [first], density=0.5)
            want = dense_classical_act(c, m, side) + dense_classical_act(c, m2, side)
        cells = {}
        span = max(
            add_acted(cells, m, coeff if c is None else 1, c, side),
            add_acted(cells, m2, coeff if c is None else 1, c, side),
        )
        assert QMatrix.from_cells(n, n, FORM3, cells, span) == want
        assert [[x.terms for x in row] for row in m.data] == before


def test_invert_1x1_monomial():
    x = weyl(FORM2, (2, -1), QScalar.v_power(3))
    m = QMatrix.from_rows(FORM2, [[x]])
    mi = invert_restricted(m)
    assert matmul(m, mi) == QMatrix.identity(1, FORM2)
    assert matmul(mi, m) == QMatrix.identity(1, FORM2)


def test_invert_lower_triangular_frozen():
    # M = [[w1, 0], [w2, w3]] over E = [[0,2,0],[-2,0,2],[0,-2,0]].
    # Hand derivation: X00 = :w^(-1,0,0):, X11 = :w^(0,0,-1):, and
    # X10 = -w3^-1 w2 w1^-1 = -v^-4 :w^(-1,1,-1):.
    w1, w2, w3 = w(FORM3, 1, 0, 0), w(FORM3, 0, 1, 0), w(FORM3, 0, 0, 1)
    m = QMatrix.from_rows(FORM3, [[w1, QElem.zero(FORM3)], [w2, w3]])
    mi = invert_restricted(m)
    assert mi.entry(0, 0) == w(FORM3, -1, 0, 0)
    assert mi.entry(1, 1) == w(FORM3, 0, 0, -1)
    assert mi.entry(0, 1).is_zero()
    assert mi.entry(1, 0) == weyl(FORM3, (-1, 1, -1), QScalar({-4: -1}))
    assert matmul(m, mi) == QMatrix.identity(2, FORM3)
    assert matmul(mi, m) == QMatrix.identity(2, FORM3)


def test_invert_upper_triangular_random():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if j < i:
                    row.append(QElem.zero(FORM3))
                elif j == i:
                    row.append(_random_unit_monomial(rng, FORM3))
                else:
                    row.append(_random_entry(rng, FORM3))
            rows.append(row)
        m = QMatrix.from_rows(FORM3, rows)
        mi = invert_restricted(m)
        assert matmul(m, mi) == QMatrix.identity(n, FORM3)
        assert matmul(mi, m) == QMatrix.identity(n, FORM3)


def test_invert_block_triangular_mixed():
    # [[L, 0], [B, U]] with L lower- and U upper-triangular is not triangular
    # as a whole, but splits as a 2x2 block-triangular matrix.
    w1, w2, w3 = w(FORM3, 1, 0, 0), w(FORM3, 0, 1, 0), w(FORM3, 0, 0, 1)
    z = QElem.zero(FORM3)
    m = QMatrix.from_rows(
        FORM3,
        [
            [w1, z, z, z],
            [w2, w3, z, z],
            [w1, w2, w3, w1],
            [z, w3, z, w2],
        ],
    )
    mi = invert_restricted(m)
    assert matmul(m, mi) == QMatrix.identity(4, FORM3)
    assert matmul(mi, m) == QMatrix.identity(4, FORM3)


def test_invert_rejects_unsupported():
    w1, w2 = w(FORM2, 1, 0), w(FORM2, 0, 1)
    z = QElem.zero(FORM2)
    # anti-diagonal: invertible, but not in the supported class
    with pytest.raises(NotInvertibleInSupportedClass):
        invert_restricted(QMatrix.from_rows(FORM2, [[z, w1], [w2, z]]))
    # non-unit diagonal entry
    with pytest.raises(NotInvertibleInSupportedClass):
        invert_restricted(QMatrix.from_rows(FORM2, [[w1 + w2, z], [w2, w1]]))
    # non-square
    with pytest.raises(NotInvertibleInSupportedClass):
        invert_restricted(QMatrix.from_rows(FORM2, [[w1, w2]]))
    # singular 1x1
    with pytest.raises(NotInvertibleInSupportedClass):
        invert_restricted(QMatrix.from_rows(FORM2, [[z]]))


def test_block_helpers():
    rng = random.Random(59)
    m = _random_qmatrix(rng, FORM3, 3, 4)
    sub = m.submatrix(1, 3, 0, 2)
    assert (sub.rows, sub.cols) == (2, 2)
    assert sub.entry(0, 1) == m.entry(1, 1)
    again = QMatrix.from_blocks(
        [
            [m.submatrix(0, 1, 0, 2), m.submatrix(0, 1, 2, 4)],
            [m.submatrix(1, 3, 0, 2), m.submatrix(1, 3, 2, 4)],
        ]
    )
    assert again == m


def test_add_scale_neg():
    rng = random.Random(61)
    m = _random_qmatrix(rng, FORM3, 2, 2)
    assert (m - m).is_zero()
    assert m.scale(QScalar.zero()).is_zero()
    assert (-m) + m == QMatrix.zero(2, 2, FORM3)


@st.composite
def _sparse_qmatrix(draw, form, rows, cols):
    """A rows x cols matrix with some rows and columns all zero.

    Entries are sums of up to three monomials whose coefficients have up to
    three v-powers; a zero row or column, and a zero entry, are common.
    """
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    coeffs = st.dictionaries(
        st.integers(-3, 3), st.integers(-2, 2), min_size=1, max_size=3
    )
    monomials = st.tuples(
        st.tuples(*[st.integers(-1, 1)] * form.n), coeffs
    )
    data = []
    for i in range(rows):
        row = []
        for j in range(cols):
            x = QElem.zero(form)
            if i not in zero_rows and j not in zero_cols:
                for exps, c in draw(st.lists(monomials, max_size=3)):
                    x = x + weyl(form, exps, QScalar(c))
            row.append(x)
        data.append(row)
    return QMatrix(rows, cols, form, data)


@st.composite
def _matrix_pair(draw, chained):
    """Two matrices on one of two skew forms; chained pairs can be multiplied."""
    form = draw(st.sampled_from([FORM2, FORM3]))
    r, k, k2, c = (draw(st.integers(1, 4)) for _ in range(4))
    a = draw(_sparse_qmatrix(form, r, k))
    b = draw(_sparse_qmatrix(form, k if chained else k2, c))
    return a, b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_matrix_pair(chained=True))
def test_matmul_matches_dense_oracle(pair):
    a, b = pair
    assert matmul(a, b) == dense_matmul(a, b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_matrix_pair(chained=False))
def test_sheet_products_match_two_order_oracle(pair):
    a, b = pair
    products = ncmat.entry_products(a, b)
    assert sheet_product(a, b, products) == ordered_sheet_product(a, b, 12)
    swapped = swap_sheets(sheet_product(b, a, products), b.rows, b.cols)
    assert swapped == ordered_sheet_product(a, b, 21)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_matrix_pair(chained=False))
def test_sheet_products_share_entry_products_through_memo(pair):
    # one table of a with b holds every x y and y x: sheet_product(a, b) and
    # sheet_product(b, a) both read from it, and a self-product reads from
    # the table of a with itself
    a, b = pair
    products = ncmat.entry_products(a, b)
    xs, ys = ([x for row in m.data for x in row if x.terms] for m in (a, b))
    keys = {(id(x), id(y)) for x in xs for y in ys}
    assert set(products) == keys | {(iy, ix) for ix, iy in keys}
    assert sheet_product(a, b, products) == ordered_sheet_product(a, b, 12)
    swapped = swap_sheets(sheet_product(b, a, products), b.rows, b.cols)
    assert swapped == ordered_sheet_product(a, b, 21)
    products = ncmat.entry_products(a, a)
    assert sheet_product(a, a, products) == ordered_sheet_product(a, a, 12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_matrix_pair(chained=False), st.booleans())
def test_entry_products_multiply_each_pair_once(pair, same):
    # the table holds x y and y x for every nonzero x of a and y of b, from
    # one qmul per unordered pair of entries, a self-pair x x included; the
    # term pairs those qmuls multiply are table_term_pairs(a, b)
    a, b = pair
    if same:
        b = a
    xs, ys = ([x for row in m.data for x in row if x.terms] for m in (a, b))
    want = {(id(x), id(y)): qmul(x, y) for x in xs for y in ys}
    want.update({(id(y), id(x)): qmul(y, x) for x in xs for y in ys})
    made = []

    def counted(x, y, rev=None):
        made.append((x, y))
        return qmul(x, y, rev=rev)

    with mock.patch.object(ncmat, "qmul", counted):
        assert ncmat.entry_products(a, b) == want
    read = {frozenset(key) for key in want}
    assert len(made) == len(read)
    assert {frozenset((id(x), id(y))) for x, y in made} == read
    pairs = sum(len(x.terms) * len(y.terms) for x, y in made)
    assert ncmat.table_term_pairs(a, b) == pairs


# ---------------------------------------------------------------------------
# oracles: the dense kernels as they were before the sparse ones
# ---------------------------------------------------------------------------


def dense_matmul(a, b):
    """(a b)[i, j] = sum_k a[i, k] b[k, j], one QElem sum per k."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    if a.form != b.form:
        raise ValueError("matrices live on different quantum tori")
    z = QElem.zero(a.form)
    data = []
    for i in range(a.rows):
        arow = a.data[i]
        out_row = []
        for j in range(b.cols):
            acc = z
            for k in range(a.cols):
                x = arow[k]
                y = b.data[k][j]
                if x.is_zero() or y.is_zero():
                    continue
                acc = acc + qmul(x, y)
            out_row.append(acc)
        data.append(out_row)
    return QMatrix(a.rows, b.cols, a.form, data)


def ordered_sheet_product(a, b, order):
    """Tensor-leg product on the composite index space.

    order 12: entry ((i,k),(j,l)) = a[i,j] b[k,l]   (sheet-1 factors first);
    order 21: entry ((i,k),(j,l)) = b[k,l] a[i,j]   (sheet-2 factors first).
    """
    if a.form != b.form:
        raise ValueError("matrices live on different quantum tori")
    order = int(order)
    if order not in (12, 21):
        raise ValueError("order must be 12 or 21")
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    z = QElem.zero(a.form)
    data = [[z] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.data[i][j]
            if x.is_zero():
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    y = b.data[k][l]
                    if y.is_zero():
                        continue
                    data[i * b.rows + k][j * b.cols + l] = (
                        qmul(x, y) if order == 12 else qmul(y, x)
                    )
    return QMatrix(rows, cols, a.form, data)


def dense_classical_act(c, m, side):
    """Multiply by a matrix of commuting scalars on the given side."""
    if side == "left":
        if c.cols != m.rows:
            raise ValueError("shape mismatch")
        z = QElem.zero(m.form)
        data = [[z] * m.cols for _ in range(c.rows)]
        for (r, k), val in c.entries.items():
            mrow = m.data[k]
            row = data[r]
            for j in range(m.cols):
                x = mrow[j]
                if not x.is_zero():
                    row[j] = row[j] + x.scale(val)
        return QMatrix(c.rows, m.cols, m.form, data)
    if side == "right":
        if m.cols != c.rows:
            raise ValueError("shape mismatch")
        z = QElem.zero(m.form)
        data = [[z] * c.cols for _ in range(m.rows)]
        for (k, cc), val in c.entries.items():
            for i in range(m.rows):
                x = m.data[i][k]
                if not x.is_zero():
                    data[i][cc] = data[i][cc] + x.scale(val)
        return QMatrix(m.rows, c.cols, m.form, data)
    raise ValueError("side must be 'left' or 'right'")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _random_entry(rng, form):
    x = QElem.zero(form)
    for _ in range(rng.randint(1, 2)):
        exps = tuple(rng.randint(-1, 1) for _ in range(form.n))
        coeff = QScalar({rng.randint(-2, 2): rng.randint(-2, 2)})
        x = x + weyl(form, exps, coeff)
    return x


def _random_unit_monomial(rng, form):
    exps = tuple(rng.randint(-1, 1) for _ in range(form.n))
    return weyl(form, exps, QScalar({rng.randint(-2, 2): rng.choice([1, -1])}))


def _random_qmatrix(rng, form, rows, cols):
    return QMatrix.from_rows(
        form, [[_random_entry(rng, form) for _ in range(cols)] for _ in range(rows)]
    )


def _wide_qmatrix(rng, form, rows, cols, big=LIMIT - 1):
    """Entries often zero, with several v-powers and digits up to big."""
    data = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            x = QElem.zero(form)
            for _ in range(rng.choice([0, 0, 1, 2, 3])):
                exps = [rng.choice([-big, -1, 0, 1, big, rng.randint(-big, big)])
                        for _ in range(form.n)]
                powers = rng.sample(range(-4, 5), rng.randint(1, 3))
                coeff = QScalar({k: rng.choice([-2, -1, 1, 3]) for k in powers})
                x = x + weyl(form, exps, coeff)
            row.append(x)
        data.append(row)
    return QMatrix(rows, cols, form, data)


def _sparse_cmatrix(rng, rows, cols):
    """A constant with at most two nonzeros per row and per column."""
    entries = {}
    for i in range(rows):
        for j in rng.sample(range(cols), min(cols, rng.randint(0, 2))):
            if sum(1 for (_, col) in entries if col == j) < 2:
                entries[i, j] = rng.choice(
                    [QScalar.one(), QScalar({1: 1, -1: -1}), QQ, QScalar.v_power(-2)]
                )
    return CMatrix(rows, cols, entries)
