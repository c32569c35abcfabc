"""Matrices with noncommuting quantum-torus entries.

QMatrix is dense: every entry is a QElem over one shared SkewForm.  Products
never reorder factors, so the left/right structure of every identity is
preserved exactly.  Composite (tensor-square) indices are sheet-1-major,
matching the classical matrices in rmat.
"""

from __future__ import annotations

from .qalg import (
    NotAUnit,
    QElem,
    QScalar,
    SkewForm,
    add_product,
    add_scaled,
    from_sums,
    invert_monomial,
    qmul,
)
from .rmat import CMatrix


class NotInvertibleInSupportedClass(ValueError):
    """Raised when invert_restricted gets a matrix outside its supported class."""


class QMatrix:
    """A dense rows x cols matrix of quantum-torus elements."""

    __slots__ = ("rows", "cols", "form", "data")

    def __init__(self, rows: int, cols: int, form: SkewForm, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("data does not match shape")
        self.rows = rows
        self.cols = cols
        self.form = form
        self.data = data

    @classmethod
    def from_rows(cls, form: SkewForm, rows) -> "QMatrix":
        data = [list(r) for r in rows]
        return cls(len(data), len(data[0]) if data else 0, form, data)

    @classmethod
    def zero(cls, rows: int, cols: int, form: SkewForm) -> "QMatrix":
        z = QElem.zero(form)
        return cls(rows, cols, form, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, form: SkewForm) -> "QMatrix":
        z = QElem.zero(form)
        one = QElem.one(form)
        return cls(n, n, form, [[one if i == j else z for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> QElem:
        return self.data[i][j]

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.form == other.form
            and self.data == other.data
        )

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QMatrix(
            self.rows,
            self.cols,
            self.form,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def __neg__(self) -> "QMatrix":
        return QMatrix(
            self.rows, self.cols, self.form, [[-x for x in row] for row in self.data]
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def scale(self, c) -> "QMatrix":
        return QMatrix(
            self.rows,
            self.cols,
            self.form,
            [[x.scale(c) for x in row] for row in self.data],
        )

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "QMatrix":
        return QMatrix(
            r1 - r0,
            c1 - c0,
            self.form,
            [row[c0:c1] for row in self.data[r0:r1]],
        )

    @classmethod
    def from_blocks(cls, blocks) -> "QMatrix":
        """Assemble from a 2D grid of QMatrix blocks with matching shapes."""
        form = blocks[0][0].form
        data = []
        for brow in blocks:
            height = brow[0].rows
            if any(b.rows != height for b in brow):
                raise ValueError("block row heights differ")
            for i in range(height):
                data.append([x for b in brow for x in b.data[i]])
        width = len(data[0]) if data else 0
        if any(len(r) != width for r in data):
            raise ValueError("block column widths differ")
        return cls(len(data), width, form, data)

    @classmethod
    def from_cells(cls, rows: int, cols: int, form: SkewForm, cells, span) -> "QMatrix":
        """The matrix of flat cells {(row, col): {code: int}} within span."""
        res = cls.zero(rows, cols, form)
        for (i, j), sums in cells.items():
            if any(sums.values()):
                res.data[i][j] = from_sums(form, sums, span)
        return res

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """(a b)[i, j] = sum_k a[i, k] b[k, j], factors kept in this order.

    Each pair of nonzero entries a[i, k], b[k, j] is multiplied once,
    straight into the sums of cell (i, j), and the result takes the largest
    span of its products.
    """
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    if a.form != b.form:
        raise ValueError("matrices live on different quantum tori")
    cells = {}
    span = 0
    for xs, ys in zip(_nonzero_rows(transpose_q(a)), _nonzero_rows(b)):
        for i, x in xs:
            for j, y in ys:
                sums = cells.get((i, j))
                if sums is None:
                    sums = cells[i, j] = {}
                span = max(span, add_product(sums, x, y))
    return QMatrix.from_cells(a.rows, b.cols, a.form, cells, span)


def entry_products(a: QMatrix, b: QMatrix) -> dict:
    """{(id x, id y): x y, (id y, id x): y x} for every nonzero x of a and y of b.

    One qmul pass makes x y and stores y x beside it, and with a is b each
    unordered pair of entries is multiplied once.  The keys are identities,
    so a table serves any matrix that holds these entry objects, such as
    the lifts of a and b, in either order, for as long as a and b keep them
    alive.  table_term_pairs(a, b) counts the torus term pairs it multiplies.
    """
    if a.form != b.form:
        raise ValueError("matrices live on different quantum tori")
    # each key shares its two id ints with every other key of the table
    xs = [(id(x), x) for row in a.data for x in row if x.terms]
    ys = xs if a is b else [(id(y), y) for row in b.data for y in row if y.terms]
    out = {}
    for i, (ix, x) in enumerate(xs):
        for iy, y in ys[i:] if a is b else ys:
            if x is y:
                out[ix, iy] = qmul(x, y)
                continue
            rev = {}
            xy = out[ix, iy] = qmul(x, y, rev=rev)
            out[iy, ix] = from_sums(x.form, rev, xy.span)
    return out


def table_term_pairs(a: QMatrix, b: QMatrix) -> int:
    """The torus term pairs entry_products(a, b) multiplies, exactly.

    With T the total number of terms of a matrix, that is T(a) T(b); with a
    is b, each unordered pair of entries is multiplied once, which is
    (T^2 + sum of |x|^2 over its entries) / 2.
    """
    tx = [len(e.terms) for row in a.data for e in row]
    if a is b:
        return (sum(tx) ** 2 + sum(t * t for t in tx)) // 2
    return sum(tx) * sum(len(e.terms) for row in b.data for e in row)


def sandwich(a: QMatrix, c: CMatrix, b: QMatrix, products) -> QMatrix:
    """a C b for a matrix C of commuting scalars, with no C b built.

    Each nonzero C[r, s] pairs column r of a with row s of b: the product
    x y of each pair of nonzero entries, looked up in products (a table of
    entry_products that holds the entries of a and b), is added into its
    cell at every v-power of C[r, s].  The result takes the largest span of
    its products.
    """
    if a.cols != c.rows or c.cols != b.rows:
        raise ValueError("shape mismatch")
    a_cols = _nonzero_rows(transpose_q(a))
    b_rows = _nonzero_rows(b)
    cells = {}
    span = 0
    for (r, s), val in c.entries.items():
        g = tuple(val.terms.items())
        for i, x in a_cols[r]:
            for j, y in b_rows[s]:
                xy = products[id(x), id(y)]
                sums = cells.get((i, j))
                if sums is None:
                    sums = cells[i, j] = {}
                add_scaled(sums, xy, g)
                span = max(span, xy.span)
    return QMatrix.from_cells(a.rows, b.cols, a.form, cells, span)


def _nonzero_rows(m: QMatrix):
    """Per row of m, its nonzero entries as (column, entry) pairs."""
    return [[(j, y) for j, y in enumerate(row) if y.terms] for row in m.data]


def transpose_q(m: QMatrix) -> QMatrix:
    """Entry-position transpose; the noncommuting entries are not touched."""
    return QMatrix(
        m.cols,
        m.rows,
        m.form,
        [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)],
    )


def sheet_product(a: QMatrix, b: QMatrix, products) -> QMatrix:
    """(1)a (2)b on the composite index space: entry ((i,k),(j,l)) = a[i,j] b[k,l].

    Rows are composite over (a-rows, b-rows), columns over (a-cols, b-cols),
    sheet-1-major.  The word with a on sheet 2 first, (2)a (1)b, holds the
    same products at swapped indices: swap_sheets reads it off this one.
    Each entry is looked up in products (a table of entry_products that
    holds the entries of a and b).
    """
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    z = QElem.zero(a.form)
    data = [[z] * cols for _ in range(rows)]
    nonzero = [(k, l, id(y)) for k, row in enumerate(_nonzero_rows(b)) for l, y in row]
    for i, arow in enumerate(a.data):
        block = data[i * b.rows:(i + 1) * b.rows]
        for j, x in enumerate(arow):
            if not x.terms:
                continue
            left, ix = j * b.cols, id(x)
            for k, l, iy in nonzero:
                block[k][left + l] = products[ix, iy]
    return QMatrix(rows, cols, a.form, data)


def swap_sheets(m: QMatrix, rows1: int, cols1: int) -> QMatrix:
    """m with its two tensor legs exchanged, by re-indexing alone.

    The first leg of m has rows1 rows and cols1 columns; entry ((k,i),(l,j))
    of m lands at ((i,k),(j,l)).  So swap_sheets(sheet_product(a, b),
    a.rows, a.cols) is (2)a (1)b, the product with the factors of a first.
    """
    rows2, cols2 = m.rows // rows1, m.cols // cols1
    order = [l * cols2 + j for j in range(cols2) for l in range(cols1)]
    data = [
        [row[c] for c in order]
        for row in (m.data[k * rows2 + i] for i in range(rows2) for k in range(rows1))
    ]
    return QMatrix(m.rows, m.cols, m.form, data)


def lift1(a: QMatrix, d2: int) -> QMatrix:
    """a acting on sheet 1: entry ((i,k),(j,l)) = a[i,j] delta_kl."""
    rows = a.rows * d2
    cols = a.cols * d2
    z = QElem.zero(a.form)
    data = [[z] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.data[i][j]
            if x.is_zero():
                continue
            for k in range(d2):
                data[i * d2 + k][j * d2 + k] = x
    return QMatrix(rows, cols, a.form, data)


def lift2(b: QMatrix, d1: int) -> QMatrix:
    """b acting on sheet 2: entry ((i,k),(j,l)) = delta_ij b[k,l]."""
    rows = d1 * b.rows
    cols = d1 * b.cols
    z = QElem.zero(b.form)
    data = [[z] * cols for _ in range(rows)]
    for i in range(d1):
        for k in range(b.rows):
            for l in range(b.cols):
                x = b.data[k][l]
                if x.is_zero():
                    continue
                data[i * b.rows + k][i * b.cols + l] = x
    return QMatrix(rows, cols, b.form, data)


def add_acted(cells, m: QMatrix, coeff, c: CMatrix | None, side) -> int:
    """Add coeff (C m), coeff (m C) or, with c None, coeff m into cells.

    cells maps (row, col) to flat sums {code: int}, as QMatrix.from_cells
    reads them.  coeff is 1, -1 or a QScalar; its product with each entry of
    C stays on (v-power, int) pairs.  Each nonzero C[r, k] routes row k of m
    to row r (left) or column r of m to column k (right); the constants of
    the relations have at most two nonzeros per row and column.  A cell's
    first contribution is one copy of the entry's terms, moved by the first
    v-power; every later one is added in place.  Returns the largest span
    added.
    """
    f = tuple(coeff.terms.items()) if isinstance(coeff, QScalar) else ((0, coeff),)
    # Each route adds scalar g times a line of m (its nonzero (index, entry)
    # pairs) into the row, or with is_row False the column, called fixed.
    if c is None:
        routes = [(f, i, line, True) for i, line in enumerate(_nonzero_rows(m))]
    elif side == "left":
        lines = _nonzero_rows(m)
        routes = [(_times(f, s), r, lines[k], True) for (r, k), s in c.entries.items()]
    else:
        lines = _nonzero_rows(transpose_q(m))
        routes = [(_times(f, s), k, lines[r], False) for (r, k), s in c.entries.items()]
    shift = m.form.shift
    get = cells.get
    span = 0
    for g, fixed, line, is_row in routes:
        if not g:
            continue
        g = [(k << shift, n) for k, n in g]
        (dk0, n0), rest = g[0], g[1:]
        plain = dk0 == 0 and n0 == 1 and not rest
        for idx, x in line:
            if x.span > span:
                span = x.span
            pos = (fixed, idx) if is_row else (idx, fixed)
            cell = get(pos)
            more = g
            if cell is None:
                if plain:
                    cells[pos] = dict(x.terms)
                    continue
                cell = cells[pos] = {t + dk0: n * n0 for t, n in x.terms.items()}
                more = rest
            for dk, ck in more:
                for t, n in x.terms.items():
                    key = t + dk
                    cell[key] = cell.get(key, 0) + n * ck
    return span


def _times(f, s: QScalar):
    """The product of (v-power, int) pairs f and s, as nonzero pairs."""
    out = {}
    for k1, c1 in f:
        for k2, c2 in s.terms.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return [(k, c) for k, c in out.items() if c]


def classical_act(c: CMatrix, m: QMatrix) -> QMatrix:
    """C m for a matrix C of commuting scalars."""
    if c.cols != m.rows:
        raise ValueError("shape mismatch")
    cells = {}
    span = add_acted(cells, m, 1, c, "left")
    return QMatrix.from_cells(c.rows, m.cols, m.form, cells, span)


def invert_restricted(m: QMatrix) -> QMatrix:
    """Two-sided inverse for the supported class of matrices.

    Supported: a 1x1 unit monomial; any matrix that splits (recursively) as a
    2x2 block-triangular matrix with invertible diagonal blocks.  Triangular
    matrices with unit-monomial diagonal are the basic closed case.  The
    result is verified two-sided before it is returned.
    """
    inv = _invert_inner(m)
    ident = QMatrix.identity(m.rows, m.form)
    if matmul(m, inv) != ident or matmul(inv, m) != ident:
        raise NotInvertibleInSupportedClass(
            "inverse verification failed; matrix is outside the supported class"
        )
    return inv


def _invert_inner(m: QMatrix) -> QMatrix:
    if m.rows != m.cols:
        raise NotInvertibleInSupportedClass("matrix is not square")
    n = m.rows
    if n == 1:
        try:
            return QMatrix.from_rows(m.form, [[invert_monomial(m.entry(0, 0))]])
        except NotAUnit as exc:
            raise NotInvertibleInSupportedClass(str(exc)) from exc
    for s in range(1, n):
        upper_right_zero = all(
            m.entry(i, j).is_zero() for i in range(s) for j in range(s, n)
        )
        lower_left_zero = all(
            m.entry(i, j).is_zero() for i in range(s, n) for j in range(s)
        )
        if not (upper_right_zero or lower_left_zero):
            continue
        a = _invert_inner(m.submatrix(0, s, 0, s))
        d = _invert_inner(m.submatrix(s, n, s, n))
        if upper_right_zero:
            # [[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]]
            b = m.submatrix(s, n, 0, s)
            off = -matmul(matmul(d, b), a)
            return QMatrix.from_blocks(
                [[a, QMatrix.zero(s, n - s, m.form)], [off, d]]
            )
        # [[A, B], [0, D]]^-1 = [[A^-1, -A^-1 B D^-1], [0, D^-1]]
        b = m.submatrix(0, s, s, n)
        off = -matmul(matmul(a, b), d)
        return QMatrix.from_blocks([[a, off], [QMatrix.zero(n - s, s, m.form), d]])
    raise NotInvertibleInSupportedClass(
        "no zero block corner found at any split point"
    )
