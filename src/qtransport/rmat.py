"""The trigonometric R-matrix, permutation matrices, and their identities.

All matrices here have commuting entries in Z[v, v^-1] (QScalar) and are kept
sparse.  Tensor-square indices are always composite (i, k) -> i*dim2 + k with
the sheet-1 index major, 0-based.
"""

from __future__ import annotations

from .qalg import QScalar

# q - q^-1, the coefficient of every permutation correction term
QQ = QScalar({2: 1, -2: -1})


class CMatrix:
    """A sparse matrix over the commutative coefficient ring Z[v, v^-1]."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c), val in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("entry index out of range")
                if not val.is_zero():
                    clean[(r, c)] = val
        self.entries = clean

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        one = QScalar.one()
        return cls(n, n, {(i, i): one for i in range(n)})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other: "CMatrix") -> "CMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = dict(self.entries)
        for key, val in other.entries.items():
            s = out.get(key)
            s = val if s is None else s + val
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        res = CMatrix.__new__(CMatrix)
        res.rows, res.cols, res.entries = self.rows, self.cols, out
        return res

    def __neg__(self) -> "CMatrix":
        res = CMatrix.__new__(CMatrix)
        res.rows, res.cols = self.rows, self.cols
        res.entries = {key: -val for key, val in self.entries.items()}
        return res

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        return self + (-other)

    def __mul__(self, other: "CMatrix") -> "CMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row = {}
        for (r, c), val in other.entries.items():
            by_row.setdefault(r, []).append((c, val))
        out = {}
        for (r, c), val in self.entries.items():
            for c2, val2 in by_row.get(c, ()):
                key = (r, c2)
                s = out.get(key)
                p = val * val2
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        res = CMatrix.__new__(CMatrix)
        res.rows, res.cols, res.entries = self.rows, other.cols, out
        return res

    def scale(self, c: QScalar) -> "CMatrix":
        out = {}
        for key, val in self.entries.items():
            p = val * c
            if not p.is_zero():
                out[key] = p
        res = CMatrix.__new__(CMatrix)
        res.rows, res.cols, res.entries = self.rows, self.cols, out
        return res

    def transpose(self) -> "CMatrix":
        res = CMatrix.__new__(CMatrix)
        res.rows, res.cols = self.cols, self.rows
        res.entries = {(c, r): val for (r, c), val in self.entries.items()}
        return res

    def __repr__(self) -> str:
        return f"CMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def _tensor_dim(m: CMatrix) -> int:
    if m.rows != m.cols:
        raise ValueError("partial transpose needs a square matrix")
    k = int(round(m.rows**0.5))
    if k * k != m.rows:
        raise ValueError("matrix size is not a perfect square")
    return k


def partial_transpose_t1(m: CMatrix) -> CMatrix:
    """Transpose the first tensor leg: e_ij (x) e_kl -> e_ji (x) e_kl."""
    k = _tensor_dim(m)
    out = {}
    for (row, col), val in m.entries.items():
        i, a = divmod(row, k)
        j, b = divmod(col, k)
        out[(j * k + a, i * k + b)] = val
    return CMatrix(m.rows, m.cols, out)


def build_R(k: int, inverse_q: bool = False) -> CMatrix:
    """The k^2 x k^2 trigonometric R-matrix.

    R = sum_{i<>j} e_ii (x) e_jj + q sum_i e_ii (x) e_ii
        + (q - q^-1) sum_{j<i} e_ij (x) e_ji.

    With inverse_q=True every q is replaced by q^-1, which yields R^-1.
    """
    sign = -1 if inverse_q else 1
    q = QScalar.q_power(sign)
    qq = QScalar({sign * e: c for e, c in QQ.terms.items()})  # QQ at q^sign
    one = QScalar.one()
    entries = {}
    for i in range(k):
        for j in range(k):
            idx = i * k + j
            entries[(idx, idx)] = q if i == j else one
    for i in range(k):
        for j in range(i):
            # e_ij (x) e_ji: row (i, j), col (j, i)
            entries[(i * k + j, j * k + i)] = qq
    return CMatrix(k * k, k * k, entries)


def build_P_rect(a: int, b: int) -> CMatrix:
    """The flip V_a (x) V_b -> V_b (x) V_a: P[(k,i), (i,k)] = 1.

    Rows are composite over V_b (x) V_a, columns over V_a (x) V_b.
    """
    one = QScalar.one()
    entries = {}
    for i in range(a):
        for k in range(b):
            entries[(k * a + i, i * b + k)] = one
    return CMatrix(a * b, b * a, entries)


def _embed_two_legs(r: CMatrix, k: int, leg1: int, leg2: int) -> CMatrix:
    """Embed a k^2-matrix into legs (leg1, leg2) of a 3-fold tensor power."""
    dims = [k, k, k]
    total = k**3
    out = {}
    other = next(i for i in range(3) if i not in (leg1, leg2))

    def composite(vals):
        idx = 0
        for d, x in zip(dims, vals):
            idx = idx * d + x
        return idx

    for (row, col), val in r.entries.items():
        i, a = divmod(row, k)
        j, b = divmod(col, k)
        for m in range(k):
            rv = [0, 0, 0]
            cv = [0, 0, 0]
            rv[leg1], rv[leg2], rv[other] = i, a, m
            cv[leg1], cv[leg2], cv[other] = j, b, m
            out[(composite(rv), composite(cv))] = val
    return CMatrix(total, total, out)


def yang_baxter_residual(r: CMatrix, k: int) -> CMatrix:
    """R12 R13 R23 - R23 R13 R12 on the triple tensor power."""
    r12 = _embed_two_legs(r, k, 0, 1)
    r13 = _embed_two_legs(r, k, 0, 2)
    r23 = _embed_two_legs(r, k, 1, 2)
    return r12 * r13 * r23 - r23 * r13 * r12
