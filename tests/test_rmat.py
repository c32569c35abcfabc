"""Tests for the trigonometric R-matrix and its scalar identities.

The frozen entry tables below were expanded by hand from the definition
R = sum_{i<>j} e_ii (x) e_jj + q sum_i e_ii (x) e_ii
    + (q - q^-1) sum_{j<i} e_ij (x) e_ji
with composite index (i,k) -> i*dim2 + k (sheet-1-major, 0-based), before the
module was implemented.
"""

import pytest

from qtransport.qalg import QScalar
from qtransport.rmat import (
    CMatrix,
    build_P_rect,
    build_R,
    partial_transpose_t1,
    yang_baxter_residual,
)
from qtransport.verify import check_rmatrix, const

Q = QScalar.q_power(1)
QI = QScalar.q_power(-1)
QQ = Q - QI  # q - q^-1
ONE = QScalar.one()


def test_build_R_1_frozen():
    r = build_R(1)
    assert r.rows == r.cols == 1
    assert r.entries == {(0, 0): Q}


def test_build_R_2_frozen():
    r = build_R(2)
    assert r.rows == r.cols == 4
    assert r.entries == {
        (0, 0): Q,
        (1, 1): ONE,
        (2, 2): ONE,
        (3, 3): Q,
        (2, 1): QQ,
    }


def test_build_R_2_inverse_q_frozen():
    r = build_R(2, inverse_q=True)
    assert r.entries == {
        (0, 0): QI,
        (1, 1): ONE,
        (2, 2): ONE,
        (3, 3): QI,
        (2, 1): QI - Q,
    }


def test_build_R_nonzero_count():
    # k^2 diagonal entries plus k(k-1)/2 exchange entries
    for k in (2, 3, 4):
        r = build_R(k)
        assert len(r.entries) == k * k + k * (k - 1) // 2


def test_R_inverse_is_R_of_inverse_q():
    for k in (1, 2, 3, 4):
        r = build_R(k)
        ri = build_R(k, inverse_q=True)
        assert r * ri == CMatrix.identity(k * k)
        assert ri * r == CMatrix.identity(k * k)


def test_build_P_frozen():
    p = build_P_rect(2, 2)
    assert p.entries == {(0, 0): ONE, (1, 2): ONE, (2, 1): ONE, (3, 3): ONE}
    for k in (2, 3):
        p = build_P_rect(k, k)
        assert p * p == CMatrix.identity(k * k)


def test_build_P_rect_flip():
    # P_rect(a, b): flip V_a (x) V_b -> V_b (x) V_a, P[(k,i),(i,k)] = 1
    p = build_P_rect(2, 3)
    assert p.rows == 6 and p.cols == 6
    assert p * build_P_rect(3, 2) == CMatrix.identity(6)
    # entry for (i,k) = (1,2): col 1*3+2 = 5, row (k,i) = 2*2+1 = 5
    assert p.entries[(5, 5)] == ONE


def test_pr_equals_rt_p():
    for k in (2, 3):
        r = build_R(k)
        p = build_P_rect(k, k)
        assert p * r == r.transpose() * p


def test_rrp_identity():
    # R R^T = (q - q^-1) R P + Id
    for k in (2, 3):
        r = build_R(k)
        p = build_P_rect(k, k)
        lhs = r * r.transpose()
        rhs = (r * p).scale(QQ) + CMatrix.identity(k * k)
        assert lhs == rhs
        assert check_rmatrix(k).passed


def test_r_minus_rinvt_is_qq_p():
    # R^T - R^-1 = R - R^-T = (q - q^-1) P
    for k in (2, 3):
        r = build_R(k)
        ri = build_R(k, inverse_q=True)
        p = build_P_rect(k, k).scale(QQ)
        assert r.transpose() - ri == p
        assert r - ri.transpose() == p


def test_yang_baxter():
    for k in (2, 3):
        assert yang_baxter_residual(build_R(k), k).is_zero()


def test_yang_baxter_negative_control():
    # Perturbing R breaks the braid relation.
    r = build_R(2) + build_P_rect(2, 2).scale(QScalar.v_power(1))
    assert not yang_baxter_residual(r, 2).is_zero()
    assert yang_baxter_residual(build_R(2), 2).is_zero()


def test_partial_transposes_frozen():
    r = build_R(2)
    t1 = partial_transpose_t1(r)
    # the exchange term e_21 (x) e_12 becomes e_12 (x) e_12: row (0,0), col (1,1)
    assert t1.entries == {
        (0, 0): Q,
        (1, 1): ONE,
        (2, 2): ONE,
        (3, 3): Q,
        (0, 3): QQ,
    }
    t2 = partial_transpose_t1(r.transpose())  # the second-leg transpose
    # e_21 (x) e_12 becomes e_21 (x) e_21: row (1,1), col (0,0)
    assert t2.entries == {
        (0, 0): Q,
        (1, 1): ONE,
        (2, 2): ONE,
        (3, 3): Q,
        (3, 0): QQ,
    }


def test_partial_transpose_composition():
    for k in (2, 3):
        r = build_R(k)
        assert partial_transpose_t1(partial_transpose_t1(r)) == r


def test_partial_transpose_requires_square_tensor():
    m = CMatrix(2, 2, {(0, 0): ONE})
    with pytest.raises(ValueError):
        partial_transpose_t1(m)


def test_spectral_inverse_identity():
    # (u R - v R^-T)(u R^-1 - v R^T) = (u^2 + v^2 - (q^2 + q^-2) u v) Id,
    # checked per degree in the two spectral parameters:
    #   u^2: R R^-1 = Id;  v^2: R^-T R^T = Id;
    #   uv:  R R^T + R^-T R^-1 = (q^2 + q^-2) Id.
    for k in (2, 3):
        r = build_R(k)
        ri = build_R(k, inverse_q=True)
        rit = ri.transpose()
        ident = CMatrix.identity(k * k)
        assert r * ri == ident
        assert rit * r.transpose() == ident
        coeff = QScalar.q_power(2) + QScalar.q_power(-2)
        assert r * r.transpose() + rit * ri == ident.scale(coeff)


def test_t1_transposes_commute_with_R():
    # R^t1 and (R^-T)^t1 commute with both R and R^-T.
    for k in (2, 3):
        r = build_R(k)
        rit = build_R(k, inverse_q=True).transpose()
        for a in (partial_transpose_t1(r), partial_transpose_t1(rit)):
            for b in (r, rit):
                assert a * b == b * a


def test_affine_R_pair_frozen():
    # the coefficient pair (R*, R) of the spectral R-matrix u R* - v R
    assert const("R*", 1).entries == {(0, 0): QI}
    assert const("R", 1).entries == {(0, 0): Q}
    assert const("R", 3) == build_R(3)
    assert const("R*", 3) == build_R(3, inverse_q=True).transpose()


def test_R_block_structure_under_split():
    # Under V = V_a + V_b with sheet-1-major composite indices, R_{a+b} is
    # block diag(R_a, I, I, R_b) in the (11, 12, 21, 22) block order, plus a
    # single (q - q^-1) * flip block at (row (2,1)-block, col (1,2)-block).
    for a, b in ((1, 2), (2, 1), (2, 2)):
        k = a + b
        r = build_R(k)
        blocks = {}
        for (row, col), val in r.entries.items():
            i, kk = divmod(row, k)
            j, ll = divmod(col, k)
            rblk = (0 if i < a else 1, 0 if kk < a else 1)
            cblk = (0 if j < a else 1, 0 if ll < a else 1)

            def local(x, part):
                return x if part == 0 else x - a

            key = (rblk, cblk)
            blocks.setdefault(key, {})[
                (
                    local(i, rblk[0]) * (a if rblk[1] == 0 else b) + local(kk, rblk[1]),
                    local(j, cblk[0]) * (a if cblk[1] == 0 else b) + local(ll, cblk[1]),
                )
            ] = val
        assert blocks[((0, 0), (0, 0))] == build_R(a).entries
        assert blocks[((1, 1), (1, 1))] == build_R(b).entries
        assert blocks[((0, 1), (0, 1))] == CMatrix.identity(a * b).entries
        assert blocks[((1, 0), (1, 0))] == CMatrix.identity(b * a).entries
        assert blocks[((1, 0), (0, 1))] == build_P_rect(a, b).scale(QQ).entries
        assert set(blocks) == {
            ((0, 0), (0, 0)),
            ((1, 1), (1, 1)),
            ((0, 1), (0, 1)),
            ((1, 0), (1, 0)),
            ((1, 0), (0, 1)),
        }


def _bar(m):
    """Entry-wise v -> v^-1."""
    return CMatrix(
        m.rows,
        m.cols,
        {key: QScalar({-k: c for k, c in val.terms.items()})
         for key, val in m.entries.items()},
    )


def test_cmatrix_bar():
    r = build_R(3)
    assert _bar(r) == build_R(3, inverse_q=True)
