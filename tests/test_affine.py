"""Tests for level matrices, loop generators, and reflection series."""

import pytest

from qtransport.qalg import QScalar
from qtransport.ncmat import (
    NotInvertibleInSupportedClass,
    QMatrix,
    invert_restricted,
    matmul,
    transpose_q,
)
from qtransport.network import block_split, build_chain, build_triangle, transport_matrix
from qtransport.affine import TSeries, levels_T, loop_generators, reflection_series


def _blocks(net, n1, m, n2):
    return block_split(transport_matrix(net), n1, m, n2)


def _groupoid_generators(block):
    """The level family whose level-zero generator is M22 M12^-1 M11.

    The network must satisfy M22 M12^-1 M11 = M21 exactly; the negative
    levels then sit one power deeper than in loop_generators, with no
    subtraction anywhere.
    """
    if block.power(-1) != block.M21:
        raise ValueError("groupoid family needs M22 M12^-1 M11 = M21")

    def level(k):
        return block.M21 if k == 0 else block.power(k - 1)

    return TSeries(block.M21.form, block.n2, block.n1, level)


def test_tseries_access_rules():
    net = build_chain(1, 1)
    b = _blocks(net, 1, 1, 1)
    built = []

    def level(k):
        built.append(k)
        if k < 0:
            return QMatrix.zero(1, 1, net.form)
        return {0: b.M21, 1: b.M22}[k]

    t = TSeries(net.form, 1, 1, level)
    assert built == []
    assert t.get(0) == b.M21
    assert t.get(1) == b.M22
    assert t.get(1) is t.get(1)
    assert t.get(-1).is_zero()
    assert t.get(-5).is_zero()
    assert t.get(-5) is t.get(-5)
    assert built == [0, 1, -1, -5]  # each level built once
    with pytest.raises(ValueError):
        TSeries(net.form, 2, 1, level).get(0)  # wrong shape


def test_levels_structural():
    b = _blocks(build_triangle(2), 1, 1, 3)
    t = levels_T(b)
    assert t.get(0) == b.M21
    assert t.get(1) == matmul(b.M22, b.M11)
    assert t.get(2) == matmul(b.M22, matmul(b.M12, b.M11))
    assert t.get(3) == matmul(b.M22, matmul(b.M12, matmul(b.M12, b.M11)))
    assert t.get(-2).is_zero()


def test_loop_generators_are_built_on_first_read():
    # M12 of triangle(3) split (1,2,4) is not invertible: the family still
    # builds, and only reading a negative level needs the inverse
    b = _blocks(build_triangle(3), 1, 2, 4)
    t = loop_generators(b)
    assert t.get(0) is t.get(0) is b.M21
    assert t.get(2) is t.get(2)
    assert t.get(2) == matmul(b.M22, matmul(b.M12, b.M11))
    with pytest.raises(NotInvertibleInSupportedClass):
        t.get(-1)


def test_loop_generators_plain_chain():
    b = _blocks(build_chain(1, 1), 1, 1, 1)
    t = loop_generators(b)
    inv = invert_restricted(b.M12)
    assert t.get(0) == b.M21
    assert t.get(2) == matmul(b.M22, matmul(b.M12, b.M11))
    # this network satisfies the loopback identity, so the corrected level -1
    # generator vanishes
    assert t.get(-1).is_zero()
    assert t.get(-2) == matmul(b.M22, matmul(inv, matmul(inv, b.M11)))


def test_loop_generators_groupoid_mode_shifts_negative_levels():
    b = _blocks(build_chain(2, 1), 2, 1, 1)
    t = _groupoid_generators(b)
    inv = invert_restricted(b.M12)
    assert t.get(0) == b.M21  # precondition holds and is used as level 0
    assert t.get(-1) == matmul(b.M22, matmul(inv, matmul(inv, b.M11)))
    assert t.get(1) == matmul(b.M22, b.M11)


def test_loop_generators_bridged():
    b = _blocks(build_chain(1, 1, bridge=True), 1, 1, 1)
    t = loop_generators(b)
    assert not t.get(-1).is_zero()
    with pytest.raises(ValueError):
        _groupoid_generators(b)


def test_reflection_series_structural():
    b = _blocks(build_chain(1, 2), 1, 1, 2)
    t = loop_generators(b)
    a = reflection_series(t)
    tp = lambda k: t.get(k)
    tm = lambda k: transpose_q(t.get(-k))
    assert a.get(1) == matmul(tm(1), tp(0))
    assert a.get(2) == matmul(tm(1), tp(1)) + matmul(tm(2), tp(0))
    assert a.get(3) == (
        matmul(tm(1), tp(2)) + matmul(tm(2), tp(1)) + matmul(tm(3), tp(0))
    )
    assert a.get(0).is_zero()
    assert a.get(-3).is_zero()


def test_reflection_series_shape():
    b = _blocks(build_chain(2, 1), 2, 1, 1)
    a = reflection_series(loop_generators(b))
    assert a.get(1).rows == a.get(1).cols == 2
