"""Tests for level matrices, loop generators, and reflection series."""

import pytest

from qtransport.qalg import QScalar
from qtransport.ncmat import QMatrix, invert_restricted, matmul, transpose_q
from qtransport.network import block_split, build_chain, build_triangle, transport_matrix
from qtransport.affine import (
    TruncationError,
    TSeries,
    levels_T,
    loop_generators,
    reflection_series,
)


def _blocks(net, n1, m, n2):
    return block_split(transport_matrix(net), n1, m, n2)


def test_tseries_access_rules():
    net = build_chain(1, 1)
    b = _blocks(net, 1, 1, 1)
    t = TSeries(net.form, 1, 1, {0: b.M21, 1: b.M22}, zero_le=-1)
    assert t.get(0) == b.M21
    assert t.get(1) == b.M22
    assert t.get(-1).is_zero()
    assert t.get(-5).is_zero()
    assert t.available(-3) and t.available(1) and not t.available(2)
    with pytest.raises(TruncationError):
        t.get(2)


def test_levels_structural():
    b = _blocks(build_triangle(2), 1, 1, 3)
    t = levels_T(b, 3)
    assert t.get(0) == b.M21
    assert t.get(1) == matmul(b.M22, b.M11)
    assert t.get(2) == matmul(b.M22, matmul(b.M12, b.M11))
    assert t.get(3) == matmul(b.M22, matmul(b.M12, matmul(b.M12, b.M11)))
    assert t.get(-2).is_zero()
    with pytest.raises(TruncationError):
        t.get(4)


def test_loop_generators_plain_chain():
    b = _blocks(build_chain(1, 1), 1, 1, 1)
    t = loop_generators(b, 3)
    inv = invert_restricted(b.M12)
    assert t.get(0) == b.M21
    assert t.get(2) == matmul(b.M22, matmul(b.M12, b.M11))
    # this network satisfies the loopback identity, so the corrected level -1
    # generator vanishes
    assert t.get(-1).is_zero()
    assert t.get(-2) == matmul(b.M22, matmul(inv, matmul(inv, b.M11)))
    with pytest.raises(TruncationError):
        t.get(4)
    with pytest.raises(TruncationError):
        t.get(-4)


def test_loop_generators_groupoid_mode_shifts_negative_levels():
    b = _blocks(build_chain(2, 1), 2, 1, 1)
    t = loop_generators(b, 2, groupoid_mode=True)
    inv = invert_restricted(b.M12)
    assert t.get(0) == b.M21  # precondition holds and is used as level 0
    assert t.get(-1) == matmul(b.M22, matmul(inv, matmul(inv, b.M11)))
    assert t.get(1) == matmul(b.M22, b.M11)


def test_loop_generators_bridged():
    b = _blocks(build_chain(1, 1, bridge=True), 1, 1, 1)
    t = loop_generators(b, 2)
    assert not t.get(-1).is_zero()
    with pytest.raises(ValueError):
        loop_generators(b, 2, groupoid_mode=True)


def test_reflection_series_structural():
    b = _blocks(build_chain(1, 2), 1, 1, 2)
    t = loop_generators(b, 3)
    a = reflection_series(t, 2)
    tp = lambda k: t.get(k)
    tm = lambda k: transpose_q(t.get(-k))
    assert a.get(1) == matmul(tm(1), tp(0))
    assert a.get(2) == matmul(tm(1), tp(1)) + matmul(tm(2), tp(0))
    assert a.get(3) == (
        matmul(tm(1), tp(2)) + matmul(tm(2), tp(1)) + matmul(tm(3), tp(0))
    )
    assert a.get(0).is_zero()
    assert a.get(-3).is_zero()
    with pytest.raises(TruncationError):
        a.get(4)


def test_reflection_series_shape():
    b = _blocks(build_chain(2, 1), 2, 1, 1)
    t = loop_generators(b, 2)
    a = reflection_series(t, 1)
    assert a.get(1).rows == a.get(1).cols == 2
