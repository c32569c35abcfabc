"""Acceptance suite: one numbered test per required behavior, strictest settings.

Every algebraic check is exact: a pass means the residual vanishes
identically as a Laurent-polynomial combination of ordered monomials, not
up to numerical tolerance.  The only tolerances are the wall-clock bounds
asserted below.
"""

import random
import time
from math import comb

from test_verify import (
    affine_level_residual,
    loop_component_residual,
    reflection_affine_residual,
    with_blocks,
)

from qtransport import verify
from qtransport.affine import TSeries, levels_T, loop_generators, reflection_series
from qtransport.ncmat import QMatrix, invert_restricted, matmul
from qtransport.network import (
    BlockTransport,
    block_split,
    build_chain,
    build_composite_example,
    build_triangle,
    f_rp_closed,
    f_rp_recursion,
    hat_blocks,
    staircase_level,
    transport_matrix,
)
from qtransport.qalg import QElem, QScalar, SkewForm, weyl
from qtransport.rmat import build_P_rect, build_R, yang_baxter_residual


def _chain_blocks(n1, n2, bridge=False):
    net = build_chain(n1, n2, bridge=bridge)
    return block_split(transport_matrix(net), n1, 1, n2)


def _triangle_blocks(n, split):
    return block_split(transport_matrix(build_triangle(n)), *split)


def _perturbed(m, i=0, j=0):
    data = [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]
    data[i][j] = data[i][j] + QElem.one(m.form)
    return QMatrix.from_rows(m.form, data)


def _scrambled_series(form_size=3, shape=(2, 2), top=7, seed=11):
    rng = random.Random(seed)
    e = [[0] * form_size for _ in range(form_size)]
    for i in range(form_size):
        for j in range(i + 1, form_size):
            w = rng.randrange(-2, 3)
            e[i][j] = w
            e[j][i] = -w
    form = SkewForm(e)
    levels = {}
    for n in range(top + 1):
        rows = []
        for _ in range(shape[0]):
            row = []
            for _ in range(shape[1]):
                exps = tuple(rng.randrange(-2, 3) for _ in range(form_size))
                row.append(weyl(form, exps, QScalar.v_power(rng.randrange(-2, 3))))
            rows.append(row)
        levels[n] = QMatrix.from_rows(form, rows)
    zero = QMatrix.zero(shape[0], shape[1], form)

    def level(n):
        return levels[n] if n >= 0 else zero

    return TSeries(form, shape[0], shape[1], level)


def _with_perturbed_level(t, k):
    """The family t with level k perturbed and every other level as in t."""

    def level(n):
        return _perturbed(t.get(n)) if n == k else t.get(n)

    return TSeries(t.form, t.rows, t.cols, level)


def test_01_rmatrix_suite_exact_under_5s():
    t0 = time.perf_counter()
    for k in (1, 2, 3, 4):
        rep = verify.check_rmatrix(k)
        assert rep.passed, (k, rep.residuals)
    assert time.perf_counter() - t0 < 5.0


def test_02_rtt_on_triangles_under_60s():
    rep = verify.check_rtt(transport_matrix(build_triangle(2)))
    assert rep.passed, rep.residuals
    t0 = time.perf_counter()
    rep = verify.check_rtt(transport_matrix(build_triangle(3)))
    assert rep.passed, rep.residuals
    assert time.perf_counter() - t0 < 60.0


def test_03_disc_reflection_on_triangles():
    for n in (2, 3):
        rep = verify.check_disc_reflection(transport_matrix(build_triangle(n)))
        assert rep.passed, (n, rep.residuals)


def test_04_block_algebra_every_admissible_split():
    nets = [
        ("triangle(2)", transport_matrix(build_triangle(2))),
        ("triangle(3)", transport_matrix(build_triangle(3))),
    ]
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for bridge in (False, True):
                tag = f"chain({a},{b}{',bridge' if bridge else ''})"
                nets.append((tag, transport_matrix(build_chain(a, b, bridge=bridge))))
    cases = 0
    for tag, m in nets:
        for msize in range(1, min(m.rows, m.cols)):
            n1 = m.cols - msize
            n2 = m.rows - msize
            if not (1 <= n1 <= 3 and msize <= 3 and 1 <= n2 <= 3):
                continue
            rep = verify.check_blocks(block_split(m, n1, msize, n2))
            assert rep.passed, (tag, (n1, msize, n2), rep.residuals)
            cases += 1
    assert cases >= 20  # the sweep must not silently degenerate


def test_05_affine_levels_and_telescoping():
    series = []
    for n, split in ((2, (1, 1, 3)), (3, (1, 2, 4))):
        t = levels_T(_triangle_blocks(n, split))
        rep = verify.check_affine(t, 3, 3)
        assert rep.passed, (n, rep.residuals)
        series.append(t)
    series.append(_scrambled_series())
    for t in series:
        for k in range(4):
            for p in range(k + 1):
                summed = affine_level_residual(t, k, p)
                acc = None
                for j in range(p + 1):
                    c = loop_component_residual(t, t, k + j, p - 1 - j)
                    acc = c if acc is None else acc + c
                assert summed == -acc


def test_06_loop_subalgebra_and_aux_relations():
    for blocks in (_chain_blocks(1, 1, bridge=True), _chain_blocks(2, 1, bridge=True)):
        t = loop_generators(blocks)
        rep = verify.check_loop(t, -3, 2)
        assert rep.passed, rep.residuals
        rep = verify.check_subalgebra(t)
        assert rep.passed, rep.residuals
        rep = verify.check_aux_inverse(blocks)
        assert rep.passed, rep.residuals


def test_07_appendix_identity():
    bridged = _chain_blocks(2, 1, bridge=True)
    rep = verify.check_appendix(bridged)
    assert rep.passed, rep.residuals
    # when the loopback identity holds the defect vanishes and the same
    # check reduces to the homogeneous deep-level relation
    plain = _chain_blocks(2, 1)
    defect = (
        matmul(matmul(plain.M22, invert_restricted(plain.M12)), plain.M11)
        - plain.M21
    )
    assert defect.is_zero()
    rep = verify.check_appendix(plain)
    assert rep.passed, rep.residuals


def test_08_groupoid_composite_and_generic_failure():
    assert verify.check_groupoid(build_composite_example()).passed
    rng = random.Random(5)
    e = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            e[i][j] = rng.randrange(-2, 3)
            e[j][i] = -e[i][j]
    form = SkewForm(e)
    z = QElem.zero(form)

    def mono(rows, cols, lower=False):
        data = []
        for i in range(rows):
            row = []
            for j in range(cols):
                if lower and j > i:
                    row.append(z)
                    continue
                exps = tuple(rng.randrange(-1, 2) for _ in range(6))
                row.append(weyl(form, exps, QScalar.v_power(rng.randrange(-2, 3))))
            data.append(row)
        return QMatrix.from_rows(form, data)

    generic = BlockTransport(
        n1=2,
        m=2,
        n2=2,
        M11=mono(2, 2),
        M12=mono(2, 2, lower=True),
        M21=mono(2, 2),
        M22=mono(2, 2),
    )
    rep = verify.check_groupoid(generic)
    assert not rep.passed


def test_09_combinatorial_tables_under_1s():
    t0 = time.perf_counter()
    for r in range(1, 9):
        for p in range(1, 9):
            val = staircase_level(hat_blocks(r), p)
            assert val == f_rp_recursion(r, p)
            assert val == f_rp_closed(r, p)
            if 1 < p <= r:
                assert val == 0
    for r in range(1, 9):
        inv = hat_blocks(r).M12_inverse
        power = QMatrix.identity(r, inv.form)
        for p in range(1, 9):
            power = matmul(power, inv)
            for i in range(r):
                for j in range(r):
                    want = (-1) ** (i - j) * comb(p, i - j) if i >= j else 0
                    assert power.entry(i, j) == weyl(
                        inv.form, (0,), QScalar.from_int(want)
                    ), (r, p, i, j)
    assert time.perf_counter() - t0 < 1.0


def test_10_affine_reflection_window_and_lowest_bidegree():
    blocks = _chain_blocks(2, 1, bridge=True)
    t = loop_generators(blocks)
    a = reflection_series(t)
    rep = verify.check_reflection_affine(a, 2)
    assert rep.passed, rep.residuals
    a1 = a.get(1)
    assert not a1.is_zero()
    assert reflection_affine_residual(a, 1, -1) == (
        verify.reflection_constant_residual(a1)
    )
    assert verify.check_reflection_constant(a1).passed


def test_11_every_checker_has_a_failing_control():
    bad_r = build_R(2) + build_P_rect(2, 2).scale(QScalar.v_power(1))
    assert not yang_baxter_residual(bad_r, 2).is_zero()
    m = transport_matrix(build_triangle(2))
    assert not verify.check_rtt(_perturbed(m)).passed
    assert not verify.check_disc_reflection(_perturbed(m, 1, 0)).passed
    b = _chain_blocks(2, 1, bridge=True)
    assert not verify.check_blocks(with_blocks(b, M12=_perturbed(b.M12))).passed
    assert not verify.check_aux_inverse(with_blocks(b, M11=_perturbed(b.M11))).passed
    plain = _chain_blocks(2, 1)
    assert not verify.check_appendix(with_blocks(plain, M21=_perturbed(plain.M21))).passed
    assert not verify.check_groupoid(b).passed  # the bridged chain itself
    assert not verify.check_affine(_scrambled_series(), 1, 1).passed
    t = loop_generators(b)
    assert not verify.check_loop(_with_perturbed_level(t, 1), -2, 1).passed
    assert not verify.check_subalgebra(_with_perturbed_level(t, 0)).passed
    a = reflection_series(t)
    bad1 = _perturbed(a.get(1))
    assert not verify.check_reflection_constant(bad1).passed
    assert not verify.check_reflection_affine(_with_perturbed_level(a, 1), 1).passed
