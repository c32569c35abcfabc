"""Checker-level tests.

Every checker must pass on the builder networks it is designed for and
fail on a perturbed input, and the reports must carry usable residual
records.  The telescoping test pins the exact relationship between the
summed level relations and the componentwise ones on arbitrary input.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from test_ncmat import _matrix_pair

from qtransport import ncmat, qalg, verify
from qtransport.affine import TSeries, levels_T, loop_generators, reflection_series
from qtransport.ncmat import (
    NotInvertibleInSupportedClass,
    QMatrix,
    invert_restricted,
    matmul,
)
from qtransport.network import (
    BlockTransport,
    block_split,
    build_chain,
    build_triangle,
    transport_matrix,
)
from qtransport.qalg import QElem, QScalar, SkewForm, weyl


def affine_level_residual(tser, k, p):
    """Summed level-(k,p) exchange residual of a one-sided level family.

    R (1)T_k (2)T_p + (q-q^-1) P sum_{m=1..p} (1)T_{k+m} (2)T_{p-m}
    minus the same with the sheets read in the other order and the constant
    matrices acting on the column side instead.
    """
    return verify.evaluate(verify._affine_terms(tser, k, p))[0]


def loop_component_residual(x, y, a, b):
    """One spectral component of the exchange relation of two families.

    R* (1)X_{a+1} (2)Y_b - R (1)X_a (2)Y_{b+1}
    minus the sheet-reversed products with the constants on the column side.
    """
    return verify.evaluate(verify._loop_terms(x, y, a, b))[0]


def reflection_affine_residual(aser, alpha, beta):
    """Bidegree (alpha, beta) component of the spectral reflection relation."""
    return verify.evaluate(verify._reflection_affine_terms(aser, alpha, beta))[0]


def _perturbed(m, i=0, j=0):
    data = [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]
    data[i][j] = data[i][j] + QElem.one(m.form)
    return QMatrix.from_rows(m.form, data)


def with_blocks(b, **blocks):
    """A new BlockTransport with b's sizes and blocks, some of them replaced."""
    fields = {"n1": b.n1, "m": b.m, "n2": b.n2,
              "M11": b.M11, "M12": b.M12, "M21": b.M21, "M22": b.M22}
    return BlockTransport(**{**fields, **blocks})


def _chain_blocks(n1, n2, bridge=False):
    net = build_chain(n1, n2, bridge=bridge)
    return block_split(transport_matrix(net), n1, 1, n2)


def _triangle_blocks(n, split):
    net = build_triangle(n)
    return block_split(transport_matrix(net), *split)


def _scrambled_series(form_size=3, shape=(2, 2), top=5, seed=7):
    """Arbitrary monomial level matrices: satisfy no relations at all."""
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


def test_report_shape_and_json():
    rep = verify.check_rmatrix(2)
    assert rep.passed
    assert rep.name == "rmatrix"
    assert rep.parameters == {"k": 2}
    assert rep.residuals == []
    data = rep.to_json()
    assert set(data) == {"name", "parameters", "passed", "residuals"}
    json.dumps(data)


def test_rmatrix_sizes():
    for k in (1, 3):
        assert verify.check_rmatrix(k).passed


def test_rtt_on_builders():
    for net in (build_triangle(2), build_chain(1, 1), build_chain(2, 1, bridge=True)):
        rep = verify.check_rtt(transport_matrix(net))
        assert rep.passed, rep.residuals


def test_rtt_negative_control():
    m = transport_matrix(build_triangle(2))
    rep = verify.check_rtt(_perturbed(m))
    assert not rep.passed
    assert rep.residuals
    rec = rep.residuals[0]
    assert set(rec) == {"index", "value"}
    assert "[" in rec["index"] and rec["value"]


def test_r_star_self_exchange_residual_equals_r_residual():
    """The R* self-exchange residual of any matrix is its R residual.

    R - R* = (q - q^-1) P, which check_rmatrix checks as skein, and
    P (1)M (2)M = (2)M (1)M P by re-indexing alone, so the two residuals
    differ by (q - q^-1) times a zero matrix.  _self_exchange relies on
    this and evaluates only the R row, so both relations are evaluated in
    full here.
    """
    nonzero = []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_matrix_pair(chained=False))
    def same(pair):
        m = pair[0]
        relations = [verify._exchange([(1, (c, (1, m), (2, m)))]) for c in ("R", "R*")]
        r, r_star = verify.evaluate(*relations)
        assert r == r_star
        nonzero.append(not r.is_zero())

    same()
    assert any(nonzero)


def test_self_exchanges_route_each_product_once(monkeypatch):
    """The R* rows reuse the R residual: half the self-exchange routing."""
    b = _chain_blocks(2, 2, bridge=True)
    loop = loop_generators(b)
    calls = []

    def counted(*args):
        calls.append(args)
        return ncmat.add_acted(*args)

    monkeypatch.setattr(verify, "add_acted", counted)
    counts = {}
    for name, run in [
        ("rtt", lambda: verify.check_rtt(b.matrix)),
        ("blocks", lambda: verify.check_blocks(b)),
        ("subalgebra", lambda: verify.check_subalgebra(loop)),
    ]:
        calls.clear()
        assert run().passed, name
        counts[name] = len(calls)
    assert counts == {"rtt": 2, "blocks": 21, "subalgebra": 6}


@pytest.mark.parametrize("side", ["rows", "cols"])
def test_self_exchange_refuses_to_derive_r_star_without_the_skein(side, monkeypatch):
    m = transport_matrix(build_triangle(2))  # 4 x 2: the two sizes differ
    k = getattr(m, side)
    const = verify.const

    def broken(name, *dims):
        c = const(name, *dims)
        return c.scale(QScalar.q_power(2)) if name == "R*" and dims == (k,) else c

    monkeypatch.setattr(verify, "const", broken)
    verify._skein.cache_clear()
    message = f"^R - R\\* is not \\(q - q\\^-1\\) P at size {k}$"
    try:
        with pytest.raises(RuntimeError, match=message):
            verify.check_rtt(m)
    finally:
        verify._skein.cache_clear()  # drop the verdicts on the broken constant


def test_blocks_on_builders():
    cases = [
        _triangle_blocks(2, (1, 1, 3)),
        _chain_blocks(1, 1),
        _chain_blocks(1, 1, bridge=True),
        _chain_blocks(2, 1),
    ]
    for b in cases:
        rep = verify.check_blocks(b)
        assert rep.passed, rep.residuals


def test_blocks_negative_control():
    b = _chain_blocks(1, 1)
    rep = verify.check_blocks(with_blocks(b, M12=_perturbed(b.M12)))
    assert not rep.passed
    assert rep.residuals


def test_affine_levels_on_triangles():
    for n, split in ((2, (1, 1, 3)), (3, (1, 2, 4))):
        t = levels_T(_triangle_blocks(n, split))
        rep = verify.check_affine(t, 2, 2)
        assert rep.passed, rep.residuals


def test_affine_negative_control():
    rep = verify.check_affine(_scrambled_series(), 1, 1)
    assert not rep.passed
    assert rep.residuals


def test_telescoping_summed_vs_componentwise():
    # On any series vanishing below level zero, the summed level-(k,p)
    # residual is exactly minus the telescoped sum of componentwise
    # residuals, whether or not either side vanishes.
    t = _scrambled_series()
    for k, p in ((0, 0), (1, 1), (2, 1), (1, 2)):
        s = affine_level_residual(t, k, p)
        acc = None
        for j in range(p + 1):
            c = loop_component_residual(t, t, k + j, p - 1 - j)
            acc = c if acc is None else acc + c
        assert s == -acc
    assert not affine_level_residual(t, 1, 1).is_zero()


def test_loop_componentwise_on_chains():
    for bridge in (False, True):
        t = loop_generators(_chain_blocks(1, 1, bridge=bridge))
        rep = verify.check_loop(t, -2, 1)
        assert rep.passed, rep.residuals
    t = loop_generators(_chain_blocks(2, 1, bridge=True))
    rep = verify.check_loop(t, -2, 1)
    assert rep.passed, rep.residuals


def test_loop_groupoid_mode_on_plain_chain():
    # M22 M12^-1 M11 = M21 here, so it can be the level-zero generator and
    # the negative levels shift one power deeper, with no subtraction
    b = _chain_blocks(1, 1)
    assert verify.check_groupoid(b).passed
    t = TSeries(b.M21.form, b.n2, b.n1, lambda k: b.power(k - 1) if k else b.M21)
    rep = verify.check_loop(t, -2, 1)
    assert rep.passed, rep.residuals


def test_loop_negative_control():
    t = loop_generators(_chain_blocks(2, 1, bridge=True))
    rep = verify.check_loop(_with_perturbed_level(t, 1), -2, 1)
    assert not rep.passed


@pytest.mark.parametrize(
    "kind, series, window, levels",
    [
        ("loop", loop_generators, (-2, 1), range(-2, 3)),
        ("affine", levels_T, (2, 2), range(0, 5)),
    ],
)
def test_window_rows_are_evaluated_by_level_sum_and_reported_in_window_order(
    kind, series, window, levels, monkeypatch
):
    # Level 1 perturbed, so that rows of several level sums fail.  The rows
    # reach evaluate sorted by the levels their first word reads, and the
    # report equals the one of evaluating them in window order.
    t = _with_perturbed_level(series(_chain_blocks(2, 1, bridge=True)), 1)
    check = getattr(verify, f"check_{kind}")
    evaluated, finished = [], []
    evaluate, finish = verify.evaluate, verify._finish

    def spied_evaluate(*relations):
        evaluated.extend(relations)
        return evaluate(*relations)

    def spied_finish(name, parameters, items):
        finished.append(items)
        return finish(name, parameters, items)

    monkeypatch.setattr(verify, "evaluate", spied_evaluate)
    monkeypatch.setattr(verify, "_finish", spied_finish)
    rep = check(t, *window)
    level = {id(t.get(k)): k for k in levels}
    sums = [sum(level[id(mat)] for _, mat in relation[0][1][1:]) for relation in evaluated]
    assert sums == sorted(sums) and len(set(sums)) > 2
    (items,) = finished
    if kind == "loop":
        cells = product(range(window[0], window[1] + 1), repeat=2)
        rows = [(f"C({a},{b})", verify._loop_terms(t, t, a, b)) for a, b in cells]
    else:
        cells = product(range(window[0] + 1), range(window[1] + 1))
        rows = [(f"S({k},{p})", verify._affine_terms(t, k, p)) for k, p in cells]
    monkeypatch.setattr(verify, "evaluate", evaluate)
    assert [label for label, _ in items] == [label for label, _ in rows]
    assert items == verify._table(rows)
    assert not rep.passed and len({r["index"] for r in rep.residuals}) > 2


def test_subalgebra_on_chains():
    for blocks in (
        _chain_blocks(1, 1, bridge=True),
        _chain_blocks(2, 1, bridge=True),
        _chain_blocks(1, 2),
    ):
        t = loop_generators(blocks)
        rep = verify.check_subalgebra(t)
        assert rep.passed, rep.residuals


def test_subalgebra_negative_control():
    t = loop_generators(_chain_blocks(2, 1, bridge=True))
    rep = verify.check_subalgebra(_with_perturbed_level(t, 0))
    assert not rep.passed


def test_aux_inverse_on_chains():
    for blocks in (
        _chain_blocks(1, 1),
        _chain_blocks(1, 1, bridge=True),
        _chain_blocks(2, 1, bridge=True),
        _chain_blocks(1, 2),
    ):
        rep = verify.check_aux_inverse(blocks)
        assert rep.passed, rep.residuals


def test_aux_inverse_negative_control():
    b = _chain_blocks(2, 1, bridge=True)
    rep = verify.check_aux_inverse(with_blocks(b, M11=_perturbed(b.M11)))
    assert not rep.passed


def test_groupoid_checker():
    assert verify.check_groupoid(_chain_blocks(1, 1)).passed
    assert verify.check_groupoid(_chain_blocks(2, 2)).passed
    rep = verify.check_groupoid(_chain_blocks(1, 1, bridge=True))
    assert not rep.passed
    assert rep.residuals


def test_groupoid_checker_unsupported_inverse():
    with pytest.raises(NotInvertibleInSupportedClass):
        verify.check_groupoid(_triangle_blocks(2, (1, 1, 3)))


def test_reflection_constant_and_lowest_bidegree():
    t = loop_generators(_chain_blocks(2, 1, bridge=True))
    a = reflection_series(t)
    a1 = a.get(1)
    assert not a1.is_zero()
    rep = verify.check_reflection_constant(a1)
    assert rep.passed, rep.residuals
    # the lowest bidegree of the spectral relation is the constant one
    assert reflection_affine_residual(a, 1, -1) == (
        verify.reflection_constant_residual(a1)
    )


def test_reflection_affine_window():
    t = loop_generators(_chain_blocks(2, 1, bridge=True))
    a = reflection_series(t)
    rep = verify.check_reflection_affine(a, 1)
    assert rep.passed, rep.residuals


def test_reflection_negative_controls():
    t = loop_generators(_chain_blocks(2, 1, bridge=True))
    a = reflection_series(t)
    bad1 = _perturbed(a.get(1))
    assert not verify.check_reflection_constant(bad1).passed
    bad = _with_perturbed_level(a, 1)
    assert bad.get(1) == bad1
    assert not verify.check_reflection_affine(bad, 1).passed


def test_disc_reflection_on_triangles():
    for n in (2, 3):
        rep = verify.check_disc_reflection(transport_matrix(build_triangle(n)))
        assert rep.passed, rep.residuals


def test_disc_reflection_negative_control():
    m = transport_matrix(build_triangle(2))
    rep = verify.check_disc_reflection(_perturbed(m, 1, 0))
    assert not rep.passed


def test_disc_reflection_needs_even_rows():
    b = _chain_blocks(1, 2)
    with pytest.raises(ValueError):
        verify.check_disc_reflection(b.matrix.submatrix(0, 3, 0, 2))


def test_appendix_on_plain_chains():
    for b in (_chain_blocks(1, 1), _chain_blocks(2, 1)):
        rep = verify.check_appendix(b)
        assert rep.passed, rep.residuals


def test_appendix_on_bridged_chains():
    # here the defect D is nonzero, so the correction terms matter
    for b in (_chain_blocks(1, 1, bridge=True), _chain_blocks(2, 1, bridge=True)):
        assert not (b.M21 - matmul(matmul(b.M22, invert_restricted(b.M12)), b.M11)).is_zero()
        rep = verify.check_appendix(b)
        assert rep.passed, rep.residuals


def test_appendix_negative_control():
    b = _chain_blocks(2, 1)
    rep = verify.check_appendix(with_blocks(b, M21=_perturbed(b.M21)))
    assert not rep.passed


def _distinct_term_pairs(cores):
    """Term pairs of the entry pairs the products of cores read, each once.

    Entries are told apart by identity, and x y and y x are one pair.  A
    sheet product reads every nonzero entry of X with every one of Y; a
    sandwich pairs column r of lift(X) with row c of lift(Y) for each
    nonzero C[r, c].
    """
    pairs = {}
    for core in cores.values():
        (s, x), (_, y) = core[0], core[-1]
        if len(core) == 2:
            links = [(x.data, y.data)]
        else:
            lift_x, lift_y = (ncmat.lift1, ncmat.lift2) if s == 1 else (ncmat.lift2, ncmat.lift1)
            lx, ly = lift_x(x, y.rows), lift_y(y, x.cols)
            c = verify._constant_at(core[1], core, "mid")
            links = [
                ([[row[r]] for row in lx.data], [ly.data[k]]) for r, k in c.entries
            ]
        for left, right in links:
            xs = [e for row in left for e in row if e.terms]
            ys = [e for row in right for e in row if e.terms]
            for a in xs:
                for b in ys:
                    pairs[frozenset((id(a), id(b)))] = len(a.terms) * len(b.terms)
    return sum(pairs.values())


def test_term_pair_budget_bounds_the_pairs_multiplied(monkeypatch):
    """Every evaluate call multiplies each pair of entries once, for both orders.

    A spy on add_product sums |terms of x| |terms of y| over the products
    one call makes, whether or not the same pass adds y x.  That must equal
    an independent count, each unordered pair of entries the call's products
    read, once, times its term counts; and the budget's count, the sum of
    ncmat.table_term_pairs over the call's tables, must equal both.  Every checker
    runs, on plain and perturbed inputs.
    """
    made, calls = [0], []
    add_product, pair_terms, evaluate = (
        qalg.add_product, ncmat.table_term_pairs, verify.evaluate
    )

    def spy(sums, x, y, rev=None):
        made[0] += len(x.terms) * len(y.terms)
        return add_product(sums, x, y, rev)

    def counted(x, y):
        n = pair_terms(x, y)
        calls[-1][1] += n
        return n

    def checked(*relations):
        cores = [verify._split(word)[2] for terms in relations for _, word in terms]
        calls.append([_distinct_term_pairs({verify._key(c): c for c in cores}), 0])
        made[0] = 0
        out = evaluate(*relations)
        calls[-1].append(made[0])
        return out

    for module in (qalg, ncmat):
        monkeypatch.setattr(module, "add_product", spy)
    monkeypatch.setattr(verify, "table_term_pairs", counted)
    monkeypatch.setattr(verify, "evaluate", checked)
    b = _chain_blocks(2, 1, bridge=True)
    for blocks in (b, with_blocks(b, M11=_perturbed(b.M11)), _chain_blocks(2, 2, bridge=True)):
        verify.check_blocks(blocks)
        verify.check_aux_inverse(blocks)
        verify.check_appendix(blocks)
        t = levels_T(blocks)
        verify.check_affine(t, 1, 1)
        verify.check_subalgebra(loop_generators(blocks))
        verify.check_loop(loop_generators(blocks), -1, 1)
        a = reflection_series(loop_generators(blocks))
        verify.check_reflection_constant(a.get(1))
        verify.check_reflection_affine(a, 1)
        verify.check_reflection_affine(_with_perturbed_level(a, 1), 1)
    for n in (3, 4):
        m = transport_matrix(build_triangle(n))
        verify.check_rtt(m)
        verify.check_disc_reflection(m)
        verify.check_disc_reflection(_perturbed(m, 1, 0))
    assert len(calls) == 33
    assert all(0 < made == distinct == budget for distinct, budget, made in calls), calls
