"""Which relation rows can fail, and what a relation of zero words costs.

On generic blocks (a few torus generators, a random skew form, two-term
entries and a lower-triangular M12 with a monomial diagonal) every row of
every checker that evaluates relations fails, except the rows _holding
names, each with the reason it holds for every input of its shape.
"""

import random

import pytest
from test_cli import _no_products

from qtransport import verify
from qtransport.affine import TSeries, levels_T, loop_generators, reflection_series
from qtransport.ncmat import QMatrix
from qtransport.network import BlockTransport
from qtransport.qalg import QElem, QScalar, SkewForm, weyl


def _generic_blocks(n1, m, n2, seed, gens=3):
    """Seeded blocks that satisfy no relation they are not forced to."""
    rng = random.Random(seed)
    e = [[0] * gens for _ in range(gens)]
    for i in range(gens):
        for j in range(i + 1, gens):
            e[i][j] = rng.randint(-2, 2)
            e[j][i] = -e[i][j]
    form = SkewForm(e)

    def monomial():
        exps = [rng.randint(-1, 1) for _ in range(gens)]
        return weyl(form, exps, QScalar.v_power(rng.randint(-2, 2)))

    def full(rows, cols):
        data = [[monomial() + monomial() for _ in range(cols)] for _ in range(rows)]
        return QMatrix.from_rows(form, data)

    z = QElem.zero(form)
    m12 = QMatrix.from_rows(form, [
        [monomial() + monomial() if j < i else monomial() if j == i else z for j in range(m)]
        for i in range(m)
    ])
    return BlockTransport(n1, m, n2, full(m, n1), m12, full(n2, n1), full(n2, m))


def _checkers(b):
    """(checker name, thunk) for every checker that evaluates relations."""
    loop = loop_generators(b)
    refl = reflection_series(loop)
    runs = [
        ("rtt", lambda: verify.check_rtt(b.matrix)),
        ("blocks", lambda: verify.check_blocks(b)),
        ("affine", lambda: verify.check_affine(levels_T(b), 2, 2)),
        ("aux-inverse", lambda: verify.check_aux_inverse(b)),
        ("loop", lambda: verify.check_loop(loop, -2, 1)),
        ("subalgebra", lambda: verify.check_subalgebra(loop)),
        ("appendix", lambda: verify.check_appendix(b)),
        ("reflection", lambda: verify.check_reflection_constant(refl.get(1))),
        ("reflection-affine", lambda: verify.check_reflection_affine(refl, 1)),
    ]
    if b.matrix.rows % 2 == 0:
        runs.append(("disc-reflection", lambda: verify.check_disc_reflection(b.matrix)))
    return runs


def _holding(n1, m, n2):
    """The (checker, row) pairs that hold for every input at split (n1, m, n2)."""
    # the reflection series is zero at every level <= 0, and row (0,-1) reads no other
    rows = {("reflection-affine", "(0,-1)")}
    # R at size 1 is the scalar q, so the self-exchange of a 1 x 1 matrix holds
    square = {"M11": (m, n1), "M12": (m, m), "M21": (n2, n1), "M22": (n2, m)}
    for tag, dims in square.items():
        if dims == (1, 1):
            rows |= {("blocks", f"{tag}:R"), ("blocks", f"{tag}:R*")}
    if m == 1:
        rows.add(("aux-inverse", "M12^-1,M12^-1"))
    if (n2, n1) == (1, 1):  # every level is 1 x 1; S(0,0) is T_0's self-exchange
        rows |= {("subalgebra", f"{t}:{c}") for t in ("T+0", "T-1") for c in ("R", "R*")}
        rows.add(("affine", "S(0,0)"))
    if n1 == 1:  # A is 1 x 1, and (0,0) and (1,-1) read only the word A(1) A(1)
        rows |= {("reflection", "constant"), ("reflection-affine", "(0,0)"),
                 ("reflection-affine", "(1,-1)")}
    return rows


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("split", [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 1, 2)])
def test_every_row_fails_on_generic_blocks_but_the_named_ones(split, seed, monkeypatch):
    finish = verify._finish
    rows = {}

    def spy(name, parameters, items):
        rows[name] = [label for label, _ in items]
        return finish(name, parameters, items)

    monkeypatch.setattr(verify, "_finish", spy)
    holding = set()
    for checker, run in _checkers(_generic_blocks(*split, seed)):
        rep = run()
        failing = {rec["index"][:rec["index"].rindex("[")] for rec in rep.residuals}
        assert failing <= set(rows[rep.name])
        holding |= {(checker, label) for label in rows[rep.name] if label not in failing}
    assert holding == _holding(*split)


def test_a_relation_of_zero_words_builds_nothing_and_is_zero_of_its_shape(monkeypatch):
    _no_products(monkeypatch)
    form = SkewForm([[0, 1], [-1, 0]])
    x = QMatrix.zero(2, 3, form)
    y = QMatrix.from_rows(form, [[weyl(form, (1, 0)), weyl(form, (0, 1))]])
    terms = [(1, ("R", (1, x), (2, y))), (QScalar.q_power(1), ("P", (1, y), (2, x)))]
    (res,) = verify.evaluate(verify._exchange(terms))
    assert res == QMatrix.zero(2, 6, form)
    # reflection-affine's window 0 is the row (0,-1) alone
    one = QMatrix.from_rows(form, [[weyl(form, (1, 1))]])
    a = TSeries(form, 1, 1, lambda k: QMatrix.zero(1, 1, form) if k <= 0 else one)
    rep = verify.check_reflection_affine(a, 0)
    assert rep.passed and rep.residuals == []
