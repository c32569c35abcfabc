"""Differential test of the relation evaluator against its earlier form.

The oracle below is the evaluator as it was before residuals were summed
into flat maps: each product became a dense QMatrix, a run of adjacent terms
with the same outer constant was summed first, the constant then acted
through the earlier two-sided classical_act, and the runs were folded with
QMatrix arithmetic, one evaluate call per relation.  Its products come from
its own copy of the earlier _product: a sheet product in either order, or a
dense matmul of the lifts.  The dense kernels, the lifts and that
classical_act are the copies kept in test_ncmat, so the oracle shares no
arithmetic with the routing primitive evaluate uses.  Every checker's relation
table, on every builder below, plain and perturbed, must give the same
residual matrices entry for entry, and so must random word tables over
small random matrices.  The self-exchange rows with C = R*, which the
checkers derive from the R rows rather than evaluate, must report what the
oracle finds for the R* relation in full.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ncmat import (
    FORM2,
    FORM3,
    _sparse_qmatrix,
    dense_classical_act,
    dense_lift1,
    dense_lift2,
    dense_matmul,
    ordered_sheet_product,
)

from qtransport import verify
from qtransport.affine import levels_T, loop_generators, reflection_series
from qtransport.ncmat import NotInvertibleInSupportedClass, QMatrix
from qtransport.network import (
    block_split,
    build_chain,
    build_triangle,
    hat_blocks,
    transport_matrix,
)
from qtransport.qalg import QElem
from qtransport.rmat import QQ


def _fold(total, run):
    """Add one run [constant, side, coefficient, summed products] to total."""
    if run is None:
        return total
    c, side, coeff, acc = run
    if c is not None:
        acc = dense_classical_act(c, acc, side)
    if coeff != 1:
        acc = -acc if coeff == -1 else acc.scale(coeff)
    return acc if total is None else total + acc


def _product(core):
    """(s)X (t)Y as a sheet product, or (s)X C (t)Y through the lifts."""
    (s, x), (_, y) = core[0], core[-1]
    if len(core) == 2:
        if s == 1:
            return ordered_sheet_product(x, y, 12)
        return ordered_sheet_product(y, x, 21)
    c = verify._constant_at(core[1], core, "mid")
    lift_x, lift_y = (dense_lift1, dense_lift2) if s == 1 else (dense_lift2, dense_lift1)
    return dense_matmul(
        lift_x(x, y.rows), dense_classical_act(c, lift_y(y, x.cols), "left")
    )


def _oracle_one(terms):
    """The residual QMatrix of one relation, folded run by run."""
    total = run = None
    for coeff, word in terms:
        name, side, core = verify._split(word)
        value = _product(core)
        c = name and verify._constant_at(name, core, side)
        if run and run[0] is c and run[1] == side and coeff in (run[2], -run[2]):
            run[3] = run[3] + value if coeff == run[2] else run[3] - value
        else:
            total = _fold(total, run)
            run = [c, side, coeff, value]
    return _fold(total, run)


def oracle_evaluate(*relations):
    return [_oracle_one(terms) for terms in relations]


# name -> (its transport matrix, built inside the tests that read it, and its
# block split); a drawing that breaks fails those tests rather than this
# file's collection
BUILDERS = {
    **{
        f"triangle({n})": (lambda n=n: transport_matrix(build_triangle(n)), (1, n - 1, n + 1))
        for n in (2, 3, 4)
    },
    "chain(2,2,bridge)": (lambda: transport_matrix(build_chain(2, 2, bridge=True)), (2, 1, 2)),
    "hat(3)": (lambda: hat_blocks(3).matrix, (1, 3, 1)),
}


@functools.cache
def _built(name):
    build, split = BUILDERS[name]
    return build(), split


def _perturbed(m):
    """m with 1 added at [0, 0], an entry of M11 under every split here."""
    data = [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]
    data[0][0] = data[0][0] + QElem.one(m.form)
    return QMatrix.from_rows(m.form, data)


def _checkers(m, split):
    """(checker name, thunk) for every checker that evaluates relations."""
    b = block_split(m, *split)
    runs = [
        ("rtt", lambda: verify.check_rtt(m)),
        ("blocks", lambda: verify.check_blocks(b)),
        ("affine", lambda: verify.check_affine(levels_T(b), 2, 2)),
    ]
    if m.rows % 2 == 0:
        runs.append(("disc-reflection", lambda: verify.check_disc_reflection(m)))
    try:
        b.M12_inverse
    except NotInvertibleInSupportedClass:
        return runs
    loop = loop_generators(b)
    refl = reflection_series(loop)
    return runs + [
        ("loop", lambda: verify.check_loop(loop, -2, 1)),
        ("subalgebra", lambda: verify.check_subalgebra(loop)),
        ("aux-inverse", lambda: verify.check_aux_inverse(b)),
        ("appendix", lambda: verify.check_appendix(b)),
        ("reflection", lambda: verify.check_reflection_constant(refl.get(1))),
        ("reflection-affine", lambda: verify.check_reflection_affine(refl, 1)),
    ]


# The hat is a classical block system, not a planar network: its blocks fail
# the exchange relations as they stand, and its level matrices are 1x1 over
# a commutative torus, where every level relation holds whatever the entries.
HAT_LEVEL_CHECKERS = {
    "affine", "loop", "subalgebra", "appendix", "reflection", "reflection-affine",
}

CASES = [
    pytest.param(name, perturb, id=f"{name}-{'perturbed' if perturb else 'plain'}")
    for name in BUILDERS
    for perturb in (False, True)
]


@pytest.mark.parametrize("name, perturb", CASES)
def test_evaluate_matches_oracle_entry_for_entry(name, perturb, monkeypatch):
    m, split = _built(name)
    evaluate = verify.evaluate
    seen = []

    def compared(*relations):
        got = evaluate(*relations)
        want = oracle_evaluate(*relations)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.rows, g.cols) == (w.rows, w.cols)
            assert g == w
        seen.extend(got)
        return got

    monkeypatch.setattr(verify, "evaluate", compared)
    checkers = _checkers(_perturbed(m) if perturb else m, split)
    failing = set()
    for checker, run in checkers:
        before = len(seen)
        rep = run()
        assert len(seen) > before, checker
        if any(not res.is_zero() for res in seen[before:]):
            failing.add(checker)
        elif checker != "disc-reflection":  # its triangular half is not evaluated
            assert rep.passed, checker
    if name == "hat(3)":
        assert failing == {c for c, _ in checkers} - HAT_LEVEL_CHECKERS
    else:
        assert failing == ({c for c, _ in checkers} if perturb else set())


def _first_record(label, mat):
    """A checker's records for one relation: its first nonzero entry, if any."""
    for i in range(mat.rows):
        for j in range(mat.cols):
            x = mat.entry(i, j)
            if not x.is_zero():
                return [{"index": f"{label}[{i},{j}]", "value": x.render()}]
    return []


@pytest.mark.parametrize("name, perturb", CASES)
def test_derived_r_star_rows_match_the_full_relation(name, perturb):
    """The R* self-exchange records, derived from the R rows, are those of the
    R* relation evaluated in full through the oracle."""
    m, split = _built(name)
    m = _perturbed(m) if perturb else m
    b = block_split(m, *split)
    runs = [
        (verify.check_rtt, m, [("", m)]),
        (verify.check_blocks, b,
         [("M11:", b.M11), ("M12:", b.M12), ("M21:", b.M21), ("M22:", b.M22)]),
    ]
    try:
        b.M12_inverse
    except NotInvertibleInSupportedClass:
        pass
    else:
        loop = loop_generators(b)
        runs.append((verify.check_subalgebra, loop,
                     [("T+0:", loop.get(0)), ("T-1:", loop.get(-1))]))
    failing = 0
    for check, arg, tagged in runs:
        got = [r for r in check(arg).residuals if "R*[" in r["index"]]
        want = []
        for tag, mat in tagged:
            (full,) = oracle_evaluate(verify._exchange([(1, ("R*", (1, mat), (2, mat)))]))
            want += _first_record(tag + "R*", full)
        assert got == want, check.__name__
        failing += len(got)
    assert bool(failing) == (perturb or name == "hat(3)")  # the hat's blocks fail as they stand


OUTER = ["R", "R*", "R^-1", "P", "R^t1", "R*^t1"]
MIDDLE = ["R", "R*", "R^-1", "R^t1", "R*^t1"]


@st.composite
def _word_tables(draw):
    """Relations of random words over a few random matrices of one shape.

    Each word puts two matrices of the pool, the same one drawn twice
    included, on sheets 1 and 2 in either order, with a constant outside on
    either side or none and, when the matrices are square, a constant in
    the middle or none; each term has coefficient 1, -1 or q - q^-1.
    """
    form = draw(st.sampled_from([FORM2, FORM3]))
    rows = draw(st.integers(1, 3))
    square = draw(st.booleans())  # a middle constant needs square matrices
    cols = rows if square else draw(st.integers(1, 3))
    pool = [draw(_sparse_qmatrix(form, rows, cols)) for _ in range(draw(st.integers(1, 3)))]
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            s = draw(st.sampled_from([1, 2]))
            core = ((s, draw(st.sampled_from(pool))), (3 - s, draw(st.sampled_from(pool))))
            if square and draw(st.booleans()):
                core = (core[0], draw(st.sampled_from(MIDDLE)), core[1])
            side = draw(st.sampled_from([None, "left", "right"]))
            if side == "left":
                core = (draw(st.sampled_from(OUTER)), *core)
            elif side == "right":
                core = (*core, draw(st.sampled_from(OUTER)))
            terms.append((draw(st.sampled_from([1, -1, QQ])), core))
        relations.append(terms)
    return relations


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_word_tables())
def test_random_word_tables_match_oracle(relations):
    assert verify.evaluate(*relations) == oracle_evaluate(*relations)
