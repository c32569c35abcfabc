"""Exact identity checkers for transport matrices over the quantum torus.

Every checker recomputes the two sides of an algebraic identity and returns a
CheckReport listing the first offending entry of each failing relation.  One
reduction is derived rather than recomputed: a self-exchange with C = R* has
the residual of the one with C = R, because R - R* = (q - q^-1) P (checked
at each size before it is used) and P (1)M (2)M = (2)M (1)M P, so its row
repeats the R row's residual.
Nothing here is numerical: coefficients stay Laurent polynomials in v
throughout, so a pass is an exact statement about the network, not an
approximation.

Each exchange relation is a table of words in paper notation, constants
(R, R*, P, R^t1) and matrices on sheet 1 or 2; one evaluator, ``evaluate``,
turns the table into residual matrices.
"""

import functools
from collections import Counter, namedtuple
from itertools import product

from .ncmat import (
    QMatrix,
    add_acted,
    entry_products,
    lift1,
    lift2,
    matmul,
    sandwich,
    sheet_product,
    swap_sheets,
    table_term_pairs,
    transpose_q,
)
from .qalg import QScalar
from .rmat import (
    QQ,
    CMatrix,
    build_P_rect,
    build_R,
    partial_transpose_t1,
    yang_baxter_residual,
)


class CheckReport(namedtuple("CheckReport", "name parameters passed residuals")):
    """Outcome of one checker.

    residuals holds one record per failing relation: the relation label with
    the position of the first nonzero entry, and that entry rendered.
    """

    __slots__ = ()

    def to_json(self):
        return self._asdict()


def _first_nonzero(mat):
    if isinstance(mat, CMatrix):
        for (i, j), val in sorted(mat.entries.items()):
            if not val.is_zero():
                return f"[{i},{j}]", val.render()
        return None
    for i in range(mat.rows):
        for j in range(mat.cols):
            x = mat.entry(i, j)
            if not x.is_zero():
                return f"[{i},{j}]", x.render()
    return None


def _finish(name, parameters, items):
    residuals = []
    last = hit = None
    for label, mat in items:
        # a row that repeats the row before's residual repeats its scan too
        hit = hit if mat is last else _first_nonzero(mat)
        last = mat
        if hit is not None:
            residuals.append({"index": label + hit[0], "value": hit[1]})
    return CheckReport(
        name=name,
        parameters=parameters,
        passed=not residuals,
        residuals=residuals,
    )


@functools.cache
def const(name, *dims):
    """The constant matrix called name in the paper, built once per size.

    R, R^-1, R* = (R^-1)^t, R^t1 and R*^t1 take the dimension k of V; P takes
    (a, b) and flips V_a (x) V_b -> V_b (x) V_a.  Callers must not modify it.
    """
    if name == "P":
        return build_P_rect(*dims)
    if name.endswith("^t1"):
        return partial_transpose_t1(const(name[:-3], *dims))
    if name == "R*":
        return const("R^-1", *dims).transpose()
    return build_R(*dims, inverse_q={"R": False, "R^-1": True}[name])


def _constant_at(name, core, at):
    """The constant called name, sized for its place at "left", "mid" or "right"."""
    (s, x), (_, y) = core[0], core[-1]
    a = x.rows if at == "left" else x.cols
    b = y.cols if at == "right" else y.rows
    a, b = (a, b) if s == 1 else (b, a)  # sheet-1 and sheet-2 dimensions
    if name != "P":
        return const(name, a)
    return const("P", b, a) if at == "right" else const("P", a, b)


def _split(word):
    """A word as (outer constant name, the side it acts on, the inner factors)."""
    if isinstance(word[0], str):
        return word[0], "left", word[1:]
    if isinstance(word[-1], str):
        return word[-1], "right", word[:-1]
    return None, None, word


def _key(core):
    """Identifies the product a word reads.

    Two adjacent factors are keyed by their matrices in word order, whatever
    the sheets, so (1)X (2)Y and (2)X (1)Y share one product; a word with a
    middle constant by its sheets, constant name and matrices.
    """
    if len(core) == 2:
        return tuple(id(m) for _, m in core)
    return tuple(f if isinstance(f, str) else (f[0], id(f[1])) for f in core)


def _product(core, products):
    """The product _key names: (1)X (2)Y, or (s)X C (t)Y through the lifts.

    A mid-constant word is one sandwich of the lifts around C: each nonzero
    C[r, c] pairs column r of lift(X) with row c of lift(Y), so no C lift(Y)
    is built.  The lifts hold the entries of X and Y themselves, so the two
    kinds look their entry products up in one table of X with Y.
    """
    (s, x), (_, y) = core[0], core[-1]
    if len(core) == 2:
        return sheet_product(x, y, products)
    c = _constant_at(core[1], core, "mid")
    lift_x, lift_y = (lift1, lift2) if s == 1 else (lift2, lift1)
    return sandwich(lift_x(x, y.rows), c, lift_y(y, x.cols), products)


def _read(core, value):
    """The word's own product: a two-factor word on sheet 2 first swaps legs."""
    s, x = core[0]
    if len(core) == 2 and s == 2:
        return swap_sheets(value, x.rows, x.cols)
    return value


BUDGET = 10**6  # term pairs plus product cells of one evaluate call, 0.6-1.2 KB each


def evaluate(*relations):
    """The residual QMatrix of each relation.

    A relation is a list of (coefficient, word) terms, the coefficient 1, -1
    or a QScalar.  A word reads as in the paper: R (1)X (2)Y is
    ("R", (1, X), (2, Y)).  It places one matrix on each sheet, next to each
    other or around one constant, with at most one more constant outside;
    constants are named as in const and sized from the matrices beside them.

    Each term adds coefficient times constant entry times product entry
    into one flat map per relation, straight from the product matrix; a
    residual entry becomes a QElem only when it is nonzero.  A product that
    terms of one call share, across relations too, is built once and
    dropped after its last use, so a checker passes its whole window here
    in one call.  Two adjacent factors make one product per ordered pair of
    matrices, whatever the sheets: (2)X (1)Y reads the entries of
    (1)X (2)Y at swapped composite indices.  The products of one unordered
    pair of matrices {X, Y} read their entry products from one table
    (ncmat.entry_products), which holds x y and y x, built before the
    pair's first product and dropped after its last.  A call whose torus
    term pairs (ncmat.table_term_pairs over its tables) plus composite
    cells of its distinct products exceed BUDGET raises ValueError before
    it builds any table or product.  A word with an all-zero matrix has a
    zero product, so it is dropped before anything is counted or built, and
    a relation left with no word is the zero matrix of its shape.  Measured
    at peak RSS, a unit costs 0.6-1.2 KB (the most on sandwich-heavy
    relations), so a call at the limit holds at most about 1.2 GB.
    """
    parts = [[(c, *_split(w)) for c, w in terms] for terms in relations]
    # outer constants are square, so every word of a relation has the first word's shape
    shapes = [(x.rows * y.rows, x.cols * y.cols, x.form)
              for (_, x), *_, (_, y) in (rel[0][-1] for rel in parts)]
    parts = [[(c, name, side, core) for c, name, side, core in rel
              if not (core[0][1].is_zero() or core[-1][1].is_zero())] for rel in parts]
    uses = Counter(_key(core) for rel in parts for *_, core in rel)
    cores = {_key(core): core for rel in parts for *_, core in rel}
    # per unordered pair of matrices {X, Y}: its products still to build
    todo, pairs = Counter(), 0
    for (_, x), *_, (_, y) in cores.values():
        pair = frozenset((id(x), id(y)))
        if pair not in todo:
            pairs += table_term_pairs(x, y)
        todo[pair] += 1
    cells = sum(x.rows * x.cols * y.rows * y.cols
                for (_, x), *_, (_, y) in cores.values())
    if pairs + cells > BUDGET:
        raise ValueError(
            f"these relations need {pairs} torus term pairs and {cells} product cells, "
            f"{pairs + cells} in all; the limit is {BUDGET}"
        )
    tables = {}
    kept = {}
    out = []
    for rel, (rows, cols, form) in zip(parts, shapes):
        acc = {}
        span = 0
        for coeff, name, side, core in rel:
            key = _key(core)
            if key in kept:
                value = kept.pop(key)
            else:
                (_, x), *_, (_, y) = core
                pair = frozenset((id(x), id(y)))
                table = tables.get(pair)
                if table is None:
                    table = tables[pair] = entry_products(x, y)
                value = _product(core, table)
                todo[pair] -= 1
                if not todo[pair]:
                    del tables[pair]
            uses[key] -= 1
            if uses[key]:
                kept[key] = value
            c = name and _constant_at(name, core, side)
            span = max(span, add_acted(acc, _read(core, value), coeff, c, side))
            del value  # a product no later word reads is freed before the next is built
        out.append(QMatrix.from_cells(rows, cols, form, acc, span))
    return out


def _table(rows):
    """Evaluate labelled relations in one call: [(label, residual)].

    A row whose terms are None repeats the residual of the row before it.
    """
    found = iter(evaluate(*(t for _, t in rows if t is not None)))
    out = []
    for label, terms in rows:
        out.append((label, out[-1][1] if terms is None else next(found)))
    return out


def _by_level_sum(window, rows):
    """_table of a window's rows, evaluated in level-sum order, in window order.

    Rows of one level sum read the same products of levels, so evaluate
    frees each product within its band of rows, not across the window.
    """
    order = sorted(range(len(rows)), key=lambda i: sum(window[i]))
    found = dict(zip(order, _table([rows[i] for i in order])))
    return [found[i] for i in range(len(rows))]


def _exchange(terms):
    """The relation sum c w = sum c (w read backwards), as residual terms."""
    return terms + [(-c, word[::-1]) for c, word in terms]


@functools.cache
def _skein(k):
    """Confirm R - R* = (q - q^-1) P at size k, or raise RuntimeError."""
    if const("R", k) - const("R*", k) != const("P", k, k).scale(QQ):
        raise RuntimeError(f"R - R* is not (q - q^-1) P at size {k}")


def _self_exchange(m, tag=""):
    """C (1)M (2)M = (2)M (1)M C for C = R and C = R*; only the R row is evaluated.

    R - R* = (q - q^-1) P at both sizes the relation reads, m.rows on the
    left and m.cols on the right, and P (1)M (2)M = (2)M (1)M P by
    re-indexing alone.  So the R* residual equals the R residual entry for
    entry, and its row (terms None) repeats it, once _skein has confirmed
    the first fact at both sizes.
    """
    _skein(m.rows)
    _skein(m.cols)
    return [(tag + "R", _exchange([(1, ("R", (1, m), (2, m)))])), (tag + "R*", None)]


def check_rmatrix(k):
    """All constant R-matrix identities at size k."""
    r = const("R", k)
    ri = const("R^-1", k)
    rt = r.transpose()
    rit = const("R*", k)
    p = const("P", k, k)
    ident = CMatrix.identity(k * k)
    spectral = QScalar.q_power(2) + QScalar.q_power(-2)
    items = [
        ("yang-baxter", yang_baxter_residual(r, k)),
        ("inverse", r * ri - ident),
        ("hecke", r * rt - (r * p).scale(QQ) - ident),
        ("hecke-inv", ri * rit + (ri * p).scale(QQ) - ident),
        ("flip", p * r - rt * p),
        ("skein", r - rit - p.scale(QQ)),
        ("spectral", r * rt + rit * ri - ident.scale(spectral)),
    ]
    for nm, a in (("t1(R)", const("R^t1", k)), ("t1(R*)", const("R*^t1", k))):
        for nm2, b in (("R", r), ("R*", rit)):
            items.append((f"commute:{nm},{nm2}", a * b - b * a))
    return _finish("rmatrix", {"k": k}, items)


def check_rtt(m):
    """Self-exchange relations of a full transport matrix."""
    items = _table(_self_exchange(m))
    return _finish("rtt", {"rows": m.rows, "cols": m.cols}, items)


def check_blocks(b):
    """The complete set of exchange relations among the four blocks."""
    m11, m12, m21, m22 = b.M11, b.M12, b.M21, b.M22
    rows = []
    for tag, mat in (("M11:", m11), ("M12:", m12), ("M21:", m21), ("M22:", m22)):
        rows += _self_exchange(mat, tag)
    rows += [
        ("M12,M11", [(1, ((2, m11), (1, m12))), (-1, ("R", (1, m12), (2, m11)))]),
        ("M12,M22", [(1, ((1, m12), (2, m22))), (-1, ((2, m22), (1, m12), "R"))]),
        ("M11,M21", [(1, ((1, m11), (2, m21))), (-1, ((2, m21), (1, m11), "R"))]),
        ("M22,M21", [(1, ((2, m21), (1, m22))), (-1, ("R", (1, m22), (2, m21)))]),
        ("M12,M21", [(1, ((1, m12), (2, m21))), (-1, ((2, m21), (1, m12)))]),
        ("M11,M22", _exchange([(1, ((1, m11), (2, m22)))])
         + [(-QQ, ((2, m21), (1, m12), "P"))]),
    ]
    return _finish("blocks", {"n1": b.n1, "m": b.m, "n2": b.n2}, _table(rows))


def _affine_terms(tser, k, p):
    """Terms of the summed level-(k,p) exchange relation of a level family."""
    t = tser.get
    terms = [(1, ("R", (1, t(k)), (2, t(p))))]
    terms += [(QQ, ("P", (1, t(k + m)), (2, t(p - m)))) for m in range(1, p + 1)]
    return _exchange(terms)


def check_affine(tser, kmax, pmax):
    """Summed level relations over 0 <= k <= kmax, 0 <= p <= pmax."""
    window = list(product(range(kmax + 1), range(pmax + 1)))
    rows = [(f"S({k},{p})", _affine_terms(tser, k, p)) for k, p in window]
    return _finish("affine", {"kmax": kmax, "pmax": pmax}, _by_level_sum(window, rows))


def _loop_terms(x, y, a, b):
    """Terms of the spectral component (a, b) of two families' exchange."""
    x0, x1, y0, y1 = x.get(a), x.get(a + 1), y.get(b), y.get(b + 1)
    return _exchange([(1, ("R*", (1, x1), (2, y0))), (-1, ("R", (1, x0), (2, y1)))])


def check_loop(tser, lo, hi):
    """Componentwise exchange relations of a two-sided level family."""
    window = list(product(range(lo, hi + 1), repeat=2))
    rows = [(f"C({a},{b})", _loop_terms(tser, tser, a, b)) for a, b in window]
    return _finish("loop", {"lo": lo, "hi": hi}, _by_level_sum(window, rows))


def check_subalgebra(tser):
    """Exchange relations of the level-0 and level-(-1) generators alone."""
    tp0 = tser.get(0)
    tm1 = tser.get(-1)
    rows = _self_exchange(tp0, "T+0:")
    rows.append(("T-1,T+0", _exchange([(1, ("R", (1, tm1), (2, tp0)))])))
    rows += _self_exchange(tm1, "T-1:")
    return _finish("subalgebra", {}, _table(rows))


def check_groupoid(b):
    """Does M22 M12^-1 M11 reproduce M21 exactly?"""
    items = [("M22 M12^-1 M11 - M21", b.power(-1) - b.M21)]
    return _finish("groupoid", {"n1": b.n1, "m": b.m, "n2": b.n2}, items)


def check_aux_inverse(b):
    """Exchange relations of the inverse middle block with its neighbours.

    (2)M22 R^-1 (1)M12^-1 = (1)M12^-1 (2)M22,
    (1)M12^-1 R^-1 (2)M11 = (2)M11 (1)M12^-1,
    (1)M12^-1 (2)M12^-1 R = R (2)M12^-1 (1)M12^-1,
    and, with G = M22 M12^-1 M11, the cross relation
    (1)G (2)M11 R^-1 = (2)M11 (1)G - (q-q^-1) (1)M21 (2)M11 P.
    """
    inv, g = b.M12_inverse, b.power(-1)
    m11, m21, m22 = b.M11, b.M21, b.M22
    rows = [
        ("M22,M12^-1", [(1, ((2, m22), "R^-1", (1, inv))), (-1, ((1, inv), (2, m22)))]),
        ("M12^-1,M11", [(1, ((1, inv), "R^-1", (2, m11))), (-1, ((2, m11), (1, inv)))]),
        ("M12^-1,M12^-1", _exchange([(1, ((1, inv), (2, inv), "R"))])),
        ("G,M11", [
            (1, ((1, g), (2, m11), "R^-1")),
            (-1, ((2, m11), (1, g))),
            (QQ, ((1, m21), (2, m11), "P")),
        ]),
    ]
    params = {"n1": b.n1, "m": b.m, "n2": b.n2}
    return _finish("aux-inverse", params, _table(rows))


def reflection_constant_residual(a0):
    """R (1)A R^t1 (2)A - (2)A R^t1 (1)A R for one square matrix A."""
    return evaluate(_exchange([(1, ("R", (1, a0), "R^t1", (2, a0)))]))[0]


def check_reflection_constant(a0):
    """Constant reflection relation of a single square matrix."""
    if a0.rows != a0.cols:
        raise ValueError("reflection checks need a square matrix")
    items = [("constant", reflection_constant_residual(a0))]
    return _finish("reflection", {"size": a0.rows}, items)


def _reflection_affine_terms(aser, alpha, beta):
    """Terms of the bidegree (alpha, beta) spectral reflection component."""
    a = aser.get
    return _exchange([
        (1, ("R*", (1, a(alpha)), "R*^t1", (2, a(beta)))),
        (-1, ("R*", (1, a(alpha + 1)), "R^t1", (2, a(beta + 1)))),
        (-1, ("R", (1, a(alpha - 1)), "R*^t1", (2, a(beta + 1)))),
        (1, ("R", (1, a(alpha)), "R^t1", (2, a(beta + 2)))),
    ])


def check_reflection_affine(aser, kmax):
    """Spectral reflection relation over a window of bidegrees."""
    window = product(range(0, kmax + 1), range(-1, kmax))
    rows = [(f"({a},{b})", _reflection_affine_terms(aser, a, b)) for a, b in window]
    return _finish("reflection-affine", {"kmax": kmax}, _table(rows))


def check_disc_reflection(m):
    """Reflection relation of a transport matrix whose sink rows split in half.

    With M1 the top half and M2 the bottom half, A = M1^t M2 must be
    upper-triangular and satisfy the constant reflection relation.
    """
    if m.rows % 2 != 0:
        raise ValueError("need an even number of sink rows")
    half = m.rows // 2
    m1 = m.submatrix(0, half, 0, m.cols)
    m2 = m.submatrix(half, m.rows, 0, m.cols)
    a = matmul(transpose_q(m1), m2)
    lower = QMatrix.zero(a.rows, a.cols, a.form)
    for i, row in enumerate(a.data):
        lower.data[i][:i] = row[:i]
    items = [
        ("triangular", lower),
        ("reflection", reflection_constant_residual(a)),
    ]
    return _finish("disc-reflection", {"rows": m.rows, "cols": m.cols}, items)


def check_appendix(b):
    """Quadratic relation of the deep negative levels with the level defect.

    With T_k = M22 M12^-k M11 and D = T_1 - M21:
    R* (1)T_2 (2)T_2 - (2)T_2 (1)T_2 R*
      = (q - q^-1) [ P (1)T_3 (2)D - (2)D (1)T_3 P ].
    """
    t2, t3 = b.power(-2), b.power(-3)
    d = b.power(-1) - b.M21
    terms = [(1, ("R*", (1, t2), (2, t2))), (-QQ, ("P", (1, t3), (2, d)))]
    rows = [("appendix", _exchange(terms))]
    return _finish("appendix", {"n1": b.n1, "m": b.m, "n2": b.n2}, _table(rows))
