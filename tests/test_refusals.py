"""Every refusal of the library that no other test reaches, one case each.

Each case is a call, the exception it raises and its exact message.  With
these cases and the few tests beside them (a patched inverse, equal forms,
the reprs, collinear segments), tests/line_trace.py finds no line of
src/qtransport unrun but a forked child's and the __main__ guard.
"""

from fractions import Fraction

import pytest

from qtransport import ncmat
from qtransport.geometry import _segments_meet, derive_network_data
from qtransport.ncmat import (
    NotInvertibleInSupportedClass,
    QMatrix,
    classical_act,
    entry_products,
    invert_restricted,
    matmul,
    sandwich,
)
from qtransport.network import (
    Network,
    assemble_composite,
    build_triangle,
    f_rp_closed,
    f_rp_recursion,
    hat_matrix,
)
from qtransport.qalg import QElem, QScalar, SkewForm, qmul, weyl
from qtransport.rmat import CMatrix, partial_transpose_t1
from qtransport.verify import check_reflection_constant

FORM = SkewForm([[0, 1], [-1, 0]])
OTHER = SkewForm([[0, 2], [-2, 0]])


def zero(rows, cols, form=FORM):
    return QMatrix.zero(rows, cols, form)


def composite(**shapes):
    """assemble_composite on zero pieces of a consistent shape, some replaced."""
    pieces = {
        "t11": (2, 2), "t12": (2, 1), "t21": (2, 2), "t22": (1, 2),
        "t23": (1, 1), "t31": (1, 1), "t32": (1, 1), **shapes,
    }
    return assemble_composite(**{name: zero(*shape) for name, shape in pieces.items()})


def k4(tag, x0, y0):
    """A planar K4 of splits and merges at (x0, y0): (vertices, edges, coords, markers)."""
    u, w, x, y = (f"{tag}{c}" for c in "uwxy")
    coords = {u: (x0, y0), w: (x0 + 4, y0), y: (x0 + 2, y0 + 4), x: (x0 + 2, y0 + 1)}
    edges = [(u, w), (u, x), (x, w), (x, y), (w, y), (y, u)]
    markers = [(x0 + 2, y0 + Fraction(1, 3)), (x0 + 3, y0 + 2), (x0 + 1, y0 + 2)]
    return list(coords), edges, coords, markers


def two_detached_k4s():
    """triangle(2)'s drawing with two K4s joined to nothing, listed first.

    Each K4's outside is a negative-area orbit beside the ring's, and its
    vertices come first in the walk, so the second K4 is refused before any
    face that holds a K4 counts its markers.
    """
    net = build_triangle(2)
    a, b = k4("a", -1, 8), k4("b", -1, -14)
    return derive_network_data(
        a[0] + b[0] + net.vertices,
        a[1] + b[1] + [(e.frm, e.to) for e in net.edges],
        net.sources,
        net.sinks,
        {**net.geometry.coords, **a[2], **b[2]},
        [*net.geometry.face_markers, *a[3], *b[3]],
    )


CASES = [
    # ncmat: shapes and forms
    ("qmatrix-shape", lambda: QMatrix(2, 2, FORM, [[None, None]]),
     ValueError, "data does not match shape"),
    ("qmatrix-add", lambda: zero(1, 2) + zero(2, 1), ValueError, "shape mismatch"),
    ("blocks-heights", lambda: QMatrix.from_blocks([[zero(1, 1), zero(2, 1)]]),
     ValueError, "block row heights differ"),
    ("blocks-widths", lambda: QMatrix.from_blocks([[zero(1, 1)], [zero(1, 2)]]),
     ValueError, "block column widths differ"),
    ("matmul-shape", lambda: matmul(zero(1, 2), zero(1, 2)), ValueError, "shape mismatch"),
    ("matmul-form", lambda: matmul(zero(1, 1), zero(1, 1, OTHER)),
     ValueError, "matrices live on different quantum tori"),
    ("entry-products-form", lambda: entry_products(zero(1, 1), zero(1, 1, OTHER)),
     ValueError, "matrices live on different quantum tori"),
    ("sandwich-shape", lambda: sandwich(zero(1, 2), CMatrix(3, 1), zero(1, 1), {}),
     ValueError, "shape mismatch"),
    ("classical-act-shape", lambda: classical_act(CMatrix(1, 2), zero(1, 1)),
     ValueError, "shape mismatch"),
    # network
    ("network-without-form-or-drawing", lambda: Network(None, ["s", "t"], [], ["s"], ["t"]),
     ValueError, "a network without a skew form needs a drawing"),
    ("composite-t12", lambda: composite(t12=(1, 1)),
     ValueError, "t12 must have as many rows as t11"),
    ("composite-t22", lambda: composite(t22=(1, 1)),
     ValueError, "t22/t23 row counts must match"),
    ("composite-t31", lambda: composite(t31=(2, 1)),
     ValueError, "t31/t32 must read the middle wires"),
    ("hat-r", lambda: hat_matrix(0), ValueError, "r must be at least 1"),
    ("f-rp-recursion", lambda: f_rp_recursion(0, 1), ValueError, "need r >= 1 and p >= 1"),
    ("f-rp-closed", lambda: f_rp_closed(1, 0), ValueError, "need r >= 1 and p >= 1"),
    # qalg
    ("qelem-add-form", lambda: QElem.one(FORM) + QElem.one(OTHER),
     ValueError, "elements live on different quantum tori"),
    ("qmul-form", lambda: qmul(QElem.one(FORM), QElem.one(OTHER)),
     ValueError, "elements live on different quantum tori"),
    ("qelem-length", lambda: QElem(FORM, {(1,): QScalar.one()}),
     ValueError, "exponent vector has wrong length"),
    ("qelem-no-star", lambda: QElem.one(FORM) * QElem.one(FORM),
     TypeError, "unsupported operand type(s) for *: 'QElem' and 'QElem'"),
    ("qelem-unhashable", lambda: hash(QElem.one(FORM)), TypeError, "unhashable type: 'QElem'"),
    # rmat
    ("cmatrix-index", lambda: CMatrix(1, 1, {(1, 0): QScalar.one()}),
     ValueError, "entry index out of range"),
    ("cmatrix-add", lambda: CMatrix(1, 1) + CMatrix(1, 2), ValueError, "shape mismatch"),
    ("cmatrix-mul", lambda: CMatrix(1, 2) * CMatrix(1, 2), ValueError, "shape mismatch"),
    ("partial-transpose", lambda: partial_transpose_t1(CMatrix(2, 3)),
     ValueError, "partial transpose needs a square matrix"),
    # verify
    ("reflection-square", lambda: check_reflection_constant(zero(1, 2)),
     ValueError, "reflection checks need a square matrix"),
    # geometry: reachable through derive_network_data, not through Network,
    # which refuses the K4s' directed cycles first
    ("two-detached-components", two_detached_k4s,
     ValueError, "drawing is not a planar embedding"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_wrong_inverse_fails_the_two_sided_check(monkeypatch):
    x = weyl(FORM, (1, 0))
    monkeypatch.setattr(ncmat, "_invert_inner", lambda m: m)
    with pytest.raises(NotInvertibleInSupportedClass) as info:
        invert_restricted(QMatrix.from_rows(FORM, [[x]]))
    assert str(info.value) == "inverse verification failed; matrix is outside the supported class"


def test_equal_but_distinct_forms_multiply():
    twin = SkewForm([list(row) for row in FORM.E])
    assert twin is not FORM and twin == FORM
    x, y = weyl(FORM, (1, 0)), weyl(twin, (0, 1))
    assert qmul(x, y) == qmul(x, weyl(FORM, (0, 1)))
    assert qmul(x, y).render() == "(1*v^-1) * w[1,1]"


def test_reprs():
    x = weyl(FORM, (1, -2), QScalar({0: 2, 3: -1}))
    assert repr(QMatrix.zero(2, 3, FORM)) == "QMatrix(2x3)"
    assert repr(CMatrix(2, 2, {(0, 1): QScalar.one()})) == "CMatrix(2x2, 1 nonzero)"
    assert repr(FORM) == "SkewForm([[0, 1], [-1, 0]])"
    assert repr(x) == x.render() == "(2 + -1*v^3) * w[1,-2]"


@pytest.mark.parametrize("a, b, c, d, meet", [
    ((0, 0), (2, 0), (1, 0), (3, 0), True),  # overlapping
    ((0, 0), (1, 0), (1, 0), (2, 0), True),  # touching at one end
    ((0, 0), (1, 0), (2, 0), (3, 0), False),  # disjoint
    ((0, 3), (0, 1), (0, 2), (0, 0), True),  # overlapping, vertical, reversed
    ((0, 0), (0, 1), (0, 3), (0, 2), False),  # disjoint, vertical
], ids=["overlapping", "touching", "disjoint", "vertical-overlapping", "vertical-disjoint"])
def test_collinear_segments_meet_where_their_ranges_overlap(a, b, c, d, meet):
    assert _segments_meet(a, b, c, d) is meet
    assert _segments_meet(c, d, a, b) is meet
