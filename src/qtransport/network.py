"""Planar directed networks and their quantum transport matrices.

A network carries a skew form on its face variables (the exchange matrix
divided by two), a set of directed edges between named vertices, and lists of
boundary sources and sinks.  Each edge holds an integer exponent vector; the
transport amplitude from source a to sink c is the sum over directed paths of
the ordered monomial with exponent the sum of the path's edge vectors.

Whenever a network has a drawing -- exact vertex coordinates plus one marker
point per face, forming a planar embedding -- its edge exponents and skew
form are derived from it; see the geometry module for the conventions.
Builders for standard families are provided at the bottom of the file.
"""

import functools
import json
import random
from collections import namedtuple
from fractions import Fraction
from math import comb

from .qalg import QElem, QScalar, SkewForm, check_span, from_sums, weyl
from .ncmat import NotInvertibleInSupportedClass, QMatrix, invert_restricted, matmul
from .geometry import check_boundary, check_edge_ends, derive_network_data


# An edge's exponent is a tuple, or None until a drawing derives it.
Edge = namedtuple("Edge", "frm to exponent", defaults=(None,))
# coords: vertex -> (x, y); face_markers: one (x, y) point per face.
Geometry = namedtuple("Geometry", "coords face_markers")


class Network:
    """A planar acyclic directed network, complete once built.

    A drawing fixes the skew form and every edge exponent, and whenever
    there is one they are derived from it here, once: form=None takes the
    form from the drawing, a stored form or exponent must agree with it,
    and missing exponents are filled in.  The derivation refuses a drawing
    that is not a planar embedding.  Every bound of the transport walk is
    checked here, so transport_matrix only walks: a network with a directed
    cycle, or whose paths are too deep or too many, is refused, drawn or
    not, before any derivation; and no network's exponents may outgrow
    packed terms.
    """

    def __init__(
        self,
        form,
        vertices,
        edges,
        sources,
        sinks,
        geometry=None,
        generators=None,
    ):
        if form is None and geometry is None:
            raise ValueError("a network without a skew form needs a drawing")
        n = len(geometry.face_markers) if form is None else form.n
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.sources = list(sources)
        self.sinks = list(sinks)
        self.geometry = geometry
        self.generators = (
            list(generators)
            if generators is not None
            else [f"x{i}" for i in range(n)]
        )
        if len(self.generators) != n:
            raise ValueError("one generator name per skew-form row required")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("vertex names must be unique")
        sinks = set(self.sinks)
        for e in self.edges:
            if e.frm not in vset or e.to not in vset:
                raise ValueError(f"edge {e.frm!r}->{e.to!r} uses unknown vertex")
            if e.frm in sinks:
                raise ValueError(f"edge {e.frm!r}->{e.to!r} leaves a sink")
            if e.exponent is not None:
                if len(e.exponent) != n:
                    raise ValueError("edge exponent length must match the form size")
                if any(type(x) is not int for x in e.exponent):
                    raise ValueError(
                        f"edge {e.frm!r}->{e.to!r} exponent must hold integers"
                    )
        if not self.sources or not self.sinks:
            raise ValueError("a network needs at least one source and one sink")
        for b in self.sources + self.sinks:
            if b not in vset:
                raise ValueError(f"unknown boundary vertex {b!r}")
        check_boundary(self.sources, self.sinks)
        if geometry is not None:
            missing = vset - set(geometry.coords)
            if missing:
                raise ValueError(f"drawing lacks coordinates for {sorted(missing)}")
            check_edge_ends(((e.frm, e.to) for e in self.edges), geometry.coords)
            if len(geometry.face_markers) != n:
                raise ValueError("one face marker per generator required")
        walk = _longest_path(self.vertices, self.edges, self.sources, self.sinks)
        if walk is None:
            raise ValueError(
                "the network has a directed cycle; only acyclic networks are supported"
            )
        self.longest_path, self.path_count = walk
        if geometry is None and any(e.exponent is None for e in self.edges):
            raise ValueError("edges lack exponents and there is no drawing")
        _refuse_walk(self.longest_path, self.path_count)  # before deriving
        if geometry is not None:
            e_mat, exps = derive_network_data(
                self.vertices,
                [(e.frm, e.to) for e in self.edges],
                self.sources,
                self.sinks,
                geometry.coords,
                geometry.face_markers,
            )
            if form is None:
                form = SkewForm(e_mat)
            elif tuple(tuple(r) for r in e_mat) != form.E:
                raise ValueError("drawing disagrees with the stored skew form")
            if any(
                e.exponent is not None and tuple(e.exponent) != vec
                for e, vec in zip(self.edges, exps)
            ):
                raise ValueError("drawing disagrees with stored edge exponents")
            self.edges = [Edge(e.frm, e.to, vec) for e, vec in zip(self.edges, exps)]
        # A path takes each edge at most once, so no exponent of a transport
        # entry exceeds span in size.
        self.span = sum(max(map(abs, e.exponent), default=0) for e in self.edges)
        check_span(self.span, "transport exponents")
        self.form = form
        self.out_edges = {v: [] for v in self.vertices}
        for e in self.edges:
            self.out_edges[e.frm].append(e)


def _longest_path(vertices, edges, sources, sinks):
    """(vertices on the longest directed path, source-sink paths), or None.

    None means the graph has a cycle.  One topological pass: every vertex
    drains away exactly when the graph has no cycle, and a vertex drains
    after every path into it is measured and counted.  No edge leaves a
    sink, so a path from a source into a sink ends there, as the walk of
    transport_matrix does.
    """
    indeg = dict.fromkeys(vertices, 0)
    heads = {v: [] for v in vertices}
    for e in edges:
        indeg[e.to] += 1
        heads[e.frm].append(e.to)
    depth = dict.fromkeys(vertices, 1)
    paths = dict.fromkeys(vertices, 0)  # paths from a source that end at v
    for v in sources:
        paths[v] = 1
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in heads[v]:
            depth[w] = max(depth[w], depth[v] + 1)
            paths[w] += paths[v]
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != len(indeg):
        return None
    return max(depth.values()), sum(paths[v] for v in sinks)


def _coord_to_json(x):
    f = Fraction(x)
    return int(f) if f.denominator == 1 else [f.numerator, f.denominator]


def _coord_from_json(v):
    if type(v) is int:
        return Fraction(v)
    if isinstance(v, list) and len(v) == 2 and all(type(t) is int for t in v) and v[1]:
        return Fraction(v[0], v[1])
    raise ValueError(f"coordinates must be ints or [num, den] pairs, got {v!r}")


def _point_from_json(xy):
    if not isinstance(xy, list) or len(xy) != 2:
        raise ValueError(f"points must be [x, y] pairs, got {xy!r}")
    return (_coord_from_json(xy[0]), _coord_from_json(xy[1]))


def network_to_dict(net):
    doc = {
        "generators": list(net.generators),
        "epsilon2": [list(r) for r in net.form.E],
        "vertices": list(net.vertices),
        "edges": [
            {
                "from": e.frm,
                "to": e.to,
                "exponent": list(e.exponent),
            }
            for e in net.edges
        ],
        "sources": list(net.sources),
        "sinks": list(net.sinks),
        "geometry": None,
    }
    if net.geometry is not None:
        doc["geometry"] = {
            "coords": {
                v: [_coord_to_json(x), _coord_to_json(y)]
                for v, (x, y) in net.geometry.coords.items()
            },
            "face_markers": [
                [_coord_to_json(x), _coord_to_json(y)]
                for x, y in net.geometry.face_markers
            ],
        }
    return doc


_KINDS = {int: "integers", str: "strings", list: "lists", dict: "objects"}


def _list_of(kind, values, what):
    """values, which must be a JSON list of kind; booleans are not integers."""
    if not isinstance(values, list) or any(type(x) is not kind for x in values):
        raise ValueError(f"{what} must be a list of {_KINDS[kind]}, got {values!r}")
    return values


def _fields(doc, what, *keys):
    """The values of keys in the JSON object doc, each of which must be present."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} is missing {key!r}")
    return [doc[key] for key in keys]


def network_from_dict(doc):
    """The network a JSON document describes; any malformed shape is a ValueError."""
    e_rows, vertices, edges_doc, sources, sinks = _fields(
        doc, "network document", "epsilon2", "vertices", "edges", "sources", "sinks"
    )
    form = SkewForm(
        [
            tuple(_list_of(int, row, "epsilon2 row"))
            for row in _list_of(list, e_rows, "epsilon2")
        ]
    )
    edges = []
    for ed in _list_of(dict, edges_doc, "edges"):
        frm, to = _fields(ed, "edge", "from", "to")
        if type(frm) is not str or type(to) is not str:
            raise ValueError(f"edge endpoints must be vertex names, got {ed!r}")
        exp = ed.get("exponent")
        exp = None if exp is None else tuple(_list_of(int, exp, "edge exponent"))
        edges.append(Edge(frm, to, exp))
    geom = None
    gdoc = doc.get("geometry")
    if gdoc is not None:
        coords, markers = _fields(gdoc, "geometry", "coords", "face_markers")
        _fields(coords, "geometry coords")  # an object; no key is required
        geom = Geometry(
            coords={v: _point_from_json(xy) for v, xy in coords.items()},
            face_markers=[
                _point_from_json(xy) for xy in _list_of(list, markers, "face_markers")
            ],
        )
    generators = doc.get("generators")
    if generators is not None:
        _list_of(str, generators, "generators")
    return Network(
        form=form,
        vertices=_list_of(str, vertices, "vertices"),
        edges=edges,
        sources=_list_of(str, sources, "sources"),
        sinks=_list_of(str, sinks, "sinks"),
        geometry=geom,
        generators=generators,
    )


def load_network(path):
    with open(path, encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


PATH_BUDGET = 10**6  # source-sink paths one transport_matrix call may walk
# Vertices on one walked path; the walk recurses once per vertex, so this
# stays well below Python's recursion limit of 1000.
MAX_PATH_DEPTH = 800


def _refuse_walk(depth, path_count):
    """Refuse a walk whose paths may visit more than MAX_PATH_DEPTH vertices,
    or, when path_count is given, one with more than PATH_BUDGET source-sink
    paths.
    """
    if depth > MAX_PATH_DEPTH:
        raise ValueError(
            f"transport paths may visit {depth} vertices; the limit is {MAX_PATH_DEPTH}"
        )
    if path_count is not None and path_count > PATH_BUDGET:
        raise ValueError(
            f"transport has {path_count} source-sink paths; the limit is {PATH_BUDGET}"
        )


def transport_matrix(net):
    """Matrix of transport amplitudes, sinks indexing rows, sources columns.

    One walk per source visits every directed path that leaves it and adds
    the path's monomial to the entry of the sink where the path ends.  Every
    path counts with sign +1: a drawing is a planar embedding, so no path
    crosses itself.  Every bound of the walk was checked when net was built.
    """
    form, span = net.form, net.span
    # each vertex's out-steps, resolved once: (head, monomial code)
    steps = {
        v: [(e.to, form.encode(e.exponent)) for e in out]
        for v, out in net.out_edges.items()
    }
    row = {snk: c for c, snk in enumerate(net.sinks)}

    def walk(v, t, column):
        if v in row:
            cell = column[row[v]]
            cell[t] = cell.get(t, 0) + 1
        else:
            for w, c in steps[v]:
                walk(w, t + c, column)

    columns = []
    for src in net.sources:
        counts = [{} for _ in net.sinks]
        walk(src, 0, counts)
        columns.append([from_sums(form, cell, span) for cell in counts])
    return QMatrix.from_rows(form, zip(*columns))


class BlockTransport:
    """The blocks of a transport matrix split as [[M11, M12], [M21, M22]].

    Every level matrix of the split is one product M22 M12^j M11; power(j)
    builds it, inverting M12 (once) for negative j.  Products and the inverse
    are cached on the instance, so a new instance built from the same or
    changed blocks starts afresh; callers must not modify the matrices it
    hands out.
    """

    def __init__(self, n1, m, n2, M11, M12, M21, M22):
        self.n1, self.m, self.n2 = n1, m, n2
        self.M11, self.M12, self.M21, self.M22 = M11, M12, M21, M22
        self._tails = {0: M11}  # j -> M12^j M11
        self._powers = {}  # j -> M22 M12^j M11

    @property
    def matrix(self):
        return QMatrix.from_blocks([[self.M11, self.M12], [self.M21, self.M22]])

    @functools.cached_property
    def M12_inverse(self):
        """M12^-1; NotInvertibleInSupportedClass, naming M12, if it is out of reach."""
        try:
            return invert_restricted(self.M12)
        except NotInvertibleInSupportedClass as exc:
            msg = f"M12 is not invertible here ({exc})"
            raise NotInvertibleInSupportedClass(msg) from exc

    def power(self, j):
        """M22 M12^j M11 for any integer j; each M12^j M11 is built once."""
        if j not in self._powers:
            step = 1 if j > 0 else -1
            k = j
            while k not in self._tails:
                k -= step
            while k != j:
                k += step
                factor = self.M12 if step > 0 else self.M12_inverse
                self._tails[k] = matmul(factor, self._tails[k - step])
            self._powers[j] = matmul(self.M22, self._tails[j])
        return self._powers[j]


def check_split(m, n1, msize, n2):
    """Refuse a block split (n1, msize, n2) that does not fit the matrix m."""
    if n1 < 1 or msize < 1 or n2 < 1:
        raise ValueError("all block sizes must be at least 1")
    if m.rows != msize + n2 or m.cols != n1 + msize:
        raise ValueError(
            f"matrix is {m.rows}x{m.cols}, expected "
            f"{msize + n2}x{n1 + msize} for split ({n1},{msize},{n2})"
        )


def block_split(m, n1, msize, n2):
    """Split an (m+n2) x (n1+m) transport matrix into its four blocks."""
    check_split(m, n1, msize, n2)
    return BlockTransport(
        n1=n1,
        m=msize,
        n2=n2,
        M11=m.submatrix(0, msize, 0, n1),
        M12=m.submatrix(0, msize, n1, n1 + msize),
        M21=m.submatrix(msize, msize + n2, 0, n1),
        M22=m.submatrix(msize, msize + n2, n1, n1 + msize),
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_triangle(n):
    """Triangular n-by-n network with sources on the right slope.

    Sources 1..n enter on the northeast side, sinks 1'..n' leave on the
    northwest side and sinks 1''..n'' through the bottom.  Rows r = 0..n-1
    hold split vertices g(r, j), interleaved with merge vertices b(r, j).
    Faces are labelled (rho, c) and ordered lexicographically.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # Its longest path visits 2n + 1 vertices and it has 2^(n+1) - 2
    # source-sink paths, so a walk Network.__init__ would refuse is refused
    # here, before the O(n^2) drawing is built.
    depth = 2 * n + 1
    _refuse_walk(depth, 2 ** (n + 1) - 2 if depth <= MAX_PATH_DEPTH else None)
    half = Fraction(1, 2)
    coords = {}
    vertices = []

    def gname(r, j):
        return f"g{r}_{j}"

    def bname(r, j):
        return f"b{r}_{j}"

    for r in range(n):
        for j in range(1, n - r + 1):
            vertices.append(gname(r, j))
            coords[gname(r, j)] = (j + r * half, Fraction(r))
    for r in range(1, n):
        for j in range(1, n - r + 1):
            vertices.append(bname(r, j))
            coords[bname(r, j)] = (j + r * half, r - Fraction(2, 5))

    edges = []
    for r in range(1, n):
        for j in range(1, n - r + 1):
            edges.append((gname(r, j), bname(r, j)))
            edges.append((bname(r, j), gname(r - 1, j)))
            edges.append((gname(r - 1, j + 1), bname(r, j)))

    sources = [str(s) for s in range(1, n + 1)]
    for s in range(1, n + 1):
        g = gname(n - s, s)
        coords[str(s)] = (coords[g][0] + 1, coords[g][1] + Fraction(3, 5))
        vertices.append(str(s))
        edges.append((str(s), g))
    sinks = []
    for t in range(1, n + 1):
        g = gname(n - t, 1)
        lab = f"{t}'"
        sinks.append(lab)
        vertices.append(lab)
        coords[lab] = (coords[g][0] - 1, coords[g][1] + Fraction(3, 5))
        edges.append((g, lab))
    for j in range(1, n + 1):
        lab = f"{j}''"
        sinks.append(lab)
        vertices.append(lab)
        coords[lab] = (Fraction(j), Fraction(-1))
        edges.append((gname(0, j), lab))

    faces = [
        (rho, c) for rho in range(n + 1) for c in range(1, n + 2 - rho)
    ]
    markers = [(c + (rho - 1) * half, rho - Fraction(1, 4)) for rho, c in faces]
    generators = [f"f{rho}_{c}" for rho, c in faces]
    edges = [Edge(frm, to) for frm, to in edges]
    return Network(
        None, vertices, edges, sources, sinks, Geometry(coords, markers),
        generators=generators,
    )


def build_chain(n1, n2, bridge=False):
    """Chain of n1 merges feeding n2 splits along a west-running backbone.

    Sources a1..a{n1} drop onto the merges, a{n1+1} enters the east end;
    sink c1 leaves the west end and c2..c{n2+1} hang off the splits.  With
    ``bridge`` set, the eastmost entry and the lowest branch are rerouted
    through an extra split/merge pair enclosing one more face, which makes
    the lowest transport entry a two-path sum.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be at least 1")
    # Its longest path runs from the east entry along the backbone to c1,
    # or, bridged, through V when n2 = 1; its source-sink paths number
    # below 10^6 whenever that depth fits.  So a walk Network.__init__
    # would refuse is refused here, before the drawing is built.
    _refuse_walk(n1 + max(n2, 2) + 3 if bridge else n1 + n2 + 2, None)
    half = Fraction(1, 2)
    coords = {}
    vertices = []
    edges = []

    merges = [f"B{j}" for j in range(1, n1 + 1)]
    splits = [f"W{s}" for s in range(1, n2 + 1)]
    for j, v in enumerate(merges, start=1):
        vertices.append(v)
        coords[v] = (Fraction(10 + j), Fraction(0))
    for s, v in enumerate(splits, start=1):
        vertices.append(v)
        coords[v] = (Fraction(10 - s), Fraction(0))

    sources = [f"a{j}" for j in range(1, n1 + 2)]
    for j in range(1, n1 + 1):
        vertices.append(f"a{j}")
        coords[f"a{j}"] = (10 + j + half, Fraction(2 + n1 - j))
        edges.append((f"a{j}", f"B{j}"))
    vertices.append(f"a{n1 + 1}")
    if bridge:
        vertices.append("U")
        coords["U"] = (Fraction(11 + n1), Fraction(0))
        coords[f"a{n1 + 1}"] = (Fraction(12 + n1), Fraction(1))
        edges.append((f"a{n1 + 1}", "U"))
        edges.append(("U", f"B{n1}"))
    else:
        coords[f"a{n1 + 1}"] = (Fraction(11 + n1), Fraction(1))
        edges.append((f"a{n1 + 1}", f"B{n1}"))

    for j in range(n1, 1, -1):
        edges.append((f"B{j}", f"B{j - 1}"))
    edges.append(("B1", "W1"))
    for s in range(1, n2):
        edges.append((f"W{s}", f"W{s + 1}"))

    sinks = [f"c{i}" for i in range(1, n2 + 2)]
    vertices.append("c1")
    coords["c1"] = (Fraction(9 - n2), Fraction(1))
    edges.append((f"W{n2}", "c1"))
    branch_end = {}
    for s in range(1, n2 + 1):
        lab = f"c{n2 + 2 - s}"
        vertices.append(lab)
        coords[lab] = (10 - s - half, Fraction(-2 - (n2 - s)))
        branch_end[s] = lab
    for s in range(2, n2 + 1):
        edges.append((f"W{s}", branch_end[s]))
    if bridge:
        vertices.append("V")
        wx, wy = coords["W1"]
        cx, cy = coords[branch_end[1]]
        coords["V"] = ((wx + cx) / 2, (wy + cy) / 2)
        edges.append(("W1", "V"))
        edges.append(("U", "V"))
        edges.append(("V", branch_end[1]))
    else:
        edges.append(("W1", branch_end[1]))

    generators = ["N"] + [f"E{j}" for j in range(1, n1 + 1)] + ["S"]
    generators += [f"W{i}" for i in range(1, n2 + 1)]
    markers = [(Fraction(41, 4), Fraction(1, 4))]
    for j in range(1, n1 + 1):
        if j == n1 and not bridge:
            # without the bridge the last two stubs meet at the same merge,
            # so this face is a narrow wedge; sit the marker higher up
            markers.append((10 + n1 + Fraction(1, 4), half))
        else:
            markers.append((10 + j + half, Fraction(1, 8)))
    markers.append((Fraction(11 + n1), Fraction(-n2 - 2)))
    markers.append((Fraction(19, 2) - n2, Fraction(-1, 8)))
    for i in range(2, n2 + 1):
        markers.append((Fraction(17, 2) + i - n2, Fraction(-1, 4)))
    if bridge:
        generators.append("L")
        markers.append((Fraction(10), Fraction(-1, 4)))
    edges = [Edge(frm, to) for frm, to in edges]
    return Network(
        None, vertices, edges, sources, sinks, Geometry(coords, markers),
        generators=generators,
    )


# ---------------------------------------------------------------------------
# composite networks glued from three transport fragments
# ---------------------------------------------------------------------------


def assemble_composite(t11, t12, t21, t22, t23, t31, t32):
    """Blocks of a network glued from three fragments in series.

    The first fragment maps inputs (n1 | m2) to outputs (m2 | m2) with
    transport pieces t12, t11 (upper) and t21 acting on the loopback wires;
    the middle fragment maps m2 wires to (k) with piece t22 and injects m1
    fresh wires through t23; the last fragment reads the k wires through t31
    (to m1 outputs) and t32 (to n2 outputs).  The glued network has block
    transport

        M11 = [t21 t12 ; t31 t22 t12]        M12 = [[t21 t11, 0],
        M21 = t32 t22 t12                            [t31 t22 t11, t31 t23]]
        M22 = [t32 t22 t11 | t32 t23]

    giving a (m2+m1, n1, n2) block system that satisfies the loopback
    identity M22 M12^-1 M11 = M21 whenever M12 is invertible.
    """
    m2 = t11.rows
    if t11.cols != m2 or t21.rows != m2 or t21.cols != m2:
        raise ValueError("t11 and t21 must be square of the same size")
    if t12.rows != m2:
        raise ValueError("t12 must have as many rows as t11")
    n1 = t12.cols
    k = t22.rows
    if t22.cols != m2 or t23.rows != k:
        raise ValueError("t22/t23 row counts must match")
    m1 = t23.cols
    if t31.rows != m1 or t31.cols != k or t32.cols != k:
        raise ValueError("t31/t32 must read the middle wires")
    n2 = t32.rows
    form = t11.form
    z = QMatrix.zero(m2, m1, form)
    top11 = matmul(t21, t12)
    bot11 = matmul(t31, matmul(t22, t12))
    m11 = QMatrix.from_blocks([[top11], [bot11]])
    m12 = QMatrix.from_blocks(
        [
            [matmul(t21, t11), z],
            [matmul(t31, matmul(t22, t11)), matmul(t31, t23)],
        ]
    )
    m21 = matmul(t32, matmul(t22, t12))
    m22 = QMatrix.from_blocks([[matmul(t32, matmul(t22, t11)), matmul(t32, t23)]])
    return BlockTransport(n1=n1, m=m2 + m1, n2=n2, M11=m11, M12=m12, M21=m21, M22=m22)


# ---------------------------------------------------------------------------
# the staircase example: closed-form level entries
# ---------------------------------------------------------------------------


def hat_matrix(r):
    """(r+1)-square 0/1 transport matrix with ones where i - j + 1 >= 0."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return [[1 if i - j + 1 >= 0 else 0 for j in range(r + 1)] for i in range(r + 1)]


def hat_blocks(r):
    """The staircase example as a block system split (1, r, 1).

    Its entries are the integers of hat_matrix(r), read as constants of a
    one-generator torus; M12 is the r-square lower-triangular ones block.
    """
    form = SkewForm([[0]])
    rows = [
        [weyl(form, (0,), QScalar.from_int(x)) for x in row] for row in hat_matrix(r)
    ]
    return block_split(QMatrix.from_rows(form, rows), 1, r, 1)


def f_rp_recursion(r, p):
    """Scalar level entry f(r, p) of the staircase example, by its recursion.

    f(r, p+1) = f(r, p) - f(r-1, p), with first row and column one; the
    level M22 M12^-p M11 of hat_blocks(r) agrees (staircase_level).
    """
    if r < 1 or p < 1:
        raise ValueError("need r >= 1 and p >= 1")
    memo = {}

    def f(rr, pp):
        if rr == 1 or pp == 1:
            return 1
        if (rr, pp) not in memo:
            memo[rr, pp] = f(rr, pp - 1) - f(rr - 1, pp - 1)
        return memo[rr, pp]

    return f(r, p)


def f_rp_closed(r, p):
    """f(r, p) of the staircase example in closed form."""
    if r < 1 or p < 1:
        raise ValueError("need r >= 1 and p >= 1")
    return 1 if p == 1 else (-1) ** (r - 1) * comb(p - 2, r - 1)


def staircase_level(blocks, p):
    """f(r, p) read off the staircase block system hat_blocks(r).

    It is the constant term of M22 M12^-p M11, which power(-p) builds from
    the levels above it, so a caller reading many p shares one inverse.
    """
    return blocks.power(-p).entry(0, 0).terms.get(0, 0)


def _monomial_matrix(form, rows, cols, rng):
    data = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            exps = tuple(rng.randint(-1, 2) for _ in range(form.n))
            row.append(weyl(form, exps, QScalar.v_power(rng.randint(-2, 2))))
        data.append(row)
    return QMatrix.from_rows(form, data)


def build_composite_example():
    """A deterministic generic instance of the three-fragment composite.

    The square fragments are lower-triangular with monomial entries and the
    fresh-wire fragment keeps a single route, so M12 is invertible and the
    loopback identity M22 M12^-1 M11 = M21 holds by construction.
    """
    rng = random.Random(2024)
    e = [[0] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            e[i][j] = rng.randint(-2, 2)
            e[j][i] = -e[i][j]
    form = SkewForm(e)
    z = QElem.zero(form)

    def lower(m):
        rows = [
            [m.entry(i, j) if j <= i else z for j in range(m.cols)]
            for i in range(m.rows)
        ]
        return QMatrix.from_rows(form, rows)

    m2, n1, k, m1, n2 = 2, 2, 2, 1, 2
    t11 = lower(_monomial_matrix(form, m2, m2, rng))
    t12 = _monomial_matrix(form, m2, n1, rng)
    t21 = lower(_monomial_matrix(form, m2, m2, rng))
    t22 = _monomial_matrix(form, k, m2, rng)
    t23 = _monomial_matrix(form, k, m1, rng)
    t23 = QMatrix.from_rows(form, [[t23.entry(0, 0)]] + [[z]] * (k - 1))
    t31 = _monomial_matrix(form, m1, k, rng)
    t32 = _monomial_matrix(form, n2, k, rng)
    return assemble_composite(t11, t12, t21, t22, t23, t31, t32)
