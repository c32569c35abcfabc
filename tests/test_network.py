"""Tests for planar directed networks and their transport matrices.

All frozen matrices below (transport entries, exchange matrices) were derived
by hand from the planar pictures before the builders were implemented: path
exponents by counting windings of path-plus-return-arc loops around each face
marker (clockwise positive), exchange matrices from the local rule that an
edge adds +-1 (per internal endpoint) to E[left, right], with sign +1 for a
split vertex the edge leaves or a merge vertex it enters.
"""

import json
import pathlib
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from geometry_oracle import corners_between, polyline_crossings
from qtransport.qalg import QElem, QScalar, SkewForm, qmul, weyl
from qtransport.ncmat import QMatrix, invert_restricted, matmul
from qtransport import geometry, network
from qtransport.network import (
    Edge,
    Geometry,
    Network,
    assemble_composite,
    block_split,
    build_chain,
    build_triangle,
    f_rp_closed,
    f_rp_recursion,
    hat_blocks,
    hat_matrix,
    load_network,
    network_from_dict,
    network_to_dict,
    staircase_level,
    transport_matrix,
)

Q = QScalar.q_power(1)
QQ = QScalar.q_power(1) - QScalar.q_power(-1)


def wv(form, vec, coeff=None):
    return weyl(form, tuple(vec), coeff)


# ---------------------------------------------------------------------------
# bowtie chain (n1 = n2 = 1, no bridge): fully hand-checked
# ---------------------------------------------------------------------------

BOWTIE_E = [
    [0, -1, 2, -1],
    [1, 0, -1, 0],
    [-2, 1, 0, 1],
    [1, 0, -1, 0],
]


def test_bowtie_epsilon_frozen():
    net = build_chain(1, 1)
    assert [list(r) for r in net.form.E] == BOWTIE_E


def test_bowtie_transport_frozen():
    net = build_chain(1, 1)
    m = transport_matrix(net)
    form = net.form
    # faces ordered (N, E1, S, W1)
    assert m.entry(0, 0) == wv(form, (1, 0, 0, 0))  # a1 -> c1
    assert m.entry(0, 1) == wv(form, (1, 1, 0, 0))  # a2 -> c1
    assert m.entry(1, 0) == wv(form, (1, 0, 0, 1))  # a1 -> c2
    assert m.entry(1, 1) == wv(form, (1, 1, 0, 1))  # a2 -> c2


def test_bowtie_groupoid_identity_native():
    # For the plain chain, M22 M12^-1 M11 = M21 holds exactly.
    net = build_chain(1, 1)
    b = block_split(transport_matrix(net), 1, 1, 1)
    lhs = matmul(matmul(b.M22, invert_restricted(b.M12)), b.M11)
    assert lhs == b.M21


# ---------------------------------------------------------------------------
# bridged bowtie: the two-path M22 entry and the modified quiver
# ---------------------------------------------------------------------------

BRIDGED_E = [
    [0, -1, 0, -1, 2],
    [1, 0, 1, 0, -2],
    [0, -1, 0, -1, 2],
    [1, 0, 1, 0, -2],
    [-2, 2, -2, 2, 0],
]


def test_bridged_bowtie_epsilon_frozen():
    net = build_chain(1, 1, bridge=True)
    assert [list(r) for r in net.form.E] == BRIDGED_E


def test_bridged_bowtie_transport_frozen():
    net = build_chain(1, 1, bridge=True)
    m = transport_matrix(net)
    form = net.form
    # faces ordered (N, E1, S, W1, L) where L is the bridge loop face
    assert m.entry(0, 0) == wv(form, (1, 0, 0, 0, 0))
    assert m.entry(0, 1) == wv(form, (1, 1, 0, 0, 0))
    assert m.entry(1, 0) == wv(form, (1, 0, 0, 1, 0))
    assert m.entry(1, 1) == wv(form, (1, 1, 0, 1, 0)) + wv(form, (1, 1, 0, 1, 1))


def test_bridged_bowtie_breaks_groupoid():
    net = build_chain(1, 1, bridge=True)
    b = block_split(transport_matrix(net), 1, 1, 1)
    lhs = matmul(matmul(b.M22, invert_restricted(b.M12)), b.M11)
    assert lhs != b.M21


def test_chain_block_structure():
    net = build_chain(2, 2, bridge=True)
    m = transport_matrix(net)
    assert (m.rows, m.cols) == (3, 3)
    b = block_split(m, 2, 1, 2)
    # M12 is a 1x1 unit monomial even with the bridge
    assert len(b.M12.entry(0, 0).terms) == 1
    # only the lowest sink sees the two parallel routes
    assert len(b.M22.entry(1, 0).terms) == 2
    assert len(b.M22.entry(0, 0).terms) == 1
    assert all(len(b.M11.entry(i, j).terms) == 1 for i in range(1) for j in range(2))
    assert all(len(b.M21.entry(i, j).terms) == 1 for i in range(2) for j in range(2))


# ---------------------------------------------------------------------------
# triangle network, n = 2: fully hand-checked
# ---------------------------------------------------------------------------

TRIANGLE2_E = [
    [0, -1, 0, 1, 0, 0],
    [1, 0, -1, -2, 2, 0],
    [0, 1, 0, 0, -1, 0],
    [-1, 2, 0, 0, -2, 1],
    [0, -2, 1, 2, 0, -1],
    [0, 0, 0, -1, 1, 0],
]


def test_triangle2_labels_and_faces():
    net = build_triangle(2)
    assert net.sources == ["1", "2"]
    assert net.sinks == ["1'", "2'", "1''", "2''"]
    assert net.form.n == 6  # faces (0,1)..(2,1), lexicographic


def test_triangle2_epsilon_frozen():
    net = build_triangle(2)
    assert [list(r) for r in net.form.E] == TRIANGLE2_E


def test_triangle2_transport_frozen():
    net = build_triangle(2)
    m = transport_matrix(net)
    f = net.form
    assert (m.rows, m.cols) == (4, 2)
    assert m.entry(0, 0) == wv(f, (0, 0, 0, 0, 0, 1))
    assert m.entry(0, 1).is_zero()
    assert m.entry(1, 0) == wv(f, (0, 0, 0, 1, 0, 1))
    assert m.entry(1, 1) == wv(f, (0, 0, 0, 1, 1, 1))
    assert m.entry(2, 0) == wv(f, (1, 0, 0, 1, 0, 1))
    assert m.entry(2, 1) == wv(f, (1, 0, 0, 1, 1, 1))
    assert m.entry(3, 0).is_zero()
    assert m.entry(3, 1) == wv(f, (1, 1, 0, 1, 1, 1))


def test_triangle2_scalar_commutation_identities():
    # Entry-level commutation: with T = transport matrix,
    #   T[1->1'] T[1->2'] = q T[1->2'] T[1->1']
    #   [T[1->2'], T[2->2'']] = 0
    #   [T[1->2'], T[2->1'']] = (q - q^-1) T[1->1''] T[2->2']
    m = transport_matrix(build_triangle(2))
    t11p, t12p = m.entry(0, 0), m.entry(1, 0)
    t22p = m.entry(1, 1)
    t11pp, t21pp = m.entry(2, 0), m.entry(2, 1)
    t22pp = m.entry(3, 1)
    assert qmul(t11p, t12p) == qmul(t12p, t11p).scale(Q)
    assert qmul(t12p, t22pp) == qmul(t22pp, t12p)
    lhs = qmul(t12p, t21pp) - qmul(t21pp, t12p)
    assert lhs == qmul(t11pp, t22p).scale(QQ)


def test_triangle_structural_zeros():
    # Left-sink block lower-triangular, bottom-sink block upper-triangular.
    for n in (2, 3):
        m = transport_matrix(build_triangle(n))
        for s in range(n):
            for t in range(n):
                left = m.entry(t, s)
                bottom = m.entry(n + t, s)
                assert left.is_zero() == (t < s)
                assert bottom.is_zero() == (t > s)


def test_triangle6_boundary_labels():
    net = build_triangle(6)
    assert net.sources == [str(i) for i in range(1, 7)]
    assert net.sinks == [f"{i}'" for i in range(1, 7)] + [f"{i}''" for i in range(1, 7)]
    assert net.form.n == 28  # C(8, 2) faces


def _figure_pattern_E(n):
    """The triangle quiver generalized from the reference picture.

    Solid weight-2 arrows: (rho,c+1)->(rho,c), (rho,c)->(rho+1,c) for c >= 2,
    (rho,c)->(rho-1,c+1); dashed weight-1 arrows run around the boundary.
    """
    faces = [(rho, c) for rho in range(n + 1) for c in range(1, n + 2 - rho)]
    idx = {f: i for i, f in enumerate(faces)}
    e = [[0] * len(faces) for _ in faces]

    def add(f, g, w):
        e[idx[f]][idx[g]] += w
        e[idx[g]][idx[f]] -= w

    for rho in range(1, n):
        for c in range(1, n - rho + 1):
            add((rho, c + 1), (rho, c), 2)
            add((rho, c), (rho - 1, c + 1), 2)
    for rho in range(0, n - 1):
        for c in range(2, n - rho + 1):
            add((rho, c), (rho + 1, c), 2)
    for rho in range(0, n):
        add((rho, 1), (rho + 1, 1), 1)
    for rho in range(1, n + 1):
        add((rho, n + 1 - rho), (rho - 1, n + 2 - rho), 1)
    for c in range(1, n + 1):
        add((0, c + 1), (0, c), 1)
    return e


def test_triangle_quiver_matches_figure_pattern():
    for n in (2, 3, 4):
        net = build_triangle(n)
        assert [list(r) for r in net.form.E] == _figure_pattern_E(n)


# ---------------------------------------------------------------------------
# generic transport machinery
# ---------------------------------------------------------------------------


def _enumerate_paths(net, src, sink):
    """Independent brute-force path enumerator (acyclic networks)."""
    out = defaultdict(list)
    for e in net.edges:
        out[e.frm].append(e)
    done = []
    stack = [(src, [])]
    while stack:
        v, path = stack.pop()
        if v == sink:
            done.append(path)
            continue
        for e in out[v]:
            stack.append((e.to, path + [e]))
    return done


def path_winding_vector(net, path_vertices):
    """Winding vector of a source-to-sink path closed by its return arc."""
    disc = geometry.Disc(
        net.vertices,
        [(e.frm, e.to) for e in net.edges],
        net.sources,
        net.sinks,
        net.geometry.coords,
        net.geometry.face_markers,
    )
    first, last = path_vertices[0], path_vertices[-1]
    pts = [disc.pos[v] for v in path_vertices]
    # the return arc: out to the square, clockwise along it, in to the source
    pts += [disc.proj[last]]
    pts += corners_between(disc, disc.tval[last], disc.tval[first])
    pts += [disc.proj[first], disc.pos[first]]
    return tuple(polyline_crossings(pts, disc.markers))


def transport_entry(net, a, c):
    """Reference transport amplitude from source index a to sink index c.

    Rebuilds the adjacency and walks every path from the source on its own,
    keeping only the paths that end at the one sink.
    """
    src = net.sources[a]
    snk = net.sinks[c]
    out = {v: [] for v in net.vertices}
    for e in net.edges:
        out[e.frm].append(e)
    total = QElem.zero(net.form)

    def walk(v, vec):
        nonlocal total
        if v == snk:
            total = total + weyl(net.form, tuple(vec))
            return
        for e in out[v]:
            walk(e.to, [x + y for x, y in zip(vec, e.exponent)])

    walk(src, [0] * net.form.n)
    return total


def _oracle_entry(net, a, c):
    total = QElem.zero(net.form)
    for path in _enumerate_paths(net, net.sources[a], net.sinks[c]):
        vec = [0] * net.form.n
        for e in path:
            for i, x in enumerate(e.exponent):
                vec[i] += x
        total = total + wv(net.form, vec)
    return total


@pytest.mark.parametrize(
    "build",
    [lambda: build_triangle(2), lambda: build_triangle(3), lambda: build_chain(2, 2, bridge=True)],
    ids=["triangle2", "triangle3", "chain22b"],
)
def test_transport_matches_bruteforce_dfs(build):
    net = build()
    m = transport_matrix(net)
    for a in range(len(net.sources)):
        for c in range(len(net.sinks)):
            assert m.entry(c, a) == _oracle_entry(net, a, c)


# a drawn network with two sources and two sinks around one directed cycle
CYCLIC2X2 = pathlib.Path(__file__).parent / "golden" / "cyclic2x2.json"


def _shuffled(net, seed=7):
    """The network reloaded with its vertex and edge lists shuffled and its
    exponents dropped, so the loader derives them from the drawing again."""
    rng = random.Random(seed)
    doc = network_to_dict(net)
    rng.shuffle(doc["vertices"])
    rng.shuffle(doc["edges"])
    for edge in doc["edges"]:
        edge["exponent"] = None
    return network_from_dict(doc)


DIFFERENTIAL_NETWORKS = {
    "triangle2": lambda: build_triangle(2),
    "triangle3": lambda: build_triangle(3),
    "triangle4": lambda: build_triangle(4),
    "triangle5": lambda: build_triangle(5),
    "chain12": lambda: build_chain(1, 2),
    "chain22": lambda: build_chain(2, 2),
    "chain22b": lambda: build_chain(2, 2, bridge=True),
}


@pytest.mark.parametrize("shuffle", [False, True], ids=["built", "shuffled"])
@pytest.mark.parametrize("name", list(DIFFERENTIAL_NETWORKS))
def test_transport_matrix_matches_per_entry_oracle(name, shuffle):
    net = DIFFERENTIAL_NETWORKS[name]()
    if shuffle:
        net = _shuffled(net)
    m = transport_matrix(net)
    assert (m.rows, m.cols) == (len(net.sinks), len(net.sources))
    for a in range(len(net.sources)):
        for c in range(len(net.sinks)):
            assert m.entry(c, a) == transport_entry(net, a, c)


@pytest.mark.parametrize(
    "build",
    [lambda: build_triangle(2), lambda: build_chain(2, 1, bridge=True), lambda: build_chain(1, 2)],
    ids=["triangle2", "chain21b", "chain12"],
)
def test_per_edge_exponents_match_loop_windings(build):
    net = build()
    # The per-edge integer vectors must sum, along every path, to the winding
    # vector of the closed loop (path + clockwise return arc).
    for a in range(len(net.sources)):
        for c in range(len(net.sinks)):
            for path in _enumerate_paths(net, net.sources[a], net.sinks[c]):
                vec = [0] * net.form.n
                for e in path:
                    for i, x in enumerate(e.exponent):
                        vec[i] += x
                verts = [net.sources[a]] + [e.to for e in path]
                assert tuple(vec) == path_winding_vector(net, verts)


def test_transport_matrix_shape_and_indexing():
    net = build_chain(2, 1)
    m = transport_matrix(net)
    assert (m.rows, m.cols) == (2, 3)
    for i in range(m.rows):
        for j in range(m.cols):
            assert m.entry(i, j) == transport_entry(net, j, i)


def test_block_split_slices():
    net = build_chain(2, 2)
    m = transport_matrix(net)
    b = block_split(m, 2, 1, 2)
    assert (b.n1, b.m, b.n2) == (2, 1, 2)
    assert b.M11 == m.submatrix(0, 1, 0, 2)
    assert b.M12 == m.submatrix(0, 1, 2, 3)
    assert b.M21 == m.submatrix(1, 3, 0, 2)
    assert b.M22 == m.submatrix(1, 3, 2, 3)
    assert b.matrix == m
    with pytest.raises(ValueError):
        block_split(m, 2, 2, 2)
    with pytest.raises(ValueError):
        block_split(m, 3, 0, 3)


# ---------------------------------------------------------------------------
# walk bounds, checked when a network is built
# ---------------------------------------------------------------------------


def _line(edges, weight=0):
    """An undrawn path of edges edges, each of exponent (weight,), from one
    source to one sink."""
    names = [f"v{i}" for i in range(edges + 1)]
    return Network(
        SkewForm([[0]]),
        names,
        [Edge(u, w, (weight,)) for u, w in zip(names, names[1:])],
        names[:1],
        names[-1:],
    )


def test_span_past_the_packed_limit_is_refused_when_built():
    # A path takes each edge once, so the edges' exponent sizes summed bound
    # every transport exponent; a sum of 2^14 is refused before any walk.
    with pytest.raises(ValueError, match="^transport exponents may reach 16384 in size"):
        _line(2, 8192)
    net = _line(3, 5461)
    assert net.span == 16383
    assert transport_matrix(net).entry(0, 0) == wv(net.form, (16383,))


def test_deep_paths_are_refused_before_walking():
    # The walk recurses once per vertex of a path, which the longest path
    # bounds; a network past it is refused when it is built.
    assert _line(799).longest_path == network.MAX_PATH_DEPTH == 800
    assert transport_matrix(_line(799)) == QMatrix.identity(1, SkewForm([[0]]))
    with pytest.raises(ValueError, match="may visit 801 vertices; the limit is 800"):
        _line(800)  # refused by its constructor, though it has no drawing


def test_longest_path_counts_vertices_and_is_none_on_a_cycle():
    doc = json.loads(CYCLIC2X2.read_text())
    edges = [Edge(e["from"], e["to"]) for e in doc["edges"]]
    assert network._longest_path(doc["vertices"], edges, doc["sources"], doc["sinks"]) is None
    # two routes from s to t: s-a-t and s-b-c-t
    edges = [Edge(u, w, (0,)) for u, w in ["sa", "at", "sb", "bc", "ct"]]
    assert Network(SkewForm([[0]]), "sabct", edges, ["s"], ["t"]).longest_path == 4


def _walked_paths(net):
    """Source-sink paths of an acyclic network, by depth-first search."""
    def count(v):
        return 1 if v in net.sinks else sum(count(e.to) for e in net.out_edges[v])

    return sum(count(src) for src in net.sources)


def test_path_count_of_the_topological_pass_matches_a_walk():
    nets = [build_triangle(n) for n in (1, 2, 3, 5)]
    nets += [build_chain(2, 2, bridge=True), build_chain(3, 2)]
    edges = [Edge(u, w, (0,)) for u, w in ["sa", "at", "sb", "bc", "ct", "ab", "sc"]]
    nets.append(Network(SkewForm([[0]]), "sabct", edges, ["s", "a"], ["t"]))
    assert [net.path_count for net in nets] == [_walked_paths(net) for net in nets]


def test_path_walk_stops_past_its_budget(monkeypatch):
    # triangle(3) has 2^4 - 2 = 14 source-sink paths; an acyclic network's
    # walk bounds are checked when it is built, not when it is walked
    monkeypatch.setattr(network, "PATH_BUDGET", 14)
    net = build_triangle(3)
    doc = network_to_dict(net)
    full = transport_matrix(net)
    monkeypatch.setattr(network, "PATH_BUDGET", 13)
    assert transport_matrix(net) == full
    with pytest.raises(ValueError, match="^transport has 14 source-sink paths; the limit is 13$"):
        network_from_dict(doc)


def test_an_acyclic_walk_is_bounded_once_per_load_and_not_in_the_walk(monkeypatch):
    doc = network_to_dict(build_triangle(3))
    refuse, bounded = network._refuse_walk, []

    def spied(depth, path_count):
        bounded.append((depth, path_count))
        refuse(depth, path_count)

    monkeypatch.setattr(network, "_refuse_walk", spied)
    nets = [network_from_dict(doc) for _ in range(2)]
    assert bounded == [(7, 14)] * 2  # triangle(3): 2n + 1 vertices, 2^(n+1) - 2 paths
    for net in nets:
        transport_matrix(net)
    assert bounded == [(7, 14)] * 2


def test_drawn_network_past_a_walk_bound_is_refused_before_deriving(monkeypatch):
    # chain(500,500) has paths of 1002 vertices; deriving its drawing's
    # data took 23 s before transport_matrix refused them.
    def derived(*args):
        raise AssertionError("the drawing was derived")

    monkeypatch.setattr(network, "derive_network_data", derived)
    with pytest.raises(ValueError, match="^transport paths may visit 1002 vertices; the limit is 800$"):
        build_chain(500, 500)
    monkeypatch.setattr(network, "PATH_BUDGET", 13)  # triangle(3) has 14 paths
    with pytest.raises(ValueError, match="^transport has 14 source-sink paths; the limit is 13$"):
        build_triangle(3)
    monkeypatch.setattr(network, "PATH_BUDGET", 14)
    with pytest.raises(AssertionError, match="the drawing was derived"):
        build_triangle(3)


def test_triangle_walk_bounds_have_a_closed_form():
    # build_triangle refuses from 2n + 1 vertices and 2^(n+1) - 2 paths
    for n in range(1, 13):
        net = build_triangle(n)
        walk = network._longest_path(net.vertices, net.edges, net.sources, net.sinks)
        assert walk == (2 * n + 1, 2 ** (n + 1) - 2)


def test_chain_walk_depth_has_a_closed_form(monkeypatch):
    # build_chain refuses from n1 + n2 + 2 vertices, or bridged from
    # n1 + max(n2, 2) + 3, where a path through V outgrows the backbone
    for bridge in (False, True):
        for n1 in range(1, 8):
            for n2 in range(1, 8):
                net = build_chain(n1, n2, bridge=bridge)
                depth = n1 + max(n2, 2) + 3 if bridge else n1 + n2 + 2
                assert net.longest_path == depth, (n1, n2, bridge)

    def built(*args, **kwargs):
        raise AssertionError("the network was built")

    monkeypatch.setattr(network, "Network", built)
    with pytest.raises(ValueError, match="^transport paths may visit 1003 vertices; the limit is 800$"):
        build_chain(1000, 1)
    with pytest.raises(ValueError, match="^transport paths may visit 801 vertices; the limit is 800$"):
        build_chain(796, 2, bridge=True)
    with pytest.raises(AssertionError, match="the network was built"):
        build_chain(795, 2, bridge=True)


def test_huge_triangle_is_refused_before_it_is_drawn(monkeypatch):
    def drawn(*args):
        raise AssertionError("the drawing was built")

    monkeypatch.setattr(network, "Geometry", drawn)
    with pytest.raises(ValueError, match="^transport has 1048574 source-sink paths; the limit is 1000000$"):
        build_triangle(19)
    with pytest.raises(ValueError, match="^transport paths may visit 6001 vertices; the limit is 800$"):
        build_triangle(3000)
    with pytest.raises(AssertionError, match="the drawing was built"):
        build_triangle(18)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_network_roundtrip(tmp_path):
    net = build_chain(2, 1, bridge=True)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(network_to_dict(net)))
    again = load_network(path)
    assert again.form == net.form
    assert again.sources == net.sources
    assert again.sinks == net.sinks
    assert transport_matrix(again) == transport_matrix(net)
    assert again.geometry is not None
    assert again.geometry.coords == net.geometry.coords
    assert again.geometry.face_markers == net.geometry.face_markers


def test_a_max_cycle_uses_key_is_ignored():
    # a key the loader does not read, like any other
    doc = network_to_dict(build_triangle(3))
    again = network_from_dict({**doc, "max_cycle_uses": 3})
    assert network_to_dict(again) == doc


def _without_exponents(net):
    doc = network_to_dict(net)
    for edge in doc["edges"]:
        edge["exponent"] = None
    return doc


@pytest.mark.parametrize(
    "build",
    [lambda: build_triangle(3), lambda: build_chain(2, 2, bridge=True)],
    ids=["triangle3", "chain22b"],
)
def test_loading_null_exponents_restores_the_builders_exponents(build):
    net = build()
    again = network_from_dict(_without_exponents(net))
    assert again.edges == net.edges
    assert network_to_dict(again) == network_to_dict(net)


def test_transport_leaves_the_network_unchanged():
    net = network_from_dict(_without_exponents(build_triangle(3)))
    before = network_to_dict(net)
    transport_matrix(net)
    assert network_to_dict(net) == before
    with pytest.raises(AttributeError):
        net.edges[0].exponent = None  # edges are frozen


def _skew_form_off(doc):
    doc["epsilon2"][0][1] += 1
    doc["epsilon2"][1][0] -= 1


def _exponent_off(doc):
    doc["edges"][3]["exponent"][0] += 1


def _marker_moved(doc):
    markers = doc["geometry"]["face_markers"]
    markers[1] = markers[0]


BAD_DRAWINGS = pytest.mark.parametrize(
    "edit, message",
    [
        (_skew_form_off, "drawing disagrees with the stored skew form"),
        (_exponent_off, "drawing disagrees with stored edge exponents"),
        (_marker_moved, "face must contain exactly one marker"),
    ],
    ids=["skew-form", "exponent", "face-marker"],
)


@BAD_DRAWINGS
def test_bad_drawing_is_refused_at_load(edit, message, monkeypatch):
    def walked(net):
        raise AssertionError("transport was started")

    monkeypatch.setattr(network, "transport_matrix", walked)
    doc = network_to_dict(build_triangle(2))
    edit(doc)
    with pytest.raises(ValueError, match=message):
        network_from_dict(doc)


@BAD_DRAWINGS
def test_bad_drawing_of_a_cyclic_network_is_refused_at_load(edit, message, monkeypatch):
    # the cycle is refused first, before the drawing is read
    def derived(*args):
        raise AssertionError("the drawing was derived")

    monkeypatch.setattr(network, "derive_network_data", derived)
    doc = json.loads(CYCLIC2X2.read_text())
    edit(doc)
    with pytest.raises(ValueError, match="^the network has a directed cycle"):
        network_from_dict(doc)


def test_network_loader_validates(tmp_path):
    doc = {
        "generators": ["x", "y"],
        "epsilon2": [[0, 1], [1, 0]],  # not skew
        "vertices": ["a", "c"],
        "edges": [{"from": "a", "to": "c", "exponent": [1, 0]}],
        "sources": ["a"],
        "sinks": ["c"],
    }
    with pytest.raises(ValueError):
        network_from_dict(doc)
    doc["epsilon2"] = [[0, 1], [-1, 0]]
    net = network_from_dict(doc)
    assert transport_matrix(net).entry(0, 0) == wv(net.form, (1, 0))
    doc["edges"][0]["exponent"] = [1]
    with pytest.raises(ValueError):
        network_from_dict(doc)
    doc["edges"][0]["exponent"] = [1, 0]
    doc["edges"][0]["to"] = "nowhere"
    with pytest.raises(ValueError):
        network_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_network(bad)


@pytest.mark.parametrize("exponent", [(0.5, 0), (1.0, 0), (True, 0)])
def test_network_refuses_exponents_that_are_not_ints(exponent):
    # transport_matrix keys its entries by sums of exponents without
    # re-validating them, so Network admits only int exponent vectors
    form = SkewForm([[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="exponent must hold integers"):
        Network(form, ["a", "c"], [Edge("a", "c", exponent)], ["a"], ["c"])


# ---------------------------------------------------------------------------
# composite assembly of three fragments
# ---------------------------------------------------------------------------


def _monomial_matrix(form, rows, cols, gen_offset, rng):
    data = []
    n = form.n
    for i in range(rows):
        row = []
        for j in range(cols):
            vec = [0] * n
            vec[(gen_offset + i + 2 * j) % n] = 1
            vec[(gen_offset + 3 * i + j + 1) % n] += 1
            row.append(wv(form, vec, QScalar.v_power(rng.randint(-2, 2))))
        data.append(row)
    return QMatrix.from_rows(form, data)


def test_assemble_composite_structure_commutative():
    # With commuting generators the block entries are plain monomial sums.
    form = SkewForm([[0] * 7 for _ in range(7)])
    gens = [wv(form, tuple(1 if k == i else 0 for k in range(7))) for i in range(7)]
    t11, t12, t21, t22, t23, t31, t32 = (
        QMatrix.from_rows(form, [[g]]) for g in gens
    )
    b = assemble_composite(t11, t12, t21, t22, t23, t31, t32)
    assert (b.n1, b.m, b.n2) == (1, 2, 1)
    onehot = lambda *idx: tuple(1 if k in idx else 0 for k in range(7))
    assert b.M11.entry(0, 0) == wv(form, onehot(2, 1))  # T21 T12
    assert b.M11.entry(1, 0) == wv(form, onehot(5, 3, 1))  # T31 T22 T12
    assert b.M12.entry(0, 0) == wv(form, onehot(2, 0))  # T21 T11
    assert b.M12.entry(0, 1).is_zero()
    assert b.M12.entry(1, 0) == wv(form, onehot(5, 3, 0))  # T31 T22 T11
    assert b.M12.entry(1, 1) == wv(form, onehot(5, 4))  # T31 T23
    assert b.M21.entry(0, 0) == wv(form, onehot(6, 3, 1))  # T32 T22 T12
    assert b.M22.entry(0, 0) == wv(form, onehot(6, 3, 0))  # T32 T22 T11
    assert b.M22.entry(0, 1) == wv(form, onehot(6, 4))  # T32 T23


def test_assemble_composite_groupoid_any_form():
    # M22 M12^-1 M11 = M21 is a ring identity: it needs invertibility of the
    # fragments but no commutation at all.
    rng = random.Random(2024)
    e = [[0] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            e[i][j] = rng.randint(-2, 2)
            e[j][i] = -e[i][j]
    form = SkewForm(e)
    sizes = dict(m2=2, n1=2, k=2, m1=1, n2=2)
    t11 = _monomial_matrix(form, sizes["m2"], sizes["m2"], 0, rng)
    t12 = _monomial_matrix(form, sizes["m2"], sizes["n1"], 1, rng)
    t21 = _monomial_matrix(form, sizes["m2"], sizes["m2"], 2, rng)
    t22 = _monomial_matrix(form, sizes["k"], sizes["m2"], 3, rng)
    t23 = _monomial_matrix(form, sizes["k"], sizes["m1"], 4, rng)
    t31 = _monomial_matrix(form, sizes["m1"], sizes["k"], 5, rng)
    t32 = _monomial_matrix(form, sizes["n2"], sizes["k"], 6, rng)
    # the identity needs T11, T21 and the corner T31 T23 of M12 invertible:
    # triangularize the square fragments and keep one route through T23
    t11 = _triangularize(t11)
    t21 = _triangularize(t21)
    z = QElem.zero(form)
    t23 = QMatrix.from_rows(
        form, [[t23.entry(0, 0)]] + [[z]] * (sizes["k"] - 1)
    )
    b = assemble_composite(t11, t12, t21, t22, t23, t31, t32)
    lhs = matmul(matmul(b.M22, invert_restricted(b.M12)), b.M11)
    assert lhs == b.M21


def _triangularize(m):
    z = QElem.zero(m.form)
    rows = [
        [m.entry(i, j) if j <= i else z for j in range(m.cols)]
        for i in range(m.rows)
    ]
    return QMatrix.from_rows(m.form, rows)


def test_assemble_composite_shape_validation():
    form = SkewForm([[0]])
    one = QMatrix.from_rows(form, [[QElem.one(form)]])
    two = QMatrix.from_rows(form, [[QElem.one(form), QElem.one(form)]])
    with pytest.raises(ValueError):
        assemble_composite(two, one, one, one, one, one, one)


# ---------------------------------------------------------------------------
# hat-matrix example
# ---------------------------------------------------------------------------


def test_hat_matrix_frozen():
    assert hat_matrix(2) == [[1, 1, 0], [1, 1, 1], [1, 1, 1]]
    h = hat_matrix(5)
    for i in range(6):
        for j in range(6):
            assert h[i][j] == (1 if i - j + 1 >= 0 else 0)


def test_hat_m12_inverse_power_binomials():
    from math import comb

    for r in (2, 3, 5):
        inv = hat_blocks(r).M12_inverse
        m = QMatrix.identity(r, inv.form)
        for p in range(1, 8):
            m = matmul(m, inv)
            for i in range(r):
                for j in range(r):
                    want = (-1) ** (i - j) * comb(p, i - j) if i >= j else 0
                    assert m.entry(i, j) == weyl(inv.form, (0,), QScalar.from_int(want))


def test_f_rp_frozen_values():
    assert staircase_level(hat_blocks(3), 5) == 3
    assert staircase_level(hat_blocks(2), 2) == 0
    for p in range(1, 9):
        assert staircase_level(hat_blocks(1), p) == 1
    for r in range(1, 9):
        assert staircase_level(hat_blocks(r), 1) == 1


def test_f_rp_modes_agree():
    for r in range(1, 9):
        blocks = hat_blocks(r)
        for p in range(1, 9):
            a = staircase_level(blocks, p)
            b = f_rp_recursion(r, p)
            c = f_rp_closed(r, p)
            assert a == b == c, (r, p)


def test_f_rp_recursion_relation():
    # f^r_{p+1} = f^r_p - f^{r-1}_p, read off the staircase levels
    blocks = {r: hat_blocks(r) for r in range(1, 7)}
    f = {(r, p): staircase_level(blocks[r], p) for r in blocks for p in range(1, 8)}
    for r in range(2, 7):
        for p in range(1, 7):
            assert f[r, p + 1] == f[r, p] - f[r - 1, p]
