"""The crossing-table derivation of a drawing against the corner-walk oracle.

geometry.derive_network_data reads faces, boundary potentials and edge
exponents from one table of segment crossings.  Every drawing below must give
the oracle's (E, exponents), or the oracle's ValueError text: triangles,
chains, bridge words, their shuffled reloads, and seeded perturbations of
each that move markers and vertices or put a marker on a vertex's x.

Bridge words are the networks of the Lusztig factorisations of totally
nonnegative matrices (Fomin-Zelevinsky, math/9802056): n strands that flow
west, joined by bridges between adjacent strands.  They are also a
theorem-level property test: the RTT and block relations must hold on every
word, and fail once one entry is perturbed.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_oracle
from test_network import transport_entry
from qtransport import geometry, verify
from qtransport.affine import levels_T, loop_generators, reflection_series
from qtransport.ncmat import NotInvertibleInSupportedClass, QMatrix
from qtransport.network import (
    Edge,
    Geometry,
    Network,
    block_split,
    build_chain,
    build_triangle,
    network_from_dict,
    network_to_dict,
    transport_matrix,
)
from qtransport.qalg import QElem


def bridge_word(n, word):
    """n west-running strands joined by a word of bridges, one marker per region.

    Strand i (0 at the top) runs at y = -i from source s{i} in the east to
    sink t{i} in the west.  Letter c of the word, (k, "down") or (k, "up"),
    bridges gap k between strands k and k + 1 in the column west of x = -2c:
    it leaves a split at x = -2c and enters a merge at x = -2c - 1, "down"
    from the upper strand to the lower, "up" the other way.  Each gap holds
    one marker east of its first bridge and one west of each bridge; one
    marker sits above the top strand and one below the bottom strand.
    """
    half = Fraction(1, 2)
    coords = {}
    strands = [[] for _ in range(n)]  # vertices of each strand, east to west
    edges = []
    gap_columns = [[] for _ in range(n - 1)]
    for c, (k, way) in enumerate(word):
        frm, to = (k, k + 1) if way == "down" else (k + 1, k)
        coords[f"x{c}"] = (-2 * c, -frm)
        coords[f"y{c}"] = (-2 * c - 1, -to)
        strands[frm].append(f"x{c}")
        strands[to].append(f"y{c}")
        edges.append((f"x{c}", f"y{c}"))
        gap_columns[k].append(c)
    sources = [f"s{i}" for i in range(n)]
    sinks = [f"t{i}" for i in range(n)]
    for i in range(n):
        coords[sources[i]] = (2, -i)
        coords[sinks[i]] = (-2 * len(word) - 1, -i)
        strand = [sources[i]] + strands[i] + [sinks[i]]
        edges += list(zip(strand, strand[1:]))
    markers = [(1, half), (1, half - n)]
    for k, columns in enumerate(gap_columns):
        markers += [(1, -k - half)] + [(-2 * c - 3 * half, -k - half) for c in columns]
    return Network(
        None, list(coords), [Edge(frm, to) for frm, to in edges], sources, sinks,
        Geometry(coords, markers), generators=[f"f{i}" for i in range(len(markers))],
    )


def _seeded_words(count, seed=2024):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        letters = range(rng.randint(0, 8))
        out.append((n, [(rng.randrange(n - 1), rng.choice(("up", "down"))) for _ in letters]))
    return out


DRAWN = {f"triangle{n}": (lambda n=n: build_triangle(n)) for n in range(1, 7)}
DRAWN.update({
    f"chain{n1}{n2}{'b' if bridge else ''}": (
        lambda n1=n1, n2=n2, bridge=bridge: build_chain(n1, n2, bridge)
    )
    for n1 in range(1, 4)
    for n2 in range(1, 4)
    for bridge in (False, True)
})
DRAWN.update({
    f"word{i}": (lambda n=n, word=word: bridge_word(n, word))
    for i, (n, word) in enumerate(_seeded_words(12))
})


def _drawing(net):
    """The arguments derive_network_data takes for a drawn network."""
    return (
        net.vertices,
        [(e.frm, e.to) for e in net.edges],
        net.sources,
        net.sinks,
        net.geometry.coords,
        net.geometry.face_markers,
    )


def _shuffled_reload(net, seed=11):
    """The network reloaded with its vertex and edge lists shuffled, exponent-free."""
    rng = random.Random(seed)
    doc = network_to_dict(net)
    rng.shuffle(doc["vertices"])
    rng.shuffle(doc["edges"])
    for edge in doc["edges"]:
        edge["exponent"] = None
    return network_from_dict(doc)


def _perturbed(drawing, rng):
    """The drawing with one marker or vertex moved, or a marker put on a vertex's x.

    The x values come from every scaffold vertex, the square ring and its
    point O included, where the half-open crossing rule decides.
    """
    vertices, edges, sources, sinks, coords, markers = drawing
    coords, markers = dict(coords), list(markers)

    def nudge(p):
        return (p[0] + Fraction(rng.randint(-6, 6), 4), p[1] + Fraction(rng.randint(-6, 6), 4))

    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randrange(len(markers))
        markers[i] = nudge(markers[i])
    elif kind == 1:
        v = rng.choice(vertices)
        coords[v] = nudge(coords[v])
    else:
        i = rng.randrange(len(markers))
        xs = sorted({p[0] for p in geometry.Disc(*drawing).pos.values()})
        markers[i] = (rng.choice(xs), markers[i][1])
    return vertices, edges, sources, sinks, coords, markers


def _outcome(derive, drawing):
    try:
        e_mat, exps = derive(*drawing)
    except ValueError as exc:
        return str(exc)
    return [list(row) for row in e_mat], [tuple(vec) for vec in exps]


def _assert_matches_oracle(drawing):
    got = _outcome(geometry.derive_network_data, drawing)
    assert got == _outcome(geometry_oracle.derive_network_data, drawing)
    return got


@pytest.mark.parametrize("shuffle", [False, True], ids=["built", "shuffled"])
@pytest.mark.parametrize("name", list(DRAWN))
def test_derivation_matches_corner_walk_oracle(name, shuffle):
    built = DRAWN[name]()
    net = _shuffled_reload(built) if shuffle else built
    e_mat, exps = _assert_matches_oracle(_drawing(net))
    assert tuple(map(tuple, e_mat)) == built.form.E
    built_exps = {(e.frm, e.to): tuple(e.exponent) for e in built.edges}
    assert exps == [built_exps[(e.frm, e.to)] for e in net.edges]


@pytest.mark.parametrize("name", list(DRAWN))
def test_perturbed_drawings_match_corner_walk_oracle(name):
    drawing = _drawing(DRAWN[name]())
    rng = random.Random(name)
    for _ in range(4):
        _assert_matches_oracle(_perturbed(drawing, rng))


@pytest.mark.parametrize(
    "name, vertex, xy, message",
    [
        ("chain22b", "a2", (Fraction(21, 2), Fraction(3, 4)), "edges 'a1'->'B1' and 'a2'->'B2' cross"),
        # a2 lies on a1->B1
        ("chain22b", "a1", (Fraction(53, 4), 3), "edges 'a1'->'B1' and 'a2'->'B2' cross"),
        # 1'' lies on the vertical g0_2->2'', whose x is where g0_1->1'' ends
        ("triangle3", "1''", (2, Fraction(-3, 4)), "edges 'g0_1'->\"1''\" and 'g0_2'->\"2''\" cross"),
        # U->B2 and B2->B1 leave B2 eastwards, B2->B1 and B1->W1 leave B1 westwards
        ("chain22b", "B2", (Fraction(39, 4), 0), "edges 'U'->'B2' and 'B2'->'B1' overlap"),
    ],
    ids=["proper-crossing", "end-on-edge", "end-at-sweep-edge", "same-ray"],
)
def test_a_drawing_that_is_not_a_planar_embedding_names_its_first_pair(name, vertex, xy, message):
    vertices, edges, sources, sinks, coords, markers = _drawing(DRAWN[name]())
    drawing = vertices, edges, sources, sinks, {**coords, vertex: xy}, markers
    assert _assert_matches_oracle(drawing) == message


def test_perturbed_corpus_has_valid_and_rejected_drawings():
    kinds = set()
    for name in ("triangle3", "chain22b", "word0"):
        drawing = _drawing(DRAWN[name]())
        rng = random.Random(name)
        for _ in range(4):
            kinds.add(isinstance(_outcome(geometry.derive_network_data,
                                          _perturbed(drawing, rng)), str))
    assert kinds == {False, True}


def _grid_markers(disc):
    """disc's markers on its integer grid, scaled as its vertices are."""
    v, p = next((v, p) for v, p in disc.pos.items() if p[0])
    scale = disc._grid[v][0] / p[0]
    return [(int(m[0] * scale), int(m[1] * scale)) for m in disc.markers]


def test_derivation_computes_each_segment_crossing_once(monkeypatch):
    # triangle(3): 18 edges, 9 spokes and a ring of 9 projections, 4
    # corners and O give 41 segments and 41 * 10 (segment, marker) pairs.
    # Only the 53 pairs whose marker x lies in the segment's half-open
    # x-range [min x, max x) can cross, and each is tested once.
    drawing = _drawing(build_triangle(3))
    disc = geometry.Disc(*drawing)
    grid, markers = disc._grid, _grid_markers(disc)
    segments = {frozenset((u, v)) for u in disc.adj for v in disc.adj[u]}
    assert (len(segments), len(markers)) == (41, 10)
    in_range = {
        (seg, m)
        for seg in segments
        for m in markers
        if min(grid[u][0] for u in seg) <= m[0] < max(grid[u][0] for u in seg)
    }
    assert len(in_range) == 53
    point = {g: v for v, g in grid.items()}
    calls = []
    crossing = geometry._segment_ray_crossing

    def counted(p1, p2, marker):
        calls.append((frozenset((point[p1], point[p2])), marker))
        return crossing(p1, p2, marker)

    monkeypatch.setattr(geometry, "_segment_ray_crossing", counted)
    geometry.derive_network_data(*drawing)
    assert len(calls) == len(set(calls))
    assert set(calls) == in_range


@pytest.mark.parametrize("shuffle", [False, True], ids=["built", "shuffled"])
def test_crossing_table_equals_the_all_markers_scan(shuffle):
    # Every dart's vector, read off the markers in its x-range, equals the
    # vector of testing every marker, on drawings that hold vertical
    # segments and markers at either end's x.
    kinds = set()
    for net in [build_triangle(n) for n in range(2, 6)] + [build_chain(2, 2, bridge=True)]:
        disc = geometry.Disc(*_drawing(_shuffled_reload(net) if shuffle else net))
        grid, markers = disc._grid, _grid_markers(disc)
        for (u, v), vec in disc.crossing.items():
            p1, p2 = grid[u], grid[v]
            assert vec == [geometry._segment_ray_crossing(p1, p2, m) for m in markers]
            kinds.update(_crossing_kind(p1, p2, m) for m in markers)
    assert kinds == {
        "vertical",
        "vertical, marker x on it",
        "marker x at start, +x",
        "marker x at start, -x",
        "marker x at end, +x",
        "marker x at end, -x",
        "other",
    }


def _crossing_kind(p1, p2, marker):
    """Which edge case of the half-open crossing rule (p1, p2, marker) exercises."""
    (x1, y1), (x2, y2) = p1, p2
    xf, yf = marker
    if x1 == x2:
        return "vertical, marker x on it" if xf == x1 else "vertical"
    way = "+x" if x2 > x1 else "-x"
    if xf in (x1, x2):
        return f"marker x at {'start' if xf == x1 else 'end'}, {way}"
    on_line = (yf - y1) * (x2 - x1) == (y2 - y1) * (xf - x1)
    if on_line and min(x1, x2) < xf < max(x1, x2):
        return f"marker on the segment, {way}"
    return "other"


def test_integer_crossing_matches_division_oracle():
    # Seeded small integer points, plus markers on each segment's line: the
    # integer points between its ends and one step beyond either end.
    rng = random.Random(5)
    cases = []
    for _ in range(600):
        p1, p2, m = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        cases.append((p1, p2, m))
        cases.append((p1, (p1[0], p2[1]), (p1[0], m[1])))  # vertical, marker x on it
        cases.append((p1, p2, (p1[0], m[1])))
        cases.append((p1, p2, (p2[0], m[1])))
        dx, dy = p2[0] - p1[0], p2[1] - p1[1]
        g = math.gcd(dx, dy)
        if g:
            for k in range(-1, g + 2):
                cases.append((p1, p2, (p1[0] + k * dx // g, p1[1] + k * dy // g)))
    kinds = set()
    for p1, p2, m in cases:
        want = geometry_oracle.division_segment_ray_crossing(p1, p2, m)
        assert geometry._segment_ray_crossing(p1, p2, m) == want, (p1, p2, m)
        kinds.add(_crossing_kind(p1, p2, m))
    assert kinds == {
        "vertical",
        "vertical, marker x on it",
        "marker x at start, +x",
        "marker x at start, -x",
        "marker x at end, +x",
        "marker x at end, -x",
        "marker on the segment, +x",
        "marker on the segment, -x",
        "other",
    }


def test_derivation_names_both_ends_of_a_collapsed_edge():
    # triangle(2) with g1_1 moved onto b1_1, called as the builders call it
    vertices, edges, sources, sinks, coords, markers = _drawing(build_triangle(2))
    coords = dict(coords, g1_1=coords["b1_1"])
    with pytest.raises(ValueError) as info:
        geometry.derive_network_data(vertices, edges, sources, sinks, coords, markers)
    assert str(info.value) == "edge 'g1_1'->'b1_1' has both ends drawn at one point"


def test_derivation_names_a_boundary_vertex_listed_twice():
    vertices, edges, sources, sinks, coords, markers = _drawing(build_triangle(2))
    for srcs, snks, name in ((sources + ["1"], sinks, "1"), (sources, sinks + ["2'"], "2'")):
        with pytest.raises(ValueError) as info:
            geometry.derive_network_data(vertices, edges, srcs, snks, coords, markers)
        assert str(info.value) == f"boundary vertex {name!r} is listed twice"


@pytest.mark.parametrize(
    "build",
    [lambda: build_triangle(3), lambda: build_chain(2, 2, bridge=True)],
    ids=["triangle3", "chain22b"],
)
def test_derivation_is_invariant_under_rational_scale_and_shift(build):
    net = build()
    scale = Fraction(1000003, 999983)
    shift = (Fraction(-7368787, 1000033), Fraction(2750159, 999979))

    def moved(p):
        return [
            [c.numerator, c.denominator]
            for c in (scale * p[0] + shift[0], scale * p[1] + shift[1])
        ]

    doc = network_to_dict(net)
    doc["geometry"] = {
        "coords": {v: moved(p) for v, p in net.geometry.coords.items()},
        "face_markers": [moved(m) for m in net.geometry.face_markers],
    }
    for edge in doc["edges"]:
        edge["exponent"] = None
    loaded = network_from_dict(doc)
    e_mat, exps = geometry.derive_network_data(*_drawing(loaded))
    assert tuple(map(tuple, e_mat)) == net.form.E
    assert exps == [tuple(e.exponent) for e in net.edges]


def test_transport_matches_per_entry_oracle_on_bridge_words():
    for n, word in _seeded_words(12):
        net = bridge_word(n, word)
        m = transport_matrix(net)
        for a in range(len(net.sources)):
            for c in range(len(net.sinks)):
                entry = m.entry(c, a)
                assert entry == transport_entry(net, a, c)
                for code, coeff in entry.terms.items():
                    exps, k = net.form.decode(code)
                    assert k == 0
                    assert type(exps) is tuple and len(exps) == net.form.n
                    assert all(type(x) is int for x in exps)
                    assert all(abs(x) <= entry.span for x in exps)
                    assert type(coeff) is int and coeff


def _bumped(m, i, j):
    data = [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]
    data[i][j] = data[i][j] + QElem.one(m.form)
    return QMatrix.from_rows(m.form, data)


def _shares_a_line(m, i, j):
    """Whether (i, j) shares its row or column with another nonzero entry."""
    line = [(i, c) for c in range(m.cols)] + [(r, j) for r in range(m.rows)]
    return any((r, c) != (i, j) and not m.entry(r, c).is_zero() for r, c in line)


@st.composite
def words(draw):
    n = draw(st.integers(2, 4))
    letter = st.tuples(st.integers(0, n - 2), st.sampled_from(("up", "down")))
    return n, draw(st.lists(letter, max_size=8))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(words(), st.data())
def test_bridge_words_satisfy_rtt_and_square_block_relations(word, data):
    n, letters = word
    m = transport_matrix(bridge_word(n, letters))
    assert verify.check_rtt(m).passed
    for msize in range(1, n):
        assert verify.check_blocks(block_split(m, n - msize, msize, n - msize)).passed
    shared = [(i, j) for i in range(n) for j in range(n) if _shares_a_line(m, i, j)]
    i, j = data.draw(st.sampled_from(shared))
    assert not verify.check_rtt(_bumped(m, i, j)).passed


def _invertible_square_splits(count, seed=11):
    """(transport, m, blocks) of seeded bridge words, for each square split
    (n-m, m, n-m) whose M12 is invertible in the supported class."""
    for n, letters in _seeded_words(count, seed):
        m = transport_matrix(bridge_word(n, letters))
        for msize in range(1, n):
            blocks = block_split(m, n - msize, msize, n - msize)
            try:
                blocks.M12_inverse
            except NotInvertibleInSupportedClass:
                continue
            yield m, msize, blocks


def _level_reports(b):
    """The report of every level, loop and reflection checker on blocks b."""
    t = loop_generators(b)
    return {
        "affine": verify.check_affine(levels_T(b), 2, 2),
        "aux-inverse": verify.check_aux_inverse(b),
        "loop": verify.check_loop(t, -2, 1),
        "subalgebra": verify.check_subalgebra(t),
        "appendix": verify.check_appendix(b),
        "reflection-affine": verify.check_reflection_affine(reflection_series(t), 1),
    }


def test_bridge_words_satisfy_level_loop_and_reflection_relations():
    """The paper's claims for any network whose M12 is invertible, on bridge words.

    50 of the 592 square splits of 300 seeded words have an invertible
    M12; the first of each shape (n, m) is checked.  groupoid stays out: it
    probes loopback consistency, which the paper does not claim for every
    network.  The control adds 1 to M22[0, 0], which every checker reads
    through its levels and which leaves M12 alone, and each checker must
    fail on it.  Where n1 = n2 = 1 and M21 = 0, subalgebra and
    reflection-affine at window 1 hold whatever M11 and M22 are, so they
    are left out there: T+0 = M21 is zero, a 1 x 1 self-exchange is
    trivial, and each reflection component is a commutator of two levels,
    one of them A_1 = (T-1)^t M21 = 0 or a level at or below 0, which vanish.
    """
    first = {}
    for m, msize, b in _invertible_square_splits(300):
        first.setdefault((m.rows, msize), (m, b))
        if len(first) == 4:
            break
    assert sorted(first) == [(2, 1), (3, 1), (3, 2), (4, 1)]
    for (n, msize), (m, b) in sorted(first.items()):
        reports = _level_reports(b)
        assert all(r.passed for r in reports.values()), (n, msize)
        n1 = n - msize
        bumped = block_split(_bumped(m, msize, n1), n1, msize, n1)
        failed = {name for name, r in _level_reports(bumped).items() if not r.passed}
        want = set(reports)
        if n1 == 1 and b.M21.is_zero():
            want -= {"subalgebra", "reflection-affine"}
        assert failed == want, (n, msize)
