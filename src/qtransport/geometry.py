"""Exact planar geometry for directed networks drawn in a disc.

A drawing comes in rational coordinates (fractions.Fraction), and the few
constructions that divide -- the centre, the square and its projections, the
perimeter coordinate t, the point O -- stay rational.  Every scaffold point
and marker is then scaled by one common denominator onto an integer grid.
A positive scale keeps every predicate used here (comparisons, orientations,
the sign of an area), so the crossing table and the face walk run on Python
ints without a division, and all derived data -- face incidences, winding
numbers, crossing counts -- is exact.

A network is drawn with its boundary vertices on the rim of a disc, sources
listed clockwise and sinks counterclockwise.  For bookkeeping the disc is
closed off by an axis-aligned square drawn well outside the picture: every
boundary vertex gets a spoke out to its radial projection on the square, and
the square perimeter joins the projections.  Faces of the resulting plane
graph are in bijection with the supplied face markers.

Conventions, fixed once and used everywhere:

* Winding numbers are counted clockwise-positive, by intersecting the ray
  going straight down from a face marker with the oriented curve.  A segment
  crossing the ray below the marker while moving in the -x direction counts
  +1, in the +x direction -1.  The crossing is attributed half-open in x so a
  curve passing exactly through a vertex is counted once.

* Each path from a source to a sink is closed up by the return arc that runs
  from the sink to its square projection, clockwise along the square, and
  back down to the source.  The winding vector of that closed loop is the
  exponent vector of the path.

* Per-edge exponent vectors are obtained from a reference point O on the
  square, placed in the boundary gap between the last source and the first
  sink reached clockwise from it.  With A(b) the winding vector of the open
  arc from O to boundary vertex b, an internal edge contributes its own
  segment crossings, a source stub adds A(source), and a sink stub subtracts
  A(sink).  Summing these along any path reproduces the loop winding above.

* All of these are sums over one crossing table: the signed crossing vector
  of every scaffold segment (network edges, spokes, and the square ring,
  which has O as one of its vertices), computed once; a segment walked
  backwards has the negated vector.  A marker lies in a face iff the vectors
  of the face's boundary sum to an odd count at it, the same parity a
  point-in-polygon test counts.  A(b) is the running sum along the ring from
  O clockwise to b's projection, plus b's spoke; cutting a straight side at
  ring vertices leaves its half-open counts unchanged.

* The exchange matrix E (twice the skew form on faces) is accumulated edge by
  edge: an edge adds w to E[left face, right face], where w counts +1 for
  each endpoint that is a split vertex the edge leaves or a merge vertex it
  enters, and -1 for a split vertex it enters or a merge vertex it leaves.
  Boundary endpoints contribute nothing.

* A drawing is checked before its faces are walked, in this order: every
  internal vertex is a split or a merge and every boundary vertex carries one
  stub; no two edges leave one vertex along one ray; no two edges share any
  other point than a common end; no edge meets a boundary vertex's spoke
  anywhere but at that vertex.  The pair named is the first in edge order.
  No directed path then crosses itself or crosses over at a vertex, so every
  path counts in a transport entry with sign +1, and the face walk only
  checks the markers.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import lcm


def _frac_point(p):
    x, y = p
    return (Fraction(x), Fraction(y))


def _dir_half(d):
    # 0 for angles in (0, 180] degrees measured from +x, 1 for the rest;
    # (1, 0) itself opens the first half.
    dx, dy = d
    return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1


def _dir_cmp(a, b):
    ha, hb = _dir_half(a), _dir_half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = a[0] * b[1] - a[1] * b[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    # One direction: opposite ones fall in different halves, and no segment is
    # drawn at one point (check_edge_ends; spokes and ring by construction).
    return 0


def _segment_ray_crossing(p1, p2, marker):
    """Signed crossing of segment p1->p2 with the downward ray from marker.

    Returns +1 when the segment passes below the marker moving in -x, -1
    moving in +x, else 0.  Half-open in x: the endpoint with smaller x is
    excluded on one side so chains of segments count each crossing once, and
    a vertical segment never crosses.  "Below" compares the segment's height
    at the marker's x with the marker's, multiplied through by x2 - x1, whose
    sign is -sign; a marker on the segment's line is not below it.
    """
    (x1, y1), (x2, y2) = p1, p2
    xf, yf = marker
    if x2 <= xf < x1:
        sign = 1
    elif x1 <= xf < x2:
        sign = -1
    else:
        return 0
    side = (y1 - yf) * (x2 - x1) + (y2 - y1) * (xf - x1)
    return sign if side * sign > 0 else 0


def _orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _segments_meet(a, b, c, d):
    """Whether segments ab and cd share a point."""
    o1, o2, o3, o4 = _orient(a, b, c), _orient(a, b, d), _orient(c, d, a), _orient(c, d, b)
    if o1 == o2 == o3 == o4 == 0:  # one line, along which points sort as tuples
        return max(min(a, b), min(c, d)) <= min(max(a, b), max(c, d))
    return o1 * o2 <= 0 and o3 * o4 <= 0


def _meet_elsewhere(grid, s, t):
    """Whether segments s and t, each a pair of vertices, share a point other
    than a common end; two segments with one common end share another point
    exactly when they leave it along one ray."""
    common = set(s) & set(t)
    if not common:
        return _segments_meet(*(grid[v] for v in (*s, *t)))
    (v,) = common
    (x, y), ends = grid[v], [grid[u] for u in (*s, *t) if u != v]
    return _dir_cmp(*((ex - x, ey - y) for ex, ey in ends)) == 0


def check_edge_ends(edges, coords):
    """Refuse the first edge (from, to) whose two ends are drawn at one point."""
    for frm, to in edges:
        if tuple(coords[frm]) == tuple(coords[to]):
            raise ValueError(f"edge {frm!r}->{to!r} has both ends drawn at one point")


def check_boundary(sources, sinks):
    """Refuse a vertex that is a source and a sink, or a boundary name listed twice."""
    if set(sources) & set(sinks):
        raise ValueError("sources and sinks must be disjoint")
    seen = set()
    for b in [*sources, *sinks]:
        if b in seen:
            raise ValueError(f"boundary vertex {b!r} is listed twice")
        seen.add(b)


class Disc:
    """Scaffolding around a network drawn in a disc.

    Builds the outer square, boundary projections, the reference point O and
    the crossing table of the scaffold graph, from which faces, arc
    potentials and edge exponents are read.
    """

    def __init__(self, vertices, edges, sources, sinks, coords, markers):
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.sources = list(sources)
        self.sinks = list(sinks)
        self.pos = {v: _frac_point(coords[v]) for v in self.vertices}
        self.markers = [_frac_point(m) for m in markers]
        check_edge_ends(self.edges, self.pos)
        check_boundary(self.sources, self.sinks)
        self.boundary = set(self.sources) | set(self.sinks)

        xs = [p[0] for p in self.pos.values()]
        ys = [p[1] for p in self.pos.values()]
        self.center = (sum(xs) / len(xs), sum(ys) / len(ys))
        extent = max(
            max(abs(x - self.center[0]) for x in xs),
            max(abs(y - self.center[1]) for y in ys),
        )
        if extent == 0:
            raise ValueError("degenerate drawing: all vertices coincide")
        self.R = 4 * extent

        self.proj = {}
        self.tval = {}
        for b in self.boundary:
            p = self.pos[b]
            dx, dy = p[0] - self.center[0], p[1] - self.center[1]
            m = max(abs(dx), abs(dy))
            if m == 0:
                raise ValueError(f"boundary vertex {b!r} sits at the center")
            rel = (dx * self.R / m, dy * self.R / m)
            self.proj[b] = (self.center[0] + rel[0], self.center[1] + rel[1])
            self.tval[b] = self._perimeter_t(rel)
        if len(set(self.tval.values())) != len(self.tval):
            raise ValueError("boundary vertices must sit at distinct angles")

        self._check_boundary_order()
        t_last_source = self.tval[self.sources[-1]]
        t_first_sink = self.tval[self.sinks[-1]]
        gap = (t_first_sink - t_last_source) % (8 * self.R)
        self.t_origin = (t_last_source + gap / 2) % (8 * self.R)
        self._build_scaffold()

    # -- square perimeter ---------------------------------------------------

    def _perimeter_t(self, rel):
        # clockwise perimeter coordinate, starting at the east midpoint
        x, y = rel
        r = self.R
        if x == r and y <= 0:
            return -y
        if y == -r:
            return r + (r - x)
        if x == -r:
            return 3 * r + (y + r)
        if y == r:
            return 5 * r + (x + r)
        return 7 * r + (r - y)  # x == r, y > 0

    def _point_at_t(self, t):
        r = self.R
        t = t % (8 * r)
        if t <= r:
            rel = (r, -t)
        elif t <= 3 * r:
            rel = (r - (t - r), -r)
        elif t <= 5 * r:
            rel = (-r, -r + (t - 3 * r))
        elif t <= 7 * r:
            rel = (-r + (t - 5 * r), r)
        else:
            rel = (r, r - (t - 7 * r))
        return (self.center[0] + rel[0], self.center[1] + rel[1])

    def _check_boundary_order(self):
        order = sorted(self.boundary, key=lambda b: self.tval[b])
        expected = self.sources + list(reversed(self.sinks))
        shift = order.index(expected[0])
        rotated = order[shift:] + order[:shift]
        if rotated != expected:
            raise ValueError(
                "boundary vertices are not in clockwise order "
                "(sources clockwise, then sinks reversed)"
            )

    # -- the scaffold graph and its crossing table --------------------------

    def _build_scaffold(self):
        """Plane graph of edges, spokes and the square ring, and its crossings.

        The ring joins the boundary projections, the four corners and O in
        clockwise order; its vertices are ("sq", k), k counting the ring
        points in the order they are first met, and join self.pos.
        self._grid holds every vertex's point on the integer grid.  self.adj
        holds the neighbours of every vertex, and self.spokes each boundary
        vertex's spoke (b, its ring vertex), sources then sinks.
        self.crossing maps each dart (u, v) to the signed crossings of
        segment u->v with the markers' rays, computed once per segment.
        self.arc maps each boundary vertex b to A(b).
        """
        pos = self.pos
        square = {}
        for b in self.sources + self.sinks:
            square.setdefault(self.proj[b], []).append(b)
        r = self.R
        for t in (r, 3 * r, 5 * r, 7 * r, self.t_origin):
            square.setdefault(self._point_at_t(t), [])
        ring_id = {}
        for p in square:
            ring_id[p] = ("sq", len(ring_id))
            pos[ring_id[p]] = p
        ring = sorted(square, key=lambda p: (self._perimeter_t(
            (p[0] - self.center[0], p[1] - self.center[1])
        ) - self.t_origin) % (8 * r))  # clockwise from O

        points = (*pos.values(), *self.markers)
        scale = lcm(*{c.denominator for p in points for c in p})

        def on_grid(p):
            x, y = p
            return (
                x.numerator * (scale // x.denominator),
                y.numerator * (scale // y.denominator),
            )

        grid = self._grid = {v: on_grid(p) for v, p in pos.items()}
        markers = [on_grid(m) for m in self.markers]
        # Markers by grid x: only those in a segment's x-range [min, max)
        # can cross it, and every other entry of its vector is 0.
        order = sorted(range(len(markers)), key=lambda i: markers[i][0])
        xs = [markers[i][0] for i in order]
        adj = self.adj = {v: set() for v in pos}
        crossing = self.crossing = {}

        def add(u, v):
            if v in adj[u]:
                raise ValueError(f"parallel edges between {u!r} and {v!r}")
            adj[u].add(v)
            adj[v].add(u)
            gu, gv = grid[u], grid[v]
            lo, hi = sorted((gu[0], gv[0]))
            vec = [0] * len(markers)
            for i in order[bisect_left(xs, lo):bisect_left(xs, hi)]:
                vec[i] = _segment_ray_crossing(gu, gv, markers[i])
            crossing[(u, v)] = vec
            crossing[(v, u)] = [-x for x in vec]

        for frm, to in self.edges:
            add(frm, to)
        self.spokes = [(b, ring_id[self.proj[b]]) for b in self.sources + self.sinks]
        for b, q in self.spokes:
            add(b, q)
        a = [0] * len(markers)
        self.arc = {}
        for p, p_next in zip(ring, ring[1:] + ring[:1]):
            u = ring_id[p]
            add(u, ring_id[p_next])
            for b in square[p]:
                self.arc[b] = [x + y for x, y in zip(a, crossing[(u, b)])]
            a = [x + y for x, y in zip(a, crossing[(u, ring_id[p_next])])]

    def edge_exponents(self):
        """Integer exponent vector for every edge, in input order."""
        out = []
        for frm, to in self.edges:
            vec = self.crossing[(frm, to)]
            if frm in self.sources:
                vec = [x + y for x, y in zip(vec, self.arc[frm])]
            if to in self.sinks:
                vec = [x - y for x, y in zip(vec, self.arc[to])]
            out.append(tuple(vec))
        return out

    # -- faces --------------------------------------------------------------

    def faces(self):
        """Bounded faces and the marker each contains.

        Returns (left-face index per edge, right-face index per edge) where
        faces are numbered by their marker's position in the marker list.
        Refuses two edges along one ray, then two that cross, then an edge
        across a spoke, before it walks the faces.
        """
        grid, adj = self._grid, self.adj
        edge_id = {}
        for k, (frm, to) in enumerate(self.edges):
            edge_id[frm, to] = edge_id[to, frm] = k
        rotation, rot_index, rays = {}, {}, []
        for v, nbrs in adj.items():
            def cmp(a, b, v=v):
                (x, y), (xa, ya), (xb, yb) = grid[v], grid[a], grid[b]
                return _dir_cmp((xa - x, ya - y), (xb - x, yb - y))

            ordered = sorted(nbrs, key=cmp_to_key(cmp))
            rays += [  # two edges that leave v along one ray overlap
                sorted((edge_id[v, a], edge_id[v, b]))
                for a, b in combinations(ordered, 2)
                if (v, a) in edge_id and (v, b) in edge_id and cmp(a, b) == 0
            ]
            rotation[v] = ordered
            rot_index[v] = {u: i for i, u in enumerate(ordered)}
        self._refuse_pair(rays, "overlap")
        self._refuse_crossings()

        # Darts are walked in list order, never set order, so which face is
        # found first (and named in an error) does not depend on string
        # hashing.  The dart map is a permutation, so every orbit closes.
        orbit_of = {}
        orbits = []
        for v, ordered in rotation.items():
            for u in ordered:
                dart = (v, u)
                if dart in orbit_of:
                    continue
                orbit = []
                d = dart
                while d not in orbit_of:
                    orbit_of[d] = len(orbits)
                    orbit.append(d)
                    a, b = d
                    nb = rotation[b]
                    d = (b, nb[(rot_index[b][a] - 1) % len(nb)])
                orbits.append(orbit)

        face_marker = {}
        outer = None
        for oid, orbit in enumerate(orbits):
            poly = [grid[u] for u, _ in orbit]
            area2 = sum(
                poly[k][0] * poly[(k + 1) % len(poly)][1]
                - poly[(k + 1) % len(poly)][0] * poly[k][1]
                for k in range(len(poly))
            )
            if area2 < 0:
                if outer is not None:
                    raise ValueError("drawing is not a planar embedding")
                outer = oid
                continue
            winding = [sum(col) for col in zip(*(self.crossing[d] for d in orbit))]
            hits = [i for i, w in enumerate(winding) if w % 2]
            if len(hits) != 1:
                raise ValueError(
                    f"face must contain exactly one marker, found {len(hits)}"
                )
            face_marker[oid] = hits[0]
        if len(face_marker) != len(self.markers):
            raise ValueError("faces do not match the marker list")

        lefts, rights = [], []
        for frm, to in self.edges:
            lo = orbit_of[(frm, to)]
            ro = orbit_of[(to, frm)]
            if lo == outer or ro == outer:
                raise ValueError("network edge touches the outer face")
            lefts.append(face_marker[lo])
            rights.append(face_marker[ro])
        return lefts, rights

    def _refuse_pair(self, pairs, what):
        """Refuse the first pair (i, j) of edges in edge order, if any."""
        if pairs:
            names = ["{!r}->{!r}".format(*self.edges[k]) for k in min(pairs)]
            raise ValueError(f"edges {names[0]} and {names[1]} {what}")

    def _refuse_crossings(self):
        """Refuse two edges that share a point other than a common end, then
        an edge that meets a boundary vertex's spoke anywhere but at that vertex.

        Edges and spokes sorted by their bounding boxes are swept in x: a
        segment leaves the active list once it ends left of the next one's
        start, and two are tested only where their y ranges overlap.  Two
        spokes lie on distinct rays from the centre, so they never meet.
        """
        grid, n = self._grid, len(self.edges)
        segments, boxes, active, met = self.edges + self.spokes, [], [], []
        # Two segments are tested when these sets are disjoint: an edge's
        # ends, and one name for all spokes, none of which meet.
        names = [set(edge) for edge in self.edges] + [{None}] * len(self.spokes)
        for k, (u, w) in enumerate(segments):
            (x1, y1), (x2, y2) = grid[u], grid[w]
            boxes.append((min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2), k))
        for x_lo, x_hi, lo, hi, k in sorted(boxes):
            active = [box for box in active if box[1] >= x_lo]
            met += [
                (j, k) if j < k else (k, j)
                for _, _, j_lo, j_hi, j in active
                if j_lo <= hi and lo <= j_hi and names[j].isdisjoint(names[k])
                and _meet_elsewhere(grid, segments[j], segments[k])
            ]
            active.append((x_lo, x_hi, lo, hi, k))
        self._refuse_pair([(j, k) for j, k in met if k < n], "cross")
        spoked = [(j, k - n) for j, k in met if k >= n]
        if spoked:
            j, k = min(spoked)
            frm, to = self.edges[j]
            b = self.spokes[k][0]
            raise ValueError(f"edge {frm!r}->{to!r} crosses the spoke of boundary vertex {b!r}")

    def exchange_matrix(self):
        """Twice the face skew form, from the per-endpoint edge rule."""
        indeg = {v: 0 for v in self.vertices}
        outdeg = {v: 0 for v in self.vertices}
        for frm, to in self.edges:
            outdeg[frm] += 1
            indeg[to] += 1
        turn = {}  # +1 at a split, -1 at a merge, 0 at a boundary vertex
        for v in self.vertices:
            if v in self.boundary:
                if (v in self.sources and (indeg[v], outdeg[v]) != (0, 1)) or (
                    v in self.sinks and (indeg[v], outdeg[v]) != (1, 0)
                ):
                    raise ValueError(f"boundary vertex {v!r} must carry one stub")
                turn[v] = 0
            elif (indeg[v], outdeg[v]) in ((1, 2), (2, 1)):
                turn[v] = outdeg[v] - indeg[v]
            else:
                raise ValueError(
                    f"internal vertex {v!r} must be a split (1 in, 2 out) "
                    f"or a merge (2 in, 1 out)"
                )
        lefts, rights = self.faces()
        n = len(self.markers)
        e = [[0] * n for _ in range(n)]
        for k, (frm, to) in enumerate(self.edges):
            w = turn[frm] - turn[to]
            left, right = lefts[k], rights[k]
            if w and left != right:
                e[left][right] += w
                e[right][left] -= w
        return e


def derive_network_data(vertices, edges, sources, sinks, coords, markers):
    """Exchange matrix and per-edge exponents for a drawn network.

    ``edges`` is a list of (from, to) vertex pairs.  Returns (E, exponents)
    with E a square integer matrix over the faces (one per marker, in marker
    order) and exponents a tuple of integer vectors, one per edge.
    """
    disc = Disc(vertices, edges, sources, sinks, coords, markers)
    return disc.exchange_matrix(), disc.edge_exponents()

