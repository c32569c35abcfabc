"""The corner-walk derivation of a drawing's faces and exponents, as a test oracle.

geometry.Disc reads faces, boundary potentials and edge exponents from one
table of segment crossings.  The straightforward derivation here asks each
question on its own: a crossing-parity point-in-polygon test for every pair
of face and marker, on a scaffold whose ring has no vertex at O, and a
polyline from O through the square's corners for every boundary potential.
It works on the rational drawing, not on geometry.Disc's integer grid, and
finds where a segment passes a marker by dividing, not by cross-multiplying.
Both refuse a drawing that is not a planar embedding with the same message;
here every pair of edges is tested, not a sweep's candidates.  Only the
construction checks of geometry.Disc and its exchange-matrix rule are shared.
"""

from fractions import Fraction
from functools import cmp_to_key

from qtransport import geometry
from qtransport.geometry import _dir_cmp


def division_segment_ray_crossing(p1, p2, marker):
    """geometry._segment_ray_crossing, reading the segment's height at the marker.

    +1 when p1->p2 passes strictly below the marker moving in -x, -1 moving
    in +x, else 0; half-open in x, and a vertical segment never crosses.
    """
    (x1, y1), (x2, y2) = p1, p2
    xf, yf = marker
    if x1 == x2:
        return 0
    if x2 <= xf < x1:
        sign = 1
    elif x1 <= xf < x2:
        sign = -1
    else:
        return 0
    y_at = y1 + Fraction(y2 - y1) * (xf - x1) / (x2 - x1)
    return sign if y_at < yf else 0


def polyline_crossings(points, markers):
    """Signed crossings of an open polyline with every marker's downward ray."""
    vec = [0] * len(markers)
    for p1, p2 in zip(points, points[1:]):
        for i, m in enumerate(markers):
            vec[i] += division_segment_ray_crossing(p1, p2, m)
    return vec


def point_in_polygon(pt, poly):
    """Crossing-parity test with the same half-open downward ray."""
    inside = False
    n = len(poly)
    for k in range(n):
        if division_segment_ray_crossing(poly[k], poly[(k + 1) % n], pt) != 0:
            inside = not inside
    return inside


def corners_between(disc, t1, t2):
    """Square corners on the clockwise walk from t1 to t2, in order."""
    r = disc.R
    width = (t2 - t1) % (8 * r)
    out = []
    for tc in (r, 3 * r, 5 * r, 7 * r):
        d = (tc - t1) % (8 * r)
        if 0 < d < width:
            out.append((d, disc._point_at_t(tc)))
    out.sort(key=lambda pair: pair[0])
    return [p for _, p in out]


def _cross(u, w):
    return u[0] * w[1] - u[1] * w[0]


def _minus(p, q):
    return (p[0] - q[0], p[1] - q[1])


def same_ray(pos, e, f):
    """Whether edges e and f share an end and leave it in one direction."""
    for v in set(e) & set(f):
        u = _minus(pos[e[0] if e[1] == v else e[1]], pos[v])
        w = _minus(pos[f[0] if f[1] == v else f[1]], pos[v])
        if _cross(u, w) == 0 and u[0] * w[0] + u[1] * w[1] > 0:
            return True
    return False


def segments_meet(a, b, c, d):
    """Whether segments ab and cd share a point, solving a + s(b - a) = c + t(d - c)."""
    ab, cd, ca = _minus(b, a), _minus(d, c), _minus(c, a)
    denom = _cross(ab, cd)
    if denom:
        s, t = Fraction(_cross(ca, cd), denom), Fraction(_cross(ca, ab), denom)
        return 0 <= s <= 1 and 0 <= t <= 1
    if _cross(ca, ab):
        return False  # parallel lines
    # one line: where c and d sit along ab, with a at 0 and b at 1
    length = ab[0] ** 2 + ab[1] ** 2
    sc, sd = (Fraction(ab[0] * p[0] + ab[1] * p[1], length) for p in (ca, _minus(d, a)))
    return min(sc, sd) <= 1 and max(sc, sd) >= 0


def _orient(a, b, c):
    v = _cross(_minus(b, a), _minus(c, a))
    return (v > 0) - (v < 0)


def path_self_crossings(points):
    """Transversal self-intersections of an open polyline.

    Proper crossings of non-adjacent segments count once each.  A vertex the
    path visits repeatedly counts once per pair of passes whose incoming and
    outgoing directions interleave around the vertex; pairs sharing a
    direction (e.g. a reused edge) are tangential and count zero.  On a
    planar drawing it is 0 on every path a transport walk takes, which the
    tests check: that is why the walk adds every path with sign +1.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    segs = list(zip(pts, pts[1:]))
    count = 0
    for i, (a, b) in enumerate(segs):
        for c, d in segs[i + 1:]:
            if a in (c, d) or b in (c, d):
                continue
            if _orient(a, b, c) * _orient(a, b, d) < 0 and _orient(c, d, a) * _orient(c, d, b) < 0:
                count += 1
    passes = {}
    for k in range(1, len(pts) - 1):
        v = pts[k]
        passes.setdefault(v, []).append((_minus(pts[k - 1], v), _minus(pts[k + 1], v)))
    for plist in passes.values():
        for i in range(len(plist)):
            for j in range(i + 1, len(plist)):
                count += _passes_interleave(plist[i], plist[j])
    return count


def _passes_interleave(p1, p2):
    for d1 in p1:
        for d2 in p2:
            if _cross(d1, d2) == 0 and d1[0] * d2[0] + d1[1] * d2[1] > 0:
                return 0  # a shared direction
    labeled = [(d, 0) for d in p1] + [(d, 1) for d in p2]
    labeled.sort(key=cmp_to_key(lambda a, b: _dir_cmp(a[0], b[0])))
    tags = [t for _, t in labeled]
    return 1 if tags[0] == tags[2] and tags[1] == tags[3] else 0


class CornerWalkDisc(geometry.Disc):
    """geometry.Disc with faces and exponents derived one question at a time."""

    def _build_scaffold(self):
        pass  # faces() builds its own graph, and nothing reads a crossing table

    def potential(self, b):
        """Winding vector A(b) of the clockwise arc from O to boundary b."""
        pts = (
            [self._point_at_t(self.t_origin)]
            + corners_between(self, self.t_origin, self.tval[b])
            + [self.proj[b], self.pos[b]]
        )
        return polyline_crossings(pts, self.markers)

    def edge_exponents(self):
        out = []
        for frm, to in self.edges:
            vec = polyline_crossings([self.pos[frm], self.pos[to]], self.markers)
            if frm in self.sources:
                vec = [x + y for x, y in zip(vec, self.potential(frm))]
            if to in self.sinks:
                vec = [x - y for x, y in zip(vec, self.potential(to))]
            out.append(tuple(vec))
        return out

    def _scaffold_graph(self):
        pos = dict(self.pos)
        adj = {v: set() for v in self.vertices}

        def add(u, v):
            if v in adj[u]:
                raise ValueError(f"parallel edges between {u!r} and {v!r}")
            adj[u].add(v)
            adj[v].add(u)

        for frm, to in self.edges:
            add(frm, to)
        square = {}
        for b in self.sources + self.sinks:
            square.setdefault(self.proj[b], []).append(b)
        for c in (
            self._point_at_t(self.R),
            self._point_at_t(3 * self.R),
            self._point_at_t(5 * self.R),
            self._point_at_t(7 * self.R),
        ):
            square.setdefault(c, [])
        sq_ids = {}
        for p, members in square.items():
            vid = ("sq", p)
            sq_ids[p] = vid
            pos[vid] = p
            adj[vid] = set()
        for p, members in square.items():
            for b in members:
                add(b, sq_ids[p])
        ring = sorted(square, key=lambda p: self._perimeter_t(
            (p[0] - self.center[0], p[1] - self.center[1])
        ))
        for i, p in enumerate(ring):
            add(sq_ids[p], sq_ids[ring[(i + 1) % len(ring)]])
        return pos, adj

    def _first_pair(self, meet, what):
        """Refuse the first pair of edges in edge order for which meet holds."""
        for i, (a, b) in enumerate(self.edges):
            for c, d in self.edges[i + 1:]:
                if meet((a, b), (c, d)):
                    raise ValueError(f"edges {a!r}->{b!r} and {c!r}->{d!r} {what}")

    def faces(self):
        pos, adj = self._scaffold_graph()
        self._first_pair(lambda e, f: same_ray(self.pos, e, f), "overlap")
        rotation = {}
        rot_index = {}
        for v, nbrs in adj.items():
            ordered = sorted(
                nbrs,
                key=cmp_to_key(
                    lambda a, b: _dir_cmp(
                        (pos[a][0] - pos[v][0], pos[a][1] - pos[v][1]),
                        (pos[b][0] - pos[v][0], pos[b][1] - pos[v][1]),
                    )
                ),
            )
            rotation[v] = ordered
            rot_index[v] = {u: i for i, u in enumerate(ordered)}

        # the walk order of geometry.Disc, so both name the same first face
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
                if d != dart:
                    raise ValueError("face walk failed to close")
                orbits.append(orbit)

        face_marker = {}
        outer = None
        for oid, orbit in enumerate(orbits):
            poly = [pos[u] for u, _ in orbit]
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
            hits = [
                i for i, m in enumerate(self.markers) if point_in_polygon(m, poly)
            ]
            if len(hits) != 1:
                raise ValueError(
                    f"face must contain exactly one marker, found {len(hits)}"
                )
            face_marker[oid] = hits[0]
        if outer is None or len(face_marker) != len(self.markers):
            raise ValueError("faces do not match the marker list")

        lefts, rights = [], []
        for frm, to in self.edges:
            lo = orbit_of[(frm, to)]
            ro = orbit_of[(to, frm)]
            if lo == outer or ro == outer:
                raise ValueError("network edge touches the outer face")
            lefts.append(face_marker[lo])
            rights.append(face_marker[ro])
        self._first_pair(
            lambda e, f: not set(e) & set(f)
            and segments_meet(*(self.pos[v] for v in (*e, *f))),
            "cross",
        )
        return lefts, rights


def derive_network_data(vertices, edges, sources, sinks, coords, markers):
    """(E, exponents) of a drawing, as geometry.derive_network_data returns them."""
    disc = CornerWalkDisc(vertices, edges, sources, sinks, coords, markers)
    return disc.exchange_matrix(), disc.edge_exponents()
