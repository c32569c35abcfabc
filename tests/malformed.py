"""Malformed network documents, each an edit of a valid one.

MALFORMED maps a name to an edit of the triangle(2) document; every edit
must make the command line exit 2 with one error line.  tests/test_cli.py
checks that, and tests/cli_corpus.py runs each edit with and without a
drawing.  This module imports no test framework, so the corpus runs on a
bare interpreter.
"""

from qtransport.network import build_triangle, network_to_dict


_DROP = object()


def _edit(*path, value=_DROP):
    """A document edit that sets the item at path to value, or drops it."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return doc
    return edit


def drawn_triangle2():
    """The triangle(2) document with every exponent left to its drawing."""
    doc = network_to_dict(build_triangle(2))
    for edge in doc["edges"]:
        edge["exponent"] = None
    return doc


def coincident_edge_ends():
    """The drawn triangle(2) with vertex g1_1 moved onto its neighbour b1_1."""
    doc = drawn_triangle2()
    coords = doc["geometry"]["coords"]
    coords["g1_1"] = coords["b1_1"]
    return doc


MALFORMED = {
    "float-exponent": _edit("edges", 3, "exponent", 0, value=0.5),
    "bool-exponent": _edit("edges", 3, "exponent", 0, value=True),
    "str-exponent": _edit("edges", 3, "exponent", 0, value="1"),
    "no-from": _edit("edges", 3, "from"),
    "no-to": _edit("edges", 3, "to"),
    "list-endpoint": _edit("edges", 3, "from", value=["g0_1"]),
    "not-an-object": lambda doc: [doc],
    "int-epsilon2": _edit("epsilon2", value=5),
    "int-vertices": _edit("vertices", value=3),
    "int-edges": _edit("edges", value=7),
    "int-generators": _edit("generators", value=4),
    "str-sources": _edit("sources", value="12"),
    "geometry-without-coords": _edit("geometry", value={"face_markers": []}),
    "one-element-coordinate": _edit(
        "geometry", value={"coords": {"1": [0]}, "face_markers": []}
    ),
    "one-element-face-marker": _edit(
        "geometry", value={"coords": {}, "face_markers": [[0]]}
    ),
    "zero-denominator": _edit(
        "geometry", value={"coords": {"1": [[1, 0], 0]}, "face_markers": []}
    ),
    # a path walk stops at the first sink it reaches, so sinks have no exits
    "edge-leaving-a-sink": lambda doc: {
        **doc,
        "edges": doc["edges"] + [{"from": "1'", "to": "2'", "exponent": [0] * 6}],
    },
    # a zero-length edge has no direction to order around its ends
    "coincident-edge-ends": lambda doc: coincident_edge_ends(),
    # packed torus terms hold exponents below 2^14 in size
    "exponent-past-packed-limit": _edit("edges", 3, "exponent", 0, value=16384),
    # a repeated source adds a column; a repeated sink empties a row
    "repeated-source": _edit("sources", value=["1", "2", "1"]),
    "repeated-sink": lambda doc: {**doc, "sinks": doc["sinks"] + doc["sinks"][:1]},
}
