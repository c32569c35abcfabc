"""A fixed corpus of command lines, and what each one prints.

    python3 tests/cli_corpus.py > corpus.txt

runs every command of the corpus in process and prints one line per
command: its name, its exit code, the sha256 of its stdout and its stderr
as a JSON string.  Run it on two checkouts and diff the outputs to see every
change in what the command line prints.  The corpus holds:

- every check kind and export, as text and with --json, on triangle(2),
  triangle(3), chain(2,2,bridge), chain(2,3,bridge), hat(3), the composite
  example and perturbed network files;
- every MALFORMED edit of tests/malformed.py, with and without a drawing;
- drawn documents that disagree with their drawing;
- cyclic2x2, a network with a directed cycle, with and without its
  drawing, refused when it is loaded;
- drawings that are not planar embeddings: two edges of chain(2,2,bridge)
  crossing, two leaving a vertex along one ray, two edges of triangle(3)
  crossing, and an edge of triangle(3) crossing a boundary vertex's spoke;
- documents that each break one rule the loader checks: a vertex named
  twice, an unknown source, a vertex without coordinates, a sink listed as
  a source, an edge listed twice, an edge split at its midpoint, a stub
  removed, two vertices at one point and a source at the centre of the
  drawing;
- source and size flags that the command does not read, builder sizes
  below 1, empty flag values, an --out in a missing directory, and command
  lines that argparse refuses;
- undrawn one-path lines at and one past the path-depth bound of
  an acyclic network's walk, which its constructor checks;
- sizes at and past each bound of the command line and of verify.evaluate,
  check all and check loop --order 4 on chain(8,8,bridge) inside the
  evaluate budget, a network past the path budget, a drawn one past the
  path-depth bound, chain(100000,1), refused before it is drawn, and
  check disc-reflection on triangle(7) and, perturbed, on triangle(5).

tests/golden/cli_corpus.txt holds its output.  tests/test_cli_corpus.py
reruns every command but the sized bound-* ones and compares each line
with that file, and tests/test_cli.py checks that the corpus names every
check kind and every export.  A change that alters the output on purpose
regenerates the file with the command above.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qtransport import cli  # noqa: E402
from qtransport.network import (  # noqa: E402
    build_chain,
    build_triangle,
    network_to_dict,
)

from malformed import MALFORMED  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
CHECK_KINDS = ["rmatrix", *(k for k in cli.CHECKS if k != "aux-inverse"), "frp", "all"]
EXPORTS = ["transport", "levels", "reflection"]

# Extra arguments a check kind or export needs beside the source.
SIZES = {"rmatrix": ["--k", "3"], "frp": ["--r", "4", "--p", "4"]}
SOURCELESS = {"rmatrix", "frp"}


def _perturbed(net):
    """The document with no drawing and edge 3 off by one in x0."""
    doc = network_to_dict(net)
    doc["geometry"] = None
    doc["edges"][3]["exponent"][0] += 1
    return doc


def _drawn(n=2):
    return network_to_dict(build_triangle(n))


def _drawn_edits():
    """Drawn documents that disagree with their drawing or leave it the exponents."""
    def edited(edit, n=2):
        doc = _drawn(n)
        edit(doc)
        return doc

    def exponent_off(doc):
        doc["edges"][3]["exponent"][0] += 1

    def null_exponents(doc):
        for edge in doc["edges"]:
            edge["exponent"] = None

    def undrawn_null_exponents(doc):
        null_exponents(doc)
        doc["geometry"] = None

    def skew_form_off(doc):
        doc["epsilon2"][0][1] += 1
        doc["epsilon2"][1][0] -= 1

    def marker_moved(doc):
        markers = doc["geometry"]["face_markers"]
        markers[1] = markers[0]

    return {
        "exponent-off": edited(exponent_off),
        "exponent-off-triangle3": edited(exponent_off, 3),
        "skew-form-off": edited(skew_form_off),
        "marker-moved": edited(marker_moved),
        "marker-missing": edited(lambda doc: doc["geometry"]["face_markers"].pop()),
        "short-generators": edited(lambda doc: doc["generators"].pop()),
        "null-exponents-drawn": edited(null_exponents),
        "null-exponents-undrawn": edited(undrawn_null_exponents),
        "null-exponents-drawn-triangle3": edited(null_exponents, 3),
    }


def _line(edges):
    """An undrawn path of edges edges, weight 0, from its one source to its one sink."""
    names = [f"v{i}" for i in range(edges + 1)]
    return {
        "epsilon2": [[0]],
        "vertices": names,
        "edges": [{"from": u, "to": w, "exponent": [0]} for u, w in zip(names, names[1:])],
        "sources": names[:1],
        "sinks": names[-1:],
    }


def _refused():
    """Documents refused at load, each by a check that no other line reaches."""
    def triangle2(edit):
        doc = _drawn()
        edit(doc)
        return doc

    def split_edge(doc):  # b1_1->g0_1 through its midpoint mid, one in and one out
        doc["vertices"].append("mid")
        doc["geometry"]["coords"]["mid"] = [[5, 4], [3, 10]]
        doc["edges"][1:2] = [{"from": "b1_1", "to": "mid"}, {"from": "mid", "to": "g0_1"}]
        for edge in doc["edges"]:
            edge["exponent"] = None

    def without_stub(doc):  # g1_1 left with one edge in and one out
        doc["edges"] = [e for e in doc["edges"] if (e["from"], e["to"]) != ("1", "g1_1")]

    def bare(coords, edges):
        return {
            "epsilon2": [], "vertices": list(coords), "edges": edges,
            "sources": ["s"], "sinks": ["t"],
            "geometry": {"coords": coords, "face_markers": []},
        }

    # g1_1 moved so that g1_1->b1_1 crosses g2_1->1'
    crossing = _drawn(3)
    crossing["geometry"]["coords"]["g1_1"] = [[5, 4], [5, 2]]
    return {
        "duplicate-vertex-triangle2": triangle2(lambda doc: doc["vertices"].append("g0_1")),
        "unknown-source-triangle2": triangle2(lambda doc: doc["sources"].append("zz")),
        "missing-coords-triangle2": triangle2(
            lambda doc: doc["geometry"]["coords"].pop("g0_1")
        ),
        "source-and-sink-triangle2": triangle2(lambda doc: doc["sources"].append("1'")),
        "parallel-edges-triangle2": triangle2(
            lambda doc: doc["edges"].append(dict(doc["edges"][0]))
        ),
        "split-edge-triangle2": triangle2(split_edge),
        "without-stub-triangle2": triangle2(without_stub),
        "crossing-triangle3": crossing,
        "coincident-vertices": bare({"s": [0, 0], "t": [0, 0]}, []),
        "source-at-center": bare(
            {"s": [0, 0], "t": [1, 0], "u": [-1, 0]}, [{"from": "s", "to": "t"}]
        ),
    }


def documents():
    """name -> network document written to a file for --input."""
    docs = {
        "perturbed-triangle3": _perturbed(build_triangle(3)),
        "perturbed-chain22b": _perturbed(build_chain(2, 2, bridge=True)),
        "perturbed-triangle5": _perturbed(build_triangle(5)),
    }
    for name, edit in MALFORMED.items():
        undrawn = _drawn()
        undrawn["geometry"] = None
        docs[f"malformed-{name}"] = edit(undrawn)
        docs[f"malformed-{name}-drawn"] = edit(_drawn())
    docs.update({f"drawn-{k}": doc for k, doc in _drawn_edits().items()})
    for edges in (799, 800):  # paths of 800 and 801 vertices
        docs[f"line{edges}"] = _line(edges)
    cyclic = json.loads((GOLDEN / "cyclic2x2.json").read_text())
    docs["cyclic2x2"] = cyclic
    docs["cyclic2x2-undrawn"] = {**cyclic, "geometry": None}
    # a2 moved so that a1->B1 crosses a2->B2; B2 moved between B1 and W1,
    # so that the backbone's edges overlap
    chain = network_to_dict(build_chain(2, 2, bridge=True))
    for name, vertex, xy in (("crossing", "a2", [[21, 2], [3, 4]]), ("same-ray", "B2", [[39, 4], 0])):
        coords = {**chain["geometry"]["coords"], vertex: xy}
        docs[f"{name}-chain22b"] = {**chain, "geometry": {**chain["geometry"], "coords": coords}}
    # g2_1 moved out past source 2, so that three of its edges cross 2's spoke
    triangle = _drawn(3)
    for edge in triangle["edges"]:
        edge["exponent"] = None
    triangle["geometry"]["coords"]["g2_1"] = [5, [5, 2]]
    docs["spoke-crossing-triangle3"] = triangle
    docs.update(_refused())
    return docs


def commands(paths):
    """[(name, argv)] for the corpus; paths maps document names to files."""
    sources = {
        "triangle2": ["--builder", "triangle", "--n", "2"],
        "triangle3": ["--builder", "triangle", "--n", "3"],
        "chain22b": ["--builder", "chain", "--n", "2,2", "--bridge"],
        "chain23b": ["--builder", "chain", "--n", "2,3", "--bridge"],
        "hat3": ["--builder", "hat", "--r", "3"],
        "composite": ["--builder", "composite"],
        "triangle4-shuffled": ["--input", str(GOLDEN / "triangle4_shuffled.json")],
        "perturbed-triangle3": ["--input", paths["perturbed-triangle3"]],
        "perturbed-chain22b": [
            "--input", paths["perturbed-chain22b"], "--split", "2,1,2",
        ],
    }
    out = []
    for fmt in ([], ["--json"]):
        tag = "-json" if fmt else ""
        for kind in CHECK_KINDS:
            if kind in SOURCELESS:
                out.append((f"check-{kind}{tag}", ["check", kind, *SIZES[kind], *fmt]))
                continue
            for src, args in sources.items():
                out.append((f"check-{kind}-{src}{tag}", ["check", kind, *args, *fmt]))
        for what in EXPORTS:
            for src, args in sources.items():
                out.append((f"export-{what}-{src}{tag}", ["export", what, *args, *fmt]))
    # multi-term residuals of both reflection words and their reversals
    out.append((
        "check-disc-reflection-perturbed-triangle5",
        ["check", "disc-reflection", "--input", paths["perturbed-triangle5"]],
    ))
    # documents refused when loaded, whatever the command
    once = {
        "cyclic2x2-undrawn": (["export", "transport"],),
        "spoke-crossing-triangle3": (["check", "rtt"],),
        **dict.fromkeys(_refused(), (["check", "rtt"],)),
    }
    for name, path in paths.items():
        if name in sources or name == "perturbed-triangle5":
            continue
        argvs = once.get(name, (["check", "rtt"], ["export", "transport"], ["check", "all"]))
        for argv in argvs:
            out.append((f"{'-'.join(argv)}-{name}", [*argv, "--input", path]))
    # flags that the command does not read, each refused
    unread = {
        "bridge-triangle2": ["check", "rtt", "--builder", "triangle", "--n", "2", "--bridge"],
        "n-hat": ["check", "rtt", "--builder", "hat", "--n", "7"],
        "r-chain11": ["check", "rtt", "--builder", "chain", "--n", "1,1", "--r", "5"],
        "n-bridge-export-composite": [
            "export", "transport", "--builder", "composite", "--n", "3", "--bridge",
        ],
        "builder-rmatrix": ["check", "rmatrix", "--k", "2", "--builder", "triangle"],
        "k-rtt-triangle2": ["check", "rtt", "--builder", "triangle", "--n", "2", "--k", "5"],
        "order-export-transport-triangle2": [
            "export", "transport", "--builder", "triangle", "--n", "2", "--order", "3",
        ],
        "kmax-loop-chain22b": [
            "check", "loop", "--builder", "chain", "--n", "2,2", "--bridge", "--kmax", "2",
        ],
        "order-rmatrix": ["check", "rmatrix", "--k", "2", "--order", "4"],
        "kmax-frp": ["check", "frp", "--r", "2", "--p", "2", "--kmax", "1"],
    }
    out += [(f"unread-flag-{name}", argv) for name, argv in unread.items()]
    # an empty value is refused, not read as an absent flag
    out += [
        ("empty-value-n-triangle", ["check", "rtt", "--builder", "triangle", "--n", ""]),
        ("empty-value-split-chain22b",
         ["check", "all", "--builder", "chain", "--n", "2,2", "--bridge", "--split", ""]),
        ("empty-value-input-triangle", ["check", "rtt", "--input", "", "--builder", "triangle"]),
        ("empty-value-out-triangle2",
         ["check", "rtt", "--builder", "triangle", "--n", "2", "--out", ""]),
    ]
    # sizes the builders refuse
    out += [
        ("size-triangle-0", ["check", "rtt", "--builder", "triangle", "--n", "0"]),
        ("size-chain-0,1", ["export", "transport", "--builder", "chain", "--n", "0,1"]),
    ]
    # an --out that cannot be opened is refused before the command runs
    out.append((
        "missing-dir-out-triangle2",
        ["check", "rtt", "--builder", "triangle", "--n", "2", "--out", "/no/such/dir/x"],
    ))
    # command lines argparse refuses, each with one error line
    out += [
        ("parse-error-k-rmatrix", ["check", "rmatrix", "--k", "abc"]),
        ("parse-error-kind", ["check", "no-such-kind"]),
        ("parse-error-flag-rtt", ["check", "rtt", "--bogus"]),
        ("parse-error-no-command", []),
        ("parse-error-negative-split-chain22b",
         ["check", "all", *sources["chain22b"], "--split", "-1,4,2"]),
    ]
    # sizes at and one past each bound, written out so that the corpus also
    # runs on a checkout without these bounds
    chain = ["--builder", "chain", "--n", "2,2", "--bridge"]
    triangle = ["--builder", "triangle", "--n"]
    bounds = [
        ("check", "loop", "--order", 32),
        ("check", "all", "--order", 32),
        ("check", "reflection-affine", "--order", 8),
        ("check", "affine", "--kmax", 24),
        ("check", "affine", "--pmax", 24),
        ("check", "all", "--kmax", 24),
        ("export", "levels", "--order", 8),
        ("export", "reflection", "--order", 8),
    ]
    for command, kind, flag, most in bounds:
        for size in (most, most + 1):
            name = f"bound-{command}-{kind}{flag}-{size}"
            out.append((name, [command, kind, *chain, flag, str(size)]))
    out.append(("bound-rmatrix-k-33", ["check", "rmatrix", "--k", "33"]))
    for r, p in ((24, 24), (25, 24), (24, 25)):
        argv = ["check", "frp", "--r", str(r), "--p", str(p)]
        out.append((f"bound-frp-r{r}-p{p}", argv))
    for r in (256, 257):
        argv = ["check", "groupoid", "--builder", "hat", "--r", str(r)]
        out.append((f"bound-hat-r-{r}", argv))
    # check rtt on chain(n,n) needs (n+1)^4 product cells; past 27,27 its
    # term pairs and cells exceed the evaluate budget
    for n in ("16,16", "17,17", "28,28"):
        argv = ["check", "rtt", "--builder", "chain", "--n", n]
        out.append((f"bound-cells-chain{n}", argv))
    chain88 = ["--builder", "chain", "--n", "8,8", "--bridge"]
    out.append(("bound-budget-all-chain88b", ["check", "all", *chain88, "--split", "8,1,8"]))
    out.append(("bound-budget-loop-chain88b", ["check", "loop", *chain88, "--order", "4"]))
    out.append((
        "bound-pairs-composite",
        ["check", "reflection-affine", "--builder", "composite", "--order", "3"],
    ))
    out.append(("bound-pairs-triangle10", ["check", "rtt", *triangle, "10"]))
    # 2^21 - 2 source-sink paths, refused before the walk
    out.append(("bound-paths-triangle20", ["export", "transport", *triangle, "20"]))
    # paths of 1002 vertices, refused before the drawing's data is derived
    out.append((
        "bound-paths-chain500",
        ["export", "transport", "--builder", "chain", "--n", "500,500"],
    ))
    # paths of 100003 vertices, refused before the chain is drawn
    out.append((
        "bound-depth-chain100000",
        ["export", "transport", "--builder", "chain", "--n", "100000,1"],
    ))
    out.append(("bound-disc-reflection-triangle7", ["check", "disc-reflection", *triangle, "7"]))
    return out


def write_documents(directory):
    """Write every corpus document into directory; name -> file path."""
    paths = {}
    for name, doc in documents().items():
        path = pathlib.Path(directory) / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def run(argv):
    """(exit code, stdout, stderr) of one command run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def line(name, argv):
    """The corpus line of one command: name, exit code, stdout sha256, stderr."""
    code, out, err = run(argv)
    digest = hashlib.sha256(out.encode()).hexdigest()
    return f"{name}\t{code}\t{digest}\t{json.dumps(err)}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands(write_documents(tmp)):
            print(line(name, argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
