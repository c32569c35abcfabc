"""Golden output of the checkers and of the level-family exports.

Two builder networks are saved without their drawing and with one edge
exponent raised by one, so every relation they are checked against fails;
the perturbed bridged chain goes through every checker that reads a level
series, through every block checker, and through the identity suite as
text, as JSON and without a split.  The other cases run named builders as
they are: the level and reflection exports of a bridged chain, the f^r_p
table, and the identity suite on triangle(2), which skips the loop family,
and on the composite example.  The stdout of each command (labels, first nonzero
indices, residual values, matrix entries) and its exit code are pinned byte
for byte.
"""

import json
import pathlib

import pytest

from qtransport import cli
from qtransport.network import build_chain, build_triangle, network_to_dict

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (golden file, builder of the perturbed input or None, argv, exit code)
CASES = [
    (
        "chain22_bridge_check_all.txt",
        lambda: build_chain(2, 2, bridge=True),
        ["check", "all", "--split", "2,1,2"],
        1,
    ),
    (
        "triangle2_disc_reflection.txt",
        lambda: build_triangle(2),
        ["check", "disc-reflection"],
        1,
    ),
    (
        "chain22_bridge_export_levels.txt",
        None,
        ["export", "levels", "--builder", "chain", "--n", "2,2", "--bridge",
         "--order", "3"],
        0,
    ),
    (
        "chain22_bridge_export_reflection.txt",
        None,
        ["export", "reflection", "--builder", "chain", "--n", "2,2", "--bridge",
         "--order", "2"],
        0,
    ),
    (
        "chain22_bridge_check_loop.txt",
        lambda: build_chain(2, 2, bridge=True),
        ["check", "loop", "--split", "2,1,2", "--order", "3"],
        1,
    ),
    (
        "chain22_bridge_check_reflection_affine.txt",
        lambda: build_chain(2, 2, bridge=True),
        ["check", "reflection-affine", "--split", "2,1,2", "--order", "2"],
        1,
    ),
    (
        "chain22_bridge_check_subalgebra.txt",
        lambda: build_chain(2, 2, bridge=True),
        ["check", "subalgebra", "--split", "2,1,2"],
        1,
    ),
    (
        "chain22_bridge_check_reflection.txt",
        lambda: build_chain(2, 2, bridge=True),
        ["check", "reflection", "--split", "2,1,2"],
        1,
    ),
    (
        "chain22_bridge_check_all_deep.txt",
        lambda: build_chain(2, 2, bridge=True),
        ["check", "all", "--split", "2,1,2", "--order", "3", "--kmax", "1",
         "--pmax", "3"],
        1,
    ),
    *[
        (
            f"chain22_bridge_check_{kind}.txt",
            lambda: build_chain(2, 2, bridge=True),
            ["check", kind, "--split", "2,1,2"],
            1,
        )
        for kind in ("rtt", "blocks", "affine", "groupoid", "appendix")
    ],
    (
        "chain22_bridge_check_all_json.txt",
        lambda: build_chain(2, 2, bridge=True),
        ["check", "all", "--split", "2,1,2", "--json"],
        1,
    ),
    (
        "chain22_bridge_check_all_no_split.txt",
        lambda: build_chain(2, 2, bridge=True),
        ["check", "all"],
        1,
    ),
    (
        "triangle2_check_all.txt",
        None,
        ["check", "all", "--builder", "triangle", "--n", "2"],
        0,
    ),
    ("check_frp.txt", None, ["check", "frp", "--r", "8", "--p", "8"], 0),
    (
        "composite_check_all.txt",
        None,
        ["check", "all", "--builder", "composite"],
        1,
    ),
]


def perturbed_doc(net):
    """The network document with no drawing and edge 3 off by one in x0."""
    doc = network_to_dict(net)
    doc["geometry"] = None
    doc["edges"][3]["exponent"][0] += 1
    return doc


@pytest.mark.parametrize(
    "golden,build,argv,exit_code", CASES, ids=[c[0] for c in CASES]
)
def test_residual_output_matches_golden(golden, build, argv, exit_code, tmp_path, capsys):
    if build is not None:
        path = tmp_path / "net.json"
        path.write_text(json.dumps(perturbed_doc(build())))
        argv = argv + ["--input", str(path)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    expected = (GOLDEN / golden).read_text()
    assert (code, out) == (exit_code, expected)
