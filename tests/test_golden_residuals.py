"""Golden residual output of every checker on perturbed networks.

Each input is a builder network saved without its drawing and with one edge
exponent raised by one, so every relation it is checked against fails.  The
stdout of the command (labels, first nonzero indices, residual values) and
its exit code are pinned byte for byte.
"""

import json
import pathlib

import pytest

from qtransport import cli
from qtransport.network import build_chain, build_triangle, network_to_dict

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    (
        "chain22_bridge_check_all.txt",
        lambda: build_chain(2, 2, bridge=True),
        ["check", "all", "--split", "2,1,2"],
    ),
    (
        "triangle2_disc_reflection.txt",
        lambda: build_triangle(2),
        ["check", "disc-reflection"],
    ),
]


def perturbed_doc(net):
    """The network document with no drawing and edge 3 off by one in x0."""
    doc = network_to_dict(net)
    doc["geometry"] = None
    doc["edges"][3]["exponent"][0] += 1
    return doc


@pytest.mark.parametrize("golden,build,argv", CASES, ids=[c[0] for c in CASES])
def test_residual_output_matches_golden(golden, build, argv, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(perturbed_doc(build())))
    code = cli.main(argv + ["--input", str(path)])
    out = capsys.readouterr().out
    expected = (GOLDEN / golden).read_text()
    assert (code, out) == (1, expected)
