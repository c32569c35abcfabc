"""Workload definitions and their seeded inputs.

Every workload is one CLI command on one generated network file.  The file
comes from a qtransport builder; the seed shuffles its vertex and edge lists
and every edge exponent is stored as null, so each load derives exponents and
the skew form from the drawing.  Neither order changes the transport matrix,
so stdout is the same for every seed and its sha256 is pinned here.
"""

import json
import random
from dataclasses import dataclass

from qtransport.network import (
    build_chain,
    build_triangle,
    network_from_dict,
    network_to_dict,
    transport_matrix,
)
from qtransport.verify import check_rtt


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    builder: str  # "triangle" or "chain"
    size: tuple
    argv: tuple  # CLI arguments after the program; "{input}" is the file
    stdout_sha256: str
    # Traced layer counts that must be zero / nonzero on this workload.
    zero: tuple = ()
    nonzero: tuple = ()


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="rtt-triangle",
            why="check rtt on triangle(6): a few large torus products; "
            "bypasses affine, inversion and the lifts",
            builder="triangle",
            size=(6,),
            argv=("check", "rtt", "--input", "{input}"),
            stdout_sha256=(
                "7d96cf605c53967fd4042d74f210558635e98542dab057836dd467627b42be8a"
            ),
            zero=("ncmat.lift.calls", "ncmat.invert_restricted.calls"),
            nonzero=("qalg.qmul.calls", "ncmat.sheet_product.calls"),
        ),
        Workload(
            name="all-chain",
            why="check all on chain(5,5,bridge): eight checkers, many small "
            "torus products, lifts, inversions and series",
            builder="chain",
            size=(5, 5),
            argv=("check", "all", "--input", "{input}", "--split", "5,1,5"),
            stdout_sha256=(
                "f431696bdae1bd7688c040383e4afc80ea9aff2f6afaa53e457ce42389dfc8b4"
            ),
            nonzero=(
                "qalg.qmul.calls",
                "ncmat.lift.calls",
                "ncmat.invert_restricted.calls",
            ),
        ),
        Workload(
            name="export-triangle",
            why="export transport on triangle(11): network construction and "
            "rendering only, with no torus products",
            builder="triangle",
            size=(11,),
            argv=("export", "transport", "--json", "--input", "{input}"),
            stdout_sha256=(
                "7c19ec39cb699a8738aab7f7c4e0130654609ed62e8ab1682f82ae3ec37f41a5"
            ),
            zero=(
                "qalg.qmul.calls",
                "ncmat.matmul.calls",
                "ncmat.sheet_product.calls",
                "ncmat.lift.calls",
                "ncmat.classical_act.calls",
                "ncmat.invert_restricted.calls",
                "affine.levels_T.self_s",
                "affine.loop_generators.self_s",
                "affine.reflection_series.self_s",
            ),
            nonzero=("network.transport.terms",),
        ),
    ]
}

# The negative control: check rtt on a small triangle with one edge exponent
# perturbed.  It must exit 1 and print at least one residual line.
CONTROL_SIZE = 4
CONTROL_ARGV = ("check", "rtt", "--input", "{input}")
CONTROL_DRAWS = 50


def _build(builder, size):
    if builder == "triangle":
        return build_triangle(*size)
    return build_chain(*size, bridge=True)


def _shuffled_doc(net, rng):
    doc = network_to_dict(net)
    rng.shuffle(doc["vertices"])
    rng.shuffle(doc["edges"])
    return doc


def workload_doc(workload, seed):
    """The workload's network document: shuffled, exponents left to the drawing."""
    rng = random.Random(f"{workload.name}:{seed}")
    doc = _shuffled_doc(_build(workload.builder, workload.size), rng)
    for edge in doc["edges"]:
        edge["exponent"] = None
    return doc


def control_doc(seed):
    """A triangle document with no drawing and one edge exponent off by one.

    A few single perturbations leave the RTT relations intact (6 of the 900
    unit perturbations of triangle(4)), so each drawn perturbation is
    validated in process and redrawn until one breaks the relation.  Returns
    None when no draw fails, which the caller counts as a failed negative
    control.
    """
    rng = random.Random(f"control:{seed}")
    base = _shuffled_doc(_build("triangle", (CONTROL_SIZE,)), rng)
    base["geometry"] = None
    for _ in range(CONTROL_DRAWS):
        doc = json.loads(json.dumps(base))
        edge = rng.choice(doc["edges"])
        g = rng.randrange(len(doc["generators"]))
        edge["exponent"][g] += rng.choice((1, -1))
        if not check_rtt(transport_matrix(network_from_dict(doc))).passed:
            return doc
    return None
