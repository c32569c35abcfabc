"""The Sklyanin bracket on built networks, from tests/classical_oracle.py.

The oracle reads a network's skew form and edge exponents only, walks the
paths itself and checks the first order of the RTT relation in commuting
polynomials, so it shares no arithmetic with verify.evaluate.  Every network
must pass, and each of five seeded one-exponent bumps of it must fail, as
must the oracle itself with the bracket's sign flipped or a wrong
coefficient of r.  One test ties r to the engine's R-matrix.
"""

import functools
import random

import pytest

from classical_oracle import bumped, network_data, r_matrix, sklyanin_residual
from qtransport.network import build_chain, build_triangle
from qtransport.verify import const

BUILDERS = {
    "triangle3": lambda: build_triangle(3),
    "triangle4": lambda: build_triangle(4),
    "chain33b": lambda: build_chain(3, 3, bridge=True),
    "chain55b": lambda: build_chain(5, 5, bridge=True),
}
BUMPS = 5


@functools.cache
def data(name):
    return network_data(BUILDERS[name]())


def bumps(name):
    """BUMPS seeded (edge, generator) pairs of the named network."""
    E, edges, _, _ = data(name)
    rng = random.Random(name)
    return [(rng.randrange(len(edges)), rng.randrange(len(E))) for _ in range(BUMPS)]


@pytest.mark.parametrize("name", BUILDERS)
def test_sklyanin_bracket_holds(name):
    assert sklyanin_residual(data(name)) == {}


@pytest.mark.parametrize("name", BUILDERS)
def test_each_seeded_bump_breaks_the_bracket(name):
    for edge, generator in bumps(name):
        assert sklyanin_residual(bumped(data(name), edge, generator)), (edge, generator)


@pytest.mark.parametrize("control", [
    {"sign": 2},
    {"diag": 4},
    {"off": 2},
], ids=["flipped-bracket-sign", "wrong-diagonal-of-r", "wrong-off-diagonal-of-r"])
@pytest.mark.parametrize("name", BUILDERS)
def test_the_oracle_fails_with_a_wrong_bracket_or_r(name, control):
    assert sklyanin_residual(data(name), **control)


def flat(r):
    """r keyed by (a, b, c, d) for its entry ((a, b), (c, d))."""
    return {a + b: c for (a, b), c in r.items()}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_r_is_the_h_term_of_R(k):
    """At v = e^h, each entry sum_m c_m v^m of R has h-derivative sum_m m c_m."""
    derived = {
        divmod(row, k) + divmod(col, k): sum(m * c for m, c in val.terms.items())
        for (row, col), val in const("R", k).entries.items()
    }
    derived = {key: c for key, c in derived.items() if c}
    assert derived == flat(r_matrix(k))
