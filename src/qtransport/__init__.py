"""Exact quantum transport matrices of planar directed networks.

The package builds transport matrices whose entries live in a quantum torus of
face variables, and verifies - as exact polynomial identities - the R-matrix
exchange relations they satisfy: RTT relations, block Lie-Poisson relations,
affine/loop-algebra relations, groupoid and reflection-equation identities.
"""

from .qalg import NotAUnit, QElem, QScalar, SkewForm, invert_monomial, qmul, weyl

__all__ = [
    "NotAUnit",
    "QElem",
    "QScalar",
    "SkewForm",
    "invert_monomial",
    "qmul",
    "weyl",
]
