"""Level matrices of a block transport system and their generating series.

A block system (M11, M12, M21, M22) produces a family of n2 x n1 matrices
indexed by an integer level: nonnegative levels come from the expansion of
M21 + u M22 (1 - u M12)^-1 M11 and negative levels from the expansion at the
other end, which requires M12 to be invertible.  TSeries holds such a family
sparsely with explicit knowledge of where it vanishes.
"""

from .ncmat import QMatrix, matmul, transpose_q


class TruncationError(Exception):
    """A series level outside the computed (or known-zero) range was used."""


class TSeries:
    """A level-indexed family of matrices with known-zero tails.

    Levels in ``levels`` are stored explicitly; levels at or below
    ``zero_le`` are known to vanish; anything else raises TruncationError.
    """

    def __init__(self, form, rows, cols, levels, zero_le=None):
        self.form = form
        self.rows = rows
        self.cols = cols
        self.levels = dict(levels)
        self.zero_le = zero_le
        for mat in self.levels.values():
            if (mat.rows, mat.cols) != (rows, cols):
                raise ValueError("all levels must have the same shape")

    def available(self, k):
        if k in self.levels:
            return True
        return self.zero_le is not None and k <= self.zero_le

    def get(self, k):
        if k in self.levels:
            return self.levels[k]
        if self.available(k):
            return QMatrix.zero(self.rows, self.cols, self.form)
        raise TruncationError(f"level {k} was not computed; extend the series")

    def known_levels(self):
        return sorted(self.levels)


def levels_T(block, kmax):
    """Nonnegative level matrices T_0 = M21, T_k = M22 M12^(k-1) M11."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    levels = {k: block.power(k - 1) for k in range(1, kmax + 1)}
    levels[0] = block.M21
    return TSeries(block.M21.form, block.n2, block.n1, levels, zero_le=-1)


def loop_generators(block, kmax, groupoid_mode=False):
    """Two-sided level family, levels -kmax..kmax, as one TSeries.

    Positive levels are M22 M12^(k-1) M11 with M21 at level zero.  Negative
    levels invert M12; by default level -k holds M22 M12^(-k) M11 with M21
    subtracted once at level -1.  In groupoid mode the network must satisfy
    M22 M12^-1 M11 = M21 exactly; that product is then the level-zero
    generator and the negative levels shift one power deeper, with no
    subtraction anywhere.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    levels = {k: block.power(k - 1) for k in range(1, kmax + 1)}
    levels[0] = block.M21
    if groupoid_mode:
        if block.power(-1) != block.M21:
            raise ValueError(
                "groupoid mode needs M22 M12^-1 M11 = M21, which fails here"
            )
        levels.update({-k: block.power(-k - 1) for k in range(1, kmax + 1)})
    else:
        levels.update({-k: block.power(-k) for k in range(1, kmax + 1)})
        levels[-1] = levels[-1] - block.M21
    return TSeries(block.M21.form, block.n2, block.n1, levels)


def reflection_series(t, kmax):
    """Reflection matrices built from a two-sided level family t.

    The degree-n entry (n = 1..kmax+1) is the sum over j + i = n, j >= 1,
    i >= 0 of [T_-j]^t T_i, where the transpose is the multiplicative one.
    Degrees at or below zero vanish.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    levels = {}
    for k in range(0, kmax + 1):
        acc = QMatrix.zero(t.cols, t.cols, t.form)
        for j in range(1, k + 2):
            acc = acc + matmul(transpose_q(t.get(-j)), t.get(k + 1 - j))
        levels[k + 1] = acc
    return TSeries(t.form, t.cols, t.cols, levels, zero_le=0)
