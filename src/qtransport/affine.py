"""Level matrices of a block transport system and their generating series.

A block system (M11, M12, M21, M22) produces a family of n2 x n1 matrices
indexed by an integer level: nonnegative levels come from the expansion of
M21 + u M22 (1 - u M12)^-1 M11 and negative levels from the expansion at the
other end, which requires M12 to be invertible.  TSeries holds such a family
as the whole series: each level is built when it is first read.
"""

from .ncmat import QMatrix, matmul, transpose_q


class TSeries:
    """A level-indexed family of matrices, each built on its first read.

    ``level(k)`` builds the matrix at level k, zero levels included.  Every
    level is checked for shape and kept, so reading a level twice returns
    the same matrix.
    """

    def __init__(self, form, rows, cols, level):
        self.form = form
        self.rows = rows
        self.cols = cols
        self.level = level
        self._levels = {}

    def get(self, k):
        if k not in self._levels:
            mat = self.level(k)
            if (mat.rows, mat.cols) != (self.rows, self.cols):
                raise ValueError("all levels must have the same shape")
            self._levels[k] = mat
        return self._levels[k]


def levels_T(block):
    """Level matrices T_0 = M21, T_k = M22 M12^(k-1) M11; zero below level 0."""

    def level(k):
        if k < 0:
            return QMatrix.zero(block.n2, block.n1, block.M21.form)
        return block.power(k - 1) if k else block.M21

    return TSeries(block.M21.form, block.n2, block.n1, level)


def loop_generators(block):
    """Two-sided level family: M22 M12^(k-1) M11 at k > 0, M21 at k = 0.

    Negative levels invert M12 when first read: level -k holds
    M22 M12^(-k) M11, with M21 subtracted once at level -1.
    """

    def level(k):
        if k == 0:
            return block.M21
        if k == -1:
            return block.power(-1) - block.M21
        return block.power(k - 1 if k > 0 else k)

    return TSeries(block.M21.form, block.n2, block.n1, level)


def reflection_series(t):
    """Reflection matrices built from a two-sided level family t.

    The degree-n entry (n >= 1) is the sum over j + i = n, j >= 1, i >= 0 of
    [T_-j]^t T_i, where the transpose is the multiplicative one.  Degrees at
    or below zero vanish.
    """

    def level(n):
        acc = QMatrix.zero(t.cols, t.cols, t.form)
        for j in range(1, n + 1):
            acc = acc + matmul(transpose_q(t.get(-j)), t.get(n - j))
        return acc

    return TSeries(t.form, t.cols, t.cols, level)
