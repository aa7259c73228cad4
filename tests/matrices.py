"""Exact matrix product and the idempotents of a scheme for the tests; the
package itself multiplies no ExactMatrix pair and builds no idempotent."""

from fractions import Fraction

from schemeforge.exactnum import ExactMatrix, QuadNumber


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    cols = list(zip(*b.entries))
    return ExactMatrix(
        [[sum((x * y for x, y in zip(row, col)), QuadNumber(0)) for col in cols]
         for row in a.entries]
    )


def idempotent(sp, c: int) -> ExactMatrix:
    """E_c = (1/|X|) sum_j Q[j][c] A_j of the Spectra sp as an exact matrix."""
    s = sp.scheme
    inv = Fraction(1, s.n)
    return ExactMatrix(
        [[sp.Q[s.relations[x][y]][c] * inv for y in range(s.n)] for x in range(s.n)]
    )
