"""Exact matrix product for the tests; the package itself multiplies no
ExactMatrix pair."""

from schemeforge.exactnum import ExactMatrix, QuadNumber


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    cols = list(zip(*b.entries))
    return ExactMatrix(
        [[sum((x * y for x, y in zip(row, col)), QuadNumber(0)) for col in cols]
         for row in a.entries]
    )
