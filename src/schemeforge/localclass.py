"""Classification of the feasible local structures.

The neighbourhood of a point in the spherical embedding lies on a translated
2-sphere and carries at most two cosine classes, so it is a spherical 1- or
2-code on S^2.  Its Gram matrix has the form

    G = I + beta1*B1 + beta2*(J - I - B1)

where B1 is the adjacency matrix of the induced neighbourhood graph.  Rank of
G is at most 3, which pins the low-order characteristic polynomial
coefficients to zero; together with positive semidefiniteness and the
nearest-relation inequalities beta2 < beta1 < 1/2 this cuts the candidate
list of regular graphs on <= 9 vertices down to nine graphs forming six
geometric objects.

The stage makes one pass over the labelled output of ``regular_labellings``
and computes canonical forms only for the graphs it solves.  Rank <= 3 needs
an adjacency eigenvalue of high multiplicity, so the solver starts with a
spectral screen (a repeated-factor test of the characteristic polynomial,
modulo a prime) that drops most graphs on 6 to 9 vertices before the
polynomial is split; no graph above 6 vertices survives the exact solver.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

from .exactnum import (
    ExactMatrix,
    QuadNumber,
    integer_char_poly,
    is_psd,
    rank,
    split_integer_polynomial,
)
from .graphs import Graph, dedupe_isomorphs, identify_graph, regular_labellings

__all__ = [
    "delsarte_bound",
    "gram_matrix",
    "LocalSolution",
    "classify_local",
    "LocalCase",
    "LOCAL_CASES",
]


def delsarte_bound(d: int, s: int) -> int:
    """Maximum size of a spherical s-distance set on S^(d-1):
    C(d+s-1, d-1) + C(d+s-2, d-1)."""
    if d < 1 or s < 1:
        raise ValueError("need d >= 1 and s >= 1")
    return comb(d + s - 1, d - 1) + comb(d + s - 2, d - 1)


def gram_matrix(
    graph: Graph, beta1: Optional[QuadNumber], beta2: Optional[QuadNumber]
) -> ExactMatrix:
    """G = I + beta1*B1 + beta2*(J - I - B1) of a candidate neighbourhood
    graph, an absent cosine class counting as 0."""
    zero = QuadNumber(0)
    b1 = zero if beta1 is None else beta1
    b2 = zero if beta2 is None else beta2
    return ExactMatrix(
        [
            [
                QuadNumber(1) if i == j else (b1 if graph.adj[i] >> j & 1 else b2)
                for j in range(graph.n)
            ]
            for i in range(graph.n)
        ]
    )


class LocalSolution(NamedTuple):
    """A feasible neighbourhood graph with its exact cosine solutions."""

    graph: Graph
    name: Optional[str]
    geometric_label: Optional[str]
    solutions: list  # of (beta1 | None, beta2 | None)
    family: bool = False  # True when the solution set is a positive-dimensional family


class LocalCase(NamedTuple):
    """How the classification settles one feasible local graph H."""

    label: str  # the geometric configuration of H's points on S^2
    # extend_locally bound on the graph's order, or None for one diagram
    # search at (k1, a1) = (|H|, valency of H)
    n_max: Optional[int]


LOCAL_CASES = {
    "N3": LocalCase("triangle", None),
    "K3": LocalCase("triangle", 6),
    "N4": LocalCase("tetrahedron", None),
    "K4": LocalCase("tetrahedron", 7),
    "2K2": LocalCase("2-antiprism", None),
    "C4": LocalCase("2-antiprism", 12),
    "C5": LocalCase("pentagon", 24),
    "K3xK2": LocalCase("3-prism", 15),
    "octahedron": LocalCase("octahedron", 24),
}

HALF = QuadNumber(Fraction(1, 2))


def _constraints_ok(
    graph: Graph,
    beta1: Optional[QuadNumber],
    beta2: Optional[QuadNumber],
) -> bool:
    """Exact feasibility check, independent of the solving path."""
    for b in (beta1, beta2):
        if b is not None and not b < HALF:
            return False
    if beta1 is not None and beta2 is not None:
        # R1 is the nearest relation, so its cosine dominates.
        if not beta2 < beta1:
            return False
    g = gram_matrix(graph, beta1, beta2)
    return is_psd(g) and rank(g) <= 3


# rational witness grid for one-parameter solution families
_WITNESS_GRID = [
    Fraction(num, den)
    for den in (1, 2, 3, 4, 5, 7)
    for num in range(-den, den)
    if Fraction(num, den) < Fraction(1, 2)
]

_MAX_FAMILY_WITNESSES = 3


def _adjacency_char_poly(graph: Graph) -> list[int]:
    """Ascending coefficients of the characteristic polynomial of graph's
    adjacency matrix."""
    n = graph.n
    return integer_char_poly([[graph.adj[i] >> j & 1 for j in range(n)] for i in range(n)])


# any prime keeps the screen sound (see _repeated_part_degree); a large one
# makes a common factor that exists only modulo the prime unlikely
_SCREEN_PRIME = 2**61 - 1


def _repeated_part_degree(coeffs: list[int], m: int) -> int:
    """Degree of gcd(p, p^(m-1)) modulo _SCREEN_PRIME, for the monic integer
    polynomial p of ascending coeffs and m >= 1 (p^(0) is p itself).

    It is at least the degree of the product of the factors of multiplicity
    >= m of p over Z.  Such a factor f^m has f monic (Gauss), so f keeps its
    degree modulo the prime, and f^(m-j) divides the j-th derivative of f^m*g
    over any commutative ring (Leibniz).  So f divides both polynomials of
    the gcd modulo the prime.  The degree can exceed the one over Z, never
    fall below it."""
    q = _SCREEN_PRIME
    f = [c % q for c in coeffs]
    g = f[:]
    for _ in range(m - 1):
        g = [i * c % q for i, c in enumerate(g)][1:]
    while g and not g[-1]:
        g.pop()
    while g:
        inv = pow(g[-1], -1, q)
        while len(f) >= len(g):
            c = f[-1] * inv % q
            shift = len(f) - len(g)
            for j, x in enumerate(g):
                f[shift + j] = (f[shift + j] - c * x) % q
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _adjacency_eigenvalues(coeffs: list[int], k: int) -> list:
    """Eigenvalues in Q or a real quadratic field of the adjacency matrix of
    a k-regular graph, from its characteristic polynomial coeffs (ascending),
    restricted to the complement of the all-ones vector, as
    (QuadNumber, multiplicity) pairs.

    Eigenvalues of higher degree are left out: they cannot force a zero Gram
    eigenvalue because the cosines live in a field of degree at most 2.  The
    matrix is symmetric, so its spectrum is real.  The all-ones vector is an
    eigenvector for the valency k, so one multiplicity of k is dropped."""
    roots, _ = split_integer_polynomial(coeffs)
    valency = QuadNumber(k)
    out = []
    for lam, mult in roots:
        if lam == valency:
            mult -= 1
        if mult:
            out.append((lam, mult))
    return out


def _solve_problem(graph: Graph) -> Optional[LocalSolution]:
    """Feasible cosines for one candidate graph.

    The Gram matrix G = I + b1*B1 + b2*(J-I-B1) of a k-regular graph has the
    explicit spectrum

        mu0     = 1 + k*b1 + (n-1-k)*b2          (all-ones vector),
        mu(lam) = (1 - b2) + (b1 - b2)*lam       (other eigenvectors of B1),

    so rank <= 3 means choosing one eigenvalue lam* of B1 whose block
    vanishes (a linear condition on b1, b2), optionally together with
    mu0 = 0.  Two distinct blocks cannot vanish at once without b1 = b2.
    Depending on the multiplicity of lam* the feasible set is a point or a
    one-parameter family; families are reported through rational-grid
    witnesses.

    A two-class graph with need = n - 3 >= 3 first passes a spectral screen.
    A pair comes only through an eigenvalue lam != -1 whose multiplicity on
    the complement of the all-ones vector is at least need - 1 (the need == 1
    line and the one-class cases do not arise).  Then lam is a root of
    multiplicity >= need - 1 of the characteristic polynomial p, and its
    minimal polynomial f has f^(need-1) dividing p, so
    _repeated_part_degree(p, need - 1) >= deg f > 0.  The graph is dropped,
    before p is split, when that degree is 0.  The screen reads the spectrum
    alone, so it keeps or drops a whole isomorphism class."""
    n, k = graph.n, graph.degree(0)
    has_class1, has_class2 = k >= 1, k <= n - 2
    need = n - 3  # required multiplicity of the zero Gram eigenvalue
    one = QuadNumber(1)
    seen = set()

    def witnesses(candidates) -> list:
        """The first _MAX_FAMILY_WITNESSES feasible pairs of candidates that
        no earlier call returned."""
        out = []
        for pair in candidates:
            if len(out) == _MAX_FAMILY_WITNESSES:
                break
            if pair not in seen and _constraints_ok(graph, *pair):
                seen.add(pair)
                out.append(pair)
        return out

    def finish(pairs, family):
        if not pairs:
            return None
        name = identify_graph(graph)
        case = LOCAL_CASES.get(name)
        return LocalSolution(graph, name, case.label if case else None, pairs, family)

    if not (has_class1 and has_class2):
        # One cosine class: G = I + b*(J - I), spectrum 1 + (n-1)*b once and
        # 1 - b with multiplicity n - 1.  Only mu0 may vanish (b = 1 is out).
        wrap = (lambda b: (b, None)) if has_class1 else (lambda b: (None, b))
        if need <= 0:
            return finish(witnesses(wrap(QuadNumber(w)) for w in _WITNESS_GRID), family=True)
        if need == 1:
            return finish(witnesses([wrap(QuadNumber(Fraction(-1, n - 1)))]), family=False)
        return None

    # Both classes need n >= 4, so need >= 1: on 3 vertices the valency would
    # be 1, and a 1-regular graph has an even number of vertices.
    coeffs = _adjacency_char_poly(graph)
    if need >= 3 and not _repeated_part_degree(coeffs, need - 1):
        return None
    eigs = _adjacency_eigenvalues(coeffs, k)

    def on_line(lam, b1):
        """b2 making the lam block vanish: (1+lam)*b2 = 1 + lam*b1."""
        return (one + lam * b1) / (one + lam)

    def corner(lam):
        """Intersection of the lam line with mu0 = 0."""
        denom = QuadNumber(k) + lam * QuadNumber(n - 1)
        if not denom:
            return None
        b1 = -(QuadNumber(n - k) + lam) / denom
        return (b1, on_line(lam, b1))

    pairs, family = [], False
    if need == 1:
        # the single zero may come from mu0 alone: a line of solutions
        family = True
        pairs += witnesses(
            (b1, -(one + QuadNumber(k) * b1) / QuadNumber(n - 1 - k))
            for b1 in map(QuadNumber, _WITNESS_GRID)
        )
    for lam, mult in eigs:
        if not one + lam:
            continue  # the lam line degenerates to b1 = 1, outside b1 < 1/2
        pt = corner(lam)
        if mult >= need:
            # one-parameter family along the lam line, its corner first
            line = ((b1, on_line(lam, b1)) for b1 in map(QuadNumber, _WITNESS_GRID))
            found = witnesses(itertools.chain([] if pt is None else [pt], line))
            family = family or bool(found)
            pairs += found
        elif mult == need - 1 and pt is not None:
            # the lam block plus mu0: an isolated point
            pairs += witnesses([pt])
    return finish(pairs, family)


def classify_local() -> list[LocalSolution]:
    """Feasible neighbourhood graphs among all regular graphs on 3 up to
    delsarte_bound(3, 2) = 9 vertices: a neighbourhood is a two-distance set
    on S^2, and the smallest one searched has 3 vertices.

    One pass per (n, k) over the labelled graphs of ``regular_labellings``
    solves each graph, or above valency (n - 1)/2 its complement, and keeps
    the first solution of each isomorphism class.  The solver's verdict and
    cosines do not depend on the labelling, so it solves all of a class or
    none of it, and the solutions come out for the representatives of
    ``enumerate_regular_graphs``, in its order: for a complement, the
    canonical order of its source."""
    solutions = []
    for n in range(3, delsarte_bound(3, 2) + 1):
        labelled = [regular_labellings(n, k) for k in range((n + 1) // 2)]
        for k in range(n):
            flip = 2 * k > n - 1
            solved = {}  # source graph -> solution, so that dedupe orders by sources
            for g in labelled[n - 1 - k if flip else k]:
                sol = _solve_problem(g.complement() if flip else g)
                if sol is not None:
                    solved[g] = sol
            solutions += [solved[g] for g in dedupe_isomorphs(solved)]
    return solutions
