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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

import sympy as sp

from .exactnum import (
    ExactMatrix,
    QuadNumber,
    char_poly,
    is_psd,
    rank,
    squarefree_decompose,
)
from .graphs import Graph, enumerate_regular_graphs, identify_graph

__all__ = [
    "delsarte_bound",
    "LocalGramProblem",
    "LocalSolution",
    "ClassifyLocalResult",
    "rank_constraints",
    "classify_local",
    "GEOMETRIC_LABELS",
]


def delsarte_bound(d: int, s: int) -> int:
    """Maximum size of a spherical s-distance set on S^(d-1):
    C(d+s-1, d-1) + C(d+s-2, d-1)."""
    if d < 1 or s < 1:
        raise ValueError("need d >= 1 and s >= 1")
    return comb(d + s - 1, d - 1) + comb(d + s - 2, d - 1)


@dataclass(frozen=True)
class LocalGramProblem:
    """A candidate neighbourhood graph with unknown cosines (beta1, beta2)."""

    graph: Graph

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def valency(self) -> int:
        return self.graph.degree(0) if self.n else 0

    @property
    def has_class1(self) -> bool:
        return self.valency >= 1

    @property
    def has_class2(self) -> bool:
        return self.valency <= self.n - 2

    def sym_gram(self, b1, b2) -> sp.Matrix:
        g = self.graph
        return sp.Matrix(
            self.n,
            self.n,
            lambda i, j: sp.Integer(1)
            if i == j
            else (b1 if g.adj[i] >> j & 1 else b2),
        )

    def gram(
        self, beta1: Optional[QuadNumber], beta2: Optional[QuadNumber]
    ) -> ExactMatrix:
        g = self.graph
        zero = QuadNumber(0)
        b1 = zero if beta1 is None else beta1
        b2 = zero if beta2 is None else beta2
        return ExactMatrix(
            [
                [
                    QuadNumber(1)
                    if i == j
                    else (b1 if g.adj[i] >> j & 1 else b2)
                    for j in range(self.n)
                ]
                for i in range(self.n)
            ]
        )


def rank_constraints(problem: LocalGramProblem, b1=None, b2=None) -> list:
    """Characteristic-polynomial coefficient equations forcing rank <= 3.

    A Gram matrix of points in R^3 has 0 as an eigenvalue of multiplicity at
    least n - 3, i.e. the coefficients of t^0 .. t^(n-4) all vanish.  Empty
    system for n <= 3."""
    if problem.n < 2:
        raise ValueError("need at least 2 points")
    if b1 is None:
        b1 = sp.Symbol("b1")
    if b2 is None:
        b2 = sp.Symbol("b2")
    n = problem.n
    if n <= 3:
        return []
    t = sp.Symbol("t")
    chi = problem.sym_gram(b1, b2).charpoly(t)
    coeffs = chi.all_coeffs()  # descending: t^n .. t^0
    return [sp.expand(coeffs[n - i]) for i in range(0, n - 3)]


@dataclass
class LocalSolution:
    """A feasible neighbourhood graph with its exact cosine solutions."""

    graph: Graph
    name: Optional[str]
    geometric_label: Optional[str]
    solutions: list  # list of (beta1 | None, beta2 | None)
    family: bool = False  # True when the solution set is a positive-dimensional family

    def __repr__(self) -> str:
        sols = [
            "(" + ", ".join("-" if b is None else str(b) for b in pair) + ")"
            for pair in self.solutions
        ]
        tag = " family" if self.family else ""
        return f"LocalSolution({self.name}, {self.geometric_label},{tag} {sols})"


@dataclass
class ClassifyLocalResult:
    solutions: list  # of LocalSolution
    unresolved: list = field(default_factory=list)  # of (Graph, reason)

    def graph_names(self) -> list:
        return [s.name for s in self.solutions]


GEOMETRIC_LABELS = {
    "N3": "triangle",
    "K3": "triangle",
    "N4": "tetrahedron",
    "K4": "tetrahedron",
    "2K2": "2-antiprism",
    "C4": "2-antiprism",
    "C5": "pentagon",
    "K3xK2": "3-prism",
    "octahedron": "octahedron",
}

HALF = QuadNumber(Fraction(1, 2))


def _constraints_ok(
    problem: LocalGramProblem,
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
    g = problem.gram(beta1, beta2)
    return is_psd(g) and rank(g) <= 3


# rational witness grid for one-parameter solution families
_WITNESS_GRID = [
    Fraction(num, den)
    for den in (1, 2, 3, 4, 5, 7)
    for num in range(-den, den)
    if Fraction(num, den) < Fraction(1, 2)
]

_MAX_FAMILY_WITNESSES = 3


def _adjacency_eigenvalues(graph: Graph) -> Optional[list]:
    """Eigenvalues of the adjacency matrix restricted to the complement of
    the all-ones vector, as (QuadNumber | None, multiplicity) pairs.

    Roots of irreducible factors of degree > 2 are reported as None: they
    cannot force a zero Gram eigenvalue because the cosines live in a field
    of degree at most 2.  Requires the graph regular (the all-ones vector is
    then an eigenvector for the valency)."""
    n = graph.n
    a = ExactMatrix(
        [
            [1 if graph.adj[i] >> j & 1 else 0 for j in range(n)]
            for i in range(n)
        ]
    )
    chi = char_poly(a)
    t = sp.Symbol("t")
    poly = sp.Poly(
        [int(c.a) for c in reversed(chi.coeffs)], t, domain=sp.ZZ
    )
    k = graph.degree(0)
    out = []
    for factor, mult in sp.factor_list(poly)[1]:
        deg = factor.degree()
        if deg == 1:
            c1, c0 = factor.all_coeffs()
            lam = QuadNumber(Fraction(int(-c0), int(c1)))
            m = mult - 1 if lam == QuadNumber(k) else mult
            if m:
                out.append((lam, m))
        elif deg == 2:
            c2, c1, c0 = (Fraction(int(c)) for c in factor.all_coeffs())
            bb, cc = c1 / c2, c0 / c2
            disc = bb * bb - 4 * cc
            if disc <= 0:
                return None  # complex eigenvalues: not a symmetric matrix
            m, p = squarefree_decompose(disc.numerator * disc.denominator)
            half = Fraction(m, 2 * disc.denominator)
            out.append((QuadNumber(-bb / 2, half, p), mult))
            out.append((QuadNumber(-bb / 2, -half, p), mult))
        else:
            out.append((None, deg * mult))
    return out


def _mu0(problem: LocalGramProblem, beta1, beta2) -> QuadNumber:
    """Gram eigenvalue on the all-ones vector."""
    n, k = problem.n, problem.valency
    return QuadNumber(1) + QuadNumber(k) * beta1 + QuadNumber(n - 1 - k) * beta2


def _solve_problem(problem: LocalGramProblem) -> Optional[LocalSolution]:
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
    witnesses."""
    n, k = problem.n, problem.valency
    name = identify_graph(problem.graph)
    label = GEOMETRIC_LABELS.get(name) if name else None
    need = n - 3  # required multiplicity of the zero Gram eigenvalue
    one = QuadNumber(1)

    seen = set()

    def push(pairs, pair) -> bool:
        key = tuple(str(x) for x in pair)
        if key in seen:
            return False
        seen.add(key)
        pairs.append(pair)
        return True

    def finish(pairs, family):
        if not pairs:
            return None
        return LocalSolution(problem.graph, name, label, pairs, family)

    if not (problem.has_class1 and problem.has_class2):
        # One cosine class: G = I + b*(J - I), spectrum 1 + (n-1)*b once and
        # 1 - b with multiplicity n - 1.  Only mu0 may vanish (b = 1 is out).
        wrap = (
            (lambda b: (b, None))
            if problem.has_class1
            else (lambda b: (None, b))
        )
        if need <= 0:
            pairs = []
            for w in _WITNESS_GRID:
                pair = wrap(QuadNumber(w))
                if _constraints_ok(problem, *pair):
                    push(pairs, pair)
                    if len(pairs) >= _MAX_FAMILY_WITNESSES:
                        break
            return finish(pairs, family=True)
        if need == 1:
            pair = wrap(QuadNumber(Fraction(-1, n - 1)))
            if _constraints_ok(problem, *pair):
                return finish([pair], family=False)
        return None

    if need <= 0:
        # no rank condition at all; cannot happen for regular graphs with
        # both classes present (n = 3 forces valency 0 or 2)
        pairs = []
        for w1 in _WITNESS_GRID:
            for w2 in _WITNESS_GRID:
                pair = (QuadNumber(w1), QuadNumber(w2))
                if _constraints_ok(problem, *pair):
                    push(pairs, pair)
                    if len(pairs) >= _MAX_FAMILY_WITNESSES:
                        return finish(pairs, family=True)
        return finish(pairs, family=True)

    eigs = _adjacency_eigenvalues(problem.graph)
    if eigs is None:
        raise _Unresolved(problem.graph, "adjacency spectrum not real")

    def on_line(lam, b1):
        """b2 making the lam block vanish: (1+lam)*b2 = 1 + lam*b1."""
        denom = one + lam
        if not denom:
            return None  # the line degenerates to b1 = 1, outside b1 < 1/2
        return (one + lam * b1) / denom

    def corner(lam):
        """Intersection of the lam line with mu0 = 0."""
        denom = QuadNumber(k) + lam * QuadNumber(n - 1)
        if (one + lam) == QuadNumber(0) or not denom:
            return None
        b1 = -(QuadNumber(n - k) + lam) / denom
        return (b1, on_line(lam, b1))

    pairs, family = [], False
    if need == 1:
        # the single zero may come from mu0 alone: a line of solutions
        family = True
        for w in _WITNESS_GRID:
            b1 = QuadNumber(w)
            b2 = -(one + QuadNumber(k) * b1) / QuadNumber(n - 1 - k)
            if _constraints_ok(problem, b1, b2):
                push(pairs, (b1, b2))
                if len(pairs) >= _MAX_FAMILY_WITNESSES:
                    break
    for lam, mult in eigs:
        if lam is None:
            continue
        if mult >= need:
            # one-parameter family along the lam line
            candidates = []
            pt = corner(lam)
            if pt is not None:
                candidates.append(pt)
            for w in _WITNESS_GRID:
                b1 = QuadNumber(w)
                b2 = on_line(lam, b1)
                if b2 is not None:
                    candidates.append((b1, b2))
            found = 0
            for pair in candidates:
                if _constraints_ok(problem, *pair) and push(pairs, pair):
                    family = True
                    found += 1
                    if found >= _MAX_FAMILY_WITNESSES:
                        break
        elif mult == need - 1:
            # the lam block plus mu0: an isolated point
            pt = corner(lam)
            if pt is not None and _constraints_ok(problem, *pt):
                push(pairs, pt)
    return finish(pairs, family)


class _Unresolved(Exception):
    def __init__(self, graph, reason):
        self.graph = graph
        self.reason = reason


def classify_local(k_max: int = 9) -> ClassifyLocalResult:
    """Feasible neighbourhood graphs among all regular graphs on <= k_max
    vertices.  The size cap is the two-distance bound on S^2."""
    if k_max > delsarte_bound(3, 2):
        raise ValueError(
            f"more than {delsarte_bound(3, 2)} points cannot form a "
            "two-distance set on S^2"
        )
    solutions, unresolved = [], []
    for n in range(3, k_max + 1):
        for k in range(0, n):
            for g in enumerate_regular_graphs(n, k):
                try:
                    sol = _solve_problem(LocalGramProblem(g))
                except _Unresolved as u:
                    unresolved.append((u.graph, u.reason))
                    continue
                if sol is not None:
                    solutions.append(sol)
    return ClassifyLocalResult(solutions, unresolved)
