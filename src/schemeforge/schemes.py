"""Symmetric association schemes: axioms, intersection numbers, exact spectra
(P, Q, multiplicities, Krein parameters, cosine matrix), Q-polynomial
orderings, the layers of the relations and partial metricity read from them,
the screen that says why a scheme is not one of the classified ones, and the
light-tail multiplicity bound.

All spectral data lives in Q or a single real quadratic field Q[sqrt(p)];
computations are exact throughout.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .exactnum import (
    ExactMatrix,
    QuadNumber,
    integer_char_poly,
    nullspace,
    split_integer_polynomial,
)
from .graphs import Graph


class SplittingFieldError(ValueError):
    """Raised when the splitting field has degree > 2 over the rationals."""


class NoQPolynomialOrderingError(ValueError):
    """Raised when no ordering of the idempotents makes a scheme cometric."""


class SchemeRefutation(NamedTuple):
    """Structured refutation naming the first violated axiom with a witness."""

    axiom: str
    detail: str
    witness: tuple = ()


class Scheme:
    """Symmetric association scheme given by its relation map on X x X;
    immutable."""

    def __init__(
        self,
        n: int,
        d: int,
        relations: tuple[tuple[int, ...], ...],
        valencies: tuple[int, ...],
        p: tuple,  # intersection numbers, indexed p[i][j][h]
    ):
        self.__dict__.update(n=n, d=d, relations=relations, valencies=valencies, p=p)

    def __setattr__(self, name, value):
        raise AttributeError(f"Scheme is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Scheme is immutable: cannot delete {name!r}")

    def intersection_matrix(self, i: int) -> list[list[int]]:
        """B_i with (B_i)[h][j] = p_{ij}^h (regular representation of A_i)."""
        return [
            [self.p[i][j][h] for j in range(self.d + 1)] for h in range(self.d + 1)
        ]

    @functools.cached_property
    def qpolynomial(self) -> tuple["Spectra", list[tuple[int, ...]]]:
        """qpolynomial_spectra(self), computed once per Scheme object; an
        error is not kept, so the next access raises it again."""
        return qpolynomial_spectra(self)


SchemeResult = Union[Scheme, SchemeRefutation]


def verify_scheme(relation_map: Sequence[Sequence[int]]) -> SchemeResult:
    """Check the scheme axioms and compute intersection numbers.

    Returns a Scheme, or a SchemeRefutation naming the first violated axiom
    with a witnessing tuple (refutations are results, not errors)."""
    n = len(relation_map)
    rel = tuple(tuple(row) for row in relation_map)
    if any(len(row) != n for row in rel):
        return SchemeRefutation("shape", "relation map is not square")
    for x in range(n):
        if rel[x][x] != 0:
            return SchemeRefutation(
                "diagonal", f"relation at ({x},{x}) is {rel[x][x]}, expected 0", (x, x)
            )
    for x in range(n):
        for y in range(x + 1, n):
            if rel[x][y] != rel[y][x]:
                return SchemeRefutation(
                    "symmetry",
                    f"relation({x},{y}) = {rel[x][y]} != {rel[y][x]} = relation({y},{x})",
                    (x, y),
                )
            if rel[x][y] == 0:
                return SchemeRefutation(
                    "diagonal", f"off-diagonal pair ({x},{y}) uses the trivial relation", (x, y)
                )
    d = max((rel[x][y] for x in range(n) for y in range(n)), default=0)
    used = {rel[x][y] for x in range(n) for y in range(n)}
    if used != set(range(d + 1)):
        missing = sorted(set(range(d + 1)) - used)
        return SchemeRefutation("partition", f"unused relation indices {missing}")

    # intersection numbers: p[i][j][h] from a reference pair per h, then
    # verified against every pair
    ref: list[Optional[list[list[int]]]] = [None] * (d + 1)
    ref_pair: list[tuple[int, int]] = [(-1, -1)] * (d + 1)
    for x in range(n):
        for y in range(n):
            h = rel[x][y]
            counts = [[0] * (d + 1) for _ in range(d + 1)]
            rx = rel[x]
            for z in range(n):
                counts[rx[z]][rel[z][y]] += 1
            if ref[h] is None:
                ref[h] = counts
                ref_pair[h] = (x, y)
            elif ref[h] != counts:
                for i in range(d + 1):
                    for j in range(d + 1):
                        if ref[h][i][j] != counts[i][j]:
                            return SchemeRefutation(
                                "intersection",
                                f"p_{{{i}{j}}}^{h} is {ref[h][i][j]} at pair "
                                f"{ref_pair[h]} but {counts[i][j]} at ({x},{y})",
                                (x, y, h, i, j),
                            )
    p = tuple(
        tuple(tuple(ref[h][i][j] for h in range(d + 1)) for j in range(d + 1))
        for i in range(d + 1)
    )
    valencies = tuple(p[i][i][0] for i in range(d + 1))
    return Scheme(n, d, rel, valencies, p)


def scheme_from_graph_distances(g: Graph) -> SchemeResult:
    """Distance partition of a connected graph as a scheme (valid iff the
    graph is distance-regular)."""
    if not g.is_connected():
        return SchemeRefutation("connectivity", "graph is disconnected")
    dist = g.distance_matrix()
    return verify_scheme(dist)


class Spectra(NamedTuple):
    """Exact spectral data of a scheme.

    Idempotents are ordered canonically: E_0 first, the rest by decreasing
    eigenvalue P[c][1] of A_1; ties keep the order in which
    split_integer_polynomial returns the roots of the generic combination used
    for diagonalization.  Use ``reordered`` to move to a Q-polynomial
    ordering."""

    scheme: Scheme
    P: tuple[tuple[QuadNumber, ...], ...]  # P[c][i], c idempotent, i relation
    Q: tuple[tuple[QuadNumber, ...], ...]  # Q[i][c]
    multiplicities: tuple[int, ...]
    krein: tuple  # krein[i][j][k], QuadNumber
    cosines: tuple[tuple[QuadNumber, ...], ...]  # cosines[i][c] = omega_{i,c}
    radicand: int

    @property
    def d(self) -> int:
        return self.scheme.d

    def reordered(self, perm: Sequence[int]) -> "Spectra":
        """New Spectra with idempotent c moved to position perm.index(c)."""
        if perm[0] != 0 or sorted(perm) != list(range(self.d + 1)):
            raise ValueError("ordering must be a permutation fixing 0")
        P = tuple(self.P[c] for c in perm)
        Q = tuple(tuple(row[c] for c in perm) for row in self.Q)
        m = tuple(self.multiplicities[c] for c in perm)
        kr = tuple(
            tuple(
                tuple(self.krein[perm[i]][perm[j]][perm[k]] for k in range(self.d + 1))
                for j in range(self.d + 1)
            )
            for i in range(self.d + 1)
        )
        cos = tuple(tuple(row[c] for c in perm) for row in self.cosines)
        return Spectra(self.scheme, P, Q, m, kr, cos, self.radicand)


def _factor_eigenvalues(coeffs: Sequence[int]) -> tuple[list[QuadNumber], int]:
    """Distinct roots of a monic integer polynomial that splits over Q or one
    real quadratic field; raises SplittingFieldError otherwise.

    Returns (distinct roots, common radicand)."""
    split, leftover = split_integer_polynomial(coeffs)
    if leftover:
        raise SplittingFieldError(
            f"irreducible factors of total degree {leftover} do not split over "
            "a real quadratic field"
        )
    radicands = sorted({root.p for root, _ in split} - {1})
    if len(radicands) > 1:
        raise SplittingFieldError(
            f"two distinct quadratic fields: sqrt({radicands[0]}), sqrt({radicands[1]})"
        )
    return [root for root, _ in split], radicands[0] if radicands else 1


_GENERIC_COEFF_VECTORS = [
    lambda d: [0] + [j for j in range(1, d + 1)],
    lambda d: [0] + [j * j for j in range(1, d + 1)],
    lambda d: [0] + [j ** 3 + j for j in range(1, d + 1)],
    lambda d: [0] + [(j + 1) ** 4 for j in range(1, d + 1)],
    lambda d: [0] + [7 ** j % 1009 for j in range(1, d + 1)],
    lambda d: [0] + [13 ** j % 2003 for j in range(1, d + 1)],
]


def spectra(s: Scheme) -> Spectra:
    """Exact eigenmatrices, multiplicities, Krein parameters and cosines.

    Simultaneously diagonalizes the intersection matrices B_i via a generic
    integer combination; retries with the next deterministic coefficient
    vector if eigenvalues collide."""
    d = s.d
    bmats = [s.intersection_matrix(i) for i in range(d + 1)]
    last_err: Optional[Exception] = None
    for make in _GENERIC_COEFF_VECTORS:
        c = make(d)
        combo = [
            [
                sum(c[i] * bmats[i][h][j] for i in range(d + 1))
                for j in range(d + 1)
            ]
            for h in range(d + 1)
        ]
        roots, radicand = _factor_eigenvalues(integer_char_poly(combo))
        if len(roots) != d + 1:
            last_err = ValueError("eigenvalue collision in generic combination")
            continue
        return _spectra_from_eigenvalues(s, combo, roots, radicand)
    raise last_err  # type: ignore[misc]


def _spectra_from_eigenvalues(
    s: Scheme,
    combo: list[list[int]],
    roots: list[QuadNumber],
    radicand: int,
) -> Spectra:
    d = s.d
    rows: list[tuple[QuadNumber, ...]] = []
    for theta in roots:
        # P[c] spans the left nullspace: it is a left eigenvector of every
        # B_i, as P_i(c) P_j(c) = sum_h p_ij^h P_h(c), and P[c][0] = 1
        shifted = ExactMatrix(
            [
                [
                    QuadNumber(combo[j][h]) - (theta if h == j else QuadNumber(0))
                    for j in range(d + 1)
                ]
                for h in range(d + 1)
            ]
        )
        basis = nullspace(shifted)
        if len(basis) != 1:
            raise ValueError("generic combination has a degenerate eigenspace")
        rows.append(tuple(x / basis[0][0] for x in basis[0]))
    # E_0 corresponds to the valency character P[0][i] = k_i
    kvec = tuple(QuadNumber(k) for k in s.valencies)
    try:
        main = rows.index(kvec)
    except ValueError as exc:
        raise ValueError("no valency character found; scheme data corrupt") from exc
    others = [r for idx, r in enumerate(rows) if idx != main]
    others.sort(key=lambda r: r[1], reverse=True)
    P = tuple([kvec] + others)

    mults = []
    for c in range(d + 1):
        denom = sum(
            (P[c][j] * P[c][j] / s.valencies[j] for j in range(d + 1)),
            QuadNumber(0),
        )
        m = QuadNumber(s.n) / denom
        if not m.is_integer or m.as_fraction() <= 0:
            raise ValueError(f"non-integral multiplicity {m}")
        mults.append(int(m.as_fraction()))
    if sum(mults) != s.n:
        raise ValueError("multiplicities do not sum to |X|")

    cosines = tuple(
        tuple(P[c][i] / s.valencies[i] for c in range(d + 1)) for i in range(d + 1)
    )
    Q = tuple(
        tuple(cosines[i][c] * mults[c] for c in range(d + 1)) for i in range(d + 1)
    )
    krein = tuple(
        tuple(
            tuple(
                sum(
                    (
                        QuadNumber(s.valencies[l])
                        * cosines[l][i]
                        * cosines[l][j]
                        * cosines[l][k]
                        for l in range(d + 1)
                    ),
                    QuadNumber(0),
                )
                * Fraction(mults[i] * mults[j], s.n)
                for k in range(d + 1)
            )
            for j in range(d + 1)
        )
        for i in range(d + 1)
    )
    sp = Spectra(s, P, Q, tuple(mults), krein, cosines, radicand)
    _cross_check_dual_recurrence(sp)
    return sp


def _cross_check_dual_recurrence(sp: Spectra) -> None:
    """Independent validation of the Krein tensor via the dual cosine
    recurrence m_i w_{r,i} w_{r,j} = sum_h q_{hi}^j w_{r,h}."""
    d = sp.d
    for i in range(d + 1):
        for j in range(d + 1):
            for r in range(d + 1):
                lhs = sp.cosines[r][i] * sp.cosines[r][j] * sp.multiplicities[i]
                rhs = sum(
                    (
                        sp.krein[h][i][j] * sp.cosines[r][h]
                        for h in range(d + 1)
                    ),
                    QuadNumber(0),
                )
                if lhs != rhs:
                    raise ValueError(
                        f"dual recurrence fails at (i={i}, j={j}, r={r}): "
                        f"{lhs} != {rhs}"
                    )


def krein_check(sp: Spectra) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """All Krein parameters non-negative?  Returns (ok, offending triple)."""
    d = sp.d
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                if sp.krein[i][j][k].sign() < 0:
                    return False, (i, j, k)
    return True, None


def q_poly_orderings(sp: Spectra) -> list[tuple[int, ...]]:
    """All orderings of the idempotents making the scheme cometric.

    An ordering is cometric iff in the reindexed Krein tensor
    q_{1,i}^{j} = 0 whenever |i - j| > 1 and q_{1,i}^{i+1} > 0 for i < d.
    A scheme with d = 0 has no E_1, so no ordering is cometric."""
    d = sp.d
    if d == 0:
        return []
    out = []
    for tail in itertools.permutations(range(1, d + 1)):
        perm = (0,) + tail
        ok = True
        for i in range(d + 1):
            for j in range(d + 1):
                q = sp.krein[perm[1]][perm[i]][perm[j]]
                if abs(i - j) > 1 and q:
                    ok = False
                    break
                if j == i + 1 and q.sign() <= 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(perm)
    return out


def qpolynomial_spectra(s: Scheme) -> tuple[Spectra, list[tuple[int, ...]]]:
    """Spectra reordered by the first Q-polynomial ordering (lexicographically
    smallest), plus the full list of orderings.  Raises if none exists."""
    sp = spectra(s)
    orderings = sorted(q_poly_orderings(sp))
    if not orderings:
        raise NoQPolynomialOrderingError("scheme has no Q-polynomial ordering")
    return sp.reordered(orderings[0]), orderings


def relation_layers(s: Scheme, r: int = 1) -> list[Optional[int]]:
    """Each relation's distance from R0 in the scheme graph of R_r, or None
    where that graph never reaches it.  In a scheme a pair's distance depends
    on its relation only, and R_h is one step from R_j iff p_{hr}^j > 0."""
    if not 1 <= r <= s.d:
        raise ValueError(f"no nontrivial relation R_{r} in a scheme with d = {s.d}")
    layers: list[Optional[int]] = [0] + [None] * s.d
    frontier, t = [0], 0
    while frontier:
        t += 1
        frontier = [h for h in range(s.d + 1)
                    if layers[h] is None and any(s.p[h][r][j] for j in frontier)]
        for h in frontier:
            layers[h] = t
    return layers


def partially_metric_level(s: Scheme, r: int) -> int:
    """Largest t such that the distance-i graph of the scheme graph of R_r is
    itself a scheme graph for every i <= t, that is, each of the layers 1..t
    of relation_layers holds a single relation; t = d means metric."""
    layers = relation_layers(s, r)
    if None in layers:
        raise ValueError(f"scheme graph of relation {r} is disconnected")
    t = 1
    while layers.count(t + 1) == 1:
        t += 1
    return t


def why_not_classified(s: SchemeResult) -> Optional[str]:
    """Why a verify_scheme or scheme_from_graph_distances result is not one
    of the classified schemes, or None when it is one: a Q-polynomial scheme
    with m1 = 4 that is at least 2-partially metric."""
    if isinstance(s, SchemeRefutation):
        return f"not distance-regular: {s.detail}"
    try:
        m1 = s.qpolynomial[0].multiplicities[1]
    except SplittingFieldError:
        return "splitting field not quadratic"
    except NoQPolynomialOrderingError:
        return "no Q-polynomial ordering"
    if m1 != 4:
        return f"m1 = {m1}"
    level = partially_metric_level(s, 1)
    if level < 2:
        return f"partially_metric_level = {level}"
    return None


def light_tail_bound(k, theta, a1, b1):
    """Exact lower bound on the multiplicity of an idempotent with eigenvalue
    theta in a partially metric scheme:

        m >= k - k (theta+1)^2 a1 (a1+1) / (((a1+1) theta + k)^2 + k a1 b1)

    Equality characterizes a light tail."""
    k_ = QuadNumber(k) if not isinstance(k, QuadNumber) else k
    th = theta if isinstance(theta, QuadNumber) else QuadNumber(theta)
    if th == k_ or th == -k_:
        raise ValueError("bound undefined for theta = +-k")
    a1q = a1 if isinstance(a1, QuadNumber) else QuadNumber(a1)
    b1q = b1 if isinstance(b1, QuadNumber) else QuadNumber(b1)
    denom = ((a1q + 1) * th + k_) ** 2 + k_ * a1q * b1q
    if not denom:
        raise ValueError("bound undefined when ((a1+1) theta + k)^2 + k a1 b1 = 0")
    return k_ - k_ * (th + 1) ** 2 * a1q * (a1q + 1) / denom
