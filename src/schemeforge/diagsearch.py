"""Feasible relation-distribution diagram search.

Generates all feasible relation-distribution diagrams of the nearest
neighbourhood relation of a partially metric Q-polynomial association scheme
with m1 = 4, together with the first two cosine columns, by the recursive
exhaustion with pruning described in the module docstrings below.  An
emitted diagram matches a bundled catalogue scheme when its canonical key is
that of the diagram the scheme's intersection numbers and cosines give
(scheme_diagram); unmatched feasible diagrams are surfaced, never dropped.

Structure of the search state:

  * the diagram is a weighted digraph on relation vertices, arc weight
    w(j -> h) = p_{h1}^j, so every vertex has total out-weight k1;
  * every relation has a well-defined distance from R0 in the scheme graph
    (the distance-t graph is a union of relations), so vertices carry a
    layer (schemes.relation_layers) and arcs never skip layers;
  * partial metricity makes layer 2 a single relation R2;
  * the search finishes the relations in index order: vertices
    0 .. done-1 have complete out-arcs, and vertex done is finished next.
    Only finished relations have out-arcs (R1's seed arcs aside), and fresh
    relations are appended one layer above the relation that makes them, so
    every in-neighbour of an unfinished relation is finished and layers never
    decrease with the index;
  * the cosine columns obey k1*w(1,c)*w(i,c) = sum_h p_{h1}^i w(h,c), and
    with m1 = 4 the dual recurrence pins column 2 to column 1 pointwise:
    4*w(i,1)^2 = 1 + q111*w(i,1) + (3 - q111)*w(i,2).
"""

from __future__ import annotations

import bisect
import functools
from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple, Optional

from .catalogue import CATALOGUE, load_bundled, scheme_order
from .exactnum import (
    QuadNumber,
    _common_radicand,
    _make,
    _sign,
    bounded_algebraic_integers,
    candidate_radicands,
    is_algebraic_integer,
    quad_sqrt,
    squarefree_decompose,
)
from .graphs import DEFAULT_BUDGET, BudgetExhausted
from .localclass import delsarte_bound
from .schemes import NoQPolynomialOrderingError, SplittingFieldError, relation_layers

__all__ = [
    "SearchConfig",
    "DistributionDiagram",
    "CosineColumns",
    "SearchResult",
    "SearchOutcome",
    "arrangements",
    "check_diagram_valid",
    "solve_cosines",
    "check_solution_valid",
    "generate_diagrams",
    "match_known",
    "match_catalogue",
    "scheme_diagram",
    "KISSING_NUMBER_R4",
]

KISSING_NUMBER_R4 = 24  # maximum spherical [-1,1/2]-code in R^4

M1 = 4  # first multiplicity; the dual recurrence below is written for it

_ZERO = QuadNumber(0)
_ONE = QuadNumber(1)
_THREE = QuadNumber(3)
_FOUR = QuadNumber(4)
_HALF = QuadNumber(Fraction(1, 2))


class SearchConfig:
    """Parameters of one search run.

    radicand fixes the field: 1 for Q, a square-free p for Q[sqrt(p)], or
    None for every candidate field, each subtree then taking the field of its
    first irrational cosine.  budget caps the nodes of the search.
    light_tail is forced when k1 = m1 and a1 = 0: the multiplicity bound is
    then attained, so E1 is a light tail and q111 = 0.  k1 is at most 9: the
    neighbourhood of a point is a two-distance set on S^2, whose size
    delsarte_bound(3, 2) caps, as in localclass.classify_local.  Immutable."""

    def __init__(
        self,
        k1: int,
        a1: int,
        radicand: Optional[int] = 1,
        budget: int = DEFAULT_BUDGET,
    ):
        if k1 < 3:
            raise ValueError("need k1 >= 3")
        bound = delsarte_bound(3, 2)
        if k1 > bound:
            raise ValueError(
                f"need k1 <= {bound}: more than {bound} points cannot form a "
                "two-distance set on S^2"
            )
        if not 0 <= a1 < k1:
            raise ValueError("need 0 <= a1 < k1")
        if radicand not in (None, 1) and (radicand < 2 or squarefree_decompose(radicand)[0] > 1):
            raise ValueError(f"radicand {radicand}: need None, 1 or a square-free p >= 2")
        self.__dict__.update(k1=k1, a1=a1, radicand=radicand, budget=budget)

    def __setattr__(self, name, value):
        raise AttributeError(f"SearchConfig is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SearchConfig is immutable: cannot delete {name!r}")

    @property
    def light_tail(self) -> bool:
        return self.a1 == 0 and self.k1 == M1

    @property
    def degree_bound(self) -> int:
        # d <= 4*v1 + 1, and d <= 2*v1 + 1 over the rationals
        return (2 if self.radicand == 1 else 4) * self.k1 + 1

    @functools.cached_property
    def fields(self) -> tuple:
        """Radicands of the fields searched, Q first in an open search."""
        if self.radicand is None:
            return (1, *candidate_radicands(self.k1))
        return (self.radicand,)


class DistributionDiagram:
    """Weighted digraph of relations with arc weights p_{h1}^j.

    The arcs are stored once, as an out-map h -> w per vertex, so a query
    about one vertex reads that vertex's arcs only; ``arcs`` is the
    (j, h) -> w view of the same store.  Vertices 0 .. done-1 are finished:
    their out-arcs are complete."""

    __slots__ = ("k1", "layers", "valencies", "out", "done")

    def __init__(self, k1: int, layers: list, arcs: dict, valencies: list,
                 done: int):
        self.k1 = k1
        self.layers = layers  # layer (scheme-graph distance) per vertex
        self.valencies = valencies  # k_j per vertex, None until inferred
        self.done = done  # the number of finished vertices
        self.out = [{} for _ in layers]  # per vertex: h -> weight
        for (j, h), w in arcs.items():
            self.out[j][h] = w

    @classmethod
    def seed(cls, k1: int, a1: int) -> "DistributionDiagram":
        arcs = {(0, 1): k1, (1, 0): 1}
        if a1:
            arcs[(1, 1)] = a1
        return cls(k1, layers=[0, 1], arcs=arcs, valencies=[1, k1], done=1)

    def __repr__(self):
        return (f"DistributionDiagram(k1={self.k1}, layers={self.layers}, "
                f"arcs={self.arcs}, valencies={self.valencies}, "
                f"done={self.done})")

    @property
    def n(self) -> int:
        return len(self.layers)

    @property
    def arcs(self) -> dict:
        """(j, h) -> weight for every arc; a fresh dict, so read-only."""
        return {(j, h): w for j, out in enumerate(self.out) for h, w in out.items()}

    def copy(self) -> "DistributionDiagram":
        new = object.__new__(DistributionDiagram)
        new.k1 = self.k1
        new.layers = list(self.layers)
        new.valencies = list(self.valencies)
        new.done = self.done
        new.out = [dict(out) for out in self.out]
        return new

    def out_weight(self, j: int) -> int:
        return sum(self.out[j].values())

    def weight(self, j: int, h: int) -> int:
        return self.out[j].get(h, 0)

    def add_vertex(self, layer: int) -> int:
        self.layers.append(layer)
        self.valencies.append(None)
        self.out.append({})
        return self.n - 1

    def size(self) -> int:
        """|X| = sum of valencies.  Called only on finished diagrams: the seed
        sets k0 and k1, and _infer_valencies sets k_v as vertex v is finished,
        so no valency is None there."""
        return sum(self.valencies)


class CosineColumns(NamedTuple):
    """Columns 1 and 2 of the cosine matrix, one (w1, w2) pair per vertex.

    radicand is the field of the search subtree: 1 while an open search has
    met only rational cosines."""

    radicand: int
    q111: QuadNumber
    values: list  # (QuadNumber, QuadNumber) per vertex

    def column(self, c: int) -> list:
        return [pair[c - 1] for pair in self.values]

    def second_from_first(self, w1: QuadNumber) -> QuadNumber:
        return _second_from_first(w1, self.q111)


def _second_from_first(w1: QuadNumber, q111: QuadNumber) -> QuadNumber:
    """Column-2 value forced by the dual recurrence
    m1*w1^2 = 1 + q111*w1 + (m1 - 1 - q111)*w2 with m1 = 4."""
    return (_FOUR * w1 * w1 - _ONE - q111 * w1) / (_THREE - q111)


class SearchResult(NamedTuple):
    diagram: DistributionDiagram
    cosines: CosineColumns
    matched: Optional[str] = None  # catalogue id, or None for unmatched

    def canonical_key(self):
        order = sorted(
            range(self.diagram.n),
            key=lambda v: (self.diagram.layers[v], str(self.cosines.values[v][0])),
        )
        pos = {v: i for i, v in enumerate(order)}
        arcs = tuple(
            sorted(((pos[j], pos[h]), w) for (j, h), w in self.diagram.arcs.items())
        )
        data = tuple(
            (
                self.diagram.layers[v],
                self.diagram.valencies[v],
                str(self.cosines.values[v][0]),
                str(self.cosines.values[v][1]),
            )
            for v in order
        )
        return (arcs, data)


class SearchOutcome(NamedTuple):
    config: SearchConfig
    results: list  # of SearchResult
    stats: dict
    complete: bool  # False when the node budget cut a branch


@functools.cache
def _cosine_candidates(k: int, radicand: int) -> tuple:
    """Possible cosines lambda/k of a relation of valency k, lambda a bounded
    algebraic integer of the field; sorted and distinct, as the integers are
    and k > 0.  Memoised, so the result is an immutable tuple.

    The set for k lies in the set for j*k: lambda/k = j*lambda/(j*k), and
    j*lambda is an algebraic integer with conjugates in [-j*k, j*k].  So a
    fresh vertex f made at v, whose valency k_v*w(v->f)/w(f->v) divides
    k_v*w(v->f), draws its cosine from the set for k_v*w(v->f)."""
    return tuple(
        _make(lam._x, lam._y, lam._d * k, lam._p)
        for lam in bounded_algebraic_integers(k, radicand)
    )


def _seeds(config: SearchConfig):
    """The finitely many cosine seeds (w1, w2) of the seed diagram R0 -> R1
    (DistributionDiagram.seed), drawn lazily one field at a time: the search
    counts a node per seed, so a node budget also bounds this walk.

    w1 = omega_{1,1} ranges over bounded algebraic integers over k1 in each
    searched field, and the seed takes that field; w2 is forced by q111 = 0
    in the light-tail case and enumerated otherwise.  A
    seed is kept only when the Krein value q111 = ((m1-1)*w2 - m1*w1^2 + 1)
    / (w2 - w1) satisfies 0 <= q111 < m1 - 1; q111 = m1 - 1 collapses
    column 1 onto two values, which is the complete-graph degeneracy.
    A candidate lambda/k1 lies in [-1, 1], with the ends -1 and 1 from
    lambda = -k1 and k1, as an irrational lambda has |lambda| < k1.  So w1 in
    (-1, 1) is cands[1:-1], and no w2 needs a range test: an enumerated one
    is a candidate, and the light-tail one, (4*w1^2 - 1)/3, is in [-1/3, 1)."""
    for field in config.fields:
        cands = _cosine_candidates(config.k1, field)
        for w1 in cands[1:-1]:
            if config.light_tail:
                w2 = _second_from_first(w1, _ZERO)
                pairs = [] if w2 == w1 else [(w2, _ZERO)]
            else:
                pairs = []
                rest = _ONE - _FOUR * w1 * w1
                for w2 in cands:
                    if w2 == w1:
                        continue
                    q111 = (_THREE * w2 + rest) / (w2 - w1)
                    if _ZERO <= q111 < _THREE:
                        pairs.append((w2, q111))
            for w2, q111 in pairs:
                # rational seeds lie in every field: only the first takes them
                if field != config.fields[0] and w1.is_rational and w2.is_rational:
                    continue
                yield CosineColumns(field, q111, [(_ONE, _ONE), (w1, w2)])


def _weight_assignments(total: int, minimums: list):
    """All tuples w with w[i] >= minimums[i] and sum <= total."""
    if not minimums:
        yield (), total
        return
    lo = minimums[0]
    for w in range(lo, total + 1):
        for rest, left in _weight_assignments(total - w, minimums[1:]):
            yield (w,) + rest, left


def _partitions(total: int, max_parts: int):
    """Non-increasing positive partitions of total into <= max_parts parts."""

    def rec(left, cap, parts):
        if left == 0:
            yield tuple(parts)
            return
        if len(parts) == max_parts:
            return
        for nxt in range(min(cap, left), 0, -1):
            parts.append(nxt)
            yield from rec(left - nxt, nxt, parts)
            parts.pop()

    yield from rec(total, total, [])


def arrangements(diagram: DistributionDiagram, v: int, config: SearchConfig):
    """All ways to finish vertex v = diagram.done's out-arcs: weights on
    mandatory back-arcs (one per in-neighbour, all of them finished),
    optional arcs to unfinished vertices at most one layer up (v's loop among
    them; no unfinished vertex lies below v's layer), and fresh next-layer
    vertices (non-increasing weights; layer 2 holds a single relation by
    partial metricity), with at most config.degree_bound classes.

    Yields (new diagram, fresh vertex list), with v finished and k_v set.
    The yielded diagrams are never changed afterwards, so they may be shared.
    From a diagram that passes check_diagram_valid, each yielded diagram keeps
    these axioms by construction:
      * every new arc has a positive weight;
      * R0's arcs are untouched, and only R1 has an arc to R0 (0 is never a
        target);
      * layer 2 holds at most one relation (partial metricity);
      * no arc skips a layer;
      * v's out-weight is k1;
      * v has an arc to each in-neighbour, and to a finished vertex only
        when it has an arc back;
      * k_v * w(v->h) = k_h * w(h->v) wherever both valencies are known,
        checked by _infer_valencies.
    So _check_arrangement is left with Yamazaki's lemma."""
    layers, out = diagram.layers, diagram.out
    lv = layers[v]
    outs = out[v]
    remaining = diagram.k1 - sum(outs.values())
    mandatory = [j for j in range(v) if v in out[j] and j not in outs]
    optional = [h for h in range(v, diagram.n) if layers[h] <= lv + 1 and h not in outs]
    targets = mandatory + optional
    fresh_layer = lv + 1
    max_fresh = remaining
    if lv == 1:
        max_fresh = 1  # partial metricity: distance 2 is one relation

    for weights, leftover in _weight_assignments(
        remaining, [1] * len(mandatory) + [0] * len(optional)
    ):
        for parts in _partitions(leftover, max_fresh):
            # as a vertex's layer is at most its index, this also refuses
            # every fresh vertex above layer degree_bound
            if diagram.n + len(parts) > config.degree_bound + 1:
                continue
            nd = diagram.copy()
            nouts = nd.out[v]
            for h, w in zip(targets, weights):
                if w:
                    nouts[h] = w
            fresh = []
            for w in parts:
                f = nd.add_vertex(fresh_layer)
                nouts[f] = w
                fresh.append(f)
            nd.done = v + 1
            if not _infer_valencies(nd, v):
                continue
            yield nd, fresh


def _infer_valencies(diagram: DistributionDiagram, v: int) -> bool:
    """Set k_v from the handshake k_v * w(v->h) = k_h * w(h->v) against every
    neighbour with known valency; False on contradiction or non-integer.
    This is the search's one handshake check.
    The verdict and k_v do not depend on which neighbour sets k_v first.

    Some neighbour always sets k_v: v (R1 aside, whose k1 the seed sets) was
    made fresh by a finished vertex, whose valency is known, and v's
    arrangement adds the mandatory back-arc to it.  The loop below checks that
    neighbour too, so it refuses a quotient k_h * w(h->v) / w(v->h) that is
    not an integer; an integral one, of positive terms, is at least 1."""
    valencies, out = diagram.valencies, diagram.out
    outs = out[v]
    if valencies[v] is None:
        h = next(h for h in outs if valencies[h] is not None and out[h].get(v))
        valencies[v] = valencies[h] * out[h][v] // outs[h]
    kv = valencies[v]
    for h, w in outs.items():
        kh = valencies[h]
        if kh is None:
            continue
        back = out[h].get(v, 0)
        if back and kv * w != kh * back:
            return False
    return True


def check_diagram_valid(diagram: DistributionDiagram):
    """(True, "") or (False, reason) for the structural diagram axioms.

    The search relies on arrangements and _check_arrangement instead; this
    full check is the reference of both."""
    k1 = diagram.k1
    arcs = diagram.arcs
    # R0 structure
    if diagram.weight(0, 1) != k1 or diagram.out_weight(0) != k1:
        return False, "r0-structure"
    for (j, h), w in arcs.items():
        if w <= 0:
            return False, "nonpositive-weight"
        if h == 0 and j != 1:
            return False, "r0-structure"
        if abs(diagram.layers[j] - diagram.layers[h]) > 1:
            return False, "layer-skip"
    # out-weights
    for v in range(1, diagram.n):
        ow = diagram.out_weight(v)
        if ow > k1 or (v < diagram.done and ow != k1):
            return False, "out-weight"
    # support symmetry and handshake for finished pairs
    for (j, h), w in arcs.items():
        if h < diagram.done and not diagram.weight(h, j):
            return False, "handshake"
        kj, kh = diagram.valencies[j], diagram.valencies[h]
        back = diagram.weight(h, j)
        if kj is not None and kh is not None and back:
            if kj * w != kh * back:
                return False, "handshake"
    if not all(_yamazaki_ok(diagram, j) for j in range(diagram.n)):
        return False, "yamazaki"
    if diagram.layers.count(2) > 1:
        return False, "partial-metricity"
    return True, ""


def _check_arrangement(diagram: DistributionDiagram, v: int):
    """check_diagram_valid for a diagram that one arrangement at v made from a
    diagram that passed it.

    arrangements keeps every other axiom by construction, so only Yamazaki's
    lemma is left, at v's in-neighbours one layer down: the only relations
    whose finished next-layer out-neighbours changed.  At v itself there is
    nothing to check, as every next-layer out-neighbour of v was made after
    v and so is unfinished."""
    layers, out = diagram.layers, diagram.out
    if not all(
        _yamazaki_ok(diagram, j) for j in range(v) if layers[j] == layers[v] - 1 and v in out[j]
    ):
        return False, "yamazaki"
    return True, ""


def _yamazaki_ok(diagram: DistributionDiagram, j: int) -> bool:
    """Diagram-local reading of Yamazaki's lemma at relation R_j.

    Interpretation (documented, since the lemma speaks of points): take a
    relation R_j at layer i >= 2 with two distinct finished out-neighbours
    R3, R4 at layer i+1 such that R3 sends total weight exactly 1 back to
    layer i (c_{i+1} = 1 for its points).  The lemma then demands a relation
    R5 adjacent to both R3 and R4 that avoids the distance-i graph, i.e. a
    common out-neighbour of R3 and R4 at layer >= i+1 (loops included)."""
    layers, out = diagram.layers, diagram.out
    lj = layers[j]
    if lj < 2:
        return True
    outs = [h for h in out[j] if layers[h] == lj + 1 and h < diagram.done]
    for r3 in outs:
        if sum(w for h, w in out[r3].items() if layers[h] == lj) != 1:
            continue
        for r4 in outs:
            if r4 != r3 and not any(
                layers[h] > lj and out[r4].get(h, 0) for h in out[r3]
            ):
                return False
    return True


def _in_field(x: QuadNumber, radicand: int) -> bool:
    return x.p == 1 or x.p == radicand


def _residual(k1: int, outs: dict, v: int, c: int, full: list) -> QuadNumber:
    """k1*w(1,c)*w(v,c) - sum_h p_{h1}^v * w(h,c), for v's out-arcs outs, over
    the vertices h that full gives a pair: the residual of the column-c
    recurrence at v when full covers every vertex, and over the known vertices
    the target that the fresh vertices' terms must meet.  The terms are summed
    on ints over one denominator, and one _make builds the result."""
    w1, wv = full[1][c], full[v][c]
    p = _common_radicand(w1._p, wv._p)
    x = k1 * (w1._x * wv._x + w1._y * wv._y * p)
    y = k1 * (w1._x * wv._y + w1._y * wv._x)
    d = w1._d * wv._d
    for h, w in outs.items():
        if h < len(full):
            z = full[h][c]
            p = _common_radicand(p, z._p)
            e = z._d
            x, y, d = x * e - w * z._x * d, y * e - w * z._y * d, d * e
    return _make(x, y, d, p)


def solve_cosines(
    diagram: DistributionDiagram,
    cosines: CosineColumns,
    v: int,
    fresh: list,
    config: SearchConfig,
):
    """Extensions of the cosine columns to the fresh vertices created at v.

    The column-1 recurrence k1*w(1,1)*w(v,1) = sum_h p_{h1}^v * w(h,1) is one
    linear equation; column 2 is the image of column 1 under the dual
    recurrence, and the column-2 recurrence then closes the system: zero
    fresh vertices make both recurrences checks.  Otherwise they ask only
    the first two moments of the fresh cosines x (weights w), sum w*x = t1
    and sum w*x^2 = s, and real cosines of total weight W meet them exactly
    when W*s >= t1^2 (Cauchy-Schwarz), with equality for a single cosine.
    One recursion over the fresh vertices, in index order, carries the
    moments left to the remaining cosines: one cosine left is t1/W when
    W*s = t1^2; two left solve a quadratic inside the field; and beyond
    that each cosine is drawn from the bounded-algebraic-integer
    candidates, only those that leave moments the rest can meet (the
    concave quadratic of _tail_slice), the last draw through the square r^2
    of the tail's root.  The residuals and targets (_residual) and the
    second moment s are summed on ints, one _make building each; the test
    W*s = t1^2, each r^2 and each draw's bound (_draw_bound) run on ints,
    the draws' moment updates on QuadNumbers.  Fresh vertices of equal
    weight are interchangeable, so the columns are deduplicated by their
    multiset of (weight, cosine) before column 2 is built and both
    recurrences are checked: each class is built once, from its first
    column.  The fresh vertices are the last of the diagram, as arrangements
    appends them.  Returns a list of CosineColumns (empty = prune)."""
    outs = diagram.out[v]
    residual = functools.partial(_residual, diagram.k1, outs, v)
    values = cosines.values

    if not fresh:
        return [cosines] if not residual(0, values) and not residual(1, values) else []

    # arrangements appends the fresh vertices after the known ones
    target1, target2 = residual(0, values), residual(1, values)
    weights = [outs[f] for f in fresh]
    phi = cosines.second_from_first

    def extend(first_column):
        full = values + [(a, phi(a)) for a in first_column]
        if residual(0, full) or residual(1, full):
            raise ArithmeticError("a closed-form cosine column misses a recurrence")
        radicand = cosines.radicand
        if radicand == 1:
            # an open subtree takes the field of its first irrational cosine
            radicand = max(a.p for a in first_column)
        return CosineColumns(radicand, cosines.q111, full)

    # With m1 = 4 the dual recurrence gives (3 - q)*phi(x) = 4x^2 - 1 - q*x,
    # so the two targets ask of the fresh cosines only their two moments,
    # with s = (3*t2 + q*(t1 - t2) + sum w)/4, summed on ints over the
    # denominator 4*dq*d1*d2 (q, t1, t2 written (x + y*sqrt(p))/d).
    q = cosines.q111
    p = _common_radicand(_common_radicand(q._p, target1._p), target2._p)
    (qx, qy, qd), (ax, ay, ad), (bx, by, bd) = (
        (z._x, z._y, z._d) for z in (q, target1, target2))
    ux, uy = ax * bd - bx * ad, ay * bd - by * ad  # ad*bd*(t1 - t2)
    s = _make(3 * bx * ad * qd + qx * ux + qy * uy * p + sum(weights) * qd * ad * bd,
              3 * by * ad * qd + qx * uy + qy * ux, 4 * qd * ad * bd, p)
    kv = diagram.valencies[v]
    last = len(fresh) - 1
    columns = []

    def gap(t1, s, W):
        """W*s - t1^2 on ints, as (x, y, d) for (x + y*sqrt(p))/d with d > 0.
        s and t1 lie in one field, and t1's radicand matters only when t1 is
        irrational."""
        x, y, e = t1._x, t1._y, t1._d
        ee = e * e
        return (W * s._x * ee - (x * x + y * y * t1._p) * s._d,
                W * s._y * ee - 2 * x * y * s._d, s._d * ee)

    def pair(prefix, t1, root):
        """Append prefix + [a, b] for the last two cosines, of weights
        (wa, wb) and first moment t1: a = (wa*t1 +- r)/(wa*(wa + wb)), the
        larger first, and b = (t1 - wa*a)/wb, where r = root is the root of
        r^2 = wa*wb*((wa + wb)*s - t1^2); none when root is None."""
        if root is None:
            return
        wa, wb = weights[-2:]
        mid = wa * t1
        for x in [mid + root, mid - root] if root else [mid]:
            a = x / (wa * (wa + wb))
            columns.append(prefix + [a, (t1 - wa * a) / wb])

    def complete(prefix, t1, s, W, field):
        """Append prefix + rest for every rest in Q[sqrt(field)] of the
        fresh cosines from index i = len(prefix) on, of total weight W, that
        has the moments t1 and s."""
        i = len(prefix)
        w = weights[i]
        if i == last:
            x, y, _d = gap(t1, s, W)
            if not x and not y:
                columns.append(prefix + [t1 / W])
            return
        if i == last - 1:
            x, y, d = gap(t1, s, W)
            wab = w * weights[last]
            pair(prefix, t1, _tail_root(wab * x, wab * y, d, field))
            return
        bound = _draw_bound(-w * W, 2 * w * t1, (W - w) * s - t1 * t1, field)
        cands = _cosine_candidates(kv * outs[fresh[i]], field)
        lo, hi = _tail_slice(cands, t1 / W, bound, field)
        if i < last - 2:
            for a in cands[lo:hi]:
                complete(prefix + [a], t1 - w * a, s - w * a * a, W - w, field)
            return
        # the draw leaves two cosines, whose r^2 is wa*wb times the bound at a
        wab = weights[-2] * weights[-1]
        for a in cands[lo:hi]:
            x, y, d = bound(a)
            root = _tail_root(wab * x, wab * y, d, field)
            if root is not None:
                pair(prefix + [a], t1 - w * a, root)

    # Each drawn cosine of a fresh f comes from the candidates for
    # k_v*w(v->f), per field, as values of two fields do not mix; a rational
    # column recurs under every field, and the dedup below keeps its first
    # copy.
    fields = config.fields if cosines.radicand == 1 and last > 1 else (cosines.radicand,)
    for field in fields:
        complete([], target1, s, sum(weights), field)
    results, seen = [], set()
    for col in columns:
        # fresh vertices of equal weight are interchangeable, others are not
        key = tuple(sorted((w, a._x, a._y, a._d, a._p) for w, a in zip(weights, col)))
        if key not in seen:
            seen.add(key)
            results.append(extend(col))
    return results


def _tail_root(x: int, y: int, d: int, p: int) -> Optional[QuadNumber]:
    """quad_sqrt of a tail's r^2 = (x + y*sqrt(p))/d, d > 0, with its two
    common refusals decided on the ints: a negative number has no square
    root, nor has one whose norm x^2 - p*y^2 is not a square."""
    if _sign(x, y, p) < 0:
        return None
    if y:
        norm = x * x - y * y * p
        if norm < 0 or isqrt(norm) ** 2 != norm:
            return None
    return quad_sqrt(_make(x, y, d, p))


def _draw_bound(P: int, Q: QuadNumber, R: QuadNumber, p: int):
    """A draw a of weight w leaves (t1 - w*a, s - w*a^2) to the rest, of
    weight W - w, which real cosines meet iff (W - w)*(s - w*a^2) >=
    (t1 - w*a)^2: P*a^2 + Q*a + R >= 0 for the int P = -w*W, Q = 2*w*t1 and
    R = (W - w)*s - t1^2, with vertex t1/W.  Returns that quadratic on ints:
    a = (x + y*sqrt(p))/e goes to (X, Y, den*e^2), the value being
    (X + Y*sqrt(p))/(den*e^2), with den the lcm of Q's and R's denominators."""
    den = lcm(Q._d, R._d)
    p0 = P * den
    q0, q1, r0, r1 = (n * (den // z._d) for z in (Q, R) for n in (z._x, z._y))

    def at(a: QuadNumber) -> tuple:
        x, y, e = a._x, a._y, a._d
        m0, m1, ee = p0 * x + q0 * e, p0 * y + q1 * e, e * e  # Horner
        return m0 * x + m1 * y * p + r0 * ee, m0 * y + m1 * x + r1 * ee, den * ee

    return at


def _tail_slice(cands: tuple, vertex: QuadNumber, bound, p: int):
    """(lo, hi) such that cands[lo:hi] are exactly the sorted candidates a at
    which bound, a concave quadratic of _draw_bound, is >= 0: it rises left
    of its vertex and falls right of it, so each end is found by bisection."""

    def nonnegative(a):
        x, y, _d = bound(a)
        return _sign(x, y, p) >= 0

    top = bisect.bisect_left(cands, vertex)
    lo = bisect.bisect_left(cands, True, 0, top, key=nonnegative)
    hi = bisect.bisect_left(cands, True, top, len(cands),
                            key=lambda a: not nonnegative(a))
    return lo, hi


def check_solution_valid(cosines: CosineColumns, diagram: DistributionDiagram):
    """(True, "") or (False, reason) for the cosine axioms: field membership,
    ranges, column-1 faithfulness with the nearest relation dominating, and
    the bounded-algebraic-integer test wherever the valency is known.

    The search checks each extension with _check_extension instead; this
    full check is its reference."""
    col1, col2 = cosines.column(1), cosines.column(2)
    for x in col1 + col2:
        if not _in_field(x, cosines.radicand):
            return False, "field"
    for x in col1[1:]:
        if not (-_ONE <= x < _ONE):
            return False, "range"
    for x in col2[1:]:
        if not (-_ONE <= x <= _ONE):
            return False, "range"
    if len(set(col1)) != len(col1):
        return False, "faithfulness"
    w11 = col1[1]
    for i in range(2, len(col1)):
        if not col1[i] < w11:
            return False, "nearest-dominance"
    for i in range(1, len(col1)):
        reason = _integrality(cosines.values[i], diagram.valencies[i] if i < diagram.n else None)
        if reason:
            return False, reason
    return True, ""


def _integrality(pair: tuple, k: Optional[int]) -> str:
    """Why k*w is not a bounded algebraic integer for a vertex's cosines w of
    valency k, or "" when it is (or k is unknown).  One _make builds
    k*w = (x + y*sqrt(p))/d, and the conjugate (x - y*sqrt(p))/d is compared
    with -k and k by sign tests on the ints."""
    if k is None:
        return ""
    for w in pair:
        lam = _make(k * w._x, k * w._y, w._d, w._p)
        if not is_algebraic_integer(lam):
            return "algebraic-integer"
        x, y, d, p = lam._x, lam._y, lam._d, lam._p
        if _sign(x + k * d, -y, p) < 0 or _sign(k * d - x, y, p) < 0:
            return "conjugate-bound"
    return ""


def _check_extension(cosines: CosineColumns, diagram: DistributionDiagram,
                     v: int, fresh: list):
    """check_solution_valid for an extension, at v, of cosines that passed it.

    Only the fresh vertices' values are new and only k_v became known, so
    these checks run, in the order of the full check: range of the fresh
    values, their faithfulness against every earlier value, their
    nearest-dominance, and the algebraic-integer test of v alone, which a
    fresh vertex would pass: its valency stays None until it is finished.
    No field test, as solve_cosines makes each fresh value in the field: a
    drawn cosine from _cosine_candidates, t1/W and a pair from t1 and
    _tail_root, and phi(a) in the field of a and q111.  A seed passes every
    check but vertex 1's algebraic-integer test by construction (_seeds),
    and its first arrangement is at v = 1, which runs that test."""
    values = cosines.values
    new = [values[f] for f in fresh]
    if not all(-_ONE <= a < _ONE and -_ONE <= b <= _ONE for a, b in new):
        return False, "range"
    col1 = [a for a, _ in values]
    if any(col1[f] in col1[:f] for f in fresh):
        return False, "faithfulness"
    w11 = col1[1]
    if not all(a < w11 for a, _ in new):
        return False, "nearest-dominance"
    reason = _integrality(values[v], diagram.valencies[v])
    return (False, reason) if reason else (True, "")


def _emission_checks(diagram: DistributionDiagram, cosines: CosineColumns):
    """Final feasibility: column 2 orthogonal to the trivial column, and m2
    an integer.  The rest of the paper's test follows from what the search
    enforced.  Every vertex i is finished, so the column-c recurrence holds
    at each, every arc has its back arc with k_i*p^i_{h1} = k_h*p^h_{i1},
    and every out-weight is k1.  Summing k_i times the recurrence gives
    (w(1,c) - 1)*sum k*w(.,c) = 0, and the seeds have w(1,1) < 1: column 1
    sums to 0.  The same symmetry gives (w(1,1) - w(1,2))*sum k*w1*w2 = 0,
    and the seeds have w(1,2) != w(1,1).  Summing k times the dual
    recurrence gives 4*sum k*w1^2 = |X| + q111*S1 + (3 - q111)*S2, which is
    |X|, so m1 = 4, once S2 = 0.  And 1 <= sum k*w2^2 <= |X|, as w(0,2) = 1
    and |w2| <= 1 everywhere, so m2 >= 1.  Column 2 can fail, as w(1,2) = 1
    is a legal seed."""
    ks = [QuadNumber(k) for k in diagram.valencies]
    col2 = cosines.column(2)
    if sum((k * w for k, w in zip(ks, col2)), _ZERO):
        return False, "orthogonality"
    m2 = QuadNumber(diagram.size()) / sum((k * w * w for k, w in zip(ks, col2)), _ZERO)
    return (True, "") if m2.is_integer else (False, "multiplicity-m2")


def _kissing_prune(diagram: DistributionDiagram, cosines: CosineColumns) -> bool:
    """With w(1,1) <= 1/2, X is a spherical [-1,1/2]-code in R^4: True when the
    valencies known so far already sum past its bound."""
    if cosines.values[1][0] > _HALF:
        return False
    known_size = sum(k for k in diagram.valencies if k is not None)
    return known_size > KISSING_NUMBER_R4


def generate_diagrams(config: SearchConfig) -> SearchOutcome:
    """Run the recursive generation for one configuration, over every field
    it names.

    Emitted diagrams are matched against the catalogue's hash-checked golden
    files by match_catalogue; unmatched feasible diagrams are kept in the
    result list with matched=None.  The search stops at the first node past
    the budget, so it then counts budget + 1 nodes; the diagrams found
    before that are kept."""
    reasons = ("diagram", "cosines", "solution", "kissing", "emission", "budget")
    stats = {"nodes": 0, "emitted": 0, "pruned": dict.fromkeys(reasons, 0)}
    results = {}
    complete = True

    def steps(diagram, v):
        """(arrangement, fresh vertices, _check_arrangement verdict) at v."""
        for nd, fresh in arrangements(diagram, v, config):
            yield nd, fresh, _check_arrangement(nd, v)[0]

    # every seed shares the seed diagram, so its steps at vertex 1 are built once
    seed = DistributionDiagram.seed(config.k1, config.a1)
    first = list(steps(seed, 1))

    def rec(diagram, cosines):
        stats["nodes"] += 1
        if stats["nodes"] > config.budget:
            stats["pruned"]["budget"] += 1
            raise BudgetExhausted
        v = diagram.done
        if v == diagram.n:
            ok, _reason = _emission_checks(diagram, cosines)
            if not ok:
                stats["pruned"]["emission"] += 1
                return
            res = SearchResult(diagram, cosines)
            key = res.canonical_key()
            if key not in results:
                stats["emitted"] += 1
                results[key] = res
            return
        for nd, fresh, ok in first if v == 1 else steps(diagram, v):
            if not ok:
                stats["pruned"]["diagram"] += 1
                continue
            if _kissing_prune(nd, cosines):
                stats["pruned"]["kissing"] += 1
                continue
            exts = solve_cosines(nd, cosines, v, fresh, config)
            if not exts:
                stats["pruned"]["cosines"] += 1
                continue
            for ext in exts:
                ok, _reason = _check_extension(ext, nd, v, fresh)
                if not ok:
                    stats["pruned"]["solution"] += 1
                    continue
                rec(nd, ext)

    try:
        for cosines in _seeds(config):
            rec(seed, cosines)
    except BudgetExhausted:
        complete = False

    ordered = [results[k] for k in sorted(results)]
    ordered = [res._replace(matched=match_catalogue(res)) for res in ordered]
    return SearchOutcome(config, ordered, stats, complete)


def scheme_diagram(scheme) -> Optional[SearchResult]:
    """The SearchResult the search would emit for a known scheme: arcs
    p_{h1}^j, the layers of schemes.relation_layers, the valencies, and cosine
    columns 1 and 2 in the first Q-polynomial ordering.  None, as the search
    emits none of these, when d < 2, the splitting field is not quadratic, no
    ordering is Q-polynomial, or the graph of R1 is disconnected."""
    if scheme.d < 2:
        return None
    try:
        sp, _orderings = scheme.qpolynomial
    except (SplittingFieldError, NoQPolynomialOrderingError):
        return None
    layers = relation_layers(scheme)
    if None in layers:
        return None
    n, p, ks = scheme.d + 1, scheme.p, list(scheme.valencies)
    arcs = {(j, h): p[h][1][j] for j in range(n) for h in range(n) if p[h][1][j]}
    diagram = DistributionDiagram(ks[1], layers, arcs, ks, n)
    values = [(row[1], row[2]) for row in sp.cosines]
    return SearchResult(diagram, CosineColumns(sp.radicand, sp.krein[1][1][1], values))


def match_known(result: SearchResult, scheme) -> bool:
    """Is the result the scheme's diagram up to a relabelling of relations
    fixing R0 and R1, that is, are their canonical keys equal?"""
    if scheme.d + 1 != result.diagram.n or scheme.valencies[1] != result.diagram.k1:
        return False
    known = scheme_diagram(scheme)
    return known is not None and known.canonical_key() == result.canonical_key()


def match_catalogue(result: SearchResult) -> Optional[str]:
    """The id of the first golden file, in catalogue order, that the result
    matches, or None.  Only the files of the result's order are loaded: a
    match has the same valencies, so the same order."""
    size = result.diagram.size()
    for sid in CATALOGUE:
        if scheme_order(sid) == size and match_known(result, load_bundled(sid)):
            return sid
    return None
