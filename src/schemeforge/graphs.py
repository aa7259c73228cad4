"""Simple graphs with distance structure, small regular graph enumeration,
named constructors for the catalogue graphs, and bounded locally-H search.

Adjacency is stored as one int bitmask per vertex; all algorithms here are
exact and deterministic.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Optional, Sequence

# node budget of one bounded search: extend_locally here, and the diagram
# search of diagsearch
DEFAULT_BUDGET = 2_000_000


class BudgetExhausted(Exception):
    """Unwinds a bounded search from its first node past the budget."""


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "_canon")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("loops not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("vertex out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._canon: Optional[tuple] = None

    @classmethod
    def from_adj(cls, adj: Sequence[int]) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = tuple(adj)
        g._canon = None
        return g

    # -- basics ------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj]

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.adj[u] >> v & 1
        ]

    def num_edges(self) -> int:
        return sum(self.degrees()) // 2

    def neighbours(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    def is_regular(self) -> bool:
        degs = self.degrees()
        return not degs or all(d == degs[0] for d in degs)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph.from_adj(
            [full & ~a & ~(1 << v) for v, a in enumerate(self.adj)]
        )

    def induced(self, vertices: Sequence[int]) -> "Graph":
        idx = {v: i for i, v in enumerate(vertices)}
        g = Graph(
            len(vertices),
            [
                (idx[u], idx[v])
                for u in vertices
                for v in vertices
                if u < v and self.has_edge(u, v)
            ],
        )
        return g

    # -- distances ---------------------------------------------------------

    def distances_from(self, src: int) -> list[int]:
        dist = [-1] * self.n
        dist[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in self.neighbours(u):
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist

    def distance_matrix(self) -> list[list[int]]:
        return [self.distances_from(v) for v in range(self.n)]

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return all(d >= 0 for d in self.distances_from(0))

    # -- identity ----------------------------------------------------------

    def canonical_form(self) -> tuple:
        if self._canon is None:
            self._canon = _canonical_form(self)
        return self._canon

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph({self.n}, {self.edges()})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# colour refinement, canonical form, isomorphism


def _refine(nbrs: list[list[int]], colours: list[int]) -> list[int]:
    """1-dimensional Weisfeiler-Leman refinement to a stable colouring.

    nbrs[v] lists the neighbours of v.  Each pass renumbers the vertices by
    the sorted (colour, sorted neighbour colours) signatures, so the result
    does not depend on the vertex labels."""
    while True:
        sigs = [
            (colours[v], tuple(sorted([colours[u] for u in nb])))
            for v, nb in enumerate(nbrs)
        ]
        lut = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [lut[s] for s in sigs]
        if new == colours:
            return colours
        colours = new


def _canonical_form(g: Graph) -> tuple:
    """Canonical adjacency encoding via refinement plus backtracking.

    Returns (n, c): c is the minimum, over all leaves of the
    individualisation-refinement tree, of the upper-triangle adjacency
    bitstring in the leaf's vertex order.  A node refines its colouring and
    individualises, in turn, each vertex of its first non-singleton cell.

    Automorphism pruning (McKay 1981) skips subtrees without changing c: two
    leaves with the same code differ by an automorphism, and a child in the
    orbit of an explored sibling under the recorded automorphisms that fix the
    node's individualised vertices has the same leaf codes as that sibling,
    because refinement, target cell and new colour are label-invariant."""
    n = g.n
    adj = g.adj
    nbrs = [_bits(a) for a in adj]
    first_leaf: dict[int, list[int]] = {}  # code -> order of its first leaf
    automorphisms: list[list[int]] = []
    best: Optional[int] = None

    def rec(colours: list[int], path: list[int]):
        nonlocal best
        colours = _refine(nbrs, colours)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colours):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            # order[i] = original vertex placed at position i
            order = [0] * n
            for v, c in enumerate(colours):
                order[c] = v
            code = 0
            for i in range(n):
                row = adj[order[i]]
                for j in range(i + 1, n):
                    code = (code << 1) | (row >> order[j] & 1)
            seen = first_leaf.setdefault(code, order)
            if seen is not order:
                gamma = [0] * n
                for a, b in zip(seen, order):
                    gamma[a] = b
                automorphisms.append(gamma)
            if best is None or code < best:
                best = code
            return
        nxt = len(cells)  # refined colours are 0..len(cells) - 1
        explored: list[int] = []
        for v in target:
            if explored and v in _orbit(
                explored, [a for a in automorphisms if all(a[u] == u for u in path)]
            ):
                continue
            explored.append(v)
            branch = colours[:]
            branch[v] = nxt
            rec(branch, path + [v])

    rec([0] * n, [])
    return (n, best)


def _orbit(seeds: list[int], generators: list[list[int]]) -> set[int]:
    """Union of the orbits of seeds under the group the generators generate."""
    orbit = set(seeds)
    stack = list(seeds)
    while stack:
        x = stack.pop()
        for gamma in generators:
            y = gamma[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    if g.num_edges() != h.num_edges():
        return False
    return g.canonical_form() == h.canonical_form()


def dedupe_isomorphs(graphs: Iterable[Graph]) -> list[Graph]:
    """The first graph of each isomorphism class, in canonical-form order; a
    single graph needs no canonical form."""
    graphs = list(graphs)
    if len(graphs) <= 1:
        return graphs
    seen = {}
    for g in graphs:
        key = g.canonical_form()
        if key not in seen:
            seen[key] = g
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# enumeration of regular graphs (isomorphism class representatives)


def _vertex_invariant(adj: Sequence[int], v: int) -> tuple:
    """(edges inside N(v), sorted |N(u) & N(v)| over u != v): unchanged by
    any relabelling that maps v to v."""
    common = sorted((a & adj[v]).bit_count() for u, a in enumerate(adj) if u != v)
    inside = sum((adj[u] & adj[v]).bit_count() for u in _bits(adj[v])) // 2
    return (inside, common)


def _class_prefix_choices(cands: list[int], key, need: int) -> list:
    """(picked, left) for each way to pick at most need of the candidates,
    taking a prefix of each class of interchangeable ones (equal key):
    classes in the order of their first candidate, the longest prefix first;
    left = need - len(picked).  A choice stops once need are picked."""
    classes: dict = {}
    for u in cands:
        classes.setdefault(key(u), []).append(u)
    class_list = list(classes.values())
    choices = []

    def choose(ci: int, left: int, picked: list[int]):
        if left == 0 or ci == len(class_list):
            choices.append((picked, left))
            return
        cls = class_list[ci]
        for take in range(min(len(cls), left), -1, -1):
            choose(ci + 1, left - take, picked + cls[:take])

    choose(0, need, [])
    return choices


def enumerate_regular_graphs(n: int, k: int) -> list[Graph]:
    """One representative per isomorphism class of k-regular graphs on n
    vertices (disconnected ones included), in canonical-form order.
    Intended for n <= 9.

    For 2k <= n - 1 the representatives are ``dedupe_isomorphs`` of
    ``regular_labellings(n, k)``; a larger valency takes the complements of
    the representatives of valency n - 1 - k."""
    if not 0 <= k < max(n, 1):
        raise ValueError("need 0 <= k < n")
    if k == 0:
        return [Graph(n)]
    if 2 * k > n - 1:
        return [g.complement() for g in enumerate_regular_graphs(n, n - 1 - k)]
    return dedupe_isomorphs(regular_labellings(n, k))


def regular_labellings(n: int, k: int) -> list[Graph]:
    """Labelled k-regular graphs on n vertices, 0 <= 2k <= n - 1, at least one
    of each isomorphism class and possibly several.

    The search fixes N(0) = {1, ..., k} and keeps only completions in which
    vertex 0 attains the maximum of ``_vertex_invariant`` over all vertices,
    and vertex 1 its maximum over N(0) (ties are kept): the vertex-invariant
    rejection of McKay, "Isomorph-free exhaustive generation" (J. Algorithms,
    1998).  No class is lost:
    - every class has a labelling with a max-invariant vertex at 0, a
      max-invariant vertex of N(0) at 1, and N(0) = {1, ..., k}, and the
      unpruned search reaches it;
    - the search skips a choice only for an interchangeable one, and swapping
      interchangeable candidates is an automorphism of the partial graph.  It
      happens at a row v >= 1, among candidates u > v with equal columns, so
      it fixes vertices 0 and 1 and maps N(0) to itself.  So it maps each
      completion of the skipped branch to one of the kept branch in which
      vertex 0 has the same invariant and the invariants over N(0) are the
      same, vertex 1's included.

    A row never lacks partners.  sum(rem) stays even, as n·k is and each
    row takes 2·rem[v] from it.  Each positive remainder stays below the
    number of positive ones, which all belong to later vertices but v's
    own: 2k <= n - 1 and an even n·k give this at the start, and the
    feasibility test keeps it after each row."""
    if not 0 <= 2 * k <= n - 1:
        raise ValueError("need 0 <= 2k <= n - 1")
    if n * k % 2 == 1:
        return []
    if k == 0:
        return [Graph(n)]
    found: list[Graph] = []

    def rec(adj: list[int], rem: list[int]):
        v = next((i for i in range(n) if rem[i]), None)
        if v is None:
            inv = [_vertex_invariant(adj, u) for u in range(n)]
            if all(inv[u] <= inv[0] for u in range(1, n)) and all(
                inv[u] <= inv[1] for u in range(2, k + 1)
            ):
                found.append(Graph.from_adj(adj))
            return
        cands = [u for u in range(v + 1, n) if rem[u] > 0]
        need = rem[v]
        # candidates with identical partial adjacency columns are
        # interchangeable
        for picked, left in _class_prefix_choices(cands, lambda u: (adj[u], rem[u]), need):
            if left:
                continue
            new_adj = adj[:]
            new_rem = rem[:]
            for u in picked:
                new_adj[v] |= 1 << u
                new_adj[u] |= 1 << v
                new_rem[u] -= 1
            new_rem[v] = 0
            # feasibility: remaining degrees must admit a partner count
            positive = [r for r in new_rem if r > 0]
            if not positive or max(positive) <= len(positive) - 1:
                rec(new_adj, new_rem)

    adj0 = [0] * n
    rem0 = [k] * n
    # symmetry breaking: vertex 0's neighbourhood is {1, ..., k}
    for u in range(1, k + 1):
        adj0[0] |= 1 << u
        adj0[u] |= 1
        rem0[u] -= 1
    rem0[0] = 0
    rec(adj0, rem0)
    return found


# ---------------------------------------------------------------------------
# named graphs


def _complete(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def _empty(n: int) -> Graph:
    return Graph(n)


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete_multipartite(sizes: Sequence[int]) -> Graph:
    n = sum(sizes)
    part = []
    for i, s in enumerate(sizes):
        part.extend([i] * s)
    return Graph(n, [(u, w) for u in range(n) for w in range(u + 1, n) if part[u] != part[w]])


def cartesian_product(g: Graph, h: Graph) -> Graph:
    n = g.n * h.n
    edges = []
    for a in range(g.n):
        for b in range(h.n):
            u = a * h.n + b
            for b2 in h.neighbours(b):
                if b2 > b:
                    edges.append((u, a * h.n + b2))
            for a2 in g.neighbours(a):
                if a2 > a:
                    edges.append((u, a2 * h.n + b))
    return Graph(n, edges)


def _johnson(v: int, k: int) -> Graph:
    sets = [frozenset(c) for c in itertools.combinations(range(v), k)]
    return Graph(
        len(sets),
        [
            (i, j)
            for i in range(len(sets))
            for j in range(i + 1, len(sets))
            if len(sets[i] & sets[j]) == k - 1
        ],
    )


def _hypercube(d: int) -> Graph:
    return Graph(
        1 << d,
        [
            (u, u ^ (1 << b))
            for u in range(1 << d)
            for b in range(d)
            if u < u ^ (1 << b)
        ],
    )


def _icosahedron() -> Graph:
    # standard construction: two pentagonal rings plus poles
    edges = []
    top, bottom = 10, 11
    for i in range(5):
        a, b = i, (i + 1) % 5          # upper ring
        c, d = 5 + i, 5 + (i + 1) % 5  # lower ring
        edges += [(a, b), (c, d), (top, a), (bottom, c), (a, 5 + i), (a, 5 + (i - 1) % 5)]
    return Graph(12, edges)


def cell24_vertices() -> list[tuple[int, ...]]:
    """The 24 vertices of the 24-cell: all permutations of (+-1, +-1, 0, 0)."""
    verts = []
    for i, j in itertools.combinations(range(4), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [0, 0, 0, 0]
                v[i], v[j] = si, sj
                verts.append(tuple(v))
    return verts


def _cell24() -> Graph:
    # adjacent iff the inner product equals 1
    verts = cell24_vertices()
    edges = [
        (a, b)
        for a in range(24)
        for b in range(a + 1, 24)
        if sum(x * y for x, y in zip(verts[a], verts[b])) == 1
    ]
    return Graph(24, edges)


def _crown() -> Graph:
    # complement of K2 x K5 = K_{5,5} minus a perfect matching
    return cartesian_product(_complete(2), _complete(5)).complement()


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def named_graph(name: str) -> Graph:
    """Constructor for the graphs of the catalogue (plus a few helpers), one
    name per graph; case, spaces and underscores are ignored."""
    key = name.strip().lower().replace(" ", "").replace("_", "")
    fixed = {
        "k3,3": lambda: _complete_multipartite([3, 3]),
        "k2,2,2,2": lambda: _complete_multipartite([2, 2, 2, 2]),
        "octahedron": lambda: _complete_multipartite([2, 2, 2]),
        "k3xk3": lambda: cartesian_product(_complete(3), _complete(3)),
        "k3xk2": lambda: cartesian_product(_complete(3), _complete(2)),
        "j(5,2)": lambda: _johnson(5, 2),
        "crown": lambda: _crown(),
        "q4": lambda: _hypercube(4),
        "cube": lambda: _hypercube(3),
        "24-cell": lambda: _cell24(),
        "icosahedron": lambda: _icosahedron(),
        "petersen": lambda: _petersen(),
        "2k2": lambda: Graph(4, [(0, 1), (2, 3)]),
        "2k3": lambda: Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        "3k2": lambda: Graph(6, [(0, 1), (2, 3), (4, 5)]),
    }
    if key in fixed:
        return fixed[key]()
    if key.startswith("k") and key[1:].isdigit():
        return _complete(int(key[1:]))
    if key.startswith("n") and key[1:].isdigit():
        return _empty(int(key[1:]))
    if key.startswith("c") and key[1:].isdigit():
        return _cycle(int(key[1:]))
    raise KeyError(f"unknown graph name: {name!r}")


@functools.cache
def _identifiable_graphs() -> tuple:
    """(name, graph) for every graph identify_graph knows, built once per
    process so that each one's canonical form is computed once."""
    names = [
        "K3", "N3", "K4", "N4", "2K2", "C4", "C5", "K3xK2", "octahedron",
        "K3,3", "K5", "K2,2,2,2", "K3xK3", "J(5,2)", "crown", "Q4",
        "24-cell", "icosahedron", "cube",
    ]
    return tuple((name, named_graph(name)) for name in names)


def identify_graph(g: Graph) -> Optional[str]:
    """Name of g among the catalogue graphs, or None."""
    for name, h in _identifiable_graphs():
        if h.n == g.n and is_isomorphic(g, h):
            return name
    return None


# ---------------------------------------------------------------------------
# local structure


def is_locally(g: Graph, h: Graph) -> bool:
    """True iff every vertex neighbourhood of g induces a graph isomorphic to
    h: the reference check for extend_locally's incremental one."""
    if g.n == 0:
        raise ValueError("empty graph has no local structure")
    for v in range(g.n):
        nb = g.neighbours(v)
        if len(nb) != h.n or not is_isomorphic(g.induced(nb), h):
            return False
    return True


class ExtensionResult(NamedTuple):
    """Outcome of a bounded locally-H search."""

    graphs: list[Graph]
    complete: bool
    nodes: int


def extend_locally(h: Graph, n_max: int, budget: int = DEFAULT_BUDGET) -> ExtensionResult:
    """All connected graphs on <= n_max vertices that are locally h, up to
    isomorphism.

    Seeds a base vertex 0 whose neighbourhood is the literal graph h, then
    saturates vertices 1, 2, ... in turn to degree k = |h|.  A pair is
    decided once its smaller end is saturated, so the step at v re-checks
    only the neighbourhoods that gain a decided pair: v's own and those of
    its earlier neighbours.  A finished graph needs no check.  It is
    connected, as every vertex enters as a neighbour of a saturated one.
    It is locally h: only vertices below degree k are candidates, and each
    neighbourhood of k vertices embeds into h at the step that decides its
    last pair, which makes the embedding an isomorphism.  The search stops
    at the first node past the budget and keeps the graphs found before."""
    if n_max < 1 + h.n:
        raise ValueError("n_max must allow at least the closed neighbourhood")
    k = h.n
    hdegs = h.degrees()
    lam = hdegs[0] if h.is_regular() and h.n else None
    results: list[Graph] = []
    nodes = 0

    # adjacency grows as a list of bitmasks; vertex 0 saturated with h copy
    adj0 = [0] * (1 + k)
    for u in range(1, k + 1):
        adj0[0] |= 1 << u
        adj0[u] |= 1
    for u, v in h.edges():
        adj0[1 + u] |= 1 << (1 + v)
        adj0[1 + v] |= 1 << (1 + u)

    def rec(adj: list[int], v: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted
        n = len(adj)
        if v == n:
            results.append(Graph.from_adj(adj))
            return
        need = k - adj[v].bit_count()
        # candidates: later unsaturated vertices, plus new vertices
        cands = [u for u in range(v + 1, n) if adj[u].bit_count() < k]
        max_new = n_max - n
        # candidates with the same adjacency so far are interchangeable
        for picked, fresh in _class_prefix_choices(cands, adj.__getitem__, need):
            if fresh > max_new:
                continue
            new_adj = adj[:]
            ok = True
            for u in picked:
                new_adj[v] |= 1 << u
                new_adj[u] |= 1 << v
            for _ in range(fresh):
                w = len(new_adj)
                new_adj[v] |= 1 << w
                new_adj.append(1 << v)
            # v is now saturated; for an edge whose endpoints are both at full
            # degree the common-neighbour count is final and must equal the
            # valency of h (h regular); otherwise it can only grow
            if lam is not None:
                for u in _bits(new_adj[v]):
                    common = (new_adj[v] & new_adj[u]).bit_count()
                    if common > lam:
                        ok = False
                        break
                    if new_adj[u].bit_count() == k and common != lam:
                        ok = False
                        break
            if ok and all(
                _embeds_induced(_bits(new_adj[u]), new_adj, h, v)
                for u in [v, *_bits(new_adj[v] & ((1 << v) - 1))]
            ):
                rec(new_adj, v + 1)

    complete = True
    try:
        rec(adj0, 1)
    except BudgetExhausted:
        complete = False
    return ExtensionResult(dedupe_isomorphs(results), complete, nodes)


def _embeds_induced(nb: list[int], adj: list[int], h: Graph, saturated_upto: int) -> bool:
    """Can the decided part of the neighbourhood nb embed into h?

    A pair (a, b) in nb is decided iff min(a, b) <= saturated_upto (edges of
    processed vertices are final).  Undecided pairs impose no constraint, so
    we require a mapping into h respecting decided edges and decided
    non-edges only."""
    m = len(nb)
    if m > h.n:
        return False
    used = 0
    assign = [-1] * m

    def bt(i: int) -> bool:
        nonlocal used
        if i == m:
            return True
        a = nb[i]
        for t in range(h.n):
            if used >> t & 1:
                continue
            ok = True
            for j in range(i):
                b = nb[j]
                if min(a, b) <= saturated_upto or (adj[a] >> b & 1):
                    # decided pair, or an actual edge (edges are always known)
                    want = bool(adj[a] >> b & 1)
                    if bool(h.adj[t] >> assign[j] & 1) != want:
                        ok = False
                        break
            if ok:
                assign[i] = t
                used |= 1 << t
                if bt(i + 1):
                    used &= ~(1 << t)
                    assign[i] = -1
                    return True
                used &= ~(1 << t)
                assign[i] = -1
        return False

    return bt(0)


# ---------------------------------------------------------------------------
# graph6 encoder (bit-exact: 6-bit packed upper triangle, offset 63)


def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise ValueError("only short-form graph6 (n <= 62) is supported")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(g.adj[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + g.n)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return "".join(chars)
