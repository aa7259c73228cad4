"""Small graphs: named constructors, enumeration, extension, graph6, and the
canonical form against the exhaustive reference search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge.graphs import (
    Graph,
    _canonical_form,
    dedupe_isomorphs,
    enumerate_regular_graphs,
    extend_locally,
    from_graph6,
    identify_graph,
    is_isomorphic,
    is_locally,
    named_graph,
    to_graph6,
)


NAMED_ORDERS = {
    "K3,3": (6, 3),
    "K2,2,2,2": (8, 6),
    "octahedron": (6, 4),
    "K3xK3": (9, 4),
    "J(5,2)": (10, 6),
    "crown": (10, 4),
    "Q4": (16, 4),
    "24-cell": (24, 8),
    "icosahedron": (12, 5),
    "K3xK2": (6, 3),
    "C5": (5, 2),
}


class TestNamedGraphs:
    @pytest.mark.parametrize("name,expected", sorted(NAMED_ORDERS.items()))
    def test_orders_and_regularity(self, name, expected):
        g = named_graph(name)
        n, k = expected
        assert g.n == n
        assert g.is_regular()
        assert g.degrees() == [k] * n

    def test_identify_round_trip(self):
        for name in NAMED_ORDERS:
            got = identify_graph(named_graph(name))
            # 16-cell and K2,2,2,2 are the same graph under two names
            assert named_graph(got).n == named_graph(name).n
            assert is_isomorphic(named_graph(got), named_graph(name))

    def test_unknown_name_raises(self):
        with pytest.raises((KeyError, ValueError)):
            named_graph("no-such-graph")


# number of k-regular graphs on n vertices, disconnected ones included,
# indexed [n][k]
REGULAR_COUNTS = {
    1: [1],
    2: [1, 1],
    3: [1, 0, 1],
    4: [1, 1, 1, 1],
    5: [1, 0, 1, 0, 1],
    6: [1, 1, 2, 2, 1, 1],
    7: [1, 0, 2, 0, 2, 0, 1],
    8: [1, 1, 3, 6, 6, 3, 1, 1],
    9: [1, 0, 4, 0, 16, 0, 4, 0, 1],
}
COUNT_TABLE = [
    (n, k, count) for n, row in REGULAR_COUNTS.items() for k, count in enumerate(row)
] + [(10, 3, 21)]  # 19 connected cubic graphs, K4 + K3,3 and K4 + prism


def _unfiltered_regular_graphs(n: int, k: int) -> list[Graph]:
    """The generator without the vertex-invariant rejection: every completion
    with N(0) = {1, ..., k} goes to dedupe_isomorphs.  Test-only reference."""
    if not 0 <= k < max(n, 1):
        if n == 0 and k == 0:
            return [Graph(0)]
        raise ValueError("need 0 <= k < n")
    if n * k % 2 == 1:
        return []
    if k == 0:
        return [Graph(n)]
    if 2 * k > n - 1:
        return [g.complement() for g in _unfiltered_regular_graphs(n, n - 1 - k)]
    found: list[Graph] = []

    def rec(adj: list[int], rem: list[int]):
        v = next((i for i in range(n) if rem[i]), None)
        if v is None:
            found.append(Graph.from_adj(adj))
            return
        cands = [u for u in range(v + 1, n) if rem[u] > 0]
        need = rem[v]
        if len(cands) < need:
            return
        if sum(rem) % 2:
            return
        classes: dict[tuple, list[int]] = {}
        for u in cands:
            key = (adj[u], rem[u])
            classes.setdefault(key, []).append(u)
        class_list = sorted(classes.values(), key=lambda c: c[0])

        def choose(ci: int, left: int, picked: list[int]):
            if left == 0:
                new_adj = adj[:]
                new_rem = rem[:]
                ok = True
                for u in picked:
                    new_adj[v] |= 1 << u
                    new_adj[u] |= 1 << v
                    new_rem[u] -= 1
                new_rem[v] = 0
                positive = [r for r in new_rem if r > 0]
                if positive and max(positive) > len(positive) - 1:
                    ok = False
                if ok:
                    rec(new_adj, new_rem)
                return
            if ci == len(class_list):
                return
            cls = class_list[ci]
            for take in range(min(len(cls), left), -1, -1):
                choose(ci + 1, left - take, picked + cls[:take])

        choose(0, need, [])

    adj0 = [0] * n
    rem0 = [k] * n
    for u in range(1, k + 1):
        adj0[0] |= 1 << u
        adj0[u] |= 1
        rem0[u] -= 1
    rem0[0] = 0
    rec(adj0, rem0)
    return dedupe_isomorphs(found)


class TestEnumeration:
    @pytest.mark.parametrize("n,k,count", COUNT_TABLE)
    def test_counts(self, n, k, count):
        assert len(enumerate_regular_graphs(n, k)) == count

    @pytest.mark.parametrize("n,k", [(n, k) for n, k, _ in COUNT_TABLE])
    def test_same_classes_as_unfiltered_generator(self, n, k):
        got = [g.canonical_form() for g in enumerate_regular_graphs(n, k)]
        assert got == [g.canonical_form() for g in _unfiltered_regular_graphs(n, k)]

    def test_odd_degree_odd_order_empty(self):
        assert enumerate_regular_graphs(7, 3) == []

    def test_handshake(self):
        for g in enumerate_regular_graphs(8, 3):
            assert sum(g.degrees()) == 8 * 3

    def test_pairwise_non_isomorphic(self):
        graphs = enumerate_regular_graphs(8, 4)
        for i, g in enumerate(graphs):
            for h in graphs[i + 1:]:
                assert not is_isomorphic(g, h)


class TestLocalStructure:
    def test_is_locally(self):
        assert is_locally(named_graph("icosahedron"), named_graph("C5"))
        assert is_locally(named_graph("J(5,2)"), named_graph("K3xK2"))
        assert not is_locally(named_graph("Q4"), named_graph("K3"))

    def test_extend_locally_prism(self):
        ext = extend_locally(named_graph("K3xK2"), 15)
        assert ext.complete
        assert [identify_graph(g) for g in ext.graphs] == ["J(5,2)"]

    def test_extend_locally_budget_exhaustion_is_reported(self):
        ext = extend_locally(named_graph("C5"), 24, budget=5)
        assert not ext.complete

    def test_every_result_is_locally_h(self):
        h = named_graph("C4")
        for g in extend_locally(h, 12):
            assert is_locally(g, h)


class TestGraph6:
    @given(st.integers(2, 7), st.data())
    @settings(max_examples=40)
    def test_round_trip(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if data.draw(st.booleans())]
        g = Graph(n, edges)
        assert from_graph6(to_graph6(g)) == g

    def test_known_string(self):
        # C5 in graph6 notation
        assert is_isomorphic(from_graph6("DqK"), named_graph("C5"))


# ---------------------------------------------------------------------------
# canonical form: the pruned search against the exhaustive one


def _reference_refine(g: Graph, colours: list[int]) -> list[int]:
    n = g.n
    while True:
        sigs = [
            (colours[v], tuple(sorted(colours[u] for u in g.neighbours(v))))
            for v in range(n)
        ]
        order = sorted(set(sigs))
        lut = {s: i for i, s in enumerate(order)}
        new = [lut[s] for s in sigs]
        if new == colours:
            return colours
        colours = new


def _reference_canonical_form(g: Graph) -> tuple:
    """(n, minimum code over every leaf of the unpruned
    individualisation-refinement tree)."""
    n = g.n
    best = [None]

    def encode(perm_inv: list[int]) -> int:
        code = 0
        for i in range(n):
            for j in range(i + 1, n):
                code = (code << 1) | (g.adj[perm_inv[i]] >> perm_inv[j] & 1)
        return code

    def rec(colours: list[int]):
        colours = _reference_refine(g, colours)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colours):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm_inv = [v for _, v in sorted((colours[v], v) for v in range(n))]
            code = encode(perm_inv)
            if best[0] is None or code < best[0]:
                best[0] = code
            return
        nxt = max(colours) + 1
        for v in target:
            branch = colours[:]
            branch[v] = nxt
            rec(branch)

    rec([0] * n)
    return (n, best[0])


def _expected_form(g: Graph) -> tuple:
    """The reference form.  Every labelling of an edgeless or complete graph
    gives the same bitstring, so for those (whose unpruned tree has n! leaves)
    it is that bitstring."""
    pairs = g.n * (g.n - 1) // 2
    if g.num_edges() == 0:
        return (g.n, 0)
    if g.num_edges() == pairs:
        return (g.n, (1 << pairs) - 1)
    return _reference_canonical_form(g)


REGULAR_CLASSES = [(0, 0)] + [
    (n, k) for n in range(1, 10) for k in range(n) if n * k % 2 == 0
]
SMALL_NAMED = [
    "K3", "N3", "K4", "N4", "2K2", "C4", "C5", "K3xK2", "octahedron", "K3,3",
    "K5", "K2,2,2,2", "K3xK3", "J(5,2)", "crown", "icosahedron", "cube",
    "petersen", "2K3", "3K2", "C7", "N9", "K9",
]


def _shrikhande() -> Graph:
    """Cayley graph of Z4 x Z4 on the steps +-(0,1), +-(1,0), +-(1,1).  Once a
    vertex is individualised, refinement leaves a cell that is not one orbit
    of that vertex's stabiliser, so pruning must not trust cells alone."""
    steps = [(0, 1), (1, 0), (1, 1)]
    return Graph(
        16,
        {
            tuple(sorted((4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)))
            for a in range(4)
            for b in range(4)
            for da, db in steps
        },
    )


def _k7_plus_shrikhande() -> Graph:
    """K7 on vertices 0..6 beside a Shrikhande graph (6-regular, so the root
    cell holds both).  Under this labelling, pruning with every recorded
    automorphism, not only those fixing the node's individualised vertices,
    skips every leaf of minimum code."""
    k7 = named_graph("K7")
    shr = _shrikhande()
    return Graph(23, k7.edges() + [(u + 7, v + 7) for u, v in shr.edges()])


LARGE_GRAPHS = {
    "Q4": lambda: named_graph("Q4"),
    "24-cell": lambda: named_graph("24-cell"),
    "shrikhande": _shrikhande,
    "K7+shrikhande": _k7_plus_shrikhande,
}


@st.composite
def small_graphs(draw, max_n: int = 9):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, [e for e in pairs if draw(st.booleans())])


class TestCanonicalForm:
    def test_closed_forms_match_reference(self):
        for name in ("N5", "K5", "N6", "K6"):
            g = named_graph(name)
            pairs = g.n * (g.n - 1) // 2
            assert _reference_canonical_form(g) == (
                (g.n, 0) if name[0] == "N" else (g.n, (1 << pairs) - 1)
            )

    @pytest.mark.parametrize("n,k", REGULAR_CLASSES)
    def test_regular_graphs_match_reference(self, n, k):
        for g in enumerate_regular_graphs(n, k):
            assert _canonical_form(g) == _expected_form(g)

    @pytest.mark.parametrize("name", SMALL_NAMED)
    def test_named_graphs_match_reference(self, name):
        g = named_graph(name)
        assert g.n <= 12
        assert _canonical_form(g) == _expected_form(g)

    @given(small_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs_match_reference(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        expected = _expected_form(g)
        assert _canonical_form(g) == expected
        assert _canonical_form(g.relabel(perm)) == expected

    def test_shrikhande_matches_reference(self):
        g = _shrikhande()
        assert _canonical_form(g) == _reference_canonical_form(g)

    @pytest.mark.parametrize("name", ["Q4", "24-cell", "shrikhande", "K7+shrikhande"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_large_graphs_relabel_invariant(self, name, data):
        g = LARGE_GRAPHS[name]()
        perm = data.draw(st.permutations(range(g.n)))
        assert _canonical_form(g.relabel(perm)) == _canonical_form(g)
