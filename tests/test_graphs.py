"""Small graphs: named constructors, enumeration, extension, graph6, and the
canonical form against the exhaustive reference search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge.graphs import (
    Graph,
    _canonical_form,
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


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,k,count",
        [
            (4, 3, 1),  # K4
            (5, 2, 1),  # C5
            (6, 2, 2),  # C6, 2K3
            (6, 3, 2),  # K3,3, prism
            (7, 2, 2),  # C7, C3+C4
            (8, 3, 6),  # five connected cubic graphs plus 2K4
            (9, 2, 4),  # C9, C3+C6, C4+C5, 3C3
        ],
    )
    def test_counts(self, n, k, count):
        assert len(enumerate_regular_graphs(n, k)) == count

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
