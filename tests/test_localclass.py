"""Feasible nearest-neighbourhood graphs on the sphere with rank <= 3."""

import json
import time
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge import cli, graphs, localclass
from schemeforge.graphs import (
    Graph,
    enumerate_regular_graphs,
    named_graph,
    regular_labellings,
    to_graph6,
)
from schemeforge.exactnum import QuadNumber, is_psd, rank
from schemeforge.localclass import (
    LOCAL_CASES,
    classify_local,
    _adjacency_char_poly,
    _adjacency_eigenvalues,
    _repeated_part_degree,
    _solve_problem,
    delsarte_bound,
    gram_matrix,
)

EXPECTED_GRAPHS = {
    "N3", "K3", "N4", "K4", "2K2", "C4", "C5", "K3xK2", "octahedron",
}
EXPECTED_LABELS = {
    "triangle", "tetrahedron", "2-antiprism", "pentagon", "3-prism",
    "octahedron",
}


def sym_gram(g: Graph, b1, b2) -> sp.Matrix:
    return sp.Matrix(
        g.n,
        g.n,
        lambda i, j: sp.Integer(1)
        if i == j
        else (b1 if g.adj[i] >> j & 1 else b2),
    )


def rank_constraints(g: Graph, b1=None, b2=None) -> list:
    """Characteristic-polynomial coefficient equations forcing rank <= 3.

    A Gram matrix of points in R^3 has 0 as an eigenvalue of multiplicity at
    least n - 3, i.e. the coefficients of t^0 .. t^(n-4) all vanish.  Empty
    system for n <= 3.  A sympy oracle, independent of the exact solver."""
    if g.n < 2:
        raise ValueError("need at least 2 points")
    if b1 is None:
        b1 = sp.Symbol("b1")
    if b2 is None:
        b2 = sp.Symbol("b2")
    n = g.n
    if n <= 3:
        return []
    t = sp.Symbol("t")
    chi = sym_gram(g, b1, b2).charpoly(t)
    coeffs = chi.all_coeffs()  # descending: t^n .. t^0
    return [sp.expand(coeffs[n - i]) for i in range(0, n - 3)]


@pytest.fixture(scope="module")
def result():
    return classify_local()


class TestDelsarteBound:
    def test_two_distance_sets_in_r3(self):
        assert delsarte_bound(3, 2) == 9

    @pytest.mark.parametrize("d,s,value", [(4, 2, 14), (3, 1, 4), (2, 2, 5)])
    def test_other_values(self, d, s, value):
        assert delsarte_bound(d, s) == value


class TestClassifyLocal:
    def test_exact_graph_list(self, result):
        assert {s.name for s in result} == EXPECTED_GRAPHS
        assert len(result) == 9

    def test_exact_label_list(self, result):
        assert {s.geometric_label for s in result} == EXPECTED_LABELS

    def test_nothing_unresolved(self, result, monkeypatch, capsys):
        # every adjacency spectrum is real, so the payload lists no graph
        monkeypatch.setattr(cli, "classify_local", lambda: result)
        assert cli.main(["classify-local"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["graph_count"] == 9
        assert payload["unresolved"] == []

    def test_every_witness_is_psd_rank_le_3(self, result):
        for sol in result:
            assert sol.solutions, f"{sol.name} has no witness"
            for b1, b2 in sol.solutions:
                g = gram_matrix(sol.graph, b1, b2)
                assert is_psd(g), f"{sol.name} witness ({b1}, {b2}) not PSD"
                assert rank(g) <= 3, f"{sol.name} witness ({b1}, {b2}) rank > 3"

    def test_pentagon_witness_is_golden(self, result):
        (sol,) = [s for s in result if s.name == "C5"]
        b1, b2 = sol.solutions[0]
        assert b1 == QuadNumber(Fraction(-1, 4), Fraction(1, 4), 5)
        assert b2 == QuadNumber(Fraction(-1, 4), Fraction(-1, 4), 5)

    def test_labels_cover_all_names(self, result):
        for sol in result:
            assert LOCAL_CASES[sol.name].label == sol.geometric_label

    def test_families_flagged(self, result):
        # one-parameter witness families exist exactly where one cosine is
        # free (or a whole eigenvalue block vanishes along a line)
        families = {s.name for s in result if s.family}
        assert families == {"N3", "K3", "2K2", "C4", "C5"}


class TestRankConstraints:
    def test_empty_system_for_small_n(self):
        assert rank_constraints(named_graph("K3")) == []

    def test_witnesses_satisfy_the_polynomial_system(self, result):
        b1s, b2s = sp.Symbol("b1"), sp.Symbol("b2")
        for sol in result:
            eqs = rank_constraints(sol.graph, b1s, b2s)
            for b1, b2 in sol.solutions:
                if b1 is None or b2 is None:
                    continue
                if not (b1.is_rational and b2.is_rational):
                    continue
                subs = {b1s: sp.Rational(b1.as_fraction()), b2s: sp.Rational(b2.as_fraction())}
                for eq in eqs:
                    assert sp.simplify(eq.subs(subs)) == 0

    def test_system_size(self):
        g = named_graph("octahedron")
        assert len(rank_constraints(g)) == g.n - 3


class TestAdjacencyEigenvalues:
    def test_pentagon(self):
        r5 = QuadNumber(0, 1, 5)
        assert _adjacency_eigenvalues(_adjacency_char_poly(named_graph("C5")), 2) == [
            ((r5 - 1) / 2, 2), ((-r5 - 1) / 2, 2),
        ]

    def test_valency_counted_once_less(self):
        # 2K2 has eigenvalue 1 twice; the all-ones vector takes one of them
        one, minus_one = QuadNumber(1), QuadNumber(-1)
        p = _adjacency_char_poly(named_graph("2K2"))
        assert _adjacency_eigenvalues(p, 1) == [(one, 1), (minus_one, 2)]


def _screen_off(monkeypatch):
    """Switch the solver's spectral screen off: every polynomial then has a
    repeated part."""
    monkeypatch.setattr(localclass, "_repeated_part_degree", lambda coeffs, m: len(coeffs) - 1)


def _reference_classify_local(monkeypatch) -> list:
    """classify_local without the screen: _solve_problem on every class of
    enumerate_regular_graphs.  Test-only reference."""
    out = []
    with monkeypatch.context() as m:
        _screen_off(m)
        for n in range(3, delsarte_bound(3, 2) + 1):
            for k in range(n):
                for g in enumerate_regular_graphs(n, k):
                    sol = _solve_problem(g)
                    if sol is not None:
                        out.append(sol)
    return out


def _as_strings(sol) -> tuple:
    return (
        sol.name,
        to_graph6(sol.graph),
        sol.geometric_label,
        sol.family,
        [tuple(str(x) for x in pair) for pair in sol.solutions],
    )


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _product(factors) -> list:
    """Ascending coefficients of the product of (factor, multiplicity)."""
    out = [1]
    for f, m in factors:
        for _ in range(m):
            out = _poly_mul(out, f)
    return out


class TestSpectralScreen:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_never_drops_a_graph_with_a_solution(self, n, monkeypatch):
        # every labelled graph of the search, on both valency branches: the
        # screened solver gives what the solver without its screen gives
        labelled = [h for k in range((n + 1) // 2) for g in regular_labellings(n, k)
                   for h in (g, g.complement())]

        def solve_all():
            return [None if sol is None else _as_strings(sol)
                    for sol in map(_solve_problem, labelled)]

        screened = solve_all()
        _screen_off(monkeypatch)
        assert solve_all() == screened

    def test_the_prism_passes_the_screen(self):
        # K3xK2's isolated point comes from eigenvalue 0 of multiplicity
        # need - 1 = 2, one short of a whole family
        g = named_graph("K3xK2")
        assert _adjacency_char_poly(g) == _product([([0, 1], 2), ([-3, 1], 1), ([-1, 1], 1),
                                                    ([2, 1], 2)])
        assert _repeated_part_degree(_adjacency_char_poly(g), g.n - 4) > 0
        assert _solve_problem(g) is not None

    def test_classify_local_matches_the_unscreened_loop(self, monkeypatch):
        reference = _reference_classify_local(monkeypatch)
        assert [_as_strings(sol) for sol in classify_local()] == list(map(_as_strings, reference))

    def test_at_most_thirty_canonical_forms(self, monkeypatch):
        # the loop over enumerate_regular_graphs computes 144, most for
        # graphs on 7 to 9 vertices that the solver drops; deduplicating
        # only the solved graphs leaves 18, with the names identify_graph
        # knows.  Each two-class graph's characteristic polynomial is
        # computed once, for the screen and the split together.
        graphs._identifiable_graphs.cache_clear()
        forms, polys = [], []
        canonical_form, char_poly = graphs._canonical_form, localclass.integer_char_poly
        monkeypatch.setattr(graphs, "_canonical_form", lambda g: forms.append(g) or canonical_form(g))
        monkeypatch.setattr(localclass, "integer_char_poly",
                            lambda rows: polys.append(rows) or char_poly(rows))
        assert len(classify_local()) == 9
        assert len(forms) <= 20
        assert len(polys) <= 81

    def test_the_screen_comes_before_the_split(self, monkeypatch):
        # without the screen every two-class graph's polynomial is split
        splits, split = [], localclass.split_integer_polynomial
        monkeypatch.setattr(localclass, "split_integer_polynomial",
                            lambda coeffs: splits.append(coeffs) or split(coeffs))
        assert len(classify_local()) == 9
        assert len(splits) <= 23


class TestRepeatedPartDegree:
    @pytest.mark.parametrize("factors", [
        [([-2, 1], 2), ([1, 1], 1)],
        [([-1, -1, 1], 2), ([0, 1], 1)],
    ])
    def test_keeps_a_double_factor(self, factors):
        assert _repeated_part_degree(_product(factors), 2) > 0

    def test_drops_a_square_free_product(self):
        p = _product([([-2, 1], 1), ([1, 1], 1), ([-1, -1, 1], 1), ([0, 1], 1)])
        assert _repeated_part_degree(p, 2) == 0

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(-5, 5), min_size=1, max_size=2).map(lambda c: c + [1]),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_below_the_gcd_over_q(self, factors, m):
        p = _product(factors)
        t = sp.Symbol("t")
        poly = sp.Poly(list(reversed(p)), t, domain=sp.QQ)
        exact = sp.gcd(poly, poly.diff((t, m - 1)) if m > 1 else poly).degree()
        assert _repeated_part_degree(p, m) >= exact


def test_runtime_under_a_minute():
    start = time.monotonic()
    classify_local()
    assert time.monotonic() - start < 60
