"""Feasible nearest-neighbourhood graphs on the sphere with rank <= 3."""

import json
import time
from fractions import Fraction

import pytest
import sympy as sp

from schemeforge import cli
from schemeforge.exactnum import QuadNumber, is_psd, rank
from schemeforge.graphs import Graph, named_graph
from schemeforge.localclass import (
    LOCAL_CASES,
    classify_local,
    _adjacency_eigenvalues,
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
    return classify_local(9)


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
        monkeypatch.setattr(cli, "classify_local", lambda _k_max: result)
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

    def test_k_max_beyond_two_distance_bound_rejected(self):
        with pytest.raises(ValueError):
            classify_local(delsarte_bound(3, 2) + 1)


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
        assert _adjacency_eigenvalues(named_graph("C5")) == [
            ((r5 - 1) / 2, 2), ((-r5 - 1) / 2, 2),
        ]

    def test_valency_counted_once_less(self):
        # 2K2 has eigenvalue 1 twice; the all-ones vector takes one of them
        one, minus_one = QuadNumber(1), QuadNumber(-1)
        assert _adjacency_eigenvalues(named_graph("2K2")) == [(one, 1), (minus_one, 2)]


def test_runtime_under_a_minute():
    start = time.monotonic()
    classify_local(9)
    assert time.monotonic() - start < 60
