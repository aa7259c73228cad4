"""Relation-distribution diagram generation and its pruning rules."""

import pytest

from schemeforge import schemes
from schemeforge.catalogue import catalogue_scheme
from schemeforge.diagsearch import (
    KISSING_NUMBER_R4,
    SearchConfig,
    candidate_radicands,
    generate_diagrams,
    match_known,
)
from schemeforge.exactnum import QuadNumber
from schemeforge.schemes import NoQPolynomialOrderingError, SplittingFieldError


@pytest.fixture(scope="module")
def run_3_0():
    return generate_diagrams(SearchConfig(k1=3, a1=0))


@pytest.fixture(scope="module")
def run_4_1():
    return generate_diagrams(SearchConfig(k1=4, a1=1))


@pytest.fixture(scope="module")
def run_4_0():
    return generate_diagrams(SearchConfig(k1=4, a1=0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(k1=2, a1=0)
        with pytest.raises(ValueError):
            SearchConfig(k1=4, a1=4)

    def test_light_tail_is_forced(self):
        assert SearchConfig(k1=4, a1=0).light_tail
        assert not SearchConfig(k1=4, a1=1).light_tail
        assert not SearchConfig(k1=3, a1=0).light_tail  # k1 != m1

    def test_m1_is_not_a_parameter(self):
        # the search is written for m1 = 4 only
        with pytest.raises(TypeError):
            SearchConfig(k1=4, a1=0, m1=5)

    def test_depth_limit_depends_on_field(self):
        assert SearchConfig(k1=4, a1=0).depth_limit == 9
        assert SearchConfig(k1=4, a1=0, radicand=5).depth_limit == 17
        assert SearchConfig(k1=4, a1=0, max_depth=3).depth_limit == 3


class TestCandidateRadicands:
    def test_k3(self):
        rads = candidate_radicands(3)
        assert 5 in rads and 2 in rads
        assert all(r >= 2 for r in rads)

    def test_k4_superset_of_k3(self):
        assert set(candidate_radicands(3)) <= set(candidate_radicands(4))


class TestKnownConfigs:
    def test_3_0_matches_exactly_k33(self, run_3_0):
        assert run_3_0.complete
        assert [r.matched for r in run_3_0.results] == ["AS06[3]"]

    def test_3_0_diagram_data(self, run_3_0):
        (res,) = run_3_0.results
        assert res.diagram.size() == 6
        assert sorted(res.diagram.valencies) == [1, 2, 3]
        assert res.cosines.q111 == QuadNumber(2)
        w1 = res.cosines.column(1)
        assert sorted(map(str, w1)) == ["-1/2", "0", "1"]

    def test_4_1_matches_exactly_k3xk3(self, run_4_1):
        assert run_4_1.complete
        assert [r.matched for r in run_4_1.results] == ["AS09[3]"]

    def test_4_0_matches_exactly_crown_and_q4(self, run_4_0):
        assert run_4_0.complete
        assert sorted(r.matched for r in run_4_0.results) == [
            "AS10[6]",
            "AS16[30]",
        ]

    def test_4_0_is_light_tail_with_q111_zero(self, run_4_0):
        for res in run_4_0.results:
            assert res.cosines.q111 == QuadNumber(0)

    def test_no_unmatched_feasible_diagram(self, run_3_0, run_4_1, run_4_0):
        for outcome in (run_3_0, run_4_1, run_4_0):
            assert all(r.matched is not None for r in outcome.results)

    def test_kissing_prune_fires_in_4_0(self, run_4_0):
        assert KISSING_NUMBER_R4 == 24
        assert run_4_0.stats["pruned"]["kissing"] > 0

    def test_quadratic_fields_add_nothing(self):
        for p in (2, 5):
            outcome = generate_diagrams(SearchConfig(k1=4, a1=1, radicand=p))
            assert outcome.complete
            assert [r.matched for r in outcome.results] == ["AS09[3]"]


class TestEmittedInvariants:
    def test_handshake(self, run_4_0, run_4_1):
        for outcome in (run_4_0, run_4_1):
            for res in outcome.results:
                d = res.diagram
                for (j, h), w in d.arcs.items():
                    assert d.valencies[j] * w == d.valencies[h] * d.weight(h, j)

    def test_out_weights_total_k1(self, run_4_0):
        for res in run_4_0.results:
            d = res.diagram
            for v in range(d.n):
                assert d.out_weight(v) == d.k1

    def test_primal_recurrence_residual_zero(self, run_4_0, run_3_0):
        # k1 w_{1,c} w_{v,c} = sum_h p_{h1}^v w_{h,c} on every emitted result
        for outcome in (run_4_0, run_3_0):
            for res in outcome.results:
                d, cos = res.diagram, res.cosines
                k1 = QuadNumber(d.k1)
                for c in (1, 2):
                    col = cos.column(c)
                    for v in range(d.n):
                        lhs = k1 * col[1] * col[v]
                        rhs = sum(
                            (QuadNumber(d.weight(v, h)) * col[h] for h in range(d.n)),
                            QuadNumber(0),
                        )
                        assert lhs == rhs

    def test_orthogonality_and_size(self, run_4_0):
        for res in run_4_0.results:
            d, cos = res.diagram, res.cosines
            ks = [QuadNumber(k) for k in d.valencies]
            w1, w2 = cos.column(1), cos.column(2)
            zero = QuadNumber(0)
            assert sum((k * w for k, w in zip(ks, w1)), zero) == zero
            assert sum((k * w for k, w in zip(ks, w2)), zero) == zero
            total = sum((k * w * w for k, w in zip(ks, w1)), zero)
            assert QuadNumber(4) * total == QuadNumber(d.size())


class TestBudget:
    def test_exhaustion_is_reported(self):
        outcome = generate_diagrams(SearchConfig(k1=4, a1=0, budget=3))
        assert not outcome.complete
        assert outcome.stats["pruned"]["budget"] > 0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SCHEMEFORGE_BUDGET", "2")
        assert SearchConfig(k1=4, a1=0).node_budget == 2
        monkeypatch.setenv("SCHEMEFORGE_BUDGET", "junk")
        with pytest.warns(RuntimeWarning, match="'junk'"):
            assert SearchConfig(k1=4, a1=0).node_budget == 2_000_000


class TestMatchKnown:
    def test_positive_and_negative(self, run_3_0):
        (res,) = run_3_0.results
        assert match_known(res, catalogue_scheme("AS06[3]"))
        assert not match_known(res, catalogue_scheme("AS09[3]"))

    @pytest.mark.parametrize(
        "error", [SplittingFieldError, NoQPolynomialOrderingError]
    )
    def test_expected_spectra_failures_mean_no_match(self, run_3_0, monkeypatch, error):
        def fail(_scheme):
            raise error("expected")

        monkeypatch.setattr(schemes, "spectra", fail)
        (res,) = run_3_0.results
        assert not match_known(res, catalogue_scheme("AS06[3]"))

    def test_other_spectra_failures_propagate(self, run_3_0, monkeypatch):
        def fail(_scheme):
            raise TypeError("bug in spectra")

        monkeypatch.setattr(schemes, "spectra", fail)
        (res,) = run_3_0.results
        with pytest.raises(TypeError, match="bug in spectra"):
            match_known(res, catalogue_scheme("AS06[3]"))
