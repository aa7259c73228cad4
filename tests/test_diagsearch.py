"""Relation-distribution diagram generation and its pruning rules."""

import bisect
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemeforge import cli, diagsearch, schemes
from schemeforge.catalogue import CATALOGUE, load_bundled
from schemeforge.diagsearch import (
    _FOUR,
    _ONE,
    _THREE,
    _ZERO,
    KISSING_NUMBER_R4,
    CosineColumns,
    DistributionDiagram,
    SearchConfig,
    _check_arrangement,
    _check_extension,
    _cosine_candidates,
    _draw_bound,
    _emission_checks,
    _in_field,
    _integrality,
    _kissing_prune,
    _partitions,
    _residual,
    _second_from_first,
    _seeds,
    _tail_slice,
    arrangements,
    check_diagram_valid,
    check_solution_valid,
    generate_diagrams,
    match_known,
    scheme_diagram,
    solve_cosines,
)
from schemeforge.exactnum import (
    FieldMismatchError,
    QuadNumber,
    bounded_algebraic_integers,
    candidate_radicands,
    is_algebraic_integer,
    quad_sqrt,
)
from schemeforge.graphs import DEFAULT_BUDGET, named_graph
from schemeforge.localclass import LOCAL_CASES, classify_local, delsarte_bound
from schemeforge.schemes import (
    NoQPolynomialOrderingError,
    SplittingFieldError,
    scheme_from_graph_distances,
    verify_scheme,
)


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

    def test_k1_is_at_most_the_two_distance_bound(self):
        # the neighbourhood of a point is a two-distance set on S^2
        assert delsarte_bound(3, 2) == 9
        assert SearchConfig(k1=9, a1=0).k1 == 9
        with pytest.raises(ValueError, match="need k1 <= 9: more than 9 points"):
            SearchConfig(k1=10, a1=0, radicand=None)

    @pytest.mark.parametrize("radicand", [8, 4, 0, -3])
    def test_radicand_must_be_square_free(self, radicand):
        # Q[sqrt(8)] is Q[sqrt(2)], whose cosines carry radicand 2, so a
        # search over 8 would drop them all and still report complete
        with pytest.raises(ValueError, match="square-free"):
            SearchConfig(k1=4, a1=1, radicand=radicand)

    @pytest.mark.parametrize("radicand", [None, 1, 2, 5, 6])
    def test_radicands_of_fields_are_accepted(self, radicand):
        assert SearchConfig(k1=4, a1=1, radicand=radicand).radicand == radicand

    def test_light_tail_is_forced(self):
        assert SearchConfig(k1=4, a1=0).light_tail
        assert not SearchConfig(k1=4, a1=1).light_tail
        assert not SearchConfig(k1=3, a1=0).light_tail  # k1 != m1

    def test_m1_is_not_a_parameter(self):
        # the search is written for m1 = 4 only
        with pytest.raises(TypeError):
            SearchConfig(k1=4, a1=0, m1=5)

    def test_depth_limit_depends_on_field(self):
        # the search runs to the degree bound, which the field sets
        assert SearchConfig(k1=4, a1=0).degree_bound == 9
        assert SearchConfig(k1=4, a1=0, radicand=5).degree_bound == 17
        assert SearchConfig(k1=4, a1=0, radicand=None).degree_bound == 17

    def test_fields(self):
        assert SearchConfig(k1=4, a1=0).fields == (1,)
        assert SearchConfig(k1=4, a1=0, radicand=5).fields == (5,)
        assert SearchConfig(k1=3, a1=0, radicand=None).fields == (
            1,
            *candidate_radicands(3),
        )


class TestCandidateRadicands:
    def test_k3(self):
        rads = candidate_radicands(3)
        assert 5 in rads and 2 in rads
        assert all(r >= 2 for r in rads)

    def test_k4_superset_of_k3(self):
        assert set(candidate_radicands(3)) <= set(candidate_radicands(4))

    @pytest.mark.parametrize("k1", range(1, 10))
    def test_matches_the_box_scan(self, k1):
        assert candidate_radicands(k1) == reference_candidate_radicands(k1)


def reference_candidate_radicands(k1: int) -> list:
    """candidate_radicands as it was before it shared the walk of
    bounded_algebraic_integers, kept verbatim as the reference: a scan of a
    wider box with its own range test."""
    from schemeforge.exactnum import squarefree_decompose

    seen = set()
    for b in range(-2 * k1, 2 * k1 + 1):
        for c in range(-(k1 * k1), k1 * k1 + 1):
            disc = b * b - 4 * c
            if disc <= 0:
                continue
            _, p = squarefree_decompose(disc)
            if p == 1:
                continue
            # both roots (-b +- sqrt(disc))/2 in [-k1, k1]
            r = QuadNumber(Fraction(-b, 2), Fraction(1, 2), disc)
            s = QuadNumber(Fraction(-b, 2), Fraction(-1, 2), disc)
            k = QuadNumber(k1)
            if -k <= s and r <= k:
                seen.add(p)
    return sorted(seen)


class TestCosineCandidates:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 8),
        st.sampled_from([2, 3]),
        st.sampled_from([1, 2, 3, 5, 13]),
    )
    def test_sorted_and_contained_in_multiples(self, k, j, p):
        # C(k) lies in C(j*k): lambda/k = j*lambda/(j*k), and j*lambda is a
        # bounded algebraic integer for j*k; so a fresh vertex's candidates
        # for k_v*w(v->f) cover every valency the handshake allows it
        cands = _cosine_candidates(k, p)
        assert all(x < y for x, y in zip(cands, cands[1:]))
        assert set(cands) <= set(_cosine_candidates(j * k, p))


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


# (k1, a1) -> the stats of the search over every field, laid out as in
# PINNED_STATS below
OPEN_STATS = {
    (3, 0): (369, 1, 0, 1097, 8, 0, 1, 0),
    (4, 1): (1473, 1, 166, 2745, 51, 78, 0, 0),
    (4, 0): (202, 2, 220, 1969, 225, 907, 0, 0),
}
CASES = list(OPEN_STATS)


@pytest.fixture(scope="module")
def open_and_per_field_runs():
    """(k1, a1) -> (the open search, the searches of each of its fields)."""
    runs = {}
    for k1, a1 in CASES:
        open_run = generate_diagrams(SearchConfig(k1=k1, a1=a1, radicand=None))
        per_field = [
            generate_diagrams(SearchConfig(k1=k1, a1=a1, radicand=p))
            for p in open_run.config.fields
        ]
        runs[k1, a1] = open_run, per_field
    return runs


class TestOpenSearch:
    @pytest.mark.parametrize("k1,a1", CASES)
    def test_finds_the_union_of_the_field_searches(self, open_and_per_field_runs, k1, a1):
        open_run, per_field = open_and_per_field_runs[k1, a1]
        assert open_run.complete and all(run.complete for run in per_field)
        union = {res.canonical_key() for run in per_field for res in run.results}
        assert {res.canonical_key() for res in open_run.results} == union
        # the all-rational subtrees are searched once, not once per field
        assert open_run.stats["nodes"] < sum(run.stats["nodes"] for run in per_field)
        nodes, emitted, *pruned = OPEN_STATS[k1, a1]
        assert open_run.stats == {
            "nodes": nodes,
            "emitted": emitted,
            "pruned": dict(zip(REASONS, pruned)),
        }

    def test_irrational_subtrees_take_their_field(self, monkeypatch):
        # every cosine extension that _check_extension sees in an open search
        # carries the field of its irrational values, or 1
        seen = set()
        check = diagsearch._check_extension

        def recording(cosines, diagram, v, fresh):
            values = [x for pair in cosines.values for x in pair] + [cosines.q111]
            assert {x.p for x in values} <= {1, cosines.radicand}
            seen.add(cosines.radicand)
            return check(cosines, diagram, v, fresh)

        monkeypatch.setattr(diagsearch, "_check_extension", recording)
        generate_diagrams(SearchConfig(k1=3, a1=0, radicand=None))
        assert 1 in seen and len(seen) > 1


@pytest.fixture(scope="module")
def open_search():
    """(k1, a1) -> the open search there, run once per module."""
    runs = {}

    def run(k1, a1):
        if (k1, a1) not in runs:
            runs[k1, a1] = generate_diagrams(SearchConfig(k1=k1, a1=a1, radicand=None))
        return runs[k1, a1]

    return run


class TestExtensionCasesAgree:
    """The open search at (k1, a1) = (|H|, valency of H) covers every scheme
    whose local graph is H, with no n_max, so its matches must be the
    classified schemes that the extension route finds for H (the local
    case K3xK2, at (6, 3), does not finish in tier-1 time)."""

    @pytest.mark.parametrize("case", ["K3", "K4", "C4", "C5", "octahedron"])
    def test_open_search_matches_the_extension_route(self, open_search, case):
        h = named_graph(case)
        outcome = open_search(h.n, h.degree(0))
        assert outcome.complete
        matched = {res.matched for res in outcome.results}
        assert None not in matched, "unmatched feasible diagram"
        ext = cli._classify_extension_case(case, LOCAL_CASES[case].n_max, DEFAULT_BUDGET)
        assert ext["complete"]
        assert matched == {r["scheme_id"] for r in ext["results"]}


# (k1, a1) -> the stats of the open search, laid out as in PINNED_STATS, at
# every (5, a1) and at the three k1 = 6 rows of TestLocalStageBySearch
WIDE_OPEN_STATS = {
    (5, 0): (4128, 0, 0, 20649, 5, 0, 0, 0),
    (5, 1): (4127, 0, 0, 4126, 1, 0, 0, 0),
    (5, 2): (4128, 0, 0, 4145, 1, 0, 0, 0),
    (5, 3): (4127, 0, 0, 4124, 3, 0, 0, 0),
    (5, 4): (4127, 0, 0, 4127, 0, 0, 0, 0),
    (6, 1): (9496, 0, 0, 9492, 4, 0, 0, 0),
    (6, 4): (9500, 1, 0, 9589, 20, 0, 0, 0),
    (6, 5): (9496, 0, 0, 9496, 0, 0, 0, 0),
}

# (6, 0), (6, 2) and (6, 3) are left out: none of them finishes in 150 s, as
# their surplus draws still walk every ordering of equal-weight cosines, on
# QuadNumbers, with no budget on the draws
LOCAL_STAGE_ROWS = [(k1, a1) for k1 in (3, 4, 5) for a1 in range(k1)] + [(6, 1), (6, 4), (6, 5)]


class TestLocalStageBySearch:
    """The open search at (k1, a1) covers every local graph H with |H| = k1
    and valency a1, so it checks the local stage by a second route: at each
    (k1, a1) of LOCAL_STAGE_ROWS it must emit exactly the schemes that
    classify reports for the local cases with those parameters, and nothing
    where the local stage leaves none."""

    @pytest.fixture(scope="class")
    def classified(self):
        """(k1, a1) -> the scheme ids of the local cases of classify_local
        with k1 <= 6 there, each resolved by its route in LOCAL_CASES."""
        out = {}
        for sol in [s for s in classify_local() if s.graph.n <= 6]:
            n_max = LOCAL_CASES[sol.name].n_max
            if n_max is None:
                outcome = cli._classify_search_case(sol.name, DEFAULT_BUDGET)
            else:
                outcome = cli._classify_extension_case(sol.name, n_max, DEFAULT_BUDGET)
            assert outcome["complete"]
            ids = out.setdefault((sol.graph.n, sol.graph.degree(0)), set())
            ids.update(r["scheme_id"] for r in outcome["results"])
        return out

    @pytest.mark.parametrize("k1,a1", LOCAL_STAGE_ROWS)
    def test_open_search_emits_the_local_cases_schemes(self, open_search, classified, k1, a1):
        outcome = open_search(k1, a1)
        assert outcome.complete
        matched = [res.matched for res in outcome.results]
        assert None not in matched, "unmatched feasible diagram"
        assert sorted(matched) == sorted(classified.get((k1, a1), set()))

    def test_the_k1_6_rows_expect_the_octahedron_case_alone(self, classified):
        rows = [row for row in LOCAL_STAGE_ROWS if row[0] == 6]
        assert {row: classified.get(row, set()) for row in rows} == {
            (6, 1): set(), (6, 4): {"AS08[2]"}, (6, 5): set(),
        }

    @pytest.mark.parametrize("k1,a1", list(WIDE_OPEN_STATS))
    def test_open_search_stats_are_pinned(self, open_search, k1, a1):
        nodes, emitted, *pruned = WIDE_OPEN_STATS[k1, a1]
        assert open_search(k1, a1).stats == {
            "nodes": nodes,
            "emitted": emitted,
            "pruned": dict(zip(REASONS, pruned)),
        }


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

    @pytest.mark.parametrize("budget", [3, 20, 50, 62])
    def test_search_stops_at_the_first_node_past_the_budget(self, budget):
        # the full search over Q[sqrt(5)] has 63 nodes
        full = generate_diagrams(SearchConfig(k1=4, a1=0, radicand=5))
        cut = generate_diagrams(SearchConfig(k1=4, a1=0, radicand=5, budget=budget))
        assert full.complete and full.stats["nodes"] == 63
        assert not cut.complete
        assert cut.stats["nodes"] == budget + 1
        assert cut.stats["pruned"]["budget"] == 1
        keys = {res.canonical_key() for res in full.results}
        assert {res.canonical_key() for res in cut.results} <= keys

    def test_budget_bounds_the_seed_walk(self, monkeypatch):
        # the seeds are drawn one field at a time, so a search cut at its
        # second node builds the seed candidates of Q alone, where it found
        # its first seed, and of none of the other 91 fields
        config = SearchConfig(k1=9, a1=0, radicand=None, budget=1)
        built, candidates = [], diagsearch._cosine_candidates

        def counted(k, radicand):
            built.append(radicand)
            return candidates(k, radicand)

        monkeypatch.setattr(diagsearch, "_cosine_candidates", counted)
        outcome = generate_diagrams(config)
        assert outcome.stats["nodes"] == 2 and not outcome.complete
        assert len(config.fields) == 92
        assert set(built) == {1}


def _uncached_scheme(sid: str):
    """A new Scheme of sid's golden relations: load_bundled hands out one
    object per id, whose spectra the first match already computed."""
    return verify_scheme(load_bundled(sid).relations)


class TestMatchKnown:
    def test_positive_and_negative(self, run_3_0):
        (res,) = run_3_0.results
        assert match_known(res, load_bundled("AS06[3]"))
        assert not match_known(res, load_bundled("AS09[3]"))

    @pytest.mark.parametrize(
        "error", [SplittingFieldError, NoQPolynomialOrderingError]
    )
    def test_expected_spectra_failures_mean_no_match(self, run_3_0, monkeypatch, error):
        def fail(_scheme):
            raise error("expected")

        monkeypatch.setattr(schemes, "spectra", fail)
        (res,) = run_3_0.results
        assert not match_known(res, _uncached_scheme("AS06[3]"))

    def test_other_spectra_failures_propagate(self, run_3_0, monkeypatch):
        def fail(_scheme):
            raise TypeError("bug in spectra")

        monkeypatch.setattr(schemes, "spectra", fail)
        (res,) = run_3_0.results
        with pytest.raises(TypeError, match="bug in spectra"):
            match_known(res, _uncached_scheme("AS06[3]"))


# -- the diagrams of the known schemes: oracles of the prune rules, and the
# relabelling search that match_known replaced


def reference_match_known(result, scheme) -> bool:
    """match_known as it was before it compared canonical keys, kept verbatim
    as the reference: does the result's diagram and cosine data equal the
    scheme's, up to a relabeling of relations fixing R0 and R1?"""
    diagram = result.diagram
    if scheme.d + 1 != diagram.n:
        return False
    try:
        sp, _orderings = scheme.qpolynomial
    except (SplittingFieldError, NoQPolynomialOrderingError):
        return False
    if scheme.valencies[1] != diagram.k1:
        return False
    others = list(range(2, scheme.d + 1))
    for perm_tail in itertools.permutations(others):
        perm = (0, 1) + perm_tail  # diagram vertex i -> scheme relation perm[i]
        if any(
            scheme.valencies[perm[i]] != diagram.valencies[i]
            for i in range(diagram.n)
        ):
            continue
        ok = True
        for j in range(diagram.n):
            for h in range(diagram.n):
                if diagram.weight(j, h) != scheme.p[perm[h]][1][perm[j]]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if all(
            sp.cosines[perm[i]][1] == result.cosines.values[i][0]
            and sp.cosines[perm[i]][2] == result.cosines.values[i][1]
            for i in range(diagram.n)
        ):
            return True
    return False


# the catalogue schemes that a search can find: d >= 2 and partially metric
SEARCHABLE = ["AS06[3]", "AS08[2]", "AS09[3]", "AS10[3]", "AS10[6]", "AS16[30]"]


def _own_config(known) -> SearchConfig:
    """The search config at the scheme's own (k1, a1) and field."""
    d = known.diagram
    return SearchConfig(k1=d.k1, a1=d.weight(1, 1), radicand=known.cosines.radicand)


class TestSchemeDiagram:
    @pytest.mark.parametrize("sid", SEARCHABLE + ["AS24[43]"])
    def test_its_seed_is_among_the_seeds(self, catalogue, sid):
        known = scheme_diagram(catalogue[sid])
        seeds = list(_seeds(_own_config(known)))
        assert (known.cosines.values[1], known.cosines.q111) in [
            (seed.values[1], seed.q111) for seed in seeds
        ]

    @pytest.mark.parametrize("sid", SEARCHABLE + ["AS24[43]"])
    def test_passes_every_prune_rule(self, catalogue, sid):
        known = scheme_diagram(catalogue[sid])
        diagram, cosines = known.diagram, known.cosines
        # the 24-cell scheme has two relations at distance 2, so it is not
        # partially metric; check_diagram_valid tests that rule last, so it
        # is the only rule this scheme breaks
        want = (False, "partial-metricity") if sid == "AS24[43]" else (True, "")
        assert check_diagram_valid(diagram) == want
        assert check_solution_valid(cosines, diagram) == (True, "")
        assert _emission_checks(diagram, cosines) == (True, "")
        assert not _kissing_prune(diagram, cosines)

    def test_no_diagram(self, catalogue, two_triangles):
        # d = 1
        assert scheme_diagram(catalogue["AS05[1]"]) is None
        # a cubic splitting field
        assert scheme_diagram(scheme_from_graph_distances(named_graph("C7"))) is None
        # the graph of R1 is 2K3, disconnected; with R1 and R2 swapped it is
        # K3,3, the scheme AS06[3]
        assert scheme_diagram(verify_scheme(two_triangles)) is None
        swapped = [[(3 - e) % 3 for e in row] for row in two_triangles]
        assert scheme_diagram(verify_scheme(swapped)).canonical_key() == (
            scheme_diagram(catalogue["AS06[3]"]).canonical_key()
        )


@pytest.fixture(scope="module")
def open_results(open_search):
    """The results of the open searches at (3, 0), (4, 1), (4, 0) and (6, 4)."""
    cases = [(3, 0), (4, 1), (4, 0), (6, 4)]
    return [res for case in cases for res in open_search(*case).results]


class TestMatchKnownAgainstReference:
    def test_every_result_and_scheme(self, catalogue, open_results):
        for res in open_results:
            for sid, scheme in catalogue.items():
                assert match_known(res, scheme) == reference_match_known(res, scheme), sid

    def test_each_result_names_the_reference_match(self, catalogue, open_results):
        assert sorted(res.matched for res in open_results) == [
            "AS06[3]", "AS08[2]", "AS09[3]", "AS10[6]", "AS16[30]"
        ]
        for res in open_results:
            assert [sid for sid in CATALOGUE if reference_match_known(res, catalogue[sid])] == [
                res.matched
            ]


# -- the closed-form tail discriminant against the solver it replaced -------


def reference_solve_cosines(
    diagram: DistributionDiagram,
    cosines: CosineColumns,
    v: int,
    fresh: list,
    config: SearchConfig,
):
    """solve_cosines as it was before the closed-form tail discriminant,
    kept verbatim as the reference.  Extensions of the cosine columns to the
    fresh vertices created at v.

    The column-1 recurrence k1*w(1,1)*w(v,1) = sum_h p_{h1}^v * w(h,1) is one
    linear equation; column 2 is the image of column 1 under the dual
    recurrence, and the column-2 recurrence then closes the system: zero
    fresh vertices make both recurrences checks, one fresh vertex is linear,
    two reduce to a quadratic solved inside the field, and beyond that the
    surplus cosines are exhausted over the bounded-algebraic-integer
    candidates.  Returns a list of CosineColumns (empty = prune)."""
    k1q = QuadNumber(diagram.k1)
    w11, w12 = cosines.values[1]
    known = {h: cosines.values[h] for h in range(len(cosines.values))}

    def residuals(vals):
        full = dict(known)
        for f, pair in zip(fresh, vals):
            full[f] = pair
        res = []
        for c in (0, 1):
            lhs = k1q * cosines.values[1][c] * full[v][c]
            rhs = QuadNumber(0)
            for h in sorted(diagram.out[v]):
                rhs = rhs + QuadNumber(diagram.weight(v, h)) * full[h][c]
            res.append(lhs - rhs)
        return res

    if not fresh:
        r1, r2 = residuals([])
        return [cosines] if not r1 and not r2 else []

    weights = [QuadNumber(diagram.weight(v, f)) for f in fresh]
    target1 = k1q * w11 * cosines.values[v][0] - sum(
        (QuadNumber(diagram.weight(v, h)) * known[h][0]
         for h in sorted(diagram.out[v]) if h not in fresh),
        QuadNumber(0),
    )
    target2 = k1q * w12 * cosines.values[v][1] - sum(
        (QuadNumber(diagram.weight(v, h)) * known[h][1]
         for h in sorted(diagram.out[v]) if h not in fresh),
        QuadNumber(0),
    )

    phi = cosines.second_from_first

    def extend(first_column):
        vals = [(a, phi(a)) for a in first_column]
        r1, r2 = residuals(vals)
        if r1 or r2:
            return None
        out = cosines._replace(
            values=list(cosines.values) + [None] * (max(fresh) + 1 - len(cosines.values))
        )
        for f, pair in zip(fresh, vals):
            out.values[f] = pair
        return out

    def solve_tail(prefix):
        """prefix fixes all but the last two fresh cosines; solve the rest."""
        used1 = sum(
            (wq * a for wq, a in zip(weights, prefix)), QuadNumber(0)
        )
        used2 = sum(
            (wq * phi(a) for wq, a in zip(weights, prefix)), QuadNumber(0)
        )
        t1 = target1 - used1
        t2 = target2 - used2
        tailw = weights[len(prefix):]
        sols = []
        if len(tailw) == 1:
            a = t1 / tailw[0]
            if tailw[0] * phi(a) == t2:
                sols.append(list(prefix) + [a])
        else:
            wa, wb = tailw
            # b = (t1 - wa*a)/wb; wa*phi(a) + wb*phi(b) = t2
            # phi(x) = (4x^2 - 1 - q*x)/(3 - q): quadratic in a
            q = cosines.q111
            three_q = QuadNumber(3) - q
            four = QuadNumber(4)
            one = QuadNumber(1)
            # multiply the column-2 recurrence by (3 - q):
            #   wa*(4a^2 - 1 - q*a) + wb*(4b^2 - 1 - q*b) = t2*(3 - q)
            # and substitute b, using wb*4b^2 = 4*(t1 - wa*a)^2 / wb:
            #   4wa*a^2 - wa - q*wa*a
            #   + (4/wb)*(t1^2 - 2*t1*wa*a + wa^2*a^2)
            #   - wb - q*t1 + q*wa*a - t2*(3 - q) = 0
            A = four * wa + four * wa * wa / wb
            B = -QuadNumber(8) * t1 * wa / wb
            C = -wa + four * t1 * t1 / wb - wb - q * t1 - t2 * three_q
            if not A:
                if not B:
                    return sols  # degenerate; no isolated solutions
                roots = [-C / B]
            else:
                disc = B * B - four * A * C
                root = quad_sqrt(disc) if disc.sign() >= 0 else None
                if root is None:
                    return sols
                roots = [(-B + root) / (QuadNumber(2) * A)]
                if root:
                    roots.append((-B - root) / (QuadNumber(2) * A))
            for a in roots:
                if not _in_field(a, cosines.radicand):
                    continue
                b = (t1 - wa * a) / wb
                sols.append(list(prefix) + [a, b])
        return sols

    results = []
    if len(fresh) == 1:
        columns = solve_tail([])
    else:
        surplus = len(fresh) - 2
        if surplus == 0:
            columns = solve_tail([])
        else:
            columns = []
            cands = _fresh_candidates(diagram, v, fresh[0], cosines, config)
            for combo in itertools.product(cands, repeat=surplus):
                columns.extend(solve_tail(list(combo)))
    seen = set()
    for col in columns:
        ext = extend(col)
        if ext is None:
            continue
        key = tuple(sorted((diagram.weight(v, f), str(ext.values[f][0])) for f in fresh))
        if key in seen:
            continue
        seen.add(key)
        results.append(ext)
    return results



def _fresh_candidates(diagram, v, f, cosines, config) -> list:
    """Possible cosines of a fresh vertex: lambda/k for every valency k
    consistent with the handshake back to v."""
    kv = diagram.valencies[v]
    wv = diagram.weight(v, f)
    out = set()
    for back in range(1, diagram.k1 + 1):
        num = kv * wv
        if num % back:
            continue
        k = num // back
        for w in _cosine_candidates(k, config.radicand):
            out.add(w)
    return sorted(out)


REASONS = ("diagram", "cosines", "solution", "kissing", "emission", "budget")

# (k1, a1, radicand) -> nodes, emitted and the prune counts in REASONS order,
# for (4, 0) over Q[sqrt(5)] and Q, and (4, 1) and (3, 0) over every field
PINNED_STATS = {
    (4, 0, 5): (63, 2, 80, 758, 87, 247, 0, 0),
    (4, 0, 1): (15, 2, 0, 61, 27, 49, 0, 0),
    (4, 1, 1): (35, 1, 12, 119, 17, 14, 0, 0),
    (4, 1, 2): (268, 1, 24, 413, 22, 14, 0, 0),
    (4, 1, 3): (180, 1, 12, 298, 19, 14, 0, 0),
    (4, 1, 5): (435, 1, 70, 882, 27, 78, 0, 0),
    (4, 1, 6): (98, 1, 12, 182, 17, 14, 0, 0),
    (4, 1, 7): (99, 1, 12, 183, 17, 14, 0, 0),
    (4, 1, 10): (53, 1, 12, 137, 17, 14, 0, 0),
    (4, 1, 11): (52, 1, 12, 136, 17, 14, 0, 0),
    (4, 1, 13): (160, 1, 36, 477, 19, 14, 0, 0),
    (4, 1, 14): (52, 1, 12, 136, 17, 14, 0, 0),
    (4, 1, 15): (52, 1, 12, 136, 17, 14, 0, 0),
    (4, 1, 17): (126, 1, 24, 325, 21, 14, 0, 0),
    (4, 1, 21): (126, 1, 36, 442, 23, 14, 0, 0),
    (4, 1, 29): (74, 1, 24, 202, 20, 14, 0, 0),
    (4, 1, 33): (74, 1, 12, 167, 18, 14, 0, 0),
    (4, 1, 37): (75, 1, 24, 239, 17, 14, 0, 0),
    (4, 1, 41): (74, 1, 12, 167, 18, 14, 0, 0),
    (3, 0, 1): (20, 1, 0, 48, 7, 0, 1, 0),
    (3, 0, 2): (96, 1, 0, 276, 7, 0, 1, 0),
    (3, 0, 3): (70, 1, 0, 198, 7, 0, 1, 0),
    (3, 0, 5): (118, 1, 0, 342, 7, 0, 1, 0),
    (3, 0, 6): (34, 1, 0, 90, 7, 0, 1, 0),
    (3, 0, 7): (34, 1, 0, 90, 7, 0, 1, 0),
    (3, 0, 13): (53, 1, 0, 149, 8, 0, 1, 0),
    (3, 0, 17): (52, 1, 0, 144, 7, 0, 1, 0),
    (3, 0, 21): (52, 1, 0, 144, 7, 0, 1, 0),
}


@pytest.fixture(scope="module")
def checked_searches():
    """Run the searches of PINNED_STATS with every solve_cosines call also
    made to the reference: ([(fresh count, result, reference result)], stats
    per (k1, a1, radicand))."""
    solve = diagsearch.solve_cosines
    calls = []

    def checked(diagram, cosines, v, fresh, config):
        got = solve(diagram, cosines, v, fresh, config)
        want = reference_solve_cosines(diagram, cosines, v, fresh, config)
        calls.append((len(fresh), got, want))
        return got

    stats = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagsearch, "solve_cosines", checked)
        for k1, a1, p in PINNED_STATS:
            config = SearchConfig(k1=k1, a1=a1, radicand=p)
            stats[k1, a1, p] = generate_diagrams(config).stats
    return calls, stats


def _field_elements(p):
    small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    if p == 1:
        return small.map(QuadNumber)
    return st.builds(lambda a, b: QuadNumber(a, b, p), small, small)


@st.composite
def planted_tails(draw):
    """A vertex v = 2 with 1 to 4 fresh out-neighbours whose first-column
    cosines are planted: the prefix from the surplus candidates, the last
    two anywhere in the field.  Vertex 2's cosines are set so that the
    targets of both recurrences are met by the planted values."""
    p = draw(st.sampled_from([1, 2, 5]))
    elements = _field_elements(p)
    q111 = draw(elements.filter(lambda q: q != QuadNumber(3)))
    m = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    cands = tuple(sorted(set(draw(st.lists(elements, min_size=1, max_size=5)))))
    surplus = max(m - 2, 0)
    planted = [draw(st.sampled_from(cands)) for _ in range(surplus)]
    planted += draw(st.lists(elements, min_size=m - surplus, max_size=m - surplus))
    return _planted_case(p, q111, weights, cands, planted)


def _planted_case(p, q111, weights, cands, planted):
    """The planted_tails case of these draws."""
    m = len(weights)
    cosines = CosineColumns(p, q111, [(QuadNumber(1), QuadNumber(1))] * 2)
    phi = cosines.second_from_first
    t1 = sum((QuadNumber(w) * x for w, x in zip(weights, planted)), QuadNumber(0))
    t2 = sum((QuadNumber(w) * phi(x) for w, x in zip(weights, planted)), QuadNumber(0))
    k1 = 4
    cosines.values.append((t1 / QuadNumber(k1), t2 / QuadNumber(k1)))
    fresh = list(range(3, 3 + m))
    diagram = DistributionDiagram(
        k1=k1,
        layers=[0, 1, 2] + [3] * m,
        arcs={(2, f): w for f, w in zip(fresh, weights)},
        valencies=[1, k1, 1] + [None] * m,
        done=3,
    )
    return diagram, cosines, fresh, SearchConfig(k1=k1, a1=0, radicand=p), cands, planted


def _tail_root_visible(weights, planted) -> bool:
    """Does quad_sqrt find the root r of the planted tail's
    r^2 = wa*wb*(W*s - t1^2)?  For the planted last two cosines (a, b), of
    weights (wa, wb) with W = wa + wb, r = wa*W*a - wa*t1 up to sign."""
    if len(planted) == 1:
        return True
    wa, wb = weights[-2:]
    a, b = planted[-2:]
    t1 = wa * a + wb * b
    root = wa * (wa + wb) * a - wa * t1
    return quad_sqrt(root * root) is not None


def _solve_planted_surplus(kv, weights, planted):
    """First-column values of each solve_cosines extension at vertex 2, of
    valency kv, of a k1 = 8 diagram over Q whose fresh relations have the
    given weights, with the targets of both recurrences met by planted."""
    k1 = 8
    cosines = CosineColumns(1, QuadNumber(0), [(QuadNumber(1), QuadNumber(1))] * 2)
    phi = cosines.second_from_first
    t1 = sum((QuadNumber(w) * x for w, x in zip(weights, planted)), QuadNumber(0))
    t2 = sum((QuadNumber(w) * phi(x) for w, x in zip(weights, planted)), QuadNumber(0))
    cosines.values.append((t1 / QuadNumber(k1), t2 / QuadNumber(k1)))
    m = len(weights)
    fresh = list(range(3, 3 + m))
    diagram = DistributionDiagram(
        k1=k1,
        layers=[0, 1, 2] + [3] * m,
        arcs={(2, f): w for f, w in zip(fresh, weights)},
        valencies=[1, k1, kv] + [None] * m,
        done=3,
    )
    config = SearchConfig(k1=k1, a1=0, radicand=1)
    return [
        [ext.values[f][0] for f in fresh]
        for ext in solve_cosines(diagram, cosines, 2, fresh, config)
    ]


def reference_residual(k1, outs, v, c, full):
    """The recurrence residual as QuadNumber sums, as solve_cosines summed it
    before _residual, kept verbatim as the reference."""
    res = full[1][c] * full[v][c] * k1
    for h, w in outs.items():
        if h < len(full):
            res = res - full[h][c] * w
    return res


@st.composite
def residual_cases(draw):
    """(k1, outs, v, full): pairs of values of Q, Q[sqrt(2)] or Q[sqrt(5)],
    rational and irrational mixed, and arcs of any int weight out of v, some
    to vertices past the end of full, as a target leaves the fresh vertices
    out."""
    p = draw(st.sampled_from([1, 2, 5]))
    ints = st.integers(-6, 6)
    elements = st.builds(lambda x, y, d: QuadNumber(Fraction(x, d), Fraction(y, d), p),
                         ints, ints if p > 1 else st.just(0), st.integers(1, 6))
    n = draw(st.integers(2, 6))
    full = draw(st.lists(st.tuples(elements, elements), min_size=n, max_size=n))
    v = draw(st.integers(1, n - 1))
    outs = draw(st.dictionaries(st.integers(0, n + 2), st.integers(-20, 20), max_size=6))
    return draw(st.integers(-9, 9)), outs, v, full


# a residual over Q[sqrt(5)] whose terms have both parts and unequal
# denominators, and a target term past the end of full
_R5 = QuadNumber(0, 1, 5)
RESIDUAL_EXAMPLE = (4, {1: 1, 3: 2, 5: 1}, 2, [
    (QuadNumber(1), QuadNumber(1)),
    (QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(1, 3))),
    ((QuadNumber(1) + _R5) / QuadNumber(4), (QuadNumber(1) - _R5) / QuadNumber(4)),
    (QuadNumber(Fraction(1, 3), Fraction(1, 3), 5), QuadNumber(Fraction(2, 3))),
])


# two tails over Q whose cosines are 0 and 1, of unequal weights: the tail of
# two fresh relations, and the tail after one surplus draw
_Q0, _Q1 = QuadNumber(0), QuadNumber(1)
PLANTED_TAIL_EXAMPLE = _planted_case(1, _Q0, [1, 2], (_Q0,), [_Q0, _Q1])
PLANTED_SURPLUS_TAIL_EXAMPLE = _planted_case(1, _Q0, [1, 1, 2], (_Q0,), [_Q0, _Q0, _Q1])


class TestSolveCosines:
    def test_matches_reference_on_every_search_call(self, checked_searches):
        calls, _stats = checked_searches
        assert all(got == want for _m, got, want in calls)
        # the surplus path ran and found extensions
        assert any(m >= 3 and got for m, got, _want in calls)
        assert any(m == 2 and got for m, got, _want in calls)

    def test_search_stats_are_pinned(self, checked_searches):
        _calls, stats = checked_searches
        for key, (nodes, emitted, *pruned) in PINNED_STATS.items():
            assert stats[key] == {
                "nodes": nodes,
                "emitted": emitted,
                "pruned": dict(zip(REASONS, pruned)),
            }, key

    @settings(max_examples=300, deadline=None)
    @given(planted_tails())
    @example(PLANTED_TAIL_EXAMPLE)
    @example(PLANTED_SURPLUS_TAIL_EXAMPLE)
    def test_matches_reference_on_planted_tails(self, case):
        diagram, cosines, fresh, config, cands, planted = case

        def candidates(*_args):
            return cands

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagsearch, "_cosine_candidates", candidates)
            mp.setattr(sys.modules[__name__], "_fresh_candidates", candidates)
            got = solve_cosines(diagram, cosines, 2, fresh, config)
            want = reference_solve_cosines(diagram, cosines, 2, fresh, config)
        assert got == want
        weights = [diagram.weight(2, f) for f in fresh]
        if _tail_root_visible(weights, planted):
            assert got

    @settings(max_examples=400, deadline=None)
    @given(residual_cases())
    @example(RESIDUAL_EXAMPLE)
    def test_integer_residual_is_the_quadnumber_sum(self, case):
        k1, outs, v, full = case
        for c in (0, 1):
            assert _residual(k1, outs, v, c, full) == reference_residual(k1, outs, v, c, full)

    @pytest.mark.parametrize("w1,wv,wh", [
        (QuadNumber(0, 1, 2), QuadNumber(0, 1, 5), QuadNumber(1)),
        (QuadNumber(0, 1, 2), QuadNumber(1), QuadNumber(1, 1, 5)),
        (QuadNumber(Fraction(1, 2)), QuadNumber(0, 1, 2), QuadNumber(0, 1, 5)),
    ])
    def test_a_residual_over_two_irrational_radicands_raises(self, w1, wv, wh):
        full = [(QuadNumber(1), QuadNumber(1)), (w1, w1), (wv, wv), (wh, wh)]
        with pytest.raises(FieldMismatchError):
            _residual(4, {1: 1, 3: 2}, 2, 0, full)

    def test_each_class_of_columns_is_built_once(self, monkeypatch):
        # extend builds column 2 with one phi per fresh relation, so only
        # for the columns solve_cosines returns: the interchangeable ones are
        # deduplicated before it
        phi, built, returned = CosineColumns.second_from_first, [], []
        solve = diagsearch.solve_cosines

        def counted(self, w1):
            built.append(w1)
            return phi(self, w1)

        def recorded(diagram, cosines, v, fresh, config):
            exts = solve(diagram, cosines, v, fresh, config)
            returned.append(len(fresh) * len(exts))
            return exts

        monkeypatch.setattr(CosineColumns, "second_from_first", counted)
        monkeypatch.setattr(diagsearch, "solve_cosines", recorded)
        stats = generate_diagrams(SearchConfig(k1=4, a1=0, radicand=5)).stats
        assert stats == _pinned_stats(4, 0, 5)
        assert len(built) == sum(returned) > 0

    def test_each_surplus_cosine_takes_its_own_candidates(self):
        # Vertex 2 (valency 1) of a k1 = 8 diagram over Q makes fresh
        # relations of weights 3, 2, 1, 1.  The two surplus cosines come from
        # C(3) and C(2); 1/2 is in C(2) but not in C(3).
        planted = [QuadNumber(Fraction(x)) for x in ("1/3", "1/2", "-1/4", "-1/2")]
        assert QuadNumber(Fraction(1, 2)) not in _cosine_candidates(3, 1)
        assert planted in _solve_planted_surplus(1, (3, 2, 1, 1), planted)

    @pytest.mark.parametrize("weights,planted", [
        ((1, 1), ("-1/2", "-1/2")),
        ((1, 2, 2), ("-1/2", "1/6", "1/6")),
        ((2, 1, 1), ("1/3", "-1/4", "-1/4")),
    ])
    def test_a_tail_with_a_double_root_is_solved(self, weights, planted):
        # equal weights and equal cosines for the last two fresh relations
        # make the tail discriminant 0, whose square root is 0
        planted = [QuadNumber(Fraction(x)) for x in planted]
        assert planted in _solve_planted_surplus(6, weights, planted)

    def test_swaps_across_weight_classes_are_distinct(self):
        # Weights 3, 2, 1, 1 at a vertex of valency 6: both assignments of
        # {-1, -5/6, -1/2, -1/3} below give equal sums of w*a and w*a^2, so
        # they meet both recurrences, and only the two weight-1 cosines of
        # each are interchangeable.
        first = [QuadNumber(Fraction(x)) for x in ("-5/6", "-1/3", "-1/2", "-1")]
        second = [QuadNumber(Fraction(x)) for x in ("-1/2", "-1", "-5/6", "-1/3")]
        found = _solve_planted_surplus(6, (3, 2, 1, 1), first)
        assert any(col in found for col in (first, first[:2] + first[:1:-1]))
        assert any(col in found for col in (second, second[:2] + second[:1:-1]))

    def test_the_surplus_draws_take_only_their_slices(self, monkeypatch):
        # The open (6, 4) search makes up to five fresh relations at a vertex,
        # so up to three surplus draws.  Each draw takes only the candidates
        # that leave moments the rest can meet, so the search slices 622
        # prefixes, where the full product of the candidate sets slices 38,138.
        calls, tail_slice = [], diagsearch._tail_slice

        def counted(*args):
            calls.append(args)
            return tail_slice(*args)

        monkeypatch.setattr(diagsearch, "_tail_slice", counted)
        outcome = generate_diagrams(SearchConfig(k1=6, a1=4, radicand=None))
        assert outcome.complete and outcome.stats["emitted"] == 1
        assert len(calls) <= 622

    def test_a_column_that_misses_a_recurrence_raises(self, monkeypatch):
        # vertex 1 of the (3, 0) search makes one fresh relation, whose cosine
        # the column-1 recurrence gives and the moment check accepts; phi is
        # first called when the column is built, and a column-2 value off by
        # one there must raise
        config = SearchConfig(k1=3, a1=0)
        diagram, seeds = DistributionDiagram.seed(3, 0), list(_seeds(config))
        nd, fresh, seed = next(
            (nd, fresh, seed)
            for seed in seeds
            for nd, fresh in arrangements(diagram, 1, config)
            if solve_cosines(nd, seed, 1, fresh, config)
        )
        assert len(fresh) == 1
        phi, calls = CosineColumns.second_from_first, []

        def first_call_off_by_one(self, w1):
            calls.append(w1)
            return phi(self, w1) + (QuadNumber(1) if len(calls) == 1 else QuadNumber(0))

        monkeypatch.setattr(CosineColumns, "second_from_first", first_call_off_by_one)
        with pytest.raises(ArithmeticError, match="misses a recurrence"):
            solve_cosines(nd, seed, 1, fresh, config)
        assert len(calls) == 1

    @pytest.mark.xfail(
        strict=True,
        reason="the tail discriminant 80 = (4*sqrt(5))^2 is rational, and "
        "quad_sqrt looks for its root in Q only, so the roots "
        "(-1 +- sqrt(5))/4 in Q[sqrt(5)] are dropped",
    )
    def test_tail_root_outside_q_is_dropped(self):
        # captured from the search (k1, a1) = (4, 0) over Q[sqrt(5)]: vertex 2
        # (valency 12) makes two fresh relations of weight 1
        diagram = DistributionDiagram(
            k1=4,
            layers=[0, 1, 2, 3, 3],
            arcs={(0, 1): 4, (1, 0): 1, (1, 2): 3, (2, 1): 1, (2, 2): 1,
                  (2, 3): 1, (2, 4): 1},
            valencies=[1, 4, 12, None, None],
            done=3,
        )
        half, third = QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(1, 3))
        zero, one = QuadNumber(0), QuadNumber(1)
        cosines = CosineColumns(5, zero, [(one, one), (half, zero), (zero, -third)])
        config = SearchConfig(k1=4, a1=0, radicand=5)
        r5 = QuadNumber(0, 1, 5)
        found = {
            frozenset((ext.values[3][0], ext.values[4][0]))
            for ext in solve_cosines(diagram, cosines, 2, [3, 4], config)
        }
        assert frozenset(((r5 - one) / QuadNumber(4), (-r5 - one) / QuadNumber(4))) in found

    def test_the_two_fresh_tail_takes_its_root_from_tail_root(self, monkeypatch):
        # the call of test_tail_root_outside_q_is_dropped: both tails take
        # their root from _tail_root, with the subtree's radicand, so a fix
        # of that hole has one place
        diagram = DistributionDiagram(
            k1=4,
            layers=[0, 1, 2, 3, 3],
            arcs={(0, 1): 4, (1, 0): 1, (1, 2): 3, (2, 1): 1, (2, 2): 1,
                  (2, 3): 1, (2, 4): 1},
            valencies=[1, 4, 12, None, None],
            done=3,
        )
        half, third = QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(1, 3))
        zero, one = QuadNumber(0), QuadNumber(1)
        cosines = CosineColumns(5, zero, [(one, one), (half, zero), (zero, -third)])
        config = SearchConfig(k1=4, a1=0, radicand=5)
        tail_root, calls = diagsearch._tail_root, []

        def counted(x, y, d, p):
            calls.append(p)
            return tail_root(x, y, d, p)

        monkeypatch.setattr(diagsearch, "_tail_root", counted)
        solve_cosines(diagram, cosines, 2, [3, 4], config)
        assert calls == [5]

    # from the open (4, 0) search: vertex 2 (valency 12) of a rational subtree
    # makes two fresh relations of weight 1, whose cosines x3, x4 must meet
    # x3 + x4 = -1/4 and x3^2 + x4^2 = 17/16, so r^2 = 33/16
    OPEN_TAIL = (
        DistributionDiagram(
            k1=4,
            layers=[0, 1, 2, 3, 3],
            arcs={(0, 1): 4, (1, 0): 1, (1, 2): 3, (2, 1): 1, (2, 2): 1,
                  (2, 3): 1, (2, 4): 1},
            valencies=[1, 4, 12, None, None],
            done=3,
        ),
        CosineColumns(1, QuadNumber(0), [
            (QuadNumber(1), QuadNumber(1)),
            (QuadNumber(Fraction(1, 4)), QuadNumber(Fraction(-1, 4))),
            (QuadNumber(Fraction(-1, 4)), QuadNumber(Fraction(-1, 4))),
        ]),
    )

    def test_the_open_two_fresh_tail_asks_only_for_a_rational_root(self, monkeypatch):
        # the pair (-1 +- sqrt(33))/8 meets both recurrences, and 33 is a
        # searched field; but with two fresh cosines the rational subtree
        # asks _tail_root for its root over Q only
        diagram, cosines = self.OPEN_TAIL
        config = SearchConfig(k1=4, a1=0, radicand=None)
        assert 33 in config.fields
        r33, eight = QuadNumber(0, 1, 33), QuadNumber(8)
        pair = [(-QuadNumber(1) + r33) / eight, (-QuadNumber(1) - r33) / eight]
        extended = cosines._replace(radicand=33, values=cosines.values + [
            (x, cosines.second_from_first(x)) for x in pair])
        for c in (1, 2):
            column = extended.column(c)
            assert QuadNumber(4) * column[1] * column[2] == sum(column[1:], QuadNumber(0))
        tail_root, calls = diagsearch._tail_root, []

        def counted(x, y, d, p):
            calls.append(p)
            return tail_root(x, y, d, p)

        monkeypatch.setattr(diagsearch, "_tail_root", counted)
        assert solve_cosines(diagram, cosines, 2, [3, 4], config) == []
        assert calls == [1]

    @pytest.mark.xfail(
        strict=True,
        reason="an open search solves two fresh cosines of a rational subtree "
        "over Q only (solve_cosines loops over config.fields only for three "
        "or more), so the rational r^2 = 33/16 yields no pair in Q(sqrt 33)",
    )
    def test_an_open_search_keeps_a_tail_root_of_a_searched_field(self):
        diagram, cosines = self.OPEN_TAIL
        config = SearchConfig(k1=4, a1=0, radicand=None)
        found = solve_cosines(diagram, cosines, 2, [3, 4], config)
        assert any(ext.radicand == 33 for ext in found)


# -- the incremental checks and the bisected tail slice against the full ones

# (k1, a1, radicand) -> the stats of the runs over Q with a1 = 1 or 2 that
# no local case searches, laid out as in PINNED_STATS
RATIONAL_STATS = {
    (3, 1, 1): (17, 0, 0, 15, 2, 0, 0, 0),
    (3, 2, 1): (18, 0, 0, 16, 0, 0, 1, 0),
    (4, 2, 1): (27, 0, 0, 34, 3, 0, 0, 0),
}

# (k1, a1, radicand): the three open runs, the run over Q[sqrt(5)] and the
# runs of RATIONAL_STATS
DIFFERENTIAL_RUNS = [(3, 0, None), (4, 1, None), (4, 0, None), (4, 0, 5), *RATIONAL_STATS]


def _pinned_stats(k1, a1, p):
    if p is None:
        nodes, emitted, *pruned = OPEN_STATS[k1, a1]
    else:
        nodes, emitted, *pruned = {**PINNED_STATS, **RATIONAL_STATS}[k1, a1, p]
    return {"nodes": nodes, "emitted": emitted, "pruned": dict(zip(REASONS, pruned))}


def reference_integrality(pair: tuple, k) -> str:
    """_integrality as QuadNumber tests, as it was before it ran on ints,
    kept verbatim as the reference."""
    if k is None:
        return ""
    kq = QuadNumber(k)
    for x in pair:
        lam = x * kq
        if not is_algebraic_integer(lam):
            return "algebraic-integer"
        if not (-kq <= lam.conjugate() <= kq):
            return "conjugate-bound"
    return ""


def _disc(P, Q, R, a):
    return (P * a + Q) * a + R


@st.composite
def _quadratic_at(draw):
    """(p, P, Q, R, a) with Q, R and a in Q[sqrt(p)] and P a negative int, as
    P = -w*W is in a search."""
    p = draw(st.sampled_from([1, 2, 5]))
    elements = _field_elements(p)
    P = draw(st.integers(-12, -1))
    return p, P, draw(elements), draw(elements), draw(elements)


def reference_tail_slice(cands: tuple, P: QuadNumber, Q: QuadNumber, R: QuadNumber):
    """_tail_slice as QuadNumber sign tests, as it was before it ran on ints,
    kept verbatim as the reference."""

    def nonnegative(a):
        return ((P * a + Q) * a + R).sign() >= 0

    top = bisect.bisect_left(cands, -Q / (P + P))
    lo = bisect.bisect_left(cands, True, 0, top, key=nonnegative)
    hi = bisect.bisect_left(cands, True, top, len(cands),
                            key=lambda a: not nonnegative(a))
    return lo, hi


@pytest.fixture(scope="module")
def recorded_runs():
    """The searches of DIFFERENTIAL_RUNS, recording: each arrangement's
    (incremental, full) diagram verdicts and its layers; each extension's
    (incremental, full) cosine verdicts and its fresh vertices' valencies;
    each tail slice's (cands, P, Q, R, (lo, hi)); the arguments of each
    solve_cosines call with a surplus; each emission's (diagram, cosines,
    verdict); the stats per run."""
    rec = {"arrangements": [], "layers": [], "extensions": [], "fresh_valencies": set(),
           "slices": [], "surplus": [], "emissions": [], "stats": {}}
    check_arrangement = diagsearch._check_arrangement
    check_extension = diagsearch._check_extension
    emission_checks = diagsearch._emission_checks
    draw_bound = diagsearch._draw_bound
    tail_slice = diagsearch._tail_slice
    quadratics = {}  # each bound of _draw_bound -> its (P, Q, R)
    solve = diagsearch.solve_cosines

    def arrangement(diagram, v):
        got = check_arrangement(diagram, v)
        rec["arrangements"].append((got, check_diagram_valid(diagram)))
        rec["layers"].append(diagram.layers)
        return got

    def extension(cosines, diagram, v, fresh):
        got = check_extension(cosines, diagram, v, fresh)
        rec["extensions"].append((got, check_solution_valid(cosines, diagram)))
        rec["fresh_valencies"].update(diagram.valencies[f] for f in fresh)
        return got

    def emission(diagram, cosines):
        got = emission_checks(diagram, cosines)
        rec["emissions"].append((diagram, cosines, got))
        return got

    def recorded_bound(P, Q, R, p):
        got = draw_bound(P, Q, R, p)
        quadratics[got] = (P, Q, R)
        return got

    def recorded_slice(cands, vertex, bound, p):
        got = tail_slice(cands, vertex, bound, p)
        rec["slices"].append((cands, *quadratics[bound], got))
        return got

    def recorded_solve(diagram, cosines, v, fresh, config):
        if len(fresh) > 2:
            rec["surplus"].append((diagram, cosines, v, fresh, config))
        return solve(diagram, cosines, v, fresh, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagsearch, "_check_arrangement", arrangement)
        mp.setattr(diagsearch, "_check_extension", extension)
        mp.setattr(diagsearch, "_draw_bound", recorded_bound)
        mp.setattr(diagsearch, "_tail_slice", recorded_slice)
        mp.setattr(diagsearch, "solve_cosines", recorded_solve)
        mp.setattr(diagsearch, "_emission_checks", emission)
        for k1, a1, p in DIFFERENTIAL_RUNS:
            outcome = generate_diagrams(SearchConfig(k1=k1, a1=a1, radicand=p))
            rec["stats"][k1, a1, p] = outcome.stats
    return rec


class TestIncrementalChecks:
    def test_recorded_runs_keep_their_stats(self, recorded_runs):
        for key in DIFFERENTIAL_RUNS:
            assert recorded_runs["stats"][key] == _pinned_stats(*key), key

    def test_arrangement_check_is_the_full_check(self, recorded_runs):
        # _check_arrangement checks only Yamazaki's lemma, and arrangements
        # keeps every other axiom by construction; so this comparison with
        # the full check is the guard of those construction guarantees
        pairs = recorded_runs["arrangements"]
        assert all(got == want for got, want in pairs)
        # one verdict per arrangement the search checked
        pruned = sum(s["pruned"]["diagram"] for s in recorded_runs["stats"].values())
        assert sum(1 for got, _want in pairs if not got[0]) == pruned > 0

    @pytest.mark.parametrize("k1,a1", [(3, 0), (4, 1)])
    def test_diagram_prunes_count_per_seed(self, monkeypatch, k1, a1):
        # the seeds share vertex 1's arrangements, which the search builds
        # and checks once; each seed still counts each prune among them
        config = SearchConfig(k1=k1, a1=a1, radicand=None)
        seeds = list(_seeds(config))
        first = list(arrangements(DistributionDiagram.seed(k1, a1), 1, config))
        monkeypatch.setattr(diagsearch, "_check_arrangement", lambda nd, v: (False, "yamazaki"))
        stats = generate_diagrams(config).stats
        assert stats["nodes"] == len(seeds) > 1
        assert stats["pruned"]["diagram"] == len(seeds) * len(first) > len(first)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_arrangements_in_index_order_keep_the_axioms(self, data):
        # A walk that finishes the relations in index order, as the search
        # does, through any arrangement that passes the full check, not only
        # those whose cosines solve; it compares the two checks on every
        # arrangement it meets.
        k1 = data.draw(st.sampled_from([3, 4, 5]))
        a1 = data.draw(st.integers(0, k1 - 1))
        config = SearchConfig(k1=k1, a1=a1, radicand=None)
        diagram = DistributionDiagram.seed(k1, a1)
        for _step in range(10):
            v = diagram.done
            if v == diagram.n:
                break
            valid = []
            for nd, _fresh in arrangements(diagram, v, config):
                verdict = check_diagram_valid(nd)
                assert _check_arrangement(nd, v) == verdict
                if verdict[0]:
                    valid.append(nd)
            if not valid:
                break
            diagram = data.draw(st.sampled_from(valid))

    def test_extension_check_is_the_full_check(self, recorded_runs):
        pairs = recorded_runs["extensions"]
        assert all(got == want for got, want in pairs)
        pruned = sum(s["pruned"]["solution"] for s in recorded_runs["stats"].values())
        reasons = {got[1] for got, _want in pairs if not got[0]}
        assert sum(1 for got, _want in pairs if not got[0]) == pruned > 0
        assert len(reasons) > 1

    @pytest.mark.parametrize("k1,a1,p", DIFFERENTIAL_RUNS)
    def test_a_seed_can_fail_only_vertex_1s_test(self, k1, a1, p):
        # vertex 1's algebraic-integer test, which the first arrangement (at
        # v = 1) runs; the seed diagram itself is valid
        diagram = DistributionDiagram.seed(k1, a1)
        assert diagram.done == 1
        assert check_diagram_valid(diagram) == (True, "")
        seeds = list(_seeds(SearchConfig(k1=k1, a1=a1, radicand=p)))
        for seed in seeds:
            assert check_solution_valid(seed, diagram) == _check_extension(seed, diagram, 1, [])

    def test_tail_slice_is_the_nonnegative_candidates(self, recorded_runs):
        slices = recorded_runs["slices"]
        for cands, P, Q, R, (lo, hi) in slices:
            signs = [_disc(P, Q, R, a).sign() for a in cands]
            assert all(sign >= 0 for sign in signs[lo:hi])
            assert all(sign < 0 for sign in signs[:lo] + signs[hi:])
            assert reference_tail_slice(cands, P, Q, R) == (lo, hi)
        assert any(hi > lo for _c, _P, _Q, _R, (lo, hi) in slices)
        assert any(hi == lo for _c, _P, _Q, _R, (lo, hi) in slices)

    def test_bisected_tail_solves_as_the_full_scan(self, recorded_runs):
        # the full scan hands every candidate to the tail solver, which finds
        # no root for a negative discriminant
        calls = recorded_runs["surplus"]
        assert any(solve_cosines(*args) for args in calls)
        for args in calls:
            got = solve_cosines(*args)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(diagsearch, "_tail_slice", lambda cands, *_: (0, len(cands)))
                want = solve_cosines(*args)
            assert got == want

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_integrality_on_ints_is_the_quadnumber_test(self, data):
        # cosines lambda/k of bounded algebraic integers up to 2k, so that some
        # miss the conjugate bound, and arbitrary field values
        p = data.draw(st.sampled_from([1, 2, 5]))
        k = data.draw(st.integers(1, 12))
        lams = bounded_algebraic_integers(2 * k, p)
        cosine = st.one_of(st.sampled_from(lams).map(lambda lam: lam / QuadNumber(k)),
                           _field_elements(p))
        pair = (data.draw(cosine), data.draw(cosine))
        assert _integrality(pair, k) == reference_integrality(pair, k)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tail_slice_on_concave_quadratics(self, data):
        p = data.draw(st.sampled_from([1, 2, 5]))
        elements = _field_elements(p)
        P = data.draw(st.integers(-12, -1))
        Q, R = data.draw(elements), data.draw(elements)
        cands = tuple(sorted(set(data.draw(st.lists(elements, max_size=12)))))
        lo, hi = _tail_slice(cands, -Q / (2 * P), _draw_bound(P, Q, R, p), p)
        assert list(cands[lo:hi]) == [a for a in cands if _disc(P, Q, R, a).sign() >= 0]
        assert reference_tail_slice(cands, P, Q, R) == (lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(_quadratic_at())
    # -a^2 at a = sqrt(5), which needs the sqrt(p) term's p
    @example((5, -1, QuadNumber(0), QuadNumber(0), QuadNumber(0, 1, 5)))
    def test_draw_bound_is_the_quadnumber_quadratic(self, case):
        p, P, Q, R, a = case
        x, y, d = _draw_bound(P, Q, R, p)(a)
        assert d > 0
        assert QuadNumber(Fraction(x, d), Fraction(y, d), p) == _disc(P, Q, R, a)


# -- the checks that the search drops, as their inputs always pass them


def reference_seeds(config: SearchConfig):
    """_seeds as it was before it dropped the range tests that every
    candidate passes, kept verbatim as the reference."""
    for field in config.fields:
        cands = _cosine_candidates(config.k1, field)
        for w1 in cands:
            if not (-_ONE < w1 < _ONE):
                continue
            if config.light_tail:
                w2 = _second_from_first(w1, _ZERO)
                if w2 == w1 or not (-_ONE <= w2 <= _ONE):
                    continue
                pairs = [(w2, _ZERO)]
            else:
                pairs = []
                rest = _ONE - _FOUR * w1 * w1
                for w2 in cands:
                    if w2 == w1 or not (-_ONE <= w2 <= _ONE):
                        continue
                    q111 = (_THREE * w2 + rest) / (w2 - w1)
                    if _ZERO <= q111 < _THREE:
                        pairs.append((w2, q111))
            for w2, q111 in pairs:
                # rational seeds lie in every field: only the first takes them
                if field != config.fields[0] and w1.is_rational and w2.is_rational:
                    continue
                yield CosineColumns(field, q111, [(_ONE, _ONE), (w1, w2)])


def reference_emission_checks(diagram: DistributionDiagram, cosines: CosineColumns):
    """_emission_checks as it was before it dropped the three sums that the
    recurrences settle, kept verbatim as the reference."""
    size = diagram.size()
    ks = [QuadNumber(k) for k in diagram.valencies]
    col1, col2 = cosines.column(1), cosines.column(2)
    if sum((k * w for k, w in zip(ks, col1)), _ZERO):
        return False, "orthogonality"
    if sum((k * w for k, w in zip(ks, col2)), _ZERO):
        return False, "orthogonality"
    if sum((k * w * w for k, w in zip(ks, col1)), _ZERO) * _FOUR != QuadNumber(size):
        return False, "multiplicity-m1"
    if sum((k * a * b for k, a, b in zip(ks, col1, col2)), _ZERO):
        return False, "orthogonality"
    s2 = sum((k * w * w for k, w in zip(ks, col2)), _ZERO)
    if not s2:
        return False, "multiplicity-m2"
    m2 = QuadNumber(size) / s2
    if not (m2.is_rational and Fraction(m2.a).denominator == 1 and m2.a >= 1):
        return False, "multiplicity-m2"
    return True, ""


@pytest.fixture(scope="module")
def emission_calls(recorded_runs):
    """(diagram, cosines, verdict) of each emission of the searches of
    DIFFERENTIAL_RUNS and of the open (6, 4) search."""
    calls = list(recorded_runs["emissions"])
    emission_checks = diagsearch._emission_checks

    def emission(diagram, cosines):
        got = emission_checks(diagram, cosines)
        calls.append((diagram, cosines, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagsearch, "_emission_checks", emission)
        generate_diagrams(SearchConfig(k1=6, a1=4, radicand=None))
    return calls


def _weighted_sum(ks: list, *columns) -> QuadNumber:
    """sum over the vertices of k times the product of the columns' values."""
    total = _ZERO
    for k, *values in zip(ks, *columns):
        for w in values:
            k = k * w
        total = total + k
    return total


class TestDroppedChecks:
    def test_emission_checks_match_the_reference(self, emission_calls):
        assert all(got == reference_emission_checks(d, c) for d, c, got in emission_calls)
        verdicts = {got for _d, _c, got in emission_calls}
        assert verdicts == {(True, ""), (False, "orthogonality")}

    def test_the_dropped_emission_sums_hold_at_every_emission(self, emission_calls):
        # every vertex is finished, so the recurrences, the handshake and the
        # out-weights k1 give (w(1,c) - 1)*S_c = 0 and
        # (w(1,1) - w(1,2))*sum k*w1*w2 = 0, and the dual recurrence gives
        # 4*sum k*w1^2 = |X| + q111*S_1 + (3 - q111)*S_2; w(0,2) = 1 and
        # |w2| <= 1 give 1 <= sum k*w2^2 <= |X|, so m2 >= 1
        for diagram, cosines, _got in emission_calls:
            ks = [QuadNumber(k) for k in diagram.valencies]
            col1, col2 = cosines.column(1), cosines.column(2)
            assert not _weighted_sum(ks, col1)
            assert not _weighted_sum(ks, col1, col2)
            assert _ONE <= _weighted_sum(ks, col2, col2) <= QuadNumber(diagram.size())
            if _weighted_sum(ks, col2):
                # so column 2 fails only where w(1,2) = 1
                assert col2[1] == _ONE
            else:
                assert _FOUR * _weighted_sum(ks, col1, col1) == QuadNumber(diagram.size())

    def test_emission_refuses_a_fractional_m2(self):
        # no search here meets one, so made-up valencies and a column 2 that
        # sums to 1 - 2/4 - 1/2 = 0, with m2 = 4/(1 + 2/16 + 1/4) = 32/11;
        # the test reads neither the arcs nor column 1
        diagram = DistributionDiagram(2, [0, 1, 2], {}, [1, 2, 1], 3)
        half, quarter = QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(1, 4))
        cosines = CosineColumns(1, _ZERO, [(_ONE, _ONE), (_ZERO, -quarter), (_ZERO, -half)])
        assert _emission_checks(diagram, cosines) == (False, "multiplicity-m2")

    @pytest.mark.parametrize(
        "k1,a1,p",
        [(k1, a1, None) for k1 in range(3, 7) for a1 in range(k1)] + [(4, 0, 5), (4, 0, 1)],
    )
    def test_seeds_match_the_reference(self, k1, a1, p):
        config = SearchConfig(k1=k1, a1=a1, radicand=p)
        assert list(_seeds(config)) == list(reference_seeds(config))

    @pytest.mark.parametrize("k", range(3, 10))
    def test_cosine_candidates_lie_in_the_closed_unit_interval(self, k):
        # so the seeds' w1 in (-1, 1) is the slice cands[1:-1]
        for p in [1, *candidate_radicands(k)]:
            cands = _cosine_candidates(k, p)
            assert cands[0] == -_ONE and cands[-1] == _ONE
            assert all(x != _ONE and x != -_ONE for x in cands[1:-1])

    def test_fresh_vertices_have_no_valency_when_their_extension_is_checked(
        self, recorded_runs
    ):
        # so _check_extension runs the integrality test at v alone
        assert recorded_runs["fresh_valencies"] == {None}

    def test_no_vertex_lies_above_its_index(self, recorded_runs):
        # so arrangements' order test also keeps every fresh vertex at a
        # layer of at most degree_bound
        assert recorded_runs["layers"]
        for layers in recorded_runs["layers"]:
            assert all(layer <= j for j, layer in enumerate(layers))

    def test_partitions_into_no_parts(self):
        assert list(_partitions(0, 0)) == [()]
        assert list(_partitions(3, 0)) == []
        assert list(_partitions(3, 1)) == [(3,)]
