"""Scheme axioms, exact spectra, cosines, Krein data, light tails."""

from fractions import Fraction

import pytest

from schemeforge import schemes
from schemeforge.catalogue import CATALOGUE, SchemeFile, load_bundled
from schemeforge.exactnum import ExactMatrix, QuadNumber
from schemeforge.graphs import Graph, named_graph
from schemeforge.schemes import (
    Scheme,
    SchemeRefutation,
    Spectra,
    SplittingFieldError,
    krein_check,
    light_tail_bound,
    partially_metric_level,
    q_poly_orderings,
    qpolynomial_spectra,
    relation_layers,
    scheme_from_graph_distances,
    spectra,
    verify_scheme,
    why_not_classified,
)

from matrices import idempotent, matmul

IDS = sorted(CATALOGUE)


def q(text: str) -> QuadNumber:
    return QuadNumber.parse(text)


# -- spectral helpers that the pipeline itself does not need


def nearest_neighbour_relation(sp: Spectra) -> int:
    """Relation index maximizing the E_1 inner product alpha_i < 1.

    Requires all alpha_i distinct (faithfulness of the E_1 representation)."""
    d = sp.d
    alphas = [sp.cosines[i][1] for i in range(d + 1)]
    if len(set(alphas)) != d + 1:
        raise ValueError("cosine column 1 has repeated values; not faithful")
    best = max(range(1, d + 1), key=lambda i: alphas[i])
    return best


def embedding_gram(sp: Spectra, j: int) -> ExactMatrix:
    """Gram matrix (|X|/m_j) E_j of the spherical representation: the (x,y)
    entry is the cosine of the relation joining x and y."""
    s = sp.scheme
    return ExactMatrix(
        [
            [sp.cosines[s.relations[x][y]][j] for y in range(s.n)]
            for x in range(s.n)
        ]
    )


def is_light_tail(m, k, theta, a1, b1) -> bool:
    mq = m if isinstance(m, QuadNumber) else QuadNumber(m)
    return mq == light_tail_bound(k, theta, a1, b1)


class TestVerify:
    def test_catalogue_schemes_verify(self, catalogue):
        for sid, s in catalogue.items():
            assert isinstance(s, Scheme)
            assert sum(s.valencies) == s.n

    def test_p3_distance_partition_refuted_with_witness(self):
        # the path 0-1-2: p_{11}^0 is 2 at vertex 1 but 1 at vertex 0
        rel = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        result = verify_scheme(rel)
        assert isinstance(result, SchemeRefutation)
        assert result.witness != ()
        assert len(result.witness) >= 3

    def test_asymmetric_relation_refuted(self):
        rel = [[0, 1], [2, 0]]
        assert isinstance(verify_scheme(rel), SchemeRefutation)

    def test_disconnected_graph_rejected(self):
        assert isinstance(
            scheme_from_graph_distances(named_graph("2K2")), SchemeRefutation
        )

    def test_cubic_splitting_field_raises(self):
        # C7: eigenvalues 2cos(2*pi*j/7) generate a cubic field
        s = scheme_from_graph_distances(named_graph("C7"))
        assert isinstance(s, Scheme)
        with pytest.raises(SplittingFieldError):
            spectra(s)


class TestSpectra:
    @pytest.mark.parametrize("sid", IDS)
    def test_multiplicities_sum_to_order(self, catalogue_spectra, catalogue, sid):
        sp, _ = catalogue_spectra[sid]
        assert sp.multiplicities[0] == 1
        assert sum(sp.multiplicities) == catalogue[sid].n

    @pytest.mark.parametrize("sid", IDS)
    def test_pq_duality(self, catalogue_spectra, catalogue, sid):
        # m_c P[c][i] = k_i Q[i][c]
        sp, _ = catalogue_spectra[sid]
        s = catalogue[sid]
        for c in range(s.d + 1):
            for i in range(s.d + 1):
                lhs = QuadNumber(sp.multiplicities[c]) * sp.P[c][i]
                rhs = QuadNumber(s.valencies[i]) * sp.Q[i][c]
                assert lhs == rhs

    @pytest.mark.parametrize("sid", IDS)
    def test_idempotents_are_idempotent(self, catalogue_spectra, sid):
        sp, _ = catalogue_spectra[sid]
        for c in range(sp.d + 1):
            e = idempotent(sp, c)
            assert matmul(e, e) == e

    @pytest.mark.parametrize("sid", IDS)
    def test_primal_cosine_recurrence(self, catalogue_spectra, catalogue, sid):
        # k_i w_{i,c} w_{j,c} = sum_h p_{hi}^j w_{h,c}
        sp, _ = catalogue_spectra[sid]
        s = catalogue[sid]
        for c in (1, 2):
            if c > s.d:
                continue
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    lhs = (
                        QuadNumber(s.valencies[i])
                        * sp.cosines[i][c]
                        * sp.cosines[j][c]
                    )
                    rhs = sum(
                        (
                            QuadNumber(s.p[h][i][j]) * sp.cosines[h][c]
                            for h in range(s.d + 1)
                        ),
                        QuadNumber(0),
                    )
                    assert lhs == rhs

    @pytest.mark.parametrize("sid", IDS)
    def test_dual_cosine_recurrence(self, catalogue_spectra, catalogue, sid):
        # m_i w_{r,i} w_{r,j} = sum_h q_{hi}^j w_{r,h}
        sp, _ = catalogue_spectra[sid]
        s = catalogue[sid]
        for i in range(s.d + 1):
            for j in range(s.d + 1):
                for r in range(s.d + 1):
                    lhs = (
                        QuadNumber(sp.multiplicities[i])
                        * sp.cosines[r][i]
                        * sp.cosines[r][j]
                    )
                    rhs = sum(
                        (
                            sp.krein[h][i][j] * sp.cosines[r][h]
                            for h in range(s.d + 1)
                        ),
                        QuadNumber(0),
                    )
                    assert lhs == rhs

    @pytest.mark.parametrize("sid", IDS)
    def test_krein_nonnegative(self, catalogue_spectra, sid):
        sp, _ = catalogue_spectra[sid]
        ok, witness = krein_check(sp)
        assert ok and witness is None

    @pytest.mark.parametrize("sid", IDS)
    def test_initial_krein_identities(self, catalogue_spectra, sid):
        sp, _ = catalogue_spectra[sid]
        m1 = QuadNumber(sp.multiplicities[1])
        assert sp.krein[0][1][0] == QuadNumber(0)
        assert sp.krein[0][1][1] == QuadNumber(1)
        assert sp.krein[1][1][0] == m1
        if sp.d >= 2:
            q111 = sp.krein[1][1][1]
            assert sp.krein[2][1][1] == m1 - QuadNumber(1) - q111

    @pytest.mark.parametrize("sid", IDS)
    def test_even_column_rationality(self, catalogue_spectra, sid):
        # under a Q-polynomial ordering the even idempotent columns of Q are
        # fixed by the field conjugation, hence rational; on every bundled
        # scheme except AS10[3] they are in fact rational integers (AS10[3]
        # has the entry -5/3 in column 2 under both of its orderings, so
        # integrality cannot be asserted in general)
        sp, _ = catalogue_spectra[sid]
        for c in range(0, sp.d + 1, 2):
            for i in range(sp.d + 1):
                assert sp.Q[i][c].is_rational
                if sid != "AS10[3]":
                    assert sp.Q[i][c].is_integer

    @pytest.mark.parametrize("sid", IDS)
    def test_degree_bound(self, catalogue_spectra, catalogue, sid):
        sp, _ = catalogue_spectra[sid]
        s = catalogue[sid]
        v1 = s.valencies[1]
        assert s.d <= 4 * v1 + 1
        if sp.radicand == 1:
            assert s.d <= 2 * v1 + 1

    @pytest.mark.parametrize("sid", IDS)
    def test_at_most_two_orderings(self, catalogue_spectra, sid):
        _, orderings = catalogue_spectra[sid]
        assert 1 <= len(orderings) <= 2

    def test_repeated_root_is_returned_once(self):
        # t^3 - 3t - 2 = (t + 1)^2 (t - 2)
        roots, radicand = schemes._factor_eigenvalues([-2, -3, 0, 1])
        assert sorted(roots) == [QuadNumber(-1), QuadNumber(2)]
        assert radicand == 1

    def test_eigenvalue_collision_takes_the_next_combination(self, monkeypatch, catalogue):
        s = catalogue["AS10[6]"]
        want = spectra(s)
        # the zero combination has the single eigenvalue 0 for every idempotent
        vectors = [lambda d: [0] * (d + 1)] + schemes._GENERIC_COEFF_VECTORS
        monkeypatch.setattr(schemes, "_GENERIC_COEFF_VECTORS", vectors)
        assert spectra(s).P == want.P
        monkeypatch.setattr(schemes, "_GENERIC_COEFF_VECTORS", vectors[:1])
        with pytest.raises(ValueError, match="eigenvalue collision"):
            spectra(s)

    def test_icosahedron_needs_sqrt5(self):
        s = scheme_from_graph_distances(named_graph("icosahedron"))
        assert isinstance(s, Scheme)
        assert spectra(s).radicand == 5

    @pytest.mark.parametrize("sid", IDS)
    def test_nearest_neighbour_relation_is_r1(self, catalogue_spectra, sid):
        sp, _ = catalogue_spectra[sid]
        assert nearest_neighbour_relation(sp) == 1

    @pytest.mark.parametrize("sid", IDS)
    def test_embedding_gram_matches_idempotent(self, catalogue_spectra, sid):
        sp, _ = catalogue_spectra[sid]
        s = sp.scheme
        g = embedding_gram(sp, 1)
        m1 = sp.multiplicities[1]
        c = QuadNumber(Fraction(m1, s.n))
        assert ExactMatrix([[x * c for x in row] for row in g.entries]) == idempotent(sp, 1)


# -- partial metricity from graphs: the reference of relation_layers


def scheme_graph(s: Scheme, i: int) -> Graph:
    if i == 0:
        raise ValueError("the trivial relation is not a simple graph")
    return Graph(
        s.n,
        [
            (x, y)
            for x in range(s.n)
            for y in range(x + 1, s.n)
            if s.relations[x][y] == i
        ],
    )


def diameter(g: Graph) -> int:
    best = 0
    for v in range(g.n):
        dv = g.distances_from(v)
        if any(d < 0 for d in dv):
            return -1  # disconnected
        best = max(best, max(dv))
    return best


def distance_i_graph(g: Graph, i: int) -> Graph:
    """Graph on the same vertices whose edges are the pairs at distance i.

    If i exceeds the diameter the result simply has no edges."""
    if i < 1:
        raise ValueError("i must be >= 1")
    edges = []
    for v in range(g.n):
        dv = g.distances_from(v)
        edges.extend((v, u) for u in range(v + 1, g.n) if dv[u] == i)
    return Graph(g.n, edges)


def reference_partially_metric_level(s: Scheme, r: int) -> int:
    """partially_metric_level as it was before relation_layers, kept verbatim
    as the reference: it builds every distance-i graph of the scheme graph of
    R_r and looks for a scheme graph equal to it."""
    g = scheme_graph(s, r)
    if not g.is_connected():
        raise ValueError(f"scheme graph of relation {r} is disconnected")
    diam = diameter(g)
    t = 1
    matched = {1: r}
    for i in range(2, min(diam, s.d) + 1):
        gi = distance_i_graph(g, i)
        hit = None
        for j in range(1, s.d + 1):
            if j in matched.values():
                continue
            if scheme_graph(s, j) == gi:
                hit = j
                break
        if hit is None:
            break
        matched[i] = hit
        t = i
    # metric means all d relations are exhausted by distance graphs
    return t


@pytest.fixture(scope="module")
def layered_schemes(catalogue, two_triangles):
    """The catalogue schemes, the distance schemes of four more
    distance-regular graphs, and the two-triangles scheme, by name."""
    out = dict(catalogue)
    for name in ("Petersen", "cube", "icosahedron", "C6"):
        out[name] = scheme_from_graph_distances(named_graph(name))
    out["2K3 and K3,3"] = verify_scheme(two_triangles)
    return out


class TestPartialMetricity:
    def test_layers(self, catalogue):
        assert relation_layers(catalogue["AS16[30]"]) == [0, 1, 2, 3, 4]
        # the 24-cell: inner products 0 and -1 both lie at distance 2
        assert relation_layers(catalogue["AS24[43]"]) == [0, 1, 2, 2, 3]
        # its antipodal relation is a perfect matching
        assert relation_layers(catalogue["AS24[43]"], 4) == [0, None, None, None, 1]

    def test_layers_are_the_graph_distances(self, layered_schemes):
        # the distance from point 0 to y in the scheme graph of R_r is the
        # layer of the relation of (0, y), or None when y is out of reach
        for name, s in layered_schemes.items():
            for r in range(1, s.d + 1):
                layers = relation_layers(s, r)
                dist = scheme_graph(s, r).distances_from(0)
                assert [layers[s.relations[0][y]] for y in range(s.n)] == [
                    None if t < 0 else t for t in dist
                ], (name, r)

    def test_level_is_the_graph_reference(self, layered_schemes):
        for name, s in layered_schemes.items():
            for r in range(1, s.d + 1):
                try:
                    want = reference_partially_metric_level(s, r)
                except ValueError:
                    with pytest.raises(ValueError, match="disconnected"):
                        partially_metric_level(s, r)
                    continue
                assert partially_metric_level(s, r) == want, (name, r)

    def test_disconnected_relation_graph(self, layered_schemes):
        s = layered_schemes["2K3 and K3,3"]
        assert relation_layers(s, 1) == [0, 1, None]
        assert relation_layers(s, 2) == [0, 2, 1]
        with pytest.raises(ValueError, match="disconnected"):
            partially_metric_level(s, 1)
        assert partially_metric_level(s, 2) == 2

    def test_trivial_relation_has_no_layers(self, catalogue):
        with pytest.raises(ValueError, match="no nontrivial relation"):
            relation_layers(catalogue["AS06[3]"], 0)
        with pytest.raises(ValueError, match="no nontrivial relation"):
            relation_layers(catalogue["AS06[3]"], 3)

    def test_levels(self, catalogue):
        expected = {
            "AS05[1]": 1,
            "AS06[3]": 2,
            "AS08[2]": 2,
            "AS09[3]": 2,
            "AS10[3]": 2,
            "AS10[6]": 3,
            "AS16[30]": 4,
            "AS24[43]": 1,
        }
        for sid, level in expected.items():
            assert partially_metric_level(catalogue[sid], 1) == level

    def test_metric_schemes_reach_diameter(self, catalogue):
        for sid in ("AS10[6]", "AS16[30]"):
            s = catalogue[sid]
            assert partially_metric_level(s, 1) == s.d


class TestWhyNotClassified:
    @pytest.mark.parametrize("name,reason", [
        ("K3xK2", "not distance-regular: p_{11}^1 is 0 at pair (0, 1) but 1 at (0,2)"),
        ("octahedron", "m1 = 3"),
        ("K5", "partially_metric_level = 1"),
        ("J(5,2)", None),
        ("crown", None),
        # the eigenvalues 2cos(2*pi*j/n) of C7 and C9 have degree 3 over Q
        ("C7", "splitting field not quadratic"),
        ("C9", "splitting field not quadratic"),
    ])
    def test_each_reason(self, name, reason):
        assert why_not_classified(scheme_from_graph_distances(named_graph(name))) == reason

    def test_no_q_polynomial_ordering(self):
        # the line graph of the Petersen graph is distance-regular, with
        # integral eigenvalues, but no ordering of its idempotents is cometric
        petersen = named_graph("Petersen")
        edges = [(i, j) for i in range(10) for j in range(i) if petersen.adj[i] >> j & 1]
        line_graph = Graph(15, [
            (a, b) for a in range(15) for b in range(a) if set(edges[a]) & set(edges[b])
        ])
        reason = why_not_classified(scheme_from_graph_distances(line_graph))
        assert reason == "no Q-polynomial ordering"


class TestLightTail:
    def test_bound_equality_q4_and_crown(self):
        # k = 4, theta = 2, a1 = 0: the bound collapses to k = 4 = m1
        for sid in ("AS16[30]", "AS10[6]"):
            s = load_bundled(sid)
            sp, _ = qpolynomial_spectra(s)
            k = s.valencies[1]
            theta = sp.P[1][1]
            a1 = s.p[1][1][1]
            b1 = s.p[2][1][1]
            assert light_tail_bound(k, theta, a1, b1) == QuadNumber(4)
            assert is_light_tail(sp.multiplicities[1], k, theta, a1, b1)

    def test_bound_fails_for_k3xk3(self):
        s = load_bundled("AS09[3]")
        sp, _ = qpolynomial_spectra(s)
        k = s.valencies[1]
        theta = sp.P[1][1]
        a1 = s.p[1][1][1]
        b1 = s.p[2][1][1]
        bound = light_tail_bound(k, theta, a1, b1)
        assert bound == q("36/11")
        assert not is_light_tail(sp.multiplicities[1], k, theta, a1, b1)

    def test_undefined_at_valency(self):
        with pytest.raises(ValueError):
            light_tail_bound(4, 4, 0, 3)

    def test_undefined_at_zero_denominator(self):
        # ((a1+1) theta + k)^2 + k a1 b1 = (2*(-2) + 4)^2 + 0
        with pytest.raises(ValueError, match="undefined"):
            light_tail_bound(4, -2, 1, 0)


def test_value_types_are_immutable(catalogue, catalogue_spectra):
    """Assigning or deleting an attribute of an immutable type raises."""
    from schemeforge.diagsearch import SearchConfig

    values = [
        SchemeFile(1, ((0,),)),
        SearchConfig(k1=4, a1=0),
        SchemeRefutation("shape", "relation map is not square"),
        catalogue["AS06[3]"],
        catalogue_spectra["AS06[3]"][0],
    ]
    for value in values:
        # a NamedTuple keeps its fields in _fields, a class in its __dict__
        name = value._fields[0] if isinstance(value, tuple) else next(iter(vars(value)))
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
