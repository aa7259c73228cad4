"""Acceptance criteria, one test and one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines."""

import contextlib
import json
import time

import pytest

from schemeforge.catalogue import (
    CATALOGUE,
    SchemeFileError,
    load_bundled,
    parse_scheme_file,
)
from schemeforge.cli import main
from schemeforge.diagsearch import SearchConfig, generate_diagrams
from schemeforge.exactnum import QuadNumber, is_psd, rank
from schemeforge.graphs import extend_locally, identify_graph, named_graph
from schemeforge.localclass import classify_local, delsarte_bound, gram_matrix
from schemeforge.schemes import (
    SchemeRefutation,
    krein_check,
    light_tail_bound,
    qpolynomial_spectra,
    verify_scheme,
)

from matrices import idempotent, matmul


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number}] FAIL — {title}")
        raise
    print(f"[acceptance {number}] PASS — {title}")


def q(text: str) -> QuadNumber:
    return QuadNumber.parse(text)


# exact first cosine column of each bundled scheme, indexed by relation
COSINE_COLUMNS = {
    "AS05[1]": ["1", "-1/4"],
    "AS06[3]": ["1", "0", "-1/2"],
    "AS08[2]": ["1", "0", "-1"],
    "AS09[3]": ["1", "1/4", "-1/2"],
    "AS10[3]": ["1", "1/6", "-2/3"],
    "AS10[6]": ["1", "1/4", "-1/4", "-1"],
    "AS16[30]": ["1", "1/2", "0", "-1/2", "-1"],
    "AS24[43]": ["1", "1/2", "0", "-1/2", "-1"],
}


def test_1_cosine_table_reproduction():
    with criterion(1, "all eight bundled schemes: m1 = 4 and exact cosines, < 10 s"):
        start = time.monotonic()
        for sid, expected in COSINE_COLUMNS.items():
            s = load_bundled(sid)
            sp, _ = qpolynomial_spectra(s)
            assert sp.multiplicities[1] == 4, sid
            got = [str(sp.cosines[i][1]) for i in range(s.d + 1)]
            assert got == expected, (sid, got)
        assert time.monotonic() - start < 10


def test_2_local_classification():
    with criterion(2, "nine local graphs, six geometric cases, exact witnesses, < 60 s"):
        start = time.monotonic()
        result = classify_local()
        names = {s.name for s in result}
        assert names == {
            "N3", "K3", "N4", "K4", "2K2", "C4", "C5", "K3xK2", "octahedron",
        }
        labels = {s.geometric_label for s in result}
        assert len(labels) == 6
        for sol in result:
            assert sol.solutions
            for b1, b2 in sol.solutions:
                g = gram_matrix(sol.graph, b1, b2)
                assert is_psd(g) and rank(g) <= 3
        assert time.monotonic() - start < 60


def test_3_full_classification(capsys):
    with criterion(3, "classify: the six pairs plus the documented exclusions, < 30 min"):
        start = time.monotonic()
        code = main(["classify"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)["payload"]
        pairs = {(r["graph"], r["scheme_id"]) for r in payload["results"]}
        assert pairs == {
            ("K3,3", "AS06[3]"),
            ("K2,2,2,2", "AS08[2]"),
            ("K3xK3", "AS09[3]"),
            ("J(5,2)", "AS10[3]"),
            ("crown", "AS10[6]"),
            ("Q4", "AS16[30]"),
        }
        excluded = {e["graph"]: e["reason"] for e in payload["exclusions"]}
        assert excluded["K5"] == "partially_metric_level = 1"
        assert excluded["icosahedron"] == "m1 = 3"
        assert excluded["octahedron"] == "m1 = 3"
        assert payload["complete"] is True
        assert time.monotonic() - start < 1800


def test_4_per_case_search_outputs():
    with criterion(4, "search (3,0) -> K3,3; (4,1) -> K3xK3; (4,0) -> crown + Q4; nothing unmatched"):
        matched = {}
        for k1, a1 in ((3, 0), (4, 1), (4, 0)):
            outcome = generate_diagrams(SearchConfig(k1=k1, a1=a1))
            assert outcome.complete
            assert all(r.matched is not None for r in outcome.results)
            matched[(k1, a1)] = sorted(r.matched for r in outcome.results)
        assert matched[(3, 0)] == ["AS06[3]"]
        assert matched[(4, 1)] == ["AS09[3]"]
        assert matched[(4, 0)] == ["AS10[6]", "AS16[30]"]
        assert SearchConfig(k1=4, a1=0).light_tail


def test_5_bound_checks():
    with criterion(5, "delsarte_bound(3, 2) = 9; kissing prune fires in the N4 search"):
        assert delsarte_bound(3, 2) == 9
        outcome = generate_diagrams(SearchConfig(k1=4, a1=0))
        assert outcome.stats["pruned"]["kissing"] > 0


def test_6_light_tail_bound():
    with criterion(6, "light-tail equality for Q4 and crown (= 4 = m1); 36/11 for K3xK3"):
        for sid in ("AS16[30]", "AS10[6]", "AS09[3]"):
            s = load_bundled(sid)
            sp, _ = qpolynomial_spectra(s)
            bound = light_tail_bound(
                s.valencies[1], sp.P[1][1], s.p[1][1][1], s.p[2][1][1]
            )
            m1 = QuadNumber(sp.multiplicities[1])
            if sid == "AS09[3]":
                assert bound == q("36/11")
                assert bound != m1
            else:
                assert bound == QuadNumber(4) == m1


def test_7_local_characterizations():
    with criterion(7, "locally K3xK2 / octahedron / C5 -> J(5,2) / 16-cell / icosahedron, each < 5 min"):
        cases = [
            ("K3xK2", 15, ["J(5,2)"]),
            ("octahedron", 24, ["K2,2,2,2"]),  # the 16-cell graph
            ("C5", 24, ["icosahedron"]),
        ]
        for name, n_max, expected in cases:
            start = time.monotonic()
            ext = extend_locally(named_graph(name), n_max)
            assert ext.complete
            assert [identify_graph(g) for g in ext.graphs] == expected
            assert time.monotonic() - start < 300


def test_8_property_suites():
    with criterion(8, "handshake, both recurrences, Krein >= 0, initial Krein identities, "
                      "even-column rationality, degree bound, E_j^2 = E_j on every bundled scheme"):
        for sid in sorted(CATALOGUE):
            s = load_bundled(sid)
            sp, _ = qpolynomial_spectra(s)
            d = s.d
            zero, one = QuadNumber(0), QuadNumber(1)
            # handshake
            for j in range(d + 1):
                for h in range(d + 1):
                    assert s.valencies[j] * s.p[h][1][j] == s.valencies[h] * s.p[j][1][h]
            # primal and dual cosine recurrences
            for i in range(d + 1):
                for j in range(d + 1):
                    for c in range(d + 1):
                        lhs = QuadNumber(s.valencies[i]) * sp.cosines[i][c] * sp.cosines[j][c]
                        rhs = sum(
                            (QuadNumber(s.p[h][i][j]) * sp.cosines[h][c] for h in range(d + 1)),
                            zero,
                        )
                        assert lhs == rhs
                    for r in range(d + 1):
                        lhs = QuadNumber(sp.multiplicities[i]) * sp.cosines[r][i] * sp.cosines[r][j]
                        rhs = sum(
                            (sp.krein[h][i][j] * sp.cosines[r][h] for h in range(d + 1)),
                            zero,
                        )
                        assert lhs == rhs
            # Krein non-negativity and initial Krein identities
            ok, _w = krein_check(sp)
            assert ok
            m1 = QuadNumber(sp.multiplicities[1])
            assert sp.krein[0][1][0] == zero
            assert sp.krein[0][1][1] == one
            assert sp.krein[1][1][0] == m1
            if d >= 2:
                assert sp.krein[2][1][1] == m1 - one - sp.krein[1][1][1]
            # even idempotent columns of Q are rational (Galois-stable); the
            # literal integrality strengthening fails on AS10[3] (entry -5/3)
            for c in range(0, d + 1, 2):
                for i in range(d + 1):
                    assert sp.Q[i][c].is_rational
                    if sid != "AS10[3]":
                        assert sp.Q[i][c].is_integer
            # degree bound
            assert d <= 4 * s.valencies[1] + 1
            if sp.radicand == 1:
                assert d <= 2 * s.valencies[1] + 1
            # exact idempotency
            for c in range(d + 1):
                e = idempotent(sp, c)
                assert matmul(e, e) == e


def test_9_negative_paths():
    with criterion(9, "P3 partition refuted with a witness triple; parser errors carry positions"):
        rel = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        refutation = verify_scheme(rel)
        assert isinstance(refutation, SchemeRefutation)
        assert len(refutation.witness) >= 3
        with pytest.raises(SchemeFileError) as exc:
            parse_scheme_file("2\n0 1\n1 1\n")
        assert exc.value.line == 3 and exc.value.column == 3
        with pytest.raises(SchemeFileError) as exc:
            parse_scheme_file("")
        assert (exc.value.line, exc.value.column) == (1, 1)
