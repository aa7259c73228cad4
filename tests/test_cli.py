"""Command-line surface: scheme files, golden data, reports, exit codes."""

import hashlib
import json

import pytest

from schemeforge import cli, diagsearch
from schemeforge.catalogue import CATALOGUE, catalogue_scheme
from schemeforge.cli import (
    EXIT_BUDGET,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    SchemeFile,
    SchemeFileError,
    bundled_filename,
    load_bundled,
    main,
    parse_scheme_file,
    scheme_file_of,
    serialize_scheme_file,
)

VALID = """\
# the K3,3 scheme: relation 1 across the parts, relation 2 within
id AS06[3]
6
0 2 2 1 1 1
2 0 2 1 1 1   # trailing comment
2 2 0 1 1 1
1 1 1 0 2 2
1 1 1 2 0 2
1 1 1 2 2 0
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out: str) -> dict:
    return json.loads(out)["payload"]


class TestParser:
    def test_valid_file(self):
        sf = parse_scheme_file(VALID)
        assert sf.n == 6
        assert sf.scheme_id == "AS06[3]"
        assert sf.grid[0] == (0, 2, 2, 1, 1, 1)

    def test_round_trip_is_fixed_point(self):
        sf = parse_scheme_file(VALID)
        text = serialize_scheme_file(sf)
        assert parse_scheme_file(text) == sf
        assert serialize_scheme_file(parse_scheme_file(text)) == text

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("", 1, "empty"),
            ("# only comments\n", 1, "empty"),
            ("2\n0 1\n1\n", 3, "expected 2x2 entries"),
            ("2\n0 1\n1 0 1\n", 3, "trailing"),
            ("2\n0 x\n1 0\n", 2, "integer"),
            ("2\n0 5\n5 0\n", 2, "out of range"),
            ("3\n0 1 2\n1 1 1\n2 1 0\n", 3, "diagonal"),
            ("3\n0 1 0\n1 0 1\n0 1 0\n", 2, "off-diagonal zero"),
            ("3\n0 1 2\n2 0 1\n2 1 0\n", 3, "asymmetric"),
            ("3\n0 2 2\n2 0 2\n2 2 0\n", 2, "skip 1"),
        ],
    )
    def test_positioned_errors(self, text, line, fragment):
        with pytest.raises(SchemeFileError) as exc:
            parse_scheme_file(text)
        assert exc.value.line == line
        assert exc.value.column >= 1
        assert fragment in exc.value.message

    def test_error_column_points_at_offender(self):
        with pytest.raises(SchemeFileError) as exc:
            parse_scheme_file("3\n0 1 2\n1 9 1\n2 1 0\n")
        assert (exc.value.line, exc.value.column) == (3, 3)


class TestGoldenData:
    def test_all_bundled_schemes_load(self):
        for sid in CATALOGUE:
            s = load_bundled(sid)
            assert s.n == int(sid[2:4])

    def test_hash_tamper_detected(self, tmp_path, monkeypatch):
        import schemeforge.cli as cli

        src = cli.DATA_DIR
        for f in src.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        name = bundled_filename("AS06[3]")
        text = (tmp_path / name).read_text()
        (tmp_path / name).write_text(text + "# tampered\n")
        monkeypatch.setattr(cli, "DATA_DIR", tmp_path)
        with pytest.raises(RuntimeError, match="hash mismatch"):
            load_bundled("AS06[3]")

    @pytest.mark.parametrize("sid", sorted(CATALOGUE))
    def test_golden_file_rebuilds_from_catalogue(self, sid):
        scheme = catalogue_scheme(sid)
        text = (
            f"# {sid}: scheme of the {CATALOGUE[sid]} graph "
            f"(n = {scheme.n}, d = {scheme.d})\n"
        ) + serialize_scheme_file(scheme_file_of(scheme, sid))
        name = bundled_filename(sid)
        assert text.encode("utf-8") == (cli.DATA_DIR / name).read_bytes()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == cli._read_manifest()[name]


class TestExitCodes:
    def test_verify_valid(self, capsys, tmp_path):
        f = tmp_path / "ok.scheme"
        f.write_text(VALID)
        code, out, _ = run(capsys, "verify", str(f))
        assert code == EXIT_OK
        assert payload_of(out)["valid"] is True

    def test_verify_refuted(self, capsys, tmp_path):
        # P3 distance partition: not an association scheme
        f = tmp_path / "p3.scheme"
        f.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
        code, out, _ = run(capsys, "verify", str(f))
        assert code == EXIT_NEGATIVE
        payload = payload_of(out)
        assert payload["valid"] is False
        assert len(payload["witness"]) >= 3

    def test_parse_error_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "bad.scheme"
        f.write_text("2\n0 1\n")
        code, _, err = run(capsys, "verify", str(f))
        assert code == EXIT_USAGE
        assert "line" in err and "column" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/no/such/file.scheme")
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            "bound delsarte 3 x",
            "bound delsarte 0 2",
            "recognize --local C5 --n-max -3",
            "search --k1 0 --a1 0",
            "search --k1 4 --a1 9",
            "classify-local --k-max 100",
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and not out

    def test_search_budget_exhaustion(self, capsys):
        code, out, _ = run(
            capsys, "search", "--k1", "4", "--a1", "0", "--budget", "3"
        )
        assert code == EXIT_BUDGET
        assert payload_of(out)["complete"] is False

    def test_recognize_negative(self, capsys):
        # no connected locally-C5 graph exists on fewer than 12 vertices
        code, out, _ = run(capsys, "recognize", "--local", "C5", "--n-max", "11")
        assert code == EXIT_NEGATIVE
        assert payload_of(out)["found"] == []


class TestSubcommands:
    def test_spectra_exact_strings(self, capsys, tmp_path):
        f = tmp_path / "k33.scheme"
        f.write_text(VALID)
        code, out, _ = run(capsys, "spectra", str(f))
        assert code == EXIT_OK
        payload = payload_of(out)
        assert payload["m1"] == 4
        assert payload["cosines"][2][1] == "-1/2"
        # exact values are strings, never floats
        for row in payload["P"]:
            assert all(isinstance(x, str) for x in row)

    def test_search_matches_k33(self, capsys):
        code, out, _ = run(capsys, "search", "--k1", "3", "--a1", "0")
        assert code == EXIT_OK
        payload = payload_of(out)
        assert payload["matched"] == ["AS06[3]"]
        assert payload["unmatched_count"] == 0

    def test_search_reports_are_reproducible(self, capsys):
        _, out1, _ = run(capsys, "search", "--k1", "3", "--a1", "0")
        _, out2, _ = run(capsys, "search", "--k1", "3", "--a1", "0")
        assert payload_of(out1) == payload_of(out2)

    def test_search_text_emitter(self, capsys):
        code, out, _ = run(
            capsys, "search", "--k1", "3", "--a1", "0", "--emit", "text"
        )
        assert code == EXIT_OK
        assert "AS06[3]" in out

    def test_search_auto_is_one_run(self, capsys):
        code, out, _ = run(capsys, "search", "--k1", "3", "--a1", "0", "--field", "auto")
        assert code == EXIT_OK
        payload = payload_of(out)
        (only,) = payload["runs"]
        assert only["radicand"] is None
        assert payload["matched"] == ["AS06[3]"]
        assert payload["unmatched_count"] == 0
        code, out, _ = run(
            capsys, "search", "--k1", "3", "--a1", "0", "--field", "auto", "--emit", "text"
        )
        assert out.splitlines()[0].startswith("-- radicand auto nodes=")

    def test_bad_field_spec(self, capsys):
        code, _, err = run(
            capsys, "search", "--k1", "3", "--a1", "0", "--field", "septic"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("spec", ["quad:4", "quad:8"])
    def test_field_must_be_square_free(self, capsys, spec):
        code, out, err = run(capsys, "search", "--k1", "4", "--a1", "1", "--field", spec)
        assert code == EXIT_USAGE
        assert "square-free" in err and not out

    def test_square_free_field_is_unchanged(self):
        assert cli._parse_field("quad:5") == 5
        assert cli._parse_field("quad:2") == 2

    def test_depth_cap_that_cuts_is_incomplete(self, capsys):
        code, out, _ = run(
            capsys, "search", "--k1", "4", "--a1", "0", "--field", "quad:5",
            "--max-depth", "2",
        )
        assert code == EXIT_BUDGET
        payload = payload_of(out)
        assert payload["complete"] is False
        assert payload["runs"][0]["complete"] is False

    def test_depth_cap_at_or_above_the_bound_changes_nothing(self, capsys):
        argv = ("search", "--k1", "3", "--a1", "0", "--field", "rational")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        # the degree bound over Q is 2*k1 + 1 = 7
        for cap in ("7", "8"):
            capped_code, capped_out, _ = run(capsys, *argv, "--max-depth", cap)
            assert capped_code == EXIT_OK
            assert payload_of(capped_out) == payload_of(out)

    def test_bound_delsarte(self, capsys):
        code, out, _ = run(capsys, "bound", "delsarte", "3", "2")
        assert code == EXIT_OK
        assert payload_of(out)["bound"] == 9

    def test_bound_kissing(self, capsys):
        code, out, _ = run(capsys, "bound", "kissing")
        assert payload_of(out)["bound"] == 24

    def test_bound_light_tail(self, capsys):
        code, out, _ = run(capsys, "bound", "light-tail", "4", "1", "1", "2")
        assert code == EXIT_OK
        assert payload_of(out)["bound"] == "36/11"

    def test_bound_usage_errors(self, capsys):
        assert run(capsys, "bound", "delsarte", "3")[0] == EXIT_USAGE
        assert run(capsys, "bound", "light-tail", "4", "x", "0", "3")[0] == EXIT_USAGE

    def test_classify_local(self, capsys):
        code, out, _ = run(capsys, "classify-local")
        assert code == EXIT_OK
        payload = payload_of(out)
        assert payload["graph_count"] == 9
        assert len(payload["geometric_cases"]) == 6

    def test_recognize_prism(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--local", "K3xK2", "--n-max", "15"
        )
        assert code == EXIT_OK
        assert [g["name"] for g in payload_of(out)["found"]] == ["J(5,2)"]

    def test_classify_single_case(self, capsys):
        code, out, _ = run(capsys, "classify", "--case", "N3")
        assert code == EXIT_OK
        payload = payload_of(out)
        assert [(r["graph"], r["scheme_id"]) for r in payload["results"]] == [
            ("K3,3", "AS06[3]")
        ]
        assert payload["complete"] is True

    @pytest.mark.parametrize(
        "case,k1,a1,unmatched", [("N3", 3, 0, 1), ("2K2", 4, 1, 1), ("N4", 4, 0, 2)]
    )
    def test_search_case_counts_each_diagram_once(self, monkeypatch, case, k1, a1, unmatched):
        # with no catalogue every feasible diagram is an exclusion, and each
        # names the field its search subtree was fixed to
        outcomes = []

        def recording(config):
            outcomes.append(diagsearch.generate_diagrams(config))
            return outcomes[-1]

        monkeypatch.setattr(diagsearch, "_catalogue", dict)
        monkeypatch.setattr(cli, "generate_diagrams", recording)
        outcome = cli._classify_search_case(case, k1, a1, None)
        assert outcome["results"] == [] and outcome["complete"]
        (searched,) = outcomes
        assert len(outcome["exclusions"]) == unmatched
        assert [e["reason"] for e in outcome["exclusions"]] == [
            f"unmatched feasible diagram (radicand {res.cosines.radicand})"
            for res in searched.results
        ]

    def test_scheme_file_of_round_trip(self):
        from schemeforge.catalogue import catalogue_scheme

        s = catalogue_scheme("AS10[6]")
        sf = scheme_file_of(s, "AS10[6]")
        assert parse_scheme_file(serialize_scheme_file(sf)) == sf


def test_import_does_not_load_sympy():
    """sympy is a test-only oracle; the package and its CLI run without it."""
    import os
    import subprocess
    import sys

    import schemeforge

    src = os.path.dirname(os.path.dirname(schemeforge.__file__))
    code = "import sys, schemeforge, schemeforge.cli; print('sympy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"
