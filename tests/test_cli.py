"""Command-line surface: scheme files, golden data, reports, exit codes."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemeforge import catalogue, cli, diagsearch
from schemeforge.catalogue import (
    CATALOGUE,
    SchemeFile,
    SchemeFileError,
    _tokenize,
    bundled_filename,
    load_bundled,
    parse_scheme_file,
)
from schemeforge.cli import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from schemeforge.graphs import DEFAULT_BUDGET, cell24_vertices, named_graph
from schemeforge.schemes import Scheme, scheme_from_graph_distances, verify_scheme

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


def serialize_scheme_file(sf: SchemeFile) -> str:
    """The text of a scheme file, entries right-aligned; parse_scheme_file
    reads it back."""
    lines = []
    if sf.scheme_id is not None:
        lines.append(f"id {sf.scheme_id}")
    lines.append(str(sf.n))
    width = len(str(max(e for row in sf.grid for e in row)))
    for row in sf.grid:
        lines.append(" ".join(str(e).rjust(width) for e in row))
    return "\n".join(lines) + "\n"


def reference_tokenize(text: str):
    """_tokenize as the character scan it was before it used re, kept as
    the reference."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            if line[col].isspace():
                col += 1
                continue
            end = col
            while end < len(line) and not line[end].isspace():
                end += 1
            yield line_no, col + 1, line[col:end]
            col = end


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

    # spaces and line breaks beyond ASCII, which str.isspace and re's \s
    # both take as whitespace, and text of any kind
    @given(st.text(alphabet="01x# \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000", max_size=60)
           | st.text(max_size=60))
    def test_tokenize_matches_the_character_scan(self, text):
        assert list(_tokenize(text)) == list(reference_tokenize(text))

    def test_error_column_points_at_offender(self):
        with pytest.raises(SchemeFileError) as exc:
            parse_scheme_file("3\n0 1 2\n1 9 1\n2 1 0\n")
        assert (exc.value.line, exc.value.column) == (3, 3)


def cell24_scheme() -> Scheme:
    """Association scheme of the 24-cell: relations by inner product
    2, 1, 0, -1, -2 between the 24 vertices (+-1, +-1, 0, 0).  The 24-cell
    graph is not distance-regular (pairs at inner product -1 already occur at
    graph distance 2), so this is the inner-product partition of the
    polytope's spherical embedding, not a distance partition."""
    verts = cell24_vertices()
    rel_of_ip = {2: 0, 1: 1, 0: 2, -1: 3, -2: 4}
    rel = [
        [rel_of_ip[sum(x * y for x, y in zip(verts[a], verts[b]))] for b in range(24)]
        for a in range(24)
    ]
    s = verify_scheme(rel)
    assert isinstance(s, Scheme)
    return s


def catalogue_scheme(scheme_id: str) -> Scheme:
    """The catalogue scheme built from its graph: the reference that each
    golden file is pinned to, byte for byte."""
    if scheme_id == "AS24[43]":
        return cell24_scheme()
    result = scheme_from_graph_distances(named_graph(CATALOGUE[scheme_id]))
    assert isinstance(result, Scheme)
    return result


@pytest.fixture
def data_copy(tmp_path, monkeypatch):
    """A writable copy of the golden data that load_bundled reads, with its
    cache cleared on the way in and out."""
    for f in catalogue.DATA_DIR.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    monkeypatch.setattr(catalogue, "DATA_DIR", tmp_path)
    load_bundled.cache_clear()
    yield tmp_path
    load_bundled.cache_clear()


def _forge_golden(data_dir, sid: str, donor: str):
    """Replace sid's golden file in data_dir by donor's relations declaring
    sid's id, with its manifest line rewritten to match."""
    name = bundled_filename(sid)
    text = (data_dir / bundled_filename(donor)).read_text()
    text = text.replace(f"id {donor}", f"id {sid}")
    (data_dir / name).write_text(text)
    manifest = data_dir / catalogue.MANIFEST_NAME
    old_digest = catalogue._read_manifest()[name]
    new_digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    manifest.write_text(manifest.read_text().replace(old_digest, new_digest))


class TestGoldenData:
    def test_all_bundled_schemes_load(self):
        for sid in CATALOGUE:
            s = load_bundled(sid)
            assert s.n == int(sid[2:4])

    def test_hash_tamper_detected(self, data_copy):
        name = bundled_filename("AS06[3]")
        text = (data_copy / name).read_text()
        (data_copy / name).write_text(text + "# tampered\n")
        with pytest.raises(RuntimeError, match="hash mismatch"):
            load_bundled("AS06[3]")

    def test_the_golden_file_decides_the_match(self, data_copy, capsys):
        # the crown file replaced by a valid scheme of J(5,2) that declares
        # the crown's id, with its manifest line rewritten to match: the
        # crown diagram of the (4, 0) search no longer matches AS10[6]
        argv = ["search", "--k1", "4", "--a1", "0", "--field", "quad:5"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert payload_of(out)["matched"] == ["AS10[6]", "AS16[30]"]

        load_bundled.cache_clear()
        _forge_golden(data_copy, "AS10[6]", "AS10[3]")
        assert load_bundled("AS10[6]").relations == load_bundled("AS10[3]").relations

        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        payload = payload_of(out)
        assert payload["matched"] == ["AS16[30]"]
        assert payload["unmatched_count"] == 1

    def test_the_golden_file_names_the_extension_result(self, data_copy, capsys):
        # J(5,2), the one graph the K3xK2 extension classifies, takes its id
        # from the golden file its diagram matches: once AS10[3]'s file holds
        # the crown's scheme, no file names it
        def k3xk2_results():
            code, out, _ = run(capsys, "classify", "--case", "K3xK2")
            assert code == EXIT_OK
            return [(e["graph"], e["scheme_id"]) for e in payload_of(out)["results"]]

        assert k3xk2_results() == [("J(5,2)", "AS10[3]")]
        load_bundled.cache_clear()
        _forge_golden(data_copy, "AS10[3]", "AS10[6]")
        assert load_bundled("AS10[3]").relations == load_bundled("AS10[6]").relations
        assert k3xk2_results() == [("J(5,2)", None)]

    def test_a_golden_file_of_another_order_is_refused(self, data_copy):
        # the order nn of the id ASnn[i] is checked against the file's n
        _forge_golden(data_copy, "AS10[3]", "AS09[3]")
        with pytest.raises(RuntimeError, match="has order 9"):
            load_bundled("AS10[3]")

    def test_a_search_loads_only_the_golden_files_of_its_orders(self, data_copy, capsys):
        # the (4, 0) search over Q(sqrt 5) emits the diagrams of the crown
        # (order 10) and Q4 (order 16): of the eight golden files only
        # AS10[3], AS10[6] and AS16[30] have those orders
        code, out, _ = run(capsys, "search", "--k1", "4", "--a1", "0", "--field", "quad:5")
        assert code == EXIT_OK
        assert load_bundled.cache_info().currsize == 3

    @pytest.mark.parametrize("sid", sorted(CATALOGUE))
    def test_golden_file_rebuilds_from_catalogue(self, sid):
        scheme = catalogue_scheme(sid)
        text = (
            f"# {sid}: scheme of the {CATALOGUE[sid]} graph "
            f"(n = {scheme.n}, d = {scheme.d})\n"
        ) + serialize_scheme_file(SchemeFile(scheme.n, scheme.relations, sid))
        name = bundled_filename(sid)
        assert text.encode("utf-8") == (catalogue.DATA_DIR / name).read_bytes()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == catalogue._read_manifest()[name]


class TestSha256:
    # FIPS 180-4 examples (NIST CSRC): the empty message, one block, and the
    # 448-bit message whose padding needs a second block
    @pytest.mark.parametrize("message,digest", [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    ])
    def test_nist_vectors(self, message, digest):
        assert catalogue._sha256_hex(message) == digest

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=4096))
    @example(b"x" * 55)  # the last length that pads into one block
    @example(b"x" * 56)
    @example(b"x" * 64)
    def test_matches_hashlib(self, data):
        assert catalogue._sha256_hex(data) == hashlib.sha256(data).hexdigest()

    def test_manifest_digests(self):
        for name, digest in catalogue._read_manifest().items():
            assert catalogue._sha256_hex((catalogue.DATA_DIR / name).read_bytes()) == digest


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

    def test_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: cannot read {tmp_path}") and not out

    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "latin1.scheme"
        f.write_bytes("# Schr\xf6dinger\n1\n0\n".encode("latin-1"))
        code, out, err = run(capsys, "spectra", str(f))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: cannot read {f}") and not out

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
            "bound light-tail 4 4 0 3",  # theta = k
            "bound light-tail 4 -2 1 0",  # zero denominator
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and not out

    @pytest.mark.parametrize("argv", [
        "search --k1 4 --a1 0 --budget -1",
        "recognize --local C5 --n-max 12 --budget -1",
        "classify --case N3 --budget -1",
    ])
    def test_negative_budget_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert "argument --budget: must be >= 0, got -1" in err and not out

    def test_search_k1_above_the_two_distance_bound_is_usage_error(self, capsys):
        # without the bound, the seeds of an open search at k1 = 16 took
        # half a minute before the first node that the budget counts
        argv = "search --k1 10 --a1 0 --field auto --budget 1".split()
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and not out
        assert err == (
            "error: need k1 <= 9: more than 9 points cannot form a two-distance set on S^2\n"
        )

    def test_max_depth_is_an_unrecognized_argument(self, capsys):
        # the search stops at the degree bound or at its budget, and at no
        # depth that the caller sets
        code, out, err = run(capsys, *"search --k1 3 --a1 0 --max-depth 2".split())
        assert code == EXIT_USAGE and not out
        assert "unrecognized arguments: --max-depth 2" in err

    def test_k_max_is_an_unrecognized_argument(self, capsys):
        # the local stage always searches up to the two-distance bound
        code, out, err = run(capsys, *"classify-local --k-max 5".split())
        assert code == EXIT_USAGE and not out
        assert "unrecognized arguments: --k-max 5" in err

    def test_unknown_graph_name_is_usage_error(self, capsys):
        # each graph has one name: Q4's alias "tesseract" is not one
        code, out, err = run(capsys, *"recognize --local tesseract --n-max 16".split())
        assert code == EXIT_USAGE and not out
        assert err == "error: unknown graph name 'tesseract'\n"

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


# one run of each subcommand: its argv, exit code and config echo, key for
# key and in order; {tmp} stands for the test's directory, which holds the
# P3 distance partition (not a scheme) as p3.scheme
REPORTED = {
    "verify": ("verify {tmp}/p3.scheme", EXIT_NEGATIVE, {"file": "{tmp}/p3.scheme"}),
    "spectra": ("spectra {tmp}/p3.scheme", EXIT_NEGATIVE, {"file": "{tmp}/p3.scheme"}),
    "classify-local": ("classify-local", EXIT_OK, {}),
    "search": (
        "search --k1 3 --a1 0",
        EXIT_OK,
        {"k1": 3, "a1": 0, "field": "rational", "budget": DEFAULT_BUDGET},
    ),
    "recognize": (
        "recognize --local C5 --n-max 12 --budget 1",
        EXIT_BUDGET,
        {"local": "C5", "n_max": 12, "budget": 1},
    ),
    "bound": ("bound delsarte 3 2", EXIT_OK, {"kind": "delsarte", "params": ["3", "2"]}),
    "classify": ("classify --case N3", EXIT_OK, {"case": "N3", "budget": DEFAULT_BUDGET}),
}

# one usage error of each kind: its argv and its whole stderr line
USAGE_ERRORS = {
    "field": (
        "search --k1 3 --a1 0 --field septic",
        "bad field spec 'septic' (rational, quad:<p>, or auto)",
    ),
    "bound": ("bound delsarte 3", "bound delsarte takes two integers: dimension, inner products"),
    "case": (
        "classify --case X",
        "unknown case 'X'; choose from "
        "['C4', 'C5', 'K3', 'K3xK2', 'K4', 'octahedron', '2K2', 'N3', 'N4']",
    ),
    "unreadable": (
        "verify {tmp}/missing.scheme",
        "cannot read {tmp}/missing.scheme: [Errno 2] No such file or directory: "
        "'{tmp}/missing.scheme'",
    ),
    "scheme-file": ("verify {tmp}/short.scheme", "line 2, column 3: expected 2x2 entries, got 2"),
}


class TestReportContract:
    @pytest.fixture
    def tmp(self, tmp_path):
        (tmp_path / "p3.scheme").write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
        (tmp_path / "short.scheme").write_text("2\n0 1\n")
        return tmp_path

    @pytest.mark.parametrize("subcommand", list(REPORTED))
    def test_exit_code_and_config_echo(self, capsys, tmp, subcommand):
        argv, exit_code, config = REPORTED[subcommand]
        code, out, err = run(capsys, *argv.format(tmp=tmp).split())
        assert (code, err) == (exit_code, "")
        report = json.loads(out)
        assert report["command"] == subcommand
        expected = {k: v.format(tmp=tmp) if isinstance(v, str) else v for k, v in config.items()}
        assert list(report["config"].items()) == list(expected.items())

    @pytest.mark.parametrize("kind", list(USAGE_ERRORS))
    def test_usage_error_prints_no_report(self, capsys, tmp, kind):
        argv, message = USAGE_ERRORS[kind]
        code, out, err = run(capsys, *argv.format(tmp=tmp).split())
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message.format(tmp=tmp)}\n")


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

    def test_spectra_outside_the_quadratic_fields(self, capsys, tmp_path):
        # C7: eigenvalues 2cos(2*pi*j/7) generate a cubic field
        s = scheme_from_graph_distances(named_graph("C7"))
        f = tmp_path / "c7.scheme"
        f.write_text(serialize_scheme_file(SchemeFile(s.n, s.relations)))
        code, out, err = run(capsys, "spectra", str(f))
        assert code == EXIT_NEGATIVE and not err
        payload = payload_of(out)
        assert "real quadratic field" in payload.pop("reason")
        assert payload == {"valid": True, "id": None, "n": 7, "d": 3, "valencies": [1, 2, 2, 2]}

    def test_spectra_of_the_one_point_scheme(self, capsys, tmp_path):
        # d = 0: there is no E_1, so no ordering is cometric
        f = tmp_path / "point.scheme"
        f.write_text("1\n0\n")
        code, out, err = run(capsys, "spectra", str(f))
        assert code == EXIT_OK and not err
        payload = payload_of(out)
        assert (payload["n"], payload["d"], payload["multiplicities"]) == (1, 0, [1])
        assert payload["q_polynomial_orderings"] == []
        assert "m1" not in payload

    @pytest.mark.parametrize("swap,level", [(False, None), (True, 2)])
    def test_spectra_when_the_graph_of_r1_is_disconnected(
        self, capsys, tmp_path, two_triangles, swap, level
    ):
        # the graph of R1 is 2K3, so no partial metricity level is reported;
        # with R1 and R2 swapped it is K3,3
        grid = two_triangles
        if swap:
            grid = [[(3 - e) % 3 for e in row] for row in grid]
        f = tmp_path / "triangles.scheme"
        f.write_text(serialize_scheme_file(SchemeFile(6, grid)))
        code, out, err = run(capsys, "spectra", str(f))
        assert code == EXIT_OK and not err
        payload = payload_of(out)
        assert payload["m1"] == 4  # Q-polynomial, so the guard is reached
        assert payload.get("partially_metric_level") == level
        assert ("partially_metric_level" in payload) == swap

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

    def test_search_auto_is_one_run(self, capsys):
        code, out, _ = run(capsys, "search", "--k1", "3", "--a1", "0", "--field", "auto")
        assert code == EXIT_OK
        payload = payload_of(out)
        (only,) = payload["runs"]
        assert only["radicand"] is None
        assert payload["matched"] == ["AS06[3]"]
        assert payload["unmatched_count"] == 0

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

        monkeypatch.setattr(diagsearch, "CATALOGUE", {})
        monkeypatch.setattr(cli, "generate_diagrams", recording)
        outcome = cli._classify_search_case(case, DEFAULT_BUDGET)
        assert outcome["results"] == [] and outcome["complete"]
        (searched,) = outcomes
        assert (searched.config.k1, searched.config.a1) == (k1, a1)
        assert len(outcome["exclusions"]) == unmatched
        assert [e["reason"] for e in outcome["exclusions"]] == [
            f"unmatched feasible diagram (radicand {res.cosines.radicand})"
            for res in searched.results
        ]

    def test_scheme_file_of_round_trip(self):
        s = load_bundled("AS10[6]")
        sf = SchemeFile(s.n, s.relations, "AS10[6]")
        assert parse_scheme_file(serialize_scheme_file(sf)) == sf


def _loaded_modules(names, imports: str) -> set:
    """Those of names that a fresh interpreter holds after running imports,
    with this checkout's package on its path."""
    import os
    import subprocess
    import sys

    import schemeforge

    src = os.path.dirname(os.path.dirname(schemeforge.__file__))
    code = f"import sys\n{imports}\nprint(*[m for m in {tuple(names)!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


def test_import_does_not_load_sympy():
    """sympy is a test-only oracle; the package and its CLI run without it."""
    assert not _loaded_modules(["sympy"], "import schemeforge, schemeforge.cli")


def test_every_exported_name_resolves():
    """A stale __all__ entry fails only on import *, so check each name."""
    import importlib
    import pkgutil

    import schemeforge

    modules = [schemeforge] + [
        importlib.import_module(f"schemeforge.{info.name}")
        for info in pkgutil.iter_modules(schemeforge.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_import_loads_neither_dataclasses_nor_hashlib():
    """Every command pays for what the package imports.  dataclasses brings
    inspect, dis and ast and builds its methods with exec; hashlib maps
    OpenSSL's libcrypto."""
    names = ["dataclasses", "hashlib"]
    assert _loaded_modules(names, "import schemeforge.cli") <= _loaded_modules(names, "")


def test_classify_hash_checks_without_hashlib():
    """classify hash-checks its golden files with _sha256_hex, so it maps
    no OpenSSL: it holds no more of hashlib and _hashlib than a bare
    interpreter does."""
    names = ["hashlib", "_hashlib"]
    run = (
        "import contextlib, io\n"
        "from schemeforge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['classify', '--case', 'N3']) == 0"
    )
    assert _loaded_modules(names, run) <= _loaded_modules(names, "")
