"""Command-line surface: scheme files, bundled golden data, JSON run reports.

One subcommand per step of the classification pipeline:

    verify          check a scheme file against the association-scheme axioms
    spectra         exact eigenmatrices, multiplicities, Krein data, cosines
    classify-local  feasible nearest-neighbourhood graphs on <= 9 vertices
    search          relation-distribution diagram generation for one config
    recognize       bounded locally-H extension search
    bound           Delsarte / kissing-number / light-tail bounds
    classify        the full pipeline producing the six classified pairs

Exit codes: 0 success, 1 refutation or negative finding, 2 usage or parse
error, 3 node budget exhausted.  All exact numbers serialize as strings,
never floats.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from .exactnum import QuadNumber
from .graphs import (
    DEFAULT_BUDGET,
    extend_locally,
    identify_graph,
    named_graph,
    to_graph6,
)
from .schemes import (
    Scheme,
    SchemeRefutation,
    SplittingFieldError,
    krein_check,
    light_tail_bound,
    partially_metric_level,
    q_poly_orderings,
    relation_layers,
    scheme_from_graph_distances,
    spectra,
    verify_scheme,
    why_not_classified,
)
from .localclass import LOCAL_CASES, classify_local, delsarte_bound
from .diagsearch import (
    KISSING_NUMBER_R4,
    SearchConfig,
    generate_diagrams,
)
from .catalogue import CATALOGUE, CLASSIFIED
from . import __version__

DATA_DIR = Path(__file__).parent / "data"
MANIFEST_NAME = "MANIFEST.sha256"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# scheme files


class SchemeFileError(ValueError):
    """Parse error carrying a 1-based (line, column) position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class UnreadableFileError(Exception):
    """A scheme file that cannot be read, or is not UTF-8 text."""


class SchemeFile(NamedTuple):
    """Integer relation matrix with an optional id header.

    Format: '#' starts a comment; an optional ``id <string>`` line; a line
    holding the order n; then n rows of n relation indices."""

    n: int
    grid: tuple
    scheme_id: Optional[str] = None


def _tokenize(text: str):
    """Yield (line_no, column, token) for every token outside comments."""
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


def parse_scheme_file(text: str) -> SchemeFile:
    tokens = list(_tokenize(text))
    if not tokens:
        raise SchemeFileError(1, 1, "empty scheme file")
    pos = 0
    scheme_id = None
    if tokens[0][2] == "id":
        if len(tokens) < 2 or tokens[0][0] != tokens[1][0]:
            ln, col, _ = tokens[0]
            raise SchemeFileError(ln, col, "id header is missing its value")
        scheme_id = tokens[1][2]
        pos = 2
    if pos >= len(tokens):
        ln, col, _ = tokens[-1]
        raise SchemeFileError(ln, col, "missing order line")
    ln, col, tok = tokens[pos]
    try:
        n = int(tok)
    except ValueError:
        raise SchemeFileError(ln, col, f"expected the order n, got {tok!r}") from None
    if n < 1:
        raise SchemeFileError(ln, col, "order must be a positive integer")
    pos += 1
    cells = tokens[pos:]
    if len(cells) < n * n:
        ln, col, _ = tokens[-1]
        raise SchemeFileError(ln, col, f"expected {n}x{n} entries, got {len(cells)}")
    if len(cells) > n * n:
        ln, col, tok = cells[n * n]
        raise SchemeFileError(ln, col, f"unexpected trailing token {tok!r}")
    grid = [[0] * n for _ in range(n)]
    where = [[(0, 0)] * n for _ in range(n)]
    for idx, (ln, col, tok) in enumerate(cells):
        i, j = divmod(idx, n)
        try:
            e = int(tok)
        except ValueError:
            raise SchemeFileError(ln, col, f"expected an integer, got {tok!r}") from None
        if not 0 <= e < n:
            raise SchemeFileError(ln, col, f"relation index {e} out of range 0..{n - 1}")
        grid[i][j] = e
        where[i][j] = (ln, col)
    for i in range(n):
        if grid[i][i] != 0:
            ln, col = where[i][i]
            raise SchemeFileError(ln, col, f"nonzero diagonal entry {grid[i][i]}")
        for j in range(n):
            if i != j and grid[i][j] == 0:
                ln, col = where[i][j]
                raise SchemeFileError(ln, col, "off-diagonal zero relation")
            if j < i and grid[i][j] != grid[j][i]:
                ln, col = where[i][j]
                raise SchemeFileError(
                    ln, col, f"asymmetric entry: [{i}][{j}] != [{j}][{i}]"
                )
    used = {e for row in grid for e in row}
    if used != set(range(max(used) + 1)):
        missing = min(set(range(max(used) + 1)) - used)
        ln, col = where[0][0]
        raise SchemeFileError(ln, col, f"relation indices skip {missing}")
    return SchemeFile(n, tuple(tuple(row) for row in grid), scheme_id)


# ---------------------------------------------------------------------------
# bundled golden data


def bundled_filename(scheme_id: str) -> str:
    return scheme_id.replace("[", "-").replace("]", "") + ".scheme"


def _read_manifest() -> dict:
    out = {}
    for raw in (DATA_DIR / MANIFEST_NAME).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        digest, name = line.split()
        out[name] = digest
    return out


# SHA-256 round constants and initial hash value (FIPS 180-4, 4.2.2 and
# 5.3.3): the first 32 fractional bits of the cube roots of the first 64
# primes and of the square roots of the first 8
_SHA256_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)
_SHA256_H0 = (
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
)


def _sha256_hex(data: bytes) -> str:
    """SHA-256 (FIPS 180-4) of data as 64 lowercase hex digits, on Python ints.

    Rotations leave bits above bit 31, which only the xors and sums that
    follow see; every stored word is reduced mod 2**32."""
    mask = 0xFFFFFFFF
    padded = (data + b"\x80" + bytes(-(len(data) + 9) % 64)
              + (8 * len(data)).to_bytes(8, "big"))
    state = list(_SHA256_H0)
    for start in range(0, len(padded), 64):
        w = [int.from_bytes(padded[i:i + 4], "big") for i in range(start, start + 64, 4)]
        for i in range(16, 64):
            x, y = w[i - 15], w[i - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & mask)
        a, b, c, d, e, f, g, h = state
        for k, wi in zip(_SHA256_K, w):
            s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
            t1 = h + s1 + ((e & f) ^ (~e & g)) + k + wi
            s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
            t2 = s0 + ((a & b) ^ (a & c) ^ (b & c))
            a, b, c, d, e, f, g, h = (t1 + t2) & mask, a, b, c, (d + t1) & mask, e, f, g
        state = [(s + t) & mask for s, t in zip(state, (a, b, c, d, e, f, g, h))]
    return b"".join(s.to_bytes(4, "big") for s in state).hex()


def load_bundled(scheme_id: str) -> Scheme:
    """Load, hash-check, parse and verify one golden scheme file.

    The sha256 check uses _sha256_hex rather than hashlib: importing hashlib
    maps OpenSSL's libcrypto, which on its own raised the peak RSS of
    classify, the one command that loads a golden file, by about 3.6 MB."""
    name = bundled_filename(scheme_id)
    blob = (DATA_DIR / name).read_bytes()
    digest = _sha256_hex(blob)
    expected = _read_manifest().get(name)
    if digest != expected:
        raise RuntimeError(f"golden file {name} hash mismatch: {digest} != {expected}")
    sf = parse_scheme_file(blob.decode("utf-8"))
    if sf.scheme_id != scheme_id:
        raise RuntimeError(f"golden file {name} declares id {sf.scheme_id!r}")
    result = verify_scheme(sf.grid)
    if not isinstance(result, Scheme):
        raise RuntimeError(f"golden file {name} fails verification: {result}")
    return result


# ---------------------------------------------------------------------------
# reporting


def exactify(obj):
    """Recursively replace exact numbers by their string form for JSON."""
    if isinstance(obj, (QuadNumber, Fraction)):
        return str(obj)
    if isinstance(obj, dict):
        return {k: exactify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [exactify(v) for v in obj]
    return obj


def emit_report(command: str, config: dict, payload: dict, started: float):
    """Print the reproducible JSON record of one command invocation."""
    report = {
        "tool": "schemeforge",
        "version": __version__,
        "command": command,
        "config": exactify(config),
        "payload": exactify(payload),
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
    print(json.dumps(report, indent=2))


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# subcommands


def _read_scheme_file(path: str) -> SchemeFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise UnreadableFileError(f"cannot read {path}: {e}") from None
    return parse_scheme_file(text)


def _scheme_summary(sf: SchemeFile, scheme: Scheme) -> dict:
    """The report fields naming a verified scheme."""
    return {
        "id": sf.scheme_id,
        "n": scheme.n,
        "d": scheme.d,
        "valencies": list(scheme.valencies),
    }


def cmd_verify(args) -> int:
    started = time.monotonic()
    sf = _read_scheme_file(args.file)
    result = verify_scheme(sf.grid)
    if isinstance(result, SchemeRefutation):
        payload = {
            "valid": False,
            "axiom": result.axiom,
            "detail": result.detail,
            "witness": list(result.witness),
        }
        emit_report("verify", {"file": args.file}, payload, started)
        return EXIT_NEGATIVE
    payload = {"valid": True, **_scheme_summary(sf, result)}
    emit_report("verify", {"file": args.file}, payload, started)
    return EXIT_OK


def cmd_spectra(args) -> int:
    started = time.monotonic()
    sf = _read_scheme_file(args.file)
    result = verify_scheme(sf.grid)
    if isinstance(result, SchemeRefutation):
        payload = {"valid": False, "axiom": result.axiom, "detail": result.detail}
        emit_report("spectra", {"file": args.file}, payload, started)
        return EXIT_NEGATIVE
    try:
        sp = spectra(result)
    except SplittingFieldError as e:
        payload = {"valid": True, **_scheme_summary(sf, result), "reason": str(e)}
        emit_report("spectra", {"file": args.file}, payload, started)
        return EXIT_NEGATIVE
    orderings = sorted(q_poly_orderings(sp))
    krein_ok, krein_witness = krein_check(sp)
    payload = {
        **_scheme_summary(sf, result),
        "multiplicities": list(sp.multiplicities),
        "radicand": sp.radicand,
        "P": [list(row) for row in sp.P],
        "Q": [list(row) for row in sp.Q],
        "krein_nonnegative": krein_ok,
        "krein_witness": list(krein_witness) if krein_witness else None,
        "q_polynomial_orderings": [list(p) for p in orderings],
    }
    if orderings:
        qsp = sp.reordered(orderings[0])
        payload["m1"] = qsp.multiplicities[1]
        payload["cosines"] = [list(row) for row in qsp.cosines]
        if None not in relation_layers(result):
            payload["partially_metric_level"] = partially_metric_level(result, 1)
    emit_report("spectra", {"file": args.file}, payload, started)
    return EXIT_OK


def cmd_classify_local(args) -> int:
    started = time.monotonic()
    try:
        result = classify_local(args.k_max)
    except ValueError as e:
        return _fail_usage(str(e))
    solutions = []
    for sol in result:
        solutions.append(
            {
                "name": sol.name,
                "graph6": to_graph6(sol.graph),
                "n": sol.graph.n,
                "geometric_label": sol.geometric_label,
                "family": sol.family,
                "witnesses": [
                    [None if b is None else str(b) for b in pair]
                    for pair in sol.solutions
                ],
            }
        )
    payload = {
        "graphs": solutions,
        "graph_count": len(solutions),
        "geometric_cases": sorted({s["geometric_label"] for s in solutions}),
        "unresolved": [],
    }
    emit_report("classify-local", {"k_max": args.k_max}, payload, started)
    return EXIT_OK


def _parse_field(spec: str) -> Optional[int]:
    """The SearchConfig radicand of a --field value; None searches them all."""
    if spec == "rational":
        return 1
    if spec == "auto":
        return None
    if spec.startswith("quad:"):
        try:
            p = int(spec[5:])
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}") from None
        if p < 2:
            raise ValueError("quad radicand must be an integer >= 2")
        return p
    raise ValueError(f"bad field spec {spec!r} (rational, quad:<p>, or auto)")


def _search_run(config: SearchConfig) -> dict:
    outcome = generate_diagrams(config)
    results = []
    for res in outcome.results:
        d = res.diagram
        results.append(
            {
                "layers": d.layers,
                "valencies": d.valencies,
                "size": d.size(),
                "arcs": {f"{j}->{h}": w for (j, h), w in sorted(d.arcs.items())},
                "q111": res.cosines.q111,
                "cosines": [[w1, w2] for w1, w2 in res.cosines.values],
                "matched": res.matched,
            }
        )
    return {
        "radicand": config.radicand,
        "light_tail": config.light_tail,
        "complete": outcome.complete,
        "stats": outcome.stats,
        "results": results,
    }


def cmd_search(args) -> int:
    started = time.monotonic()
    try:
        radicand = _parse_field(args.field)
    except ValueError as e:
        return _fail_usage(str(e))
    try:
        config = SearchConfig(
            k1=args.k1,
            a1=args.a1,
            radicand=radicand,
            max_depth=args.max_depth,
            budget=args.budget,
        )
    except ValueError as e:
        return _fail_usage(str(e))
    run = _search_run(config)
    matched = sorted({r["matched"] for r in run["results"] if r["matched"]})
    unmatched = sum(1 for r in run["results"] if not r["matched"])
    complete = run["complete"]
    payload = {
        "runs": [run],
        "matched": matched,
        "unmatched_count": unmatched,
        "complete": complete,
    }
    config_echo = {
        "k1": args.k1,
        "a1": args.a1,
        "field": args.field,
        "max_depth": args.max_depth,
        "budget": args.budget,
    }
    if args.emit == "text":
        print(f"-- radicand {run['radicand'] or 'auto'}"
              f"{' (light tail)' if run['light_tail'] else ''}"
              f" nodes={run['stats']['nodes']} complete={run['complete']}")
        for r in run["results"]:
            cos = ", ".join(f"({w1}, {w2})" for w1, w2 in r["cosines"])
            print(f"   size={r['size']} valencies={r['valencies']} "
                  f"q111={r['q111']} matched={r['matched'] or '-'}")
            print(f"   cosines: {cos}")
        print(f"matched: {', '.join(matched) if matched else '-'}; "
              f"unmatched: {unmatched}")
    else:
        emit_report("search", config_echo, payload, started)
    return EXIT_OK if complete else EXIT_BUDGET


def cmd_recognize(args) -> int:
    started = time.monotonic()
    try:
        h = named_graph(args.local)
    except (KeyError, ValueError):
        return _fail_usage(f"unknown graph name {args.local!r}")
    try:
        ext = extend_locally(h, args.n_max, budget=args.budget)
    except ValueError as e:
        return _fail_usage(str(e))
    found = [
        {"name": identify_graph(g), "graph6": to_graph6(g), "n": g.n}
        for g in ext.graphs
    ]
    payload = {
        "local": args.local,
        "found": found,
        "complete": ext.complete,
        "nodes": ext.nodes,
    }
    emit_report(
        "recognize",
        {"local": args.local, "n_max": args.n_max, "budget": args.budget},
        payload,
        started,
    )
    if not ext.complete:
        return EXIT_BUDGET
    return EXIT_OK if found else EXIT_NEGATIVE


def cmd_bound(args) -> int:
    started = time.monotonic()
    if args.kind == "delsarte":
        if len(args.params) != 2:
            return _fail_usage("bound delsarte takes two integers: dimension, inner products")
        try:
            d, s = (int(x) for x in args.params)
            payload = {"bound": delsarte_bound(d, s)}
        except ValueError as e:
            return _fail_usage(f"bound delsarte: {e}")
    elif args.kind == "kissing":
        if args.params:
            return _fail_usage("bound kissing takes no parameters")
        payload = {"bound": KISSING_NUMBER_R4, "dimension": 4}
    elif args.kind == "light-tail":
        if len(args.params) != 4:
            return _fail_usage("bound light-tail takes four exact numbers: k, theta, a1, b1")
        try:
            k, theta, a1, b1 = (QuadNumber.parse(x) for x in args.params)
        except (ValueError, ZeroDivisionError):
            return _fail_usage("light-tail parameters must parse as exact numbers")
        try:
            payload = {"bound": light_tail_bound(k, theta, a1, b1)}
        except ValueError as e:
            return _fail_usage(f"bound light-tail: {e}")
    else:  # pragma: no cover - argparse restricts choices
        return _fail_usage(f"unknown bound kind {args.kind!r}")
    emit_report("bound", {"kind": args.kind, "params": args.params}, payload, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the full pipeline

# extension cases first, then search cases, each sorted
CASE_NAMES = sorted(LOCAL_CASES, key=lambda c: (LOCAL_CASES[c].n_max is None, c))


def _classify_extension_case(name: str, n_max: int, budget: int) -> dict:
    """Resolve a local case by bounded extension plus spectral screening."""
    ext = extend_locally(named_graph(name), n_max, budget=budget)
    results, exclusions = [], []
    for g in ext.graphs:
        gname = identify_graph(g) or to_graph6(g)
        reason = why_not_classified(scheme_from_graph_distances(g))
        if reason is not None:
            exclusions.append({"case": name, "graph": gname, "reason": reason})
            continue
        results.append(
            {
                "graph": gname,
                "scheme_id": CLASSIFIED.get(gname),
                "case": name,
                "via": "extension",
                "n_max": n_max,
            }
        )
    return {"results": results, "exclusions": exclusions, "complete": ext.complete}


def _classify_search_case(name: str, budget: int) -> dict:
    """Resolve a local case H by one diagram search at (k1, a1) = (|H|,
    valency of H) over every candidate field."""
    h = named_graph(name)
    k1, a1 = h.n, h.degree(0)
    outcome = generate_diagrams(SearchConfig(k1=k1, a1=a1, radicand=None, budget=budget))
    results, exclusions = [], []
    matched_ids = set()
    for res in outcome.results:
        if res.matched is None:
            exclusions.append(
                {
                    "case": name,
                    "graph": None,
                    "reason": f"unmatched feasible diagram (radicand {res.cosines.radicand})",
                }
            )
        else:
            matched_ids.add(res.matched)
    for sid in sorted(matched_ids):
        results.append(
            {
                "graph": CATALOGUE[sid],
                "scheme_id": sid,
                "case": name,
                "via": "search",
                "config": {"k1": k1, "a1": a1},
            }
        )
    return {"results": results, "exclusions": exclusions, "complete": outcome.complete}


def cmd_classify(args) -> int:
    started = time.monotonic()
    if args.case is not None and args.case not in CASE_NAMES:
        return _fail_usage(f"unknown case {args.case!r}; choose from {CASE_NAMES}")
    local = classify_local(9)
    cases = []
    for sol in local:
        if sol.name not in cases:
            cases.append(sol.name)
    if args.case is not None:
        cases = [c for c in cases if c == args.case]
    results, exclusions = [], []
    complete = True
    for case in cases:
        n_max = LOCAL_CASES[case].n_max
        if n_max is None:
            outcome = _classify_search_case(case, args.budget)
        else:
            outcome = _classify_extension_case(case, n_max, args.budget)
        results.extend(outcome["results"])
        exclusions.extend(outcome["exclusions"])
        complete = complete and outcome["complete"]
    # tie every reported scheme id back to its hash-checked golden file
    for entry in results:
        sid = entry["scheme_id"]
        if sid is not None:
            load_bundled(sid)
            entry["golden_file"] = bundled_filename(sid)
    results.sort(key=lambda e: (e["scheme_id"] or "", e["graph"]))
    payload = {
        "local_cases": [s.name for s in local],
        "results": results,
        "exclusions": exclusions,
        "complete": complete,
    }
    emit_report(
        "classify", {"case": args.case, "budget": args.budget}, payload, started
    )
    return EXIT_OK if complete else EXIT_BUDGET


# ---------------------------------------------------------------------------
# argument parsing


def non_negative_int(text: str) -> int:
    """argparse type of --budget and --max-depth: a count, 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemeforge",
        description="exact computations for small Q-polynomial association schemes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="verify a scheme file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectra", help="exact spectral data of a scheme file")
    p.add_argument("file")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("classify-local", help="feasible nearest neighbourhoods")
    p.add_argument("--k-max", type=int, default=9)
    p.set_defaults(func=cmd_classify_local)

    p = sub.add_parser("search", help="relation-distribution diagram search")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--field", default="rational", help="rational, quad:<p>, or auto")
    p.add_argument("--max-depth", type=non_negative_int, default=None)
    p.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET)
    p.add_argument("--emit", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("recognize", help="connected graphs that are locally H")
    p.add_argument("--local", required=True, help="name of the local graph H")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("bound", help="Delsarte, kissing-number, light-tail bounds")
    p.add_argument("kind", choices=["delsarte", "kissing", "light-tail"])
    p.add_argument("params", nargs="*")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("classify", help="full classification pipeline")
    p.add_argument("--case", default=None, help=f"restrict to one local case {CASE_NAMES}")
    p.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SchemeFileError, UnreadableFileError) as e:
        return _fail_usage(str(e))


if __name__ == "__main__":
    sys.exit(main())
