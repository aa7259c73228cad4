"""Command-line surface: subcommands over scheme files, JSON run reports.

One subcommand per step of the classification pipeline:

    verify          check a scheme file against the association-scheme axioms
    spectra         exact eigenmatrices, multiplicities, Krein data, cosines
    classify-local  feasible nearest-neighbourhood graphs on <= 9 vertices
    search          relation-distribution diagram generation for one config
    recognize       bounded locally-H extension search
    bound           Delsarte / kissing-number / light-tail bounds
    classify        the full pipeline producing the six classified pairs

Each subcommand returns its payload and exit code, and main prints the one
JSON report of the run: the parsed arguments as its config, the payload,
and the elapsed time.  A usage error prints its message and no report.
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
from typing import Optional

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
    match_catalogue,
    scheme_diagram,
)
from .catalogue import (
    CATALOGUE,
    SchemeFile,
    SchemeFileError,
    bundled_filename,
    load_bundled,
    parse_scheme_file,
)
from . import __version__

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# reporting


def exact_string(obj):
    """The json.dumps default: an exact number's string form.  Anything else
    that JSON cannot encode raises TypeError, so it is never stringified
    silently."""
    if isinstance(obj, (QuadNumber, Fraction)):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class UsageError(Exception):
    """A bad argument value, or a scheme file that cannot be read or is not
    UTF-8 text: the run exits 2 with its message and no report."""


# ---------------------------------------------------------------------------
# subcommands


def _read_scheme_file(path: str) -> SchemeFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    return parse_scheme_file(text)


def _scheme_summary(sf: SchemeFile, scheme: Scheme) -> dict:
    """The report fields naming a verified scheme."""
    return {
        "id": sf.scheme_id,
        "n": scheme.n,
        "d": scheme.d,
        "valencies": list(scheme.valencies),
    }


def cmd_verify(args) -> tuple[dict, int]:
    sf = _read_scheme_file(args.file)
    result = verify_scheme(sf.grid)
    if isinstance(result, SchemeRefutation):
        return {
            "valid": False,
            "axiom": result.axiom,
            "detail": result.detail,
            "witness": list(result.witness),
        }, EXIT_NEGATIVE
    return {"valid": True, **_scheme_summary(sf, result)}, EXIT_OK


def cmd_spectra(args) -> tuple[dict, int]:
    sf = _read_scheme_file(args.file)
    result = verify_scheme(sf.grid)
    if isinstance(result, SchemeRefutation):
        return {"valid": False, "axiom": result.axiom, "detail": result.detail}, EXIT_NEGATIVE
    try:
        sp = spectra(result)
    except SplittingFieldError as e:
        return {"valid": True, **_scheme_summary(sf, result), "reason": str(e)}, EXIT_NEGATIVE
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
    return payload, EXIT_OK


def cmd_classify_local(args) -> tuple[dict, int]:
    solutions = [
        {
            "name": sol.name,
            "graph6": to_graph6(sol.graph),
            "n": sol.graph.n,
            "geometric_label": sol.geometric_label,
            "family": sol.family,
            "witnesses": [[None if b is None else str(b) for b in pair] for pair in sol.solutions],
        }
        for sol in classify_local()
    ]
    return {
        "graphs": solutions,
        "graph_count": len(solutions),
        "geometric_cases": sorted({s["geometric_label"] for s in solutions}),
        "unresolved": [],
    }, EXIT_OK


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


def cmd_search(args) -> tuple[dict, int]:
    try:
        config = SearchConfig(
            k1=args.k1,
            a1=args.a1,
            radicand=_parse_field(args.field),
            budget=args.budget,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    outcome = generate_diagrams(config)
    results = [
        {
            "layers": res.diagram.layers,
            "valencies": res.diagram.valencies,
            "size": res.diagram.size(),
            "arcs": {f"{j}->{h}": w for (j, h), w in sorted(res.diagram.arcs.items())},
            "q111": res.cosines.q111,
            "cosines": [[w1, w2] for w1, w2 in res.cosines.values],
            "matched": res.matched,
        }
        for res in outcome.results
    ]
    return {
        "runs": [{
            "radicand": config.radicand,
            "light_tail": config.light_tail,
            "complete": outcome.complete,
            "stats": outcome.stats,
            "results": results,
        }],
        "matched": sorted({r["matched"] for r in results if r["matched"]}),
        "unmatched_count": sum(1 for r in results if not r["matched"]),
        "complete": outcome.complete,
    }, EXIT_OK if outcome.complete else EXIT_BUDGET


def cmd_recognize(args) -> tuple[dict, int]:
    try:
        h = named_graph(args.local)
    except (KeyError, ValueError):
        raise UsageError(f"unknown graph name {args.local!r}") from None
    try:
        ext = extend_locally(h, args.n_max, budget=args.budget)
    except ValueError as e:
        raise UsageError(str(e)) from None
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
    if not ext.complete:
        return payload, EXIT_BUDGET
    return payload, EXIT_OK if found else EXIT_NEGATIVE


def cmd_bound(args) -> tuple[dict, int]:
    if args.kind == "delsarte":
        if len(args.params) != 2:
            raise UsageError("bound delsarte takes two integers: dimension, inner products")
        try:
            d, s = (int(x) for x in args.params)
            return {"bound": delsarte_bound(d, s)}, EXIT_OK
        except ValueError as e:
            raise UsageError(f"bound delsarte: {e}") from None
    if args.kind == "kissing":
        if args.params:
            raise UsageError("bound kissing takes no parameters")
        return {"bound": KISSING_NUMBER_R4, "dimension": 4}, EXIT_OK
    # light-tail, the last kind that argparse's choices let through
    if len(args.params) != 4:
        raise UsageError("bound light-tail takes four exact numbers: k, theta, a1, b1")
    try:
        k, theta, a1, b1 = (QuadNumber.parse(x) for x in args.params)
    except (ValueError, ZeroDivisionError):
        raise UsageError("light-tail parameters must parse as exact numbers") from None
    try:
        return {"bound": light_tail_bound(k, theta, a1, b1)}, EXIT_OK
    except ValueError as e:
        raise UsageError(f"bound light-tail: {e}") from None


# ---------------------------------------------------------------------------
# the full pipeline

# extension cases first, then search cases, each sorted
CASE_NAMES = sorted(LOCAL_CASES, key=lambda c: (LOCAL_CASES[c].n_max is None, c))


def _classify_extension_case(name: str, n_max: int, budget: int) -> dict:
    """Resolve a local case by bounded extension plus spectral screening; a
    classified graph takes the id of the golden file its diagram matches."""
    ext = extend_locally(named_graph(name), n_max, budget=budget)
    results, exclusions = [], []
    for g in ext.graphs:
        gname = identify_graph(g) or to_graph6(g)
        scheme = scheme_from_graph_distances(g)
        reason = why_not_classified(scheme)
        if reason is not None:
            exclusions.append({"case": name, "graph": gname, "reason": reason})
            continue
        results.append(
            {
                "graph": gname,
                "scheme_id": match_catalogue(scheme_diagram(scheme)),
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


def cmd_classify(args) -> tuple[dict, int]:
    if args.case is not None and args.case not in CASE_NAMES:
        raise UsageError(f"unknown case {args.case!r}; choose from {CASE_NAMES}")
    local = classify_local()
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
    return {
        "local_cases": [s.name for s in local],
        "results": results,
        "exclusions": exclusions,
        "complete": complete,
    }, EXIT_OK if complete else EXIT_BUDGET


# ---------------------------------------------------------------------------
# argument parsing


def non_negative_int(text: str) -> int:
    """argparse type of --budget: a count, 0 or more."""
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
    p.set_defaults(func=cmd_classify_local)

    p = sub.add_parser("search", help="relation-distribution diagram search")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--field", default="rational", help="rational, quad:<p>, or auto")
    p.add_argument("--budget", type=non_negative_int, default=DEFAULT_BUDGET)
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
    started = time.monotonic()
    try:
        payload, code = args.func(args)
    except (UsageError, SchemeFileError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "tool": "schemeforge",
        "version": __version__,
        "command": args.subcommand,
        # the parsed arguments, in the order argparse sets them
        "config": {k: v for k, v in vars(args).items() if k not in ("subcommand", "func")},
        "payload": payload,
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
    print(json.dumps(report, indent=2, default=exact_string))
    return code


if __name__ == "__main__":
    sys.exit(main())
