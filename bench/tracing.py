"""Traced in-process passes and kernel microbenchmarks (``--trace 1``).

Spans are recorded from outside the program: the public functions of each
pipeline module are replaced, for the length of one pass, by wrappers that
time the call.  A wrapper is installed under every name a ``schemeforge``
module binds the function to, so ``from .x import f`` call sites are traced
too.  Spans (name, start, end, parent, attributes) stay in memory and are
written to ``.bench_out/`` when the run ends.

One run makes three passes of the workload's CLI command: one untraced (for
the trace overhead) and two traced.  Every count must repeat exactly between
the two traced passes; a difference is a benchmark bug and fails the run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from schemeforge import cli, diagsearch, exactnum, graphs, localclass, schemes
from schemeforge.exactnum import ExactMatrix, QuadNumber

SEARCH_CASES = {(3, 0): "N3", (4, 1): "2K2", (4, 0): "N4"}
PRUNE_REASONS = ("diagram", "cosines", "solution", "kissing", "emission", "budget")


def _search_attrs(args, kwargs, outcome):
    config = args[0] if args else kwargs["config"]
    return {
        "case": SEARCH_CASES.get((config.k1, config.a1), f"k{config.k1}a{config.a1}"),
        "radicand": config.radicand,
        "nodes": outcome.stats["nodes"],
        "emitted": outcome.stats["emitted"],
        "pruned": dict(outcome.stats["pruned"]),
        "complete": outcome.complete,
    }


def _case_attrs(args, kwargs, result):
    return {"case": args[0]}


# (module, function, span name, attributes taken from the call and result)
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "cmd_classify", "cli.cmd_classify", None),
    (cli, "cmd_classify_local", "cli.cmd_classify_local", None),
    (cli, "cmd_search", "cli.cmd_search", None),
    (cli, "_classify_extension_case", "cli.extension_case", _case_attrs),
    (cli, "_classify_search_case", "cli.search_case", _case_attrs),
    (cli, "load_bundled", "cli.load_bundled", None),
    (localclass, "classify_local", "localclass.classify_local", None),
    (graphs, "enumerate_regular_graphs", "graphs.enumerate_regular_graphs",
     lambda a, k, r: {"graphs": len(r)}),
    (graphs, "identify_graph", "graphs.identify_graph", None),
    (graphs, "extend_locally", "graphs.extend_locally",
     lambda a, k, r: {"nodes": r.nodes, "complete": r.complete}),
    (diagsearch, "generate_diagrams", "diagsearch.generate_diagrams", _search_attrs),
    (diagsearch, "match_known", "diagsearch.match_known", None),
    (schemes, "spectra", "schemes.spectra", None),
    (schemes, "verify_scheme", "schemes.verify_scheme", None),
    (exactnum, "char_poly", "exactnum.char_poly", None),
    (exactnum, "is_psd", "exactnum.is_psd", None),
    (exactnum, "rank", "exactnum.rank", None),
    (exactnum, "bounded_algebraic_integers", "exactnum.bounded_algebraic_integers", None),
]


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one pass; a single thread, so spans nest."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of each target inside the package."""
        package = [
            m for n, m in sys.modules.items()
            if n == "schemeforge" or n.startswith("schemeforge.")
        ]
        replaced = []
        try:
            for module, fname, name, attrs in TARGETS:
                original = getattr(module, fname)
                wrapper = self.wrap(name, original, attrs)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


# spans whose summed time, or number of calls, is a metric of its own
TIMED = (
    "cli.load_bundled",
    "localclass.classify_local",
    "graphs.enumerate_regular_graphs",
    "graphs.identify_graph",
    "graphs.extend_locally",
    "diagsearch.generate_diagrams",
    "diagsearch.match_known",
    "schemes.spectra",
    "schemes.verify_scheme",
    "exactnum.char_poly",
    "exactnum.is_psd",
    "exactnum.rank",
    "exactnum.bounded_algebraic_integers",
)
CALLED = (
    "diagsearch.match_known",
    "schemes.spectra",
    "schemes.verify_scheme",
    "exactnum.char_poly",
    "exactnum.bounded_algebraic_integers",
)


def _outermost(span: Span) -> bool:
    p = span.parent
    while p is not None:
        if p.name == span.name:
            return False
        p = p.parent
    return True


def layer_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """(times in seconds, counts) derived from one pass's spans.

    A time, or a count of results, sums the outermost spans of that name
    (enumerate_regular_graphs recurses); a call count counts every span.  The
    classify self time is its span minus the spans directly under it."""
    total = {name: 0.0 for _, _, name, _ in TARGETS}
    calls = {name: 0 for _, _, name, _ in TARGETS}
    children: dict[int, float] = {}
    outer = [s for s in spans if _outermost(s)]
    for s in outer:
        total[s.name] += s.duration
    for s in spans:
        calls[s.name] += 1
        if s.parent is not None:
            children[id(s.parent)] = children.get(id(s.parent), 0.0) + s.duration
    classify_self = sum(
        (s.duration - children.get(id(s), 0.0) for s in spans if s.name == "cli.cmd_classify"),
        0.0,
    )
    times = {"cli.classify.self_s": classify_self}
    times.update({f"{name}_s": total[name] for name in TIMED})
    counts = {
        "graphs.regular_graphs": sum(
            s.attrs["graphs"] for s in outer if s.name == "graphs.enumerate_regular_graphs"
        ),
        "graphs.identify_graph.calls": calls["graphs.identify_graph"],
        "graphs.extend_locally.nodes": sum(
            s.attrs["nodes"] for s in spans if s.name == "graphs.extend_locally"
        ),
    }
    counts.update({f"{name}.calls": calls[name] for name in CALLED})
    counts["diagsearch.emitted"] = 0
    counts.update({f"diagsearch.pruned.{r}": 0 for r in PRUNE_REASONS})
    nodes = 0
    for case in SEARCH_CASES.values():
        times[f"diagsearch.{case}_s"] = 0.0
        counts[f"diagsearch.{case}.runs"] = 0
        counts[f"diagsearch.{case}.nodes"] = 0
    for s in spans:
        if s.name != "diagsearch.generate_diagrams":
            continue
        a = s.attrs
        nodes += a["nodes"]
        counts["diagsearch.emitted"] += a["emitted"]
        for r in PRUNE_REASONS:
            counts[f"diagsearch.pruned.{r}"] += a["pruned"][r]
        if a["case"] in SEARCH_CASES.values():
            times[f"diagsearch.{a['case']}_s"] += s.duration
            counts[f"diagsearch.{a['case']}.runs"] += 1
            counts[f"diagsearch.{a['case']}.nodes"] += a["nodes"]
    counts["diagsearch.useful_ratio"] = counts["diagsearch.emitted"] / nodes if nodes else 0.0
    return times, counts


def spans_json(spans: list[Span]) -> list:
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    return [
        {
            "id": i,
            "name": s.name,
            "parent": None if s.parent is None else index[id(s.parent)],
            "start_s": s.start - t0,
            "end_s": s.end - t0,
            "attrs": s.attrs,
        }
        for i, s in enumerate(spans)
    ]


# ---------------------------------------------------------------------------
# passes


def _cli_pass(argv) -> tuple[float, int, bytes]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return time.perf_counter() - start, code, out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# kernels


def _timed(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _quad_reference(x: QuadNumber, p: int) -> tuple[Fraction, Fraction]:
    return (x.a, x.b) if x.p == p else (x.a, Fraction(0))


def _sign(a: Fraction, b: Fraction, p: int) -> int:
    """Sign of a + b*sqrt(p) for square-free p > 1, or of a when b = 0."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    # opposite signs: the term of larger absolute value wins (never a tie,
    # since sqrt(p) is irrational)
    return sa if a * a > b * b * p else sb


def scalar_kernels(seed: int, pairs: int = 400, repeats: int = 7) -> tuple[dict, list]:
    """Per-operation microseconds of QuadNumber mul/add/lt, on operands in
    Q[sqrt 5] and in Q drawn from the seed, checked against Fraction formulas."""
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 24))

    fields = {
        "quad": [(QuadNumber(frac(), frac() or 1, 5), QuadNumber(frac(), frac() or 1, 5))
                 for _ in range(pairs)],
        "rat": [(QuadNumber(frac()), QuadNumber(frac())) for _ in range(pairs)],
    }
    metrics, errors = {}, []
    for field, operands in fields.items():
        p = 5 if field == "quad" else 1
        for x, y in operands:
            (a, b), (c, d) = _quad_reference(x, p), _quad_reference(y, p)
            if _quad_reference(x * y, p) != (a * c + p * b * d, a * d + b * c):
                errors.append(f"{field} mul {x} * {y}")
            if _quad_reference(x + y, p) != (a + c, b + d):
                errors.append(f"{field} add {x} + {y}")
            if (x < y) != (_sign(a - c, b - d, p) < 0):
                errors.append(f"{field} lt {x} < {y}")

        def mul():
            for x, y in operands:
                x * y

        def add():
            for x, y in operands:
                x + y

        def lt():
            for x, y in operands:
                x < y

        for op, fn in (("mul", mul), ("add", add), ("lt", lt)):
            fn()  # warm-up
            metrics[f"exactnum.{field}_{op}_us"] = _timed(fn, repeats) / pairs * 1e6
    return metrics, errors


CHAR_POLY_GRAPHS = {"n9": "K3xK3", "n16": "Q4", "n24": "24-cell"}


def char_poly_kernels() -> tuple[dict, list]:
    """char_poly of three adjacency matrices, checked through the coefficients
    an adjacency matrix fixes: t^(n-1) is 0, t^(n-2) is -|E|, and the valency
    is a root."""
    metrics, errors = {}, []
    cases = []
    for size, name in CHAR_POLY_GRAPHS.items():
        g = graphs.named_graph(name)
        adjacency = [[g.adj[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]
        cases.append((size, name, g, ExactMatrix(adjacency)))
    exactnum.char_poly(cases[0][3])  # warm-up
    for size, name, g, m in cases:
        polys = []
        metrics[f"exactnum.char_poly.{size}_s"] = _timed(
            lambda: polys.append(exactnum.char_poly(m)), 3 if g.n <= 9 else 1
        )
        c = polys[-1].coeffs
        fixed = (c[g.n], c[g.n - 1], c[g.n - 2]) == (1, 0, -g.num_edges())
        if not fixed or polys[-1](g.degree(0)) != 0:
            errors.append(f"char_poly of {name}")
    return metrics, errors


def spectra_kernels() -> tuple[dict, list]:
    """spectra of each bundled catalogue scheme, median of three."""
    from schemeforge.catalogue import CATALOGUE

    metrics, errors = {}, []
    for sid in sorted(CATALOGUE):
        scheme = cli.load_bundled(sid)
        schemes.spectra(scheme)  # warm-up
        key = cli.bundled_filename(sid).removesuffix(".scheme")
        metrics[f"schemes.spectra.{key}_s"] = _timed(lambda: schemes.spectra(scheme), 3)
        if sum(schemes.spectra(scheme).multiplicities) != scheme.n:
            errors.append(f"spectra of {sid}")
    return metrics, errors


# ---------------------------------------------------------------------------


def run_traced(name: str, workload, check_report, seed: int, out_dir: Path) -> dict:
    """The per-layer run: returns attempted, failed, errors and metrics.

    check_report(workload, stdout) returns None for a correct report."""
    attempted = failed = 0
    errors: list[str] = []

    def checked(wall, code, stdout):
        nonlocal attempted, failed
        attempted += 1
        problem = f"exit code {code}" if code != 0 else check_report(workload, stdout)
        if problem is not None:
            failed += 1
            errors.append(f"pass {attempted}: {problem}")
        return wall

    untraced_wall = checked(*_cli_pass(workload.argv))
    traced = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            wall = checked(*_cli_pass(workload.argv))
        traced.append((wall, tracer.spans, *layer_metrics(tracer.spans)))
    (wall, spans, times, counts), (_, _, _, counts_again) = traced
    for key in counts:
        if counts[key] != counts_again[key]:
            errors.append(f"count {key}: {counts[key]} then {counts_again[key]}")

    root = spans[0]
    command = next(s for s in spans if s.parent is root)
    metrics = {k: (v, "s") for k, v in times.items()}
    metrics.update(
        {k: (v, "ratio" if k.endswith("ratio") else "count") for k, v in counts.items()}
    )
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    metrics["trace.uncovered_s"] = (wall - command.duration, "s")

    for kernels in (scalar_kernels(seed), char_poly_kernels(), spectra_kernels()):
        kmetrics, kerrors = kernels
        attempted += 1
        failed += bool(kerrors)
        errors.extend(kerrors)
        metrics.update(
            {k: (v, "us" if k.endswith("_us") else "s") for k, v in kmetrics.items()}
        )

    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{name}-seed{seed}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "argv": list(workload.argv),
                "untraced_wall_s": untraced_wall,
                "traced_wall_s": wall,
                "spans": spans_json(spans),
            }
        )
    )
    return {"attempted": attempted, "failed": failed, "errors": errors, "metrics": metrics}
