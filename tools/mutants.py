"""Mutation gate: every mutant in the table must be killed by its tests.

Each entry of MUTANTS names one file under src/schemeforge, an exact snippet
of it, a replacement, and the test ids expected to kill the result.  For each
entry the script copies src/ to a temporary directory, applies the edit
there, and runs ``pytest -x -q`` on those ids against the copy.  The gate
fails when a mutant survives (its tests pass), when its snippet is not found
exactly once (a refactor updates the table, it does not skip an entry), or
when pytest ends in anything but a test failure (a stale test id, say).

EQUIVALENT lists mutants that change no behaviour, so no test can kill them;
they are not run, but their snippets must still be found.

Standard library only.  Run from anywhere, with the test dependencies
installed:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST_KILLED = 1  # pytest's exit code when a test failed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/schemeforge
    snippet: str
    replacement: str
    tests: tuple = ()


MUTANTS = [
    Mutant(
        "partial metricity counts a layer of two relations",
        "schemes.py",
        "while layers.count(t + 1) == 1:",
        "while layers.count(t + 1) >= 1:",
        ("tests/test_schemes.py::TestPartialMetricity::test_levels",),
    ),
    Mutant(
        "layer 2 of a diagram may hold two relations",
        "diagsearch.py",
        "if diagram.layers.count(2) > 1:",
        "if diagram.layers.count(2) > 2:",
        ("tests/test_diagsearch.py::TestSchemeDiagram::test_passes_every_prune_rule",),
    ),
    Mutant(
        "match_known without the canonical-key test",
        "diagsearch.py",
        "return known is not None and known.canonical_key() == result.canonical_key()",
        "return known is not None",
        ("tests/test_diagsearch.py::TestMatchKnownAgainstReference::test_every_result_and_scheme",),
    ),
    Mutant(
        "relation layers walk R1 whatever r",
        "schemes.py",
        "if layers[h] is None and any(s.p[h][r][j] for j in frontier)]",
        "if layers[h] is None and any(s.p[h][1][j] for j in frontier)]",
        ("tests/test_schemes.py::TestPartialMetricity::test_layers_are_the_graph_distances",),
    ),
    Mutant(
        "SearchConfig takes a radicand that is not square-free",
        "diagsearch.py",
        "(radicand < 2 or squarefree_decompose(radicand)[0] > 1)",
        "(radicand < 2)",
        ("tests/test_diagsearch.py::TestConfig::test_radicand_must_be_square_free",),
    ),
    Mutant(
        "a closed-form cosine column that misses a recurrence is kept",
        "diagsearch.py",
        "if residual(0, full) or residual(1, full):",
        "if False:",
        ("tests/test_diagsearch.py::TestSolveCosines::test_a_column_that_misses_a_recurrence_raises",),
    ),
    Mutant(
        "the handshake at a newly finished vertex is not checked",
        "diagsearch.py",
        "if back and kv * w != kh * back:",
        "if False:",
        ("tests/test_diagsearch.py::TestSolveCosines::test_search_stats_are_pinned",),
    ),
    Mutant(
        "Yamazaki's lemma is not checked at v's in-neighbours",
        "diagsearch.py",
        "_yamazaki_ok(diagram, j) for j in range(v) if layers[j] == layers[v] - 1",
        "True for j in range(v) if layers[j] == layers[v] - 1",
        ("tests/test_diagsearch.py::TestIncrementalChecks::test_arrangement_check_is_the_full_check",),
    ),
    Mutant(
        "finished vertices are offered as optional targets",
        "diagsearch.py",
        "optional = [h for h in range(v, diagram.n)",
        "optional = [h for h in range(1, diagram.n)",
        ("tests/test_diagsearch.py::TestIncrementalChecks::test_arrangements_in_index_order_keep_the_axioms",),
    ),
    Mutant(
        "a mandatory back-arc may be left out",
        "diagsearch.py",
        "[1] * len(mandatory) + [0] * len(optional)",
        "[0] * len(mandatory) + [0] * len(optional)",
        ("tests/test_diagsearch.py::TestIncrementalChecks::test_arrangements_in_index_order_keep_the_axioms",),
    ),
    Mutant(
        "each surplus cosine takes the candidates of the first fresh vertex",
        "diagsearch.py",
        "_cosine_candidates(kv * outs[fresh[i]], field)",
        "_cosine_candidates(kv * outs[fresh[0]], field)",
        ("tests/test_diagsearch.py::TestSolveCosines::test_each_surplus_cosine_takes_its_own_candidates",),
    ),
    Mutant(
        "the search goes on past the node budget",
        "diagsearch.py",
        "raise BudgetExhausted",
        "return",
        ("tests/test_diagsearch.py::TestBudget::test_search_stops_at_the_first_node_past_the_budget",),
    ),
    Mutant(
        "an exhausted diagram search is reported complete",
        "diagsearch.py",
        "complete = False",
        "complete = True",
        ("tests/test_diagsearch.py::TestBudget::test_exhaustion_is_reported",),
    ),
    Mutant(
        "extend_locally returns at the node past the budget instead of raising",
        "graphs.py",
        "raise BudgetExhausted",
        "return",
        ("tests/test_graphs.py::TestLocalStructure"
         "::test_search_stops_at_the_first_node_past_the_budget[C5]",),
    ),
    Mutant(
        "a step of extend_locally does not re-check v's earlier neighbours",
        "graphs.py",
        "for u in [v, *_bits(new_adj[v] & ((1 << v) - 1))]",
        "for u in [v]",
        ("tests/test_graphs.py::TestLocalStructure::test_nodes_and_results_are_pinned[C5]",),
    ),
    Mutant(
        "a step of extend_locally does not check v's own neighbourhood",
        "graphs.py",
        "for u in [v, *_bits(new_adj[v] & ((1 << v) - 1))]",
        "for u in [*_bits(new_adj[v] & ((1 << v) - 1))]",
        ("tests/test_graphs.py::TestLocalStructure::test_nodes_and_results_are_pinned[C4]",),
    ),
    Mutant(
        "extend_locally allows one common neighbour too many",
        "graphs.py",
        "if common > lam:",
        "if common > lam + 1:",
        # the embedding test of N(v) refuses the same steps, one call later
        ("tests/test_graphs.py::TestLocalStructure"
         "::test_each_step_embeds_only_the_neighbourhoods_it_changed[2K2]",),
    ),
    Mutant(
        "extend_locally allows one new vertex past n_max",
        "graphs.py",
        "if fresh > max_new:",
        "if fresh > max_new + 1:",
        ("tests/test_graphs.py::TestLocalStructure::test_nodes_and_results_are_pinned[N3]",),
    ),
    Mutant(
        "arithmetic results are not reduced by their gcd",
        "exactnum.py",
        "    g = gcd(x, y, d)\n    if g != 1:",
        "    g = 1\n    if g != 1:",
        ("tests/test_exactnum.py::TestIntegerCoreAgainstFractionPairs::test_binary_operations",),
    ),
    Mutant(
        "is_algebraic_integer without its norm test",
        "exactnum.py",
        "return 2 * u % d == 0 and (u * u - x._p * v * v) % (d * d) == 0",
        "return 2 * u % d == 0",
        ("tests/test_exactnum.py::TestNumberTheory::test_is_algebraic_integer_examples",),
    ),
    Mutant(
        "quad_sqrt builds its root over d*m, not 2*d*m",
        "exactnum.py",
        "root = _make(n, 2 * d * Y, 2 * d * m, p)",
        "root = _make(n, 2 * d * Y, d * m, p)",
        ("tests/test_exactnum.py::TestQuadSqrt::test_matches_the_fraction_square_root",),
    ),
    Mutant(
        "a wrong rotation in SHA-256",
        "catalogue.py",
        "(e >> 6 | e << 26)",
        "(e >> 6 | e << 25)",
        ("tests/test_cli.py::TestSha256::test_nist_vectors",),
    ),
    Mutant(
        "no odd coordinates for p = 1 (mod 4) in the bounded algebraic integers",
        "exactnum.py",
        "step = 1 if p % 4 == 1 else 2",
        "step = 2",
        ("tests/test_exactnum.py::TestNumberTheory"
         "::test_bounded_algebraic_integers_match_the_quadratic_scan",),
    ),
    Mutant(
        "the tail test refuses a zero r^2",
        "diagsearch.py",
        "if _sign(x, y, p) < 0:",
        "if _sign(x, y, p) <= 0:",
        ("tests/test_diagsearch.py::TestSolveCosines::test_a_tail_with_a_double_root_is_solved",),
    ),
    Mutant(
        "the integer tail r^2 scales R's sqrt(p) part by e, not e^2",
        "diagsearch.py",
        "m0 * y + m1 * x + r1 * ee,",
        "m0 * y + m1 * x + r1 * e,",
        ("tests/test_diagsearch.py::TestSolveCosines::test_matches_reference_on_every_search_call",),
    ),
    Mutant(
        "the second moment of the fresh cosines without the sum of their weights",
        "diagsearch.py",
        " + sum(weights) * qd * ad * bd,",
        ",",
        ("tests/test_diagsearch.py::TestSolveCosines::test_each_surplus_cosine_takes_its_own_candidates",),
    ),
    Mutant(
        "the leading coefficient of a draw's bound takes W - w, not W",
        "diagsearch.py",
        "_draw_bound(-w * W,",
        "_draw_bound(-w * (W - w),",
        ("tests/test_diagsearch.py::TestSolveCosines::test_each_surplus_cosine_takes_its_own_candidates",),
    ),
    Mutant(
        "a draw's bound takes sqrt(p)*sqrt(p) as 1",
        "diagsearch.py",
        "m0 * x + m1 * y * p + r0 * ee,",
        "m0 * x + m1 * y + r0 * ee,",
        ("tests/test_diagsearch.py::TestIncrementalChecks"
         "::test_draw_bound_is_the_quadnumber_quadratic",),
    ),
    Mutant(
        "a draw's slice drops the candidates where its bound is zero",
        "diagsearch.py",
        "return _sign(x, y, p) >= 0",
        "return _sign(x, y, p) > 0",
        # a draw of -1/2 leaves two cosines 1/6, so its bound there is 0
        ("tests/test_diagsearch.py::TestSolveCosines::test_a_tail_with_a_double_root_is_solved",),
    ),
    Mutant(
        "a draw's slice bisects around t1, not the vertex t1/W",
        "diagsearch.py",
        "_tail_slice(cands, t1 / W, bound, field)",
        "_tail_slice(cands, t1, bound, field)",
        ("tests/test_diagsearch.py::TestIncrementalChecks::test_tail_slice_is_the_nonnegative_candidates",),
    ),
    Mutant(
        "an outer surplus draw lowers the second moment by w*a, not w*a^2",
        "diagsearch.py",
        "s - w * a * a",
        "s - w * a",
        ("tests/test_diagsearch.py::TestSolveCosines::test_each_surplus_cosine_takes_its_own_candidates",),
    ),
    Mutant(
        "the tail's r^2 without its factor wb",
        "diagsearch.py",
        "wab = w * weights[last]",
        "wab = w",
        ("tests/test_diagsearch.py::TestSolveCosines::test_matches_reference_on_planted_tails",),
    ),
    Mutant(
        "the smaller tail root comes first",
        "diagsearch.py",
        "[mid + root, mid - root] if root else [mid]",
        "[mid - root, mid + root] if root else [mid]",
        ("tests/test_diagsearch.py::TestSolveCosines::test_each_surplus_cosine_takes_its_own_candidates",),
    ),
    Mutant(
        "the surplus tail's r^2 after a draw without its factor wb",
        "diagsearch.py",
        "wab = weights[-2] * weights[-1]",
        "wab = weights[-2]",
        ("tests/test_diagsearch.py::TestSolveCosines::test_matches_reference_on_planted_tails",),
    ),
    Mutant(
        "the outer surplus draws skip their slice",
        "diagsearch.py",
        "            for a in cands[lo:hi]:\n                complete(",
        "            for a in cands:\n                complete(",
        ("tests/test_diagsearch.py::TestSolveCosines::test_the_surplus_draws_take_only_their_slices",),
    ),
    Mutant(
        "a draw's bound gives the rest the weight W, not W - w",
        "diagsearch.py",
        "(W - w) * s - t1 * t1",
        "W * s - t1 * t1",
        # R is also the constant term of the tail's r^2 after the last draw,
        # so the roots go wrong; the looser cut alone leaves the slice count
        # of the open (6, 4) search at 622
        ("tests/test_diagsearch.py::TestSolveCosines::test_each_surplus_cosine_takes_its_own_candidates",),
    ),
    Mutant(
        "a residual term's rational part is not rescaled to the common denominator",
        "diagsearch.py",
        "x * e - w * z._x * d,",
        "x * e - w * z._x,",
        ("tests/test_diagsearch.py::TestSolveCosines::test_integer_residual_is_the_quadnumber_sum",),
    ),
    Mutant(
        "a residual term's sqrt(p) part is dropped",
        "diagsearch.py",
        "y * e - w * z._y * d,",
        "y * e,",
        ("tests/test_diagsearch.py::TestSolveCosines::test_integer_residual_is_the_quadnumber_sum",),
    ),
    Mutant(
        "the dedupe key of a column drops the weights",
        "diagsearch.py",
        "key = tuple(sorted((w, a._x, a._y, a._d, a._p) for",
        "key = tuple(sorted((a._x, a._y, a._d, a._p) for",
        ("tests/test_diagsearch.py::TestSolveCosines::test_swaps_across_weight_classes_are_distinct",),
    ),
    Mutant(
        "every column is extended before the dedupe",
        "diagsearch.py",
        "        if key not in seen:\n            seen.add(key)\n            results.append(extend(col))",
        "        ext = extend(col)\n        if key not in seen:\n"
        "            seen.add(key)\n            results.append(ext)",
        ("tests/test_diagsearch.py::TestSolveCosines::test_each_class_of_columns_is_built_once",),
    ),
    Mutant(
        "W*s - t1^2 takes t1^2 without the sqrt(p) part of t1 squared",
        "diagsearch.py",
        "(x * x + y * y * t1._p) * s._d",
        "(x * x + y * y) * s._d",
        # the (4, 0) search over Q[sqrt(5)] then solves a column that misses
        # a recurrence, and extend raises
        ("tests/test_diagsearch.py::TestSolveCosines::test_matches_reference_on_every_search_call",),
    ),
    Mutant(
        "the conjugate of k*w is bounded below only",
        "diagsearch.py",
        "if _sign(x + k * d, -y, p) < 0 or _sign(k * d - x, y, p) < 0:",
        "if _sign(x + k * d, -y, p) < 0:",
        ("tests/test_diagsearch.py::TestIncrementalChecks"
         "::test_integrality_on_ints_is_the_quadnumber_test",),
    ),
    Mutant(
        "one cosine left is accepted when W*s > t1^2",
        "diagsearch.py",
        "if not x and not y:",
        "if _sign(x, y, field) >= 0:",
        # the column then misses the column-2 recurrence, and extend raises
        ("tests/test_diagsearch.py::TestKnownConfigs::test_3_0_matches_exactly_k33",),
    ),
    Mutant(
        "diagram prunes at vertex 1 counted once instead of per seed",
        "diagsearch.py",
        "    first = list(steps(seed, 1))\n",
        "    first = list(steps(seed, 1))\n"
        "    stats['pruned']['diagram'] += sum(not ok for _nd, _fresh, ok in first)\n"
        "    first = [step for step in first if step[2]]\n",
        ("tests/test_diagsearch.py::TestIncrementalChecks::test_diagram_prunes_count_per_seed",),
    ),
    Mutant(
        "every seed is built before the first node",
        "diagsearch.py",
        "for cosines in _seeds(config):",
        "for cosines in list(_seeds(config)):",
        ("tests/test_diagsearch.py::TestBudget::test_budget_bounds_the_seed_walk",),
    ),
    Mutant(
        "a seed's w1 may be -1",
        "diagsearch.py",
        "for w1 in cands[1:-1]:",
        "for w1 in cands[:-1]:",
        ("tests/test_diagsearch.py::TestDroppedChecks::test_seeds_match_the_reference",),
    ),
    Mutant(
        "the emission's column-2 sum is taken over column 1",
        "diagsearch.py",
        "    col2 = cosines.column(2)\n    if sum((k * w for k, w in zip(ks, col2)), _ZERO):",
        "    col2 = cosines.column(2)\n"
        "    if sum((k * w for k, w in zip(ks, cosines.column(1))), _ZERO):",
        ("tests/test_diagsearch.py::TestDroppedChecks::test_emission_checks_match_the_reference",),
    ),
    Mutant(
        "m2 is only asked to be rational",
        "diagsearch.py",
        'return (True, "") if m2.is_integer else',
        'return (True, "") if m2.is_rational else',
        ("tests/test_diagsearch.py::TestDroppedChecks::test_emission_refuses_a_fractional_m2",),
    ),
    Mutant(
        "an extension is tested for integrality at its first fresh vertex, not at v",
        "diagsearch.py",
        "reason = _integrality(values[v], diagram.valencies[v])",
        "reason = _integrality(values[fresh[0] if fresh else v], diagram.valencies[v])",
        ("tests/test_diagsearch.py::TestIncrementalChecks::test_extension_check_is_the_full_check",),
    ),
    Mutant(
        "a light-tail seed keeps w2 = w1",
        "diagsearch.py",
        "pairs = [] if w2 == w1 else [(w2, _ZERO)]",
        "pairs = [(w2, _ZERO)]",
        ("tests/test_diagsearch.py::TestDroppedChecks::test_seeds_match_the_reference",),
    ),
    Mutant(
        "a golden file is loaded without its hash comparison",
        "catalogue.py",
        "if digest != expected:",
        "if False:",
        ("tests/test_cli.py::TestGoldenData::test_hash_tamper_detected",),
    ),
    Mutant(
        "the match loop builds each scheme from its graph, not its golden file",
        "diagsearch.py",
        "        if scheme_order(sid) == size and match_known(result, load_bundled(sid)):\n",
        "        from .graphs import named_graph\n"
        "        from .schemes import scheme_from_graph_distances\n"
        "        scheme = scheme_from_graph_distances(named_graph(CATALOGUE[sid]))\n"
        "        if scheme_order(sid) == size and match_known(result, scheme):\n",
        ("tests/test_cli.py::TestGoldenData::test_the_golden_file_decides_the_match",),
    ),
    Mutant(
        "the matcher loads the golden files of every order",
        "diagsearch.py",
        "if scheme_order(sid) == size and",
        "if True and",
        ("tests/test_cli.py::TestGoldenData::test_a_search_loads_only_the_golden_files_of_its_orders",),
    ),
    Mutant(
        "a golden file whose order is not its id's is loaded",
        "catalogue.py",
        "if sf.n != scheme_order(scheme_id):",
        "if False:",
        ("tests/test_cli.py::TestGoldenData::test_a_golden_file_of_another_order_is_refused",),
    ),
    Mutant(
        "the spectral screen asks for a root of multiplicity need, not need - 1",
        "localclass.py",
        "_repeated_part_degree(coeffs, need - 1)",
        "_repeated_part_degree(coeffs, need)",
        ("tests/test_localclass.py::TestSpectralScreen::test_the_prism_passes_the_screen",),
    ),
    Mutant(
        "the solver splits every polynomial, unscreened",
        "localclass.py",
        "if need >= 3 and not _repeated_part_degree(coeffs, need - 1):",
        "if False:",
        ("tests/test_localclass.py::TestSpectralScreen::test_the_screen_comes_before_the_split",),
    ),
    Mutant(
        "a valency above (n - 1)/2 solves its source, not the complement",
        "localclass.py",
        "_solve_problem(g.complement() if flip else g)",
        "_solve_problem(g)",
        ("tests/test_localclass.py::TestClassifyLocal::test_exact_graph_list",),
    ),
    Mutant(
        "vertex 1 must beat the rest of N(0) strictly",
        "graphs.py",
        "inv[u] <= inv[1] for u in range(2, k + 1)",
        "inv[u] < inv[1] for u in range(2, k + 1)",
        ("tests/test_graphs.py::TestEnumeration::test_counts[5-2-1]",),
    ),
    Mutant(
        "the config echo leaves out --budget",
        "cli.py",
        'if k not in ("subcommand", "func")}',
        'if k not in ("subcommand", "func", "budget")}',
        ("tests/test_cli.py::TestReportContract::test_exit_code_and_config_echo[search]",),
    ),
    Mutant(
        "main prints a report after a usage error",
        "cli.py",
        'print(f"error: {e}", file=sys.stderr)\n        return EXIT_USAGE',
        'print(f"error: {e}", file=sys.stderr)\n        payload, code = {}, EXIT_USAGE',
        ("tests/test_cli.py::TestReportContract::test_usage_error_prints_no_report[case]",),
    ),
    Mutant(
        "main exits 0 whatever the subcommand returns",
        "cli.py",
        "    print(json.dumps(report, indent=2, default=exact_string))\n    return code",
        "    print(json.dumps(report, indent=2, default=exact_string))\n    return EXIT_OK",
        ("tests/test_cli.py::TestReportContract::test_exit_code_and_config_echo[verify]",),
    ),
    Mutant(
        "the report stringifies any object JSON cannot encode",
        "cli.py",
        'raise TypeError(f"{type(obj).__name__} is not JSON serializable")',
        "return str(obj)",
        ("tests/test_cli.py::TestReportContract::test_only_exact_numbers_are_stringified",),
    ),
    Mutant(
        "an unreadable scheme file is not a usage error",
        "cli.py",
        'raise UsageError(f"cannot read {path}: {e}")',
        'raise OSError(f"cannot read {path}: {e}")',
        ("tests/test_cli.py::TestReportContract::test_usage_error_prints_no_report[unreadable]",),
    ),
    Mutant(
        "an off-diagonal zero is reported at the position of its transpose",
        "catalogue.py",
        '*cells[i * n + j][:2], "off-diagonal zero relation"',
        '*cells[j * n + i][:2], "off-diagonal zero relation"',
        ("tests/test_cli.py::TestParser::test_positioned_errors",),
    ),
]

EQUIVALENT = [
    (
        Mutant(
            "root isolation to width 1/R instead of 1/(8R)",
            "exactnum.py",
            "width = Fraction(1, 8 * r_max)",
            "width = Fraction(1, r_max)",
        ),
        "R is the power-of-two Cauchy bound, which overshoots the roots, so "
        "the factor 8 is margin that no input here exercises",
    ),
    (
        Mutant(
            "the sort key of a negative-y candidate rounds up",
            "exactnum.py",
            "n * x - r - 1,",
            "n * x - r,",
        ),
        "4k*lambda of two distinct candidates differ by at least 2, so any "
        "key between its floor and its ceiling sorts them alike",
    ),
    (
        Mutant(
            "the complements of a valency above (n - 1)/2 come in their own "
            "canonical order, not their sources'",
            "localclass.py",
            "solved[g] = sol",
            "solved[sol.graph] = sol",
        ),
        "the order shows only where one (n, k) has two solved classes, and "
        "no (n, k) with n <= 9 has",
    ),
]


def _source(mutant: Mutant) -> str:
    return (ROOT / "src" / "schemeforge" / mutant.file).read_text(encoding="utf-8")


def _found_once(mutant: Mutant) -> bool:
    return _source(mutant).count(mutant.snippet) == 1


def run_mutant(mutant: Mutant) -> str:
    """'killed', or why the gate fails on this mutant."""
    if not _found_once(mutant):
        return "snippet not found exactly once"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "schemeforge" / mutant.file
        target.write_text(_source(mutant).replace(mutant.snippet, mutant.replacement),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import schemeforge; print(schemeforge.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(src):
            return f"the tests would import {where}, not the mutated copy"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        )
    if proc.returncode == PYTEST_KILLED:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    tail = proc.stdout.strip().splitlines()[-1:] or proc.stderr.strip().splitlines()[-1:]
    return f"pytest exit code {proc.returncode}: {' '.join(tail)}"


def main() -> int:
    failures = 0
    for mutant in MUTANTS:
        started = time.monotonic()
        verdict = run_mutant(mutant)
        failures += verdict != "killed"
        print(f"{verdict:<8} {time.monotonic() - started:6.1f} s  {mutant.name}", flush=True)
    for mutant, reason in EQUIVALENT:
        found = _found_once(mutant)
        failures += not found
        verdict = "equivalent" if found else "snippet not found exactly once"
        print(f"{verdict}: {mutant.name} ({reason})")
    print(f"{len(MUTANTS)} mutants, {len(EQUIVALENT)} equivalent, {failures} failing the gate")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
