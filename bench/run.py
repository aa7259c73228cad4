#!/usr/bin/env python3
"""Benchmark of the schemeforge classification pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the code under ``src/``.

--trace 0  end-to-end metrics.  Every operation is a fresh
           ``python -m schemeforge.cli ...`` process; its wall time, CPU time
           and peak RSS come from that child's own rusage.  Operations repeat
           for about S seconds (at least one runs), and each metric is the
           median over them.  Set-up time is the median
           wall time of fresh ``--version`` processes.
--trace 1  per-layer metrics from a fixed number of in-process passes with
           spans around the public functions of each module, plus kernel
           microbenchmarks (see tracing.py); S is not used.

Every operation's JSON payload is checked against the sha256 digest recorded
for its workload, plus workload-specific invariants; a mismatch or a non-zero
exit code counts as a failed operation.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Workload inputs are
fixed command lines (the classification is one fixed problem); the seed
drives the kernel operands of the traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 5
OP_TIMEOUT_S = 170.0


def payload_digest(payload: dict) -> str:
    """sha256 of the canonical JSON form of a report's payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# workloads

_SIX_PAIRS = {
    ("K3,3", "AS06[3]"),
    ("K2,2,2,2", "AS08[2]"),
    ("K3xK3", "AS09[3]"),
    ("J(5,2)", "AS10[3]"),
    ("crown", "AS10[6]"),
    ("Q4", "AS16[30]"),
}


def _check_classify(payload: dict) -> Optional[str]:
    pairs = {(r["graph"], r["scheme_id"]) for r in payload["results"]}
    if pairs != _SIX_PAIRS:
        return f"classified pairs {sorted(pairs)}"
    excluded = {e["graph"]: e["reason"] for e in payload["exclusions"]}
    expected = {
        "K4": "m1 = 3",
        "K5": "partially_metric_level = 1",
        "icosahedron": "m1 = 3",
        "octahedron": "m1 = 3",
    }
    for graph, reason in expected.items():
        if excluded.get(graph) != reason:
            return f"exclusion of {graph}: {excluded.get(graph)!r}"
    return None if payload["complete"] is True else "classification incomplete"


def _check_classify_n3(payload: dict) -> Optional[str]:
    pairs = {(r["graph"], r["scheme_id"]) for r in payload["results"]}
    if pairs != {("K3,3", "AS06[3]")} or payload["exclusions"]:
        return f"case N3 gave {sorted(pairs)}, exclusions {payload['exclusions']}"
    return None if payload["complete"] is True else "case N3 incomplete"


def _check_classify_local(payload: dict) -> Optional[str]:
    if payload["graph_count"] != 9 or payload["unresolved"]:
        return f"{payload['graph_count']} local graphs, unresolved {payload['unresolved']}"
    return None


def _check_search_quad5(payload: dict) -> Optional[str]:
    if payload["matched"] != ["AS10[6]", "AS16[30]"] or payload["unmatched_count"]:
        return f"matched {payload['matched']}, unmatched {payload['unmatched_count']}"
    return None if payload["complete"] is True else "search incomplete"


@dataclass(frozen=True)
class Workload:
    argv: tuple
    digest: str  # payload_digest of the report at the commit that defined it
    check: Callable[[dict], Optional[str]]


WORKLOADS = {
    # Timed set (BENCHMARK.json).  The classify command path end to end: the
    # local stage, the N3 diagram search over all nine candidate fields,
    # match_known and the golden-file load, at a size one run can hold.
    "classify-n3": Workload(
        ("classify", "--case", "N3"),
        "a14170a4b6cd3ff162d5484e02470acae937e56b015379318c5947a04ac7d337",
        _check_classify_n3,
    ),
    # Timed set.  The costliest single (case, field) search of classify, with
    # no local stage and no loop over radicands.
    "search-quad5": Workload(
        ("search", "--k1", "4", "--a1", "0", "--field", "quad:5"),
        "db16db771db8af1c8f32c0587d29b2d89161fe60766a7d1ee7dcf9dfec13783b",
        _check_search_quad5,
    ),
    # Run by hand: the local stage alone (no diagram search runs), which
    # classify-n3 contains.
    "classify-local": Workload(
        ("classify-local",),
        "008ea71109d754c92b0758cf3023aba98a84b97bdd2d8e0d5252477342215a27",
        _check_classify_local,
    ),
    # Run by hand for the north-star figures: the full classification takes
    # about 90 s per operation, longer than one timed run may last.
    "classify": Workload(
        ("classify",),
        "6a67210ac8a6bd7a877227f8a13bf9c415fb09a18faa3ec459167d4830277f9c",
        _check_classify,
    ),
}


def check_report(workload: Workload, stdout: bytes) -> Optional[str]:
    """None when the report is correct, else what is wrong with it."""
    try:
        payload = json.loads(stdout)["payload"]
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable report: {e}"
    digest = payload_digest(payload)
    if digest != workload.digest:
        return f"payload digest {digest} != {workload.digest}"
    return workload.check(payload)


# ---------------------------------------------------------------------------
# end-to-end runs


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes


def run_cli(argv) -> Invocation:
    """One fresh CLI process, reaped with wait4 so its rusage is its own."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SCHEMEFORGE_BUDGET", None)
    cmd = [sys.executable, "-m", "schemeforge.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # KiB on Linux
        proc.returncode,
        stdout,
    )


def run_end_to_end(workload: Workload, seconds: int) -> dict:
    attempted, errors = 0, []

    def attempt(argv, check) -> Invocation:
        nonlocal attempted
        inv = run_cli(argv)
        attempted += 1
        problem = f"exit code {inv.exit_code}" if inv.exit_code else check(inv.stdout)
        if problem is not None:
            errors.append(f"operation {attempted} ({' '.join(argv)}): {problem}")
        return inv

    def printed_version(stdout: bytes) -> Optional[str]:
        return None if stdout.strip() else "no version printed"

    run_cli(["--version"])  # warm-up, which writes the bytecode caches
    setup = [attempt(["--version"], printed_version) for _ in range(SETUP_SAMPLES)]
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(attempt(workload.argv, lambda out: check_report(workload, out)))
        # stop when the next operation would end more than half of it past
        # the window, so a run lasts about S seconds however long one is
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(o.wall_s for o in ops) / 2 > seconds:
            break

    def med(field):
        return statistics.median(getattr(o, field) for o in ops)

    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(o.wall_s for o in setup), "s"),
    }
    return {"attempted": attempted, "failed": len(errors), "errors": errors, "metrics": metrics}


# ---------------------------------------------------------------------------


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_cli, which kills its child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schemeforge" / "cli.py").is_file():
        print(f"error: no schemeforge sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        sys.path.insert(0, str(SRC))
        from tracing import run_traced

        result = run_traced(args.workload, workload, check_report, args.seed, OUT_DIR)
    else:
        result = run_end_to_end(workload, args.seconds)
    for error in result["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["errors"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
