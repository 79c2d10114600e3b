"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs each workload once at reduced size (one traced and one untraced pass
instead of a timed run) and checks that:
- every end-to-end and per-layer metric of BENCHMARK.json is emitted with
  its unit, and no operation fails at this commit;
- a corrupted reference (an altered golden line, witness or residual) is
  counted as a failed operation;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run


def corrupt(refs: dict, workload: str) -> dict:
    bad = copy.deepcopy(refs)
    if workload == "paper":
        bad["paper"] = refs["paper"].replace(b"\tPASS\t", b"\tFAIL\t", 1)
    elif workload == "laws":
        lines = bad["laws"]["splitO"]["lines"]
        lines[1] = lines[1].replace("(q1, q2, q4)", "(q1, q2, q5)")
    else:
        bad["search"]["best"] = bad["search"]["best"].replace("total=2", "total=3")
    return bad


def check_workload(workload, refs, spec, problems):
    seed = refs["search"]["seed"]
    passes = run.measure(workload, seed, seconds=0, trace=True, min_passes=2)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        lines, result = run.report(workload, seed, passes, trace, refs, spec)
        emitted = result["metrics"]
        for m in spec[key]:
            got = emitted.get(m["name"])
            if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                problems.append(f"{workload}: {m['name']} not emitted with unit {m['unit']}")
        if set(emitted) != {m["name"] for m in spec[key]}:
            problems.append(f"{workload}: unexpected metrics {sorted(set(emitted))}")
        if result["failed"] or result["attempted"] != 2 * run.WORKLOADS[workload]:
            problems.append(f"{workload}: {result['failed']} of {result['attempted']} "
                            f"operations failed: {lines[:3]}")
    attempted, failed, _ = run.score(workload, seed, passes, corrupt(refs, workload))
    if failed != len(passes):
        problems.append(f"{workload}: a corrupted reference gave {failed} failures "
                        f"in {attempted} operations, expected {len(passes)}")
    print(f"{workload}: checked {len(passes)} passes", flush=True)


def check_bare_directory(problems):
    """Only BENCHMARK.json and the benchmark: exit non-zero, print no result."""
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "paper",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout.strip()[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: checked", flush=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    refs = checks.load_references(run.ROOT)
    problems = []
    for workload in run.WORKLOADS:
        check_workload(workload, refs, spec, problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
