"""Benchmark of the `nonassoc` command line: end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload paper|laws|search --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter (`child.py`), so the toolkit's
module-level caches start empty as they do for a user.  Passes run one at a
time until `--seconds` are used up (at least three).  Every operation's
output is checked.  The last line of standard output is one JSON object:
with `--trace 0` it holds the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = {"paper": 1, "laws": 7, "search": 1}   # CLI operations per pass
MIN_PASSES = 3
DEADLINE_S = 170.0   # a run ends within 180 s, whatever --seconds says
# `child.speed_sample()` at the reference speed: its median on a shared
# 2-vCPU Intel Xeon virtual machine.  Reported times are rescaled to this
# speed (README.md).
REFERENCE_SAMPLE_S = 0.003


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_pass(tmp: Path, workload: str, seed: int, traced: bool, deadline: float):
    """One pass in a fresh interpreter; None when it produced no result."""
    out = tmp / "pass.json"
    out.unlink(missing_ok=True)
    cfg = {"root": str(ROOT), "tmp": str(tmp), "out": str(out),
           "workload": workload, "seed": seed, "trace": traced}
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(cfg)], env=_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
        # the largest of all children so far.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or not out.is_file():
        return None
    rec = json.loads(out.read_text(encoding="utf-8"))
    # the mean follows the share of time the host spent fast or slow
    rec["speed"] = statistics.mean(rec["speed_samples"]) / REFERENCE_SAMPLE_S
    # Both stamps come from CLOCK_MONOTONIC, which is system-wide on Linux.
    rec["setup_s"] = rec["ready"] - start
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024
    rec["traced"] = traced
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool,
            min_passes: int = MIN_PASSES) -> list:
    """Passes until `seconds` are used; traced runs alternate traced and
    untraced passes, so that the tracing overhead can be read off."""
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # Untimed: writes bytecode and fills the file cache, which a user
        # running the command a second time has as well.
        subprocess.run([sys.executable, "-c", "import nonassoc"], env=_env(),
                       stdin=subprocess.DEVNULL, check=False, timeout=60)
        passes = []
        start = time.monotonic()
        deadline = start + DEADLINE_S
        while True:
            began = time.monotonic()
            traced = trace and len(passes) % 2 == 0
            passes.append(run_pass(tmp, workload, seed, traced, deadline))
            now = time.monotonic()
            took = now - began
            if now + took > deadline:
                break
            if len(passes) >= min_passes and now - start + took > seconds:
                break
        return passes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def score(workload: str, seed: int, passes: list, refs: dict):
    """(attempted, failed, reasons) over every CLI operation of every pass."""
    attempted = failed = 0
    reasons = []
    first_traces = None
    candidate = (None, None)      # (constants, expected output)
    for rec in passes:
        if rec is None:
            attempted += WORKLOADS[workload]
            failed += WORKLOADS[workload]
            reasons.append("a pass ended without a result")
            continue
        for op in rec["ops"]:
            attempted += 1
            if workload == "paper":
                reason = checks.check_paper(op, refs["paper"])
            elif workload == "laws" and op["label"] == "candidate":
                if candidate[0] != rec["constants"]:
                    candidate = (rec["constants"], checks.candidate_reference(rec["constants"]))
                reason = checks.check_laws(op, candidate[1])
            elif workload == "laws":
                reason = checks.check_laws(op, refs["laws"][op["label"]])
            else:
                if first_traces is None:
                    first_traces = rec.get("trace_text")
                reason = checks.check_search(op, rec.get("trace_text"), first_traces,
                                             refs["search"], seed)
            if reason:
                failed += 1
                reasons.append(f"{op['label']}: {reason}")
    return attempted, failed, reasons


# Exponent of the host speed factor by which a metric of this unit is
# rescaled to the reference speed; other units (counts, ratios, MB) are not.
_SPEED_EXPONENT = {"s": -1, "us": -1, "ns": -1, "1/s": 1}


def pass_values(p: dict, units: dict) -> dict:
    """One pass's metrics, with times rescaled to the reference speed."""
    if p["traced"]:
        raw = dict(p["layers"], **{"setup.import_s": p["import_s"],
                                   "setup.numpy_loaded": int(p["numpy_loaded"]),
                                   "trace.wall_s": p["wall_s"]})
    else:
        raw = {name: p[name] for name in ("wall_s", "setup_s", "peak_rss_mb")}
    return {name: value * p["speed"] ** _SPEED_EXPONENT.get(units.get(name), 0)
            for name, value in raw.items()}


def _loadavg():
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return None


def run_context() -> dict:
    """Versions, machine and source size, recorded with every result."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        # informational only; not a gated metric
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def _spread(values):
    if len(values) < 2:
        return f"  (n={len(values)})"
    q = statistics.quantiles(values, n=4)
    return f"  (n={len(values)}, q1={q[0]:.4g}, q3={q[2]:.4g}, max={max(values):.4g})"


def report(workload: str, seed: int, passes: list, trace: bool, refs: dict, spec: dict):
    """(human-readable lines, result object) of one run: medians over the
    traced passes (per-layer metrics) or the untraced ones (end-to-end)."""
    attempted, failed, reasons = score(workload, seed, passes, refs)
    lines = [f"# failed: {reason}" for reason in reasons]
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    good = [p for p in passes if p is not None]
    plain = [p for p in good if not p["traced"]]
    samples = [pass_values(p, units) for p in good if p["traced"] == trace]
    if trace:
        untraced_wall = statistics.median(pass_values(p, units)["wall_s"] for p in plain)
        for s in samples:
            s["trace.overhead_s"] = s["trace.wall_s"] - untraced_wall
    metrics = {}
    for m in wanted:
        per_pass = [s[m["name"]] for s in samples]
        value = statistics.median(per_pass)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"{m['name']:<34} {value:.6g} {m['unit']}{_spread(per_pass)}")
    if not trace:
        lines.append(f"{'wall_s unscaled':<34} {statistics.median(p['wall_s'] for p in plain):.6g}"
                     f" s at host speed factor {statistics.median(p['speed'] for p in plain):.4g}")
    lines.append(f"{'error_rate':<34} {failed / attempted:.6g} "
                 f"({failed} of {attempted} operations)")
    residuals = [r for p in good if workload == "search"
                 and (r := checks.best_residual(p["ops"][0])) is not None]
    if residuals:
        lines.append(f"{'best_residual':<34} {statistics.median(residuals):.6e} "
                     "(deterministic per seed)")
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nonassoc" / "__init__.py").is_file():
        print(f"error: no nonassoc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        refs = checks.load_references(ROOT)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot load the references: {exc}", file=sys.stderr)
        return 2

    context = run_context()
    context["loadavg_before"] = _loadavg()
    passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    context["loadavg_after"] = _loadavg()
    try:
        lines, result = report(args.workload, args.seed, passes, bool(args.trace), refs, spec)
    except statistics.StatisticsError:
        print("error: too few passes produced a result", file=sys.stderr)
        return 1
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}")
    print("# context " + json.dumps(context))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
