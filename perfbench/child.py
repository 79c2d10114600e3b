"""One benchmark pass, run by `run.py` in a fresh interpreter.

A pass imports `nonassoc` (set-up), prepares its inputs, then calls the
`nonassoc` CLI entry point in-process once per operation and records each
call's exit code and output.  Module-level caches therefore start empty
for every pass, as they do for a user who runs the command.

With tracing on, the calls into each module's public functions are timed
by wrappers installed from this file; nothing under `src/` changes.  After
the timed part, fixed-input probes measure per-call costs of single layers.

Usage: python child.py CONFIG_JSON   (written by run.py; see `run_pass`)
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# Order of the `laws` inputs; the candidate is exported during the pass.
FIXTURES = ("splitO", "quaternion", "su2", "so31", "complex", "zornO")
LAWS = (
    "associative",
    "alternative",
    "flexible",
    "lie_admissible",
    "power_associative",
    "jordan",
    "unital",
    "derivation_property",
)
ALL_LAWS = ",".join(law.replace("_", "-") for law in LAWS)
SEARCH_RESTARTS = 2
SEARCH_ITERS = 5000  # 2 x 5000 = the 10k iterations of acceptance criterion C09


# -- host speed --------------------------------------------------------------

SAMPLE_INTERVAL_S = 0.05


def speed_sample():
    """Seconds for a tiny fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    last = {}
    for i in range(1, 300):
        last[i % 97] = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, 3)
    return time.perf_counter() - start


class SpeedSampler:
    """Takes a speed sample every SAMPLE_INTERVAL_S of the pass, from a
    SIGALRM handler on the pass's own thread, so that the sample runs on the
    same CPU and at the same moments as the work it rescales.  A shared
    host's speed drifts by tens of percent within seconds, so samples taken
    before or after a pass do not track it."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(speed_sample())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(speed_sample())   # at least one sample per pass


# -- tracing -----------------------------------------------------------------

def _fixed(name):
    return lambda args, kwargs: name


def _law_of(args, kwargs):
    prop = args[1] if len(args) > 1 else kwargs["prop"]
    key = prop.replace("-", "_")
    if key.startswith("power_associative"):
        key = "power_associative"
    return f"properties.{key}"


# (module, public function, span name).  Every binding of the function in
# any loaded `nonassoc` module is replaced, so calls through re-exports and
# `from ... import` names are timed too.
TRACED = (
    ("nonassoc.algfile", "parse_text", _fixed("algfile.parse")),
    ("nonassoc.algfile", "serialize", _fixed("algfile.serialize")),
    ("nonassoc.properties", "check_property", _law_of),
    ("nonassoc.properties", "check_derivation_property",
     _fixed("properties.derivation_property")),
    ("nonassoc.properties", "myung_equivalence", _fixed("properties.myung_equivalence")),
    ("nonassoc.superspace", "build_generators", _fixed("superspace.build_generators")),
    ("nonassoc.superspace", "verify_poincare", _fixed("superspace.verify_poincare")),
    ("nonassoc.superspace", "verify_susy", _fixed("superspace.verify_susy")),
    ("nonassoc.zorn", "verify_zorn_isomorphism", _fixed("zorn.verify_zorn_isomorphism")),
    ("nonassoc.zorn", "verify_spin_commutators", _fixed("zorn.verify_spin")),
    ("nonassoc.zorn", "verify_spin_decomposition", _fixed("zorn.verify_spin")),
    ("nonassoc.report", "build_verify_report", _fixed("report.build_verify_report")),
    ("nonassoc.search", "search", _fixed("search.search")),
    ("nonassoc.search", "residual", _fixed("search.residual")),
    ("nonassoc.search", "candidate_to_algebra", _fixed("search.candidate_to_algebra")),
)


class Recorder:
    """In-memory spans around calls into the traced functions."""

    def __init__(self):
        self.spans = []        # (name, start, duration, self_time, depth, input)
        self.stack = []        # child-time accumulator of each open span
        self.top_time = 0.0    # summed duration of outermost spans
        self.input = None      # `laws` input being checked, for attribution
        self._patched = []     # (module, attribute, original)

    def _wrap(self, fn, name_of):
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            self.stack.append(0.0)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.monotonic() - start
                child = self.stack.pop()
                if self.stack:
                    self.stack[-1] += duration
                else:
                    self.top_time += duration
                self.spans.append(
                    (name, start, duration, duration - child, len(self.stack), self.input)
                )
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nonassoc" or n.startswith("nonassoc.")]
        for modname, fname, name_of in TRACED:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(original, name_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _total(spans, name):
    return sum(s[2] for s in spans if s[0] == name)


def layer_metrics(rec, ops, wall, traces):
    """Per-layer numbers of one traced pass (zero where a layer is not run)."""
    spans = rec.spans
    m = {}
    law_spans = [s for s in spans if s[0].startswith("properties.")
                 and s[0] != "properties.myung_equivalence"]
    for law in LAWS:
        m[f"properties.{law}_s"] = _total(spans, f"properties.{law}")
    for name in FIXTURES + ("candidate",):
        m[f"properties.input.{name}_s"] = sum(
            s[2] for s in law_spans if s[5] == name and s[4] == 0)
    m["properties.myung_equivalence_s"] = _total(spans, "properties.myung_equivalence")
    m["properties.laws_decided"] = len(law_spans)
    m["algfile.parse_s"] = _total(spans, "algfile.parse")
    m["algfile.serialize_s"] = _total(spans, "algfile.serialize")
    for name in ("build_generators", "verify_poincare", "verify_susy"):
        m[f"superspace.{name}_s"] = _total(spans, f"superspace.{name}")
    m["zorn.verify_zorn_isomorphism_s"] = _total(spans, "zorn.verify_zorn_isomorphism")
    m["zorn.verify_spin_s"] = _total(spans, "zorn.verify_spin")
    m["report.build_verify_report_s"] = _total(spans, "report.build_verify_report")
    m["report.unaccounted_s"] = sum(
        s[3] for s in spans if s[0] == "report.build_verify_report")
    m["search.export_s"] = _total(spans, "search.candidate_to_algebra")

    search_s = _total(spans, "search.search")
    iterations = sum(len(t) - 1 for t in traces)
    accepted = sum(1 for t in traces for a, b in zip(t, t[1:]) if b < a)
    m["search.iterations"] = iterations
    m["search.iters_per_s"] = iterations / search_s if search_s else 0.0
    m["search.accept_ratio"] = accepted / iterations if iterations else 0.0
    m["search.restart_s"] = _restart_seconds(spans, traces)

    m["cli.overhead_s"] = sum(op["cli_overhead_s"] for op in ops)
    m["trace.coverage"] = rec.top_time / wall if wall else 0.0
    return m


def _restart_seconds(spans, traces):
    """Median restart time: restart r makes len(traces[r]) residual calls."""
    searches = [s for s in spans if s[0] == "search.search"]
    if not searches or not traces:
        return 0.0
    starts = [s[1] for s in spans if s[0] == "search.residual"]
    end = searches[-1][1] + searches[-1][2]
    bounds, first = [searches[-1][1]], 0
    for trace in traces[:-1]:
        first += len(trace)
        bounds.append(starts[first])
    bounds.append(end)
    return statistics.median(b - a for a, b in zip(bounds, bounds[1:]))


def _per_call(fn, calls, repeats=5):
    """Median over `repeats` of the mean time of `calls` calls, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def probe_metrics(seed):
    """Per-call costs on fixed inputs, measured after the timed part."""
    from nonassoc.algebra import multiply
    from nonassoc.corpus import split_octonions
    from nonassoc.scalar import GaussianRational
    # `import nonassoc.search as S` would bind the package's re-exported
    # function `search`, not the module, so names are imported explicitly.
    from nonassoc.search import CandidateAlgebra, candidate_to_algebra, residual
    from nonassoc.superspace import build_generators, compose

    a = GaussianRational(Fraction(3, 7), Fraction(-5, 11))
    b = GaussianRational(Fraction(2, 9), Fraction(1, 13))
    m = {
        "scalar.mul_ns": _per_call(lambda: a * b, 2000) * 1e9,
        "scalar.add_ns": _per_call(lambda: a + b, 2000) * 1e9,
        "scalar.div_ns": _per_call(lambda: a / b, 2000) * 1e9,
    }
    q = split_octonions().basis()
    pairs = [(x, y) for x in q for y in q]
    m["algebra.multiply_us.sparse"] = _per_call(
        lambda: [multiply(x, y) for x, y in pairs], 4) / len(pairs) * 1e6
    cand = candidate_to_algebra(CandidateAlgebra.random(seed))
    x = cand.element(0, [k + 1 for k in range(cand.dim)])
    y = cand.element(0, [(-1) ** k for k in range(cand.dim)])
    m["algebra.multiply_us.dense"] = _per_call(lambda: multiply(x, y), 3) * 1e6
    gens = build_generators()
    m["superspace.compose_us"] = _per_call(
        lambda: compose(gens.Q[0], gens.Q_bar_lower[0]), 50) * 1e6
    so31 = CandidateAlgebra.so31_embedded()
    m["search.residual_us"] = _per_call(lambda: residual(so31), 40) * 1e6
    return m


# -- workloads ---------------------------------------------------------------

def prepare(cfg):
    """Inputs of one pass: (work before the CLI calls, [(label, argv)], candidate)."""
    workload, seed, tmp = cfg["workload"], cfg["seed"], Path(cfg["tmp"])
    if workload == "paper":
        return None, [("verify-paper", ["verify-paper", "--format", "lines"])], None
    if workload == "search":
        (tmp / "trace.txt").unlink(missing_ok=True)
        return None, [("search", [
            "search", "--init", "so31", "--restarts", str(SEARCH_RESTARTS),
            "--iters", str(SEARCH_ITERS), "--seed", str(seed),
            "--trace-out", str(tmp / "trace.txt"),
        ])], None
    if workload == "laws":
        from nonassoc.search import CandidateAlgebra

        fixtures = Path(cfg["root"]) / "src" / "nonassoc" / "fixtures"
        candidate = CandidateAlgebra.random(seed)
        path = tmp / "candidate.alg"

        def export():
            # what `nonassoc search --init random --iters 0 --out FILE` writes
            from nonassoc.algfile import serialize
            from nonassoc.search import candidate_to_algebra

            text = serialize(candidate_to_algebra(candidate), roles=candidate.roles,
                             scalar_tag="float64")
            path.write_text(text, encoding="utf-8")

        ops = [(name, ["check", str(fixtures / f"{name}.alg"), "--properties", ALL_LAWS])
               for name in FIXTURES]
        ops.append(("candidate", ["check", str(path), "--properties", ALL_LAWS]))
        return export, ops, candidate.c.tolist()
    raise ValueError(f"unknown workload {workload!r}")


def run_cli(cli_main, label, argv, rec):
    """One CLI invocation: exit code, captured output, time, CLI overhead."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    if rec is not None:
        rec.input = label
        top_before = rec.top_time
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_main.main(args=argv, prog_name="nonassoc")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an operation that raises is counted as failed
            error = traceback.format_exc()
    seconds = time.monotonic() - start
    op = {"label": label, "argv": argv, "code": code, "stdout": out.getvalue(),
          "stderr": err.getvalue(), "error": error, "seconds": seconds}
    if rec is not None:
        op["cli_overhead_s"] = seconds - (rec.top_time - top_before)
        rec.input = None
    return op


def main():
    cfg = json.loads(sys.argv[1])
    t0 = time.monotonic()
    import nonassoc
    import_s = time.monotonic() - t0
    numpy_loaded = "numpy" in sys.modules
    src = Path(cfg["root"]).resolve() / "src"
    if src not in Path(nonassoc.__file__).resolve().parents:
        print(f"nonassoc imported from {nonassoc.__file__}, not from {src}", file=sys.stderr)
        return 2
    from nonassoc.cli import main as cli_main

    before, ops_spec, constants = prepare(cfg)
    rec = Recorder() if cfg["trace"] else None
    if rec is not None:
        rec.install()

    ready = time.monotonic()
    with SpeedSampler() as sampler:
        if before is not None:
            before()
        ops = [run_cli(cli_main, label, argv, rec) for label, argv in ops_spec]
        end = time.monotonic()
        # the samples taken during the work are not part of its time
        sampled = sum(sampler.samples)
        if rec is not None:
            rec.uninstall()
            probes = probe_metrics(cfg["seed"])

    result = {"ready": ready, "wall_s": end - ready - sampled, "import_s": import_s,
              "speed_samples": sampler.samples, "numpy_loaded": numpy_loaded,
              "ops": ops, "constants": constants}
    trace_file = Path(cfg["tmp"]) / "trace.txt"
    traces = []
    if cfg["workload"] == "search" and trace_file.is_file():
        result["trace_text"] = trace_file.read_text(encoding="utf-8")
        traces = [[float(v) for v in line.split(",")]
                  for line in result["trace_text"].splitlines() if line]
    if rec is not None:
        result["layers"] = dict(layer_metrics(rec, ops, end - ready, traces), **probes)
    Path(cfg["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
