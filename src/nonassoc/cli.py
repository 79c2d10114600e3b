"""Command-line front end.

Exit codes across subcommands: 0 = everything requested holds,
1 = an algebraic check failed (witness printed), 2 = input error, a usage
error included.  The parser is built once, on import.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

from .algfile import AlgebraParseError, parse_text, serialize
from .corpus import split_octonions
from .properties import check_properties
from .report import build_verify_report
from .search import (
    CandidateAlgebra,
    SearchConfig,
    candidate_from_algebra,
    candidate_to_algebra,
    search as run_search,
)
from .zorn import to_zorn, zorn_text


def _fail(message):
    """Exit 2 with `message` as the error line on stderr."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        _fail(f"{path}: {exc}")
    try:
        return parse_text(text)
    except AlgebraParseError as exc:
        _fail(f"{path}: {exc}")


def _file_identity(path):
    """The device and inode of an existing regular file, None for another
    existing file (a device or pipe, which outputs may share), else the
    resolved path: two paths share it exactly when they name one file."""
    if not os.path.exists(path):
        return os.path.realpath(path)
    st = os.stat(path)
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


@contextlib.contextmanager
def _open_outputs(*paths):
    """One file opened for writing per path, None where no path is given.
    No file is emptied until all are open, and only regular files are; when
    two paths name one regular file or one cannot be opened, exit 2 with
    every path left as it was."""
    named = [p for p in paths if p]
    ids = [i for i in map(_file_identity, named) if i is not None]
    if len(set(ids)) < len(ids):
        _fail(f"{' and '.join(named)} name one file")
    existed = [bool(p) and os.path.exists(p) for p in paths]
    with contextlib.ExitStack() as stack:
        try:
            files = [p and stack.enter_context(open(p, "a", encoding="utf-8")) for p in paths]
        except OSError as exc:
            stack.close()
            for p, old in zip(paths, existed):
                if p and not old and os.path.exists(p):
                    os.remove(p)
            _fail(f"cannot write {exc.filename}: {exc}")
        for fh in filter(None, files):
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
        yield files


def check(file, properties, degree):
    """Check the named laws on an algebra file."""
    alg = _load_file(file).algebra
    requested = [p.strip() for p in properties.split(",") if p.strip()]
    if not requested:
        _fail("no properties requested")
    try:
        reports = check_properties(alg, requested, degree=degree)
    except ValueError as exc:    # an unknown name, before any law is decided
        _fail(exc)
    any_failed = False
    for rep in reports:
        if rep.holds:
            print(f"PASS {rep.property}" + (f" ({rep.detail})" if rep.detail else ""))
        else:
            any_failed = True
            print(f"FAIL {rep.property}: {rep.witness.describe()}")
    return 1 if any_failed else 0


def table(file, show_zorn):
    """Print the full multiplication table (rows are left factors)."""
    alg = _load_file(file).algebra
    if show_zorn and alg != split_octonions():
        _fail("--zorn applies to the split-octonion table only")
    cells = [[str(alg.basis_product(i, j)) for j in range(alg.dim)] for i in range(alg.dim)]
    names = list(alg.basis_names)
    width = max(
        [len(n) for n in names] + [len(cell) for row in cells for cell in row]
    )
    print(" " * (width + 2) + "  ".join(f"{n:>{width}}" for n in names))
    for name, row in zip(names, cells):
        print(f"{name:>{width}}  " + "  ".join(f"{cell:>{width}}" for cell in row))
    if show_zorn:
        print()
        print("Zorn images:")
        for name, e in zip(["1", *names], [alg.one(), *alg.basis()]):
            print(f"{name:>{width}}  {zorn_text(to_zorn(e))}")
    return 0


def verify_paper(fmt):
    """Run the full identity checklist and report per-entry status."""
    report = build_verify_report()
    sys.stdout.write(report.render_lines() if fmt == "lines" else report.render_text())
    return report.exit_code


def search(restarts, iters, seed, tol, step, out_path, trace_path, freeze, init_kind,
           init_file):
    """Residual-minimizing local search over candidate structure constants."""
    try:
        cfg = SearchConfig(restarts=restarts, max_iters=iters, step_scale=step,
                           rng_seed=seed, tolerance=tol)
    except ValueError as exc:
        _fail(exc)
    if init_file:
        parsed = _load_file(init_file)
        if parsed.roles is None:
            _fail(f"{init_file} has no roles line")
        try:
            init = candidate_from_algebra(parsed.algebra, parsed.roles)
        except ValueError as exc:
            _fail(exc)
    elif init_kind == "so31":
        init = CandidateAlgebra.so31_embedded()
    elif init_kind == "random":
        init = CandidateAlgebra.random(seed)
    else:
        init = CandidateAlgebra.zero()

    # both outputs are opened before the search, so a bad path costs no search
    with _open_outputs(out_path, trace_path) as (out_file, trace_file):
        result = run_search(cfg, init=init, freeze=set(freeze))
        print("# residual convention: real structure constants; the factor i of the")
        print("# Lorentz closure right-hand side is absorbed into the M-sector constants")
        print(f"restarts={restarts} iters={iters} seed={seed} "
              f"init={'file' if init_file else init_kind}")
        print(f"best {result.best_residual}")
        print(f"converged={'yes' if result.converged else 'no'} (tolerance {tol:g})")

        if out_file:
            try:
                alg = candidate_to_algebra(result.best)
            except ValueError as exc:
                _fail(exc)
            out_file.write(serialize(alg, roles=result.best.roles, scalar_tag="float64"))
        if trace_file:
            for tr in result.traces:
                trace_file.write(",".join(f"{v!r}" for v in tr) + "\n")
    return 0


class _AtLeast(argparse.Action):
    """Store an integer option no smaller than `const`; a smaller one is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.const:
            parser.error(f"invalid value for {option_string!r}: {value} is not in the "
                         f"range x>={self.const}")
        setattr(namespace, self.dest, value)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonassoc", allow_abbrev=False,
        description="Exact checks for structure-constant algebras and operator brackets.")
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(run, name=None):
        summary = run.__doc__
        sub = commands.add_parser(name or run.__name__, help=summary, description=summary,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    sub = command(check)
    sub.add_argument("file", metavar="FILE")
    sub.add_argument("--properties", required=True,
                     help="comma-separated list, e.g. flexible,lie-admissible")
    sub.add_argument("--degree", type=int, default=4, action=_AtLeast, const=3,
                     help="power-associative: 3 checks only x^2 x = x x^2; 4 or more "
                          "decides power associativity completely (default: %(default)s; x>=3)")

    sub = command(table)
    sub.add_argument("file", metavar="FILE")
    sub.add_argument("--zorn", dest="show_zorn", action="store_true",
                     help="also print the Zorn matrix images (split-octonion table only)")

    sub = command(verify_paper, "verify-paper")
    sub.add_argument("--format", dest="fmt", choices=("text", "lines"), default="text",
                     help="(default: %(default)s)")

    sub = command(search)
    sub.add_argument("--restarts", type=int, default=1, help="(default: %(default)s)")
    sub.add_argument("--iters", type=int, default=1000, help="(default: %(default)s)")
    sub.add_argument("--seed", type=int, default=0, action=_AtLeast, const=0,
                     help="(default: %(default)s; x>=0)")
    sub.add_argument("--tol", type=float, default=1e-10, help="(default: %(default)s)")
    sub.add_argument("--step", type=float, default=0.1, help="(default: %(default)s)")
    sub.add_argument("--out", dest="out_path", metavar="PATH",
                     help="write the best candidate in the algebra file format")
    sub.add_argument("--trace-out", dest="trace_path", metavar="PATH",
                     help="write one comma-separated residual trace per restart: the "
                          "start, then the total after each evaluated step (steps that "
                          "cannot lower the residual are skipped)")
    sub.add_argument("--freeze", action="append", default=[], choices=("R", "Rt", "M"),
                     help="sectors whose internal products stay fixed; repeatable")
    sub.add_argument("--init", dest="init_kind", choices=("zero", "so31", "random"),
                     default="zero", help="(default: %(default)s)")
    sub.add_argument("--init-file", metavar="PATH",
                     help="start from a previously exported candidate (overrides --init)")
    return parser


_PARSER = _parser()


def main(args=None, prog_name=None):
    """Run the command that `args` (by default the process arguments) names
    and exit with its code.  `prog_name` is ignored; it keeps the call shape
    `main.main(args=..., prog_name=...)` of the click front end working."""
    options = vars(_PARSER.parse_args(args))
    try:
        code = options.pop("run")(**options)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): exit 1 quietly, with stdout on
        # devnull so that the interpreter's own flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


# the click front end's entry point; ROADMAP item 1 removes it with that call shape
main.main = main


if __name__ == "__main__":
    main()
