"""Command-line front end.

Exit codes across subcommands: 0 = everything requested holds,
1 = an algebraic check failed (witness printed), 2 = input error.
"""

from __future__ import annotations

import contextlib
import os
import sys

import click

from .algfile import AlgebraParseError, parse_text, serialize
from .corpus import split_octonions
from .properties import PROPERTIES, check_property
from .report import build_verify_report
from .search import (
    CandidateAlgebra,
    SearchConfig,
    candidate_from_algebra,
    candidate_to_algebra,
    search as run_search,
)
from .zorn import to_zorn, zorn_text

def _load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        click.echo(f"error: cannot read {path}: {exc}", err=True)
        sys.exit(2)
    except UnicodeDecodeError as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        sys.exit(2)
    try:
        return parse_text(text)
    except AlgebraParseError as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        sys.exit(2)


def _file_identity(path):
    """The device and inode of an existing file, else the resolved path: two
    paths share it exactly when they name one file, links included."""
    st = os.stat(path) if os.path.exists(path) else None
    return (st.st_dev, st.st_ino) if st else os.path.realpath(path)


@contextlib.contextmanager
def _open_outputs(*paths):
    """One file opened for writing per path, None where no path is given.
    No file is emptied until all are open; when two paths name one file or
    one cannot be opened, exit 2 with every path left as it was."""
    named = [p for p in paths if p]
    if len({_file_identity(p) for p in named}) < len(named):
        click.echo(f"error: {' and '.join(named)} name one file", err=True)
        sys.exit(2)
    existed = [bool(p) and os.path.exists(p) for p in paths]
    with contextlib.ExitStack() as stack:
        try:
            files = [p and stack.enter_context(open(p, "a", encoding="utf-8")) for p in paths]
        except OSError as exc:
            stack.close()
            for p, old in zip(paths, existed):
                if p and not old and os.path.exists(p):
                    os.remove(p)
            click.echo(f"error: cannot write {exc.filename}: {exc}", err=True)
            sys.exit(2)
        for fh in filter(None, files):
            fh.truncate(0)
        yield files


@click.group()
def main():
    """Exact checks for structure-constant algebras and operator brackets."""


@main.command()
@click.argument("file", type=click.Path())
@click.option("--properties", required=True,
              help="comma-separated list, e.g. flexible,lie-admissible")
@click.option("--degree", type=click.IntRange(min=3), default=4, show_default=True,
              help="power-associative: 3 checks only x^2 x = x x^2; "
                   "4 or more decides power associativity completely")
def check(file, properties, degree):
    """Check the named laws on an algebra file."""
    parsed = _load_file(file)
    alg = parsed.algebra
    requested = [p.strip() for p in properties.split(",") if p.strip()]
    if not requested:
        click.echo("error: no properties requested", err=True)
        sys.exit(2)
    for prop in requested:
        if prop.replace("-", "_") not in PROPERTIES:
            click.echo(f"error: unknown property {prop!r}", err=True)
            sys.exit(2)
    any_failed = False
    for prop in requested:
        rep = check_property(alg, prop, degree=degree)
        if rep.holds:
            click.echo(f"PASS {rep.property}" + (f" ({rep.detail})" if rep.detail else ""))
        else:
            any_failed = True
            click.echo(f"FAIL {rep.property}: {rep.witness.describe()}")
    sys.exit(1 if any_failed else 0)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--zorn", "show_zorn", is_flag=True,
              help="also print the Zorn matrix images (split-octonion table only)")
def table(file, show_zorn):
    """Print the full multiplication table (rows are left factors)."""
    alg = _load_file(file).algebra
    if show_zorn and alg != split_octonions():
        click.echo("error: --zorn applies to the split-octonion table only", err=True)
        sys.exit(2)
    cells = [[str(alg.basis_product(i, j)) for j in range(alg.dim)] for i in range(alg.dim)]
    names = list(alg.basis_names)
    width = max(
        [len(n) for n in names] + [len(cell) for row in cells for cell in row]
    )
    header = " " * (width + 2) + "  ".join(f"{n:>{width}}" for n in names)
    click.echo(header)
    for name, row in zip(names, cells):
        click.echo(f"{name:>{width}}  " + "  ".join(f"{cell:>{width}}" for cell in row))
    if show_zorn:
        click.echo("")
        click.echo("Zorn images:")
        for name, e in zip(["1", *names], [alg.one(), *alg.basis()]):
            click.echo(f"{name:>{width}}  {zorn_text(to_zorn(e))}")
    sys.exit(0)


@main.command(name="verify-paper")
@click.option("--format", "fmt", type=click.Choice(["text", "lines"]),
              default="text", show_default=True)
def verify_paper(fmt):
    """Run the full identity checklist and report per-entry status."""
    report = build_verify_report()
    if fmt == "lines":
        click.echo(report.render_lines(), nl=False)
    else:
        click.echo(report.render_text(), nl=False)
    sys.exit(report.exit_code)


@main.command()
@click.option("--restarts", default=1, show_default=True)
@click.option("--iters", default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--tol", default=1e-10, show_default=True)
@click.option("--step", default=0.1, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="write the best candidate in the algebra file format")
@click.option("--trace-out", "trace_path", type=click.Path(), default=None,
              help="write one comma-separated residual trace per restart: the "
                   "start, then the total after each evaluated step (steps that "
                   "cannot lower the residual are skipped)")
@click.option("--freeze", multiple=True, type=click.Choice(["R", "Rt", "M"]),
              help="sectors whose internal products stay fixed")
@click.option("--init", "init_kind", type=click.Choice(["zero", "so31", "random"]),
              default="zero", show_default=True)
@click.option("--init-file", "init_file", type=click.Path(), default=None,
              help="start from a previously exported candidate (overrides --init)")
def search(restarts, iters, seed, tol, step, out_path, trace_path, freeze, init_kind,
           init_file):
    """Residual-minimizing local search over candidate structure constants."""
    try:
        cfg = SearchConfig(restarts=restarts, max_iters=iters, step_scale=step,
                           rng_seed=seed, tolerance=tol)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if init_file:
        parsed = _load_file(init_file)
        if parsed.roles is None:
            click.echo(f"error: {init_file} has no roles line", err=True)
            sys.exit(2)
        try:
            init = candidate_from_algebra(parsed.algebra, parsed.roles)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    elif init_kind == "so31":
        init = CandidateAlgebra.so31_embedded()
    elif init_kind == "random":
        init = CandidateAlgebra.random(seed)
    else:
        init = CandidateAlgebra.zero()

    # both outputs are opened before the search, so a bad path costs no search
    with _open_outputs(out_path, trace_path) as (out_file, trace_file):
        result = run_search(cfg, init=init, freeze=set(freeze))
        click.echo("# residual convention: real structure constants; the factor i of the")
        click.echo("# Lorentz closure right-hand side is absorbed into the M-sector constants")
        click.echo(f"restarts={restarts} iters={iters} seed={seed} "
                   f"init={'file' if init_file else init_kind}")
        click.echo(f"best {result.best_residual}")
        click.echo(f"converged={'yes' if result.converged else 'no'} (tolerance {tol:g})")

        if out_file:
            try:
                alg = candidate_to_algebra(result.best)
            except ValueError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            out_file.write(serialize(alg, roles=result.best.roles, scalar_tag="float64"))
        if trace_file:
            for tr in result.traces:
                trace_file.write(",".join(f"{v!r}" for v in tr) + "\n")
    sys.exit(0)


if __name__ == "__main__":
    main()
