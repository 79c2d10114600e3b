"""Mutation checks: deliberate small faults in `src/` that the tests must catch.

Each entry of MUTANTS is (file in src/nonassoc, exact old text, new text,
tests to run).  For each entry the script copies `src/`, `tests/` and
`pyproject.toml` to a temporary directory, replaces the old text in the
copy of `src/`, where it must occur exactly once, and runs the listed tests
with pytest in that directory.  A mutant survives when those tests all
pass.  The script prints one line per mutant and exits 1 if any survived.
Run it from anywhere:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 6      # the mutants at these indices

pytest does not collect this file; `tests/test_package.py` checks that
every old text still occurs exactly once in `src/`.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

MUTANTS = [
    # Zorn block product: the sign of -y X v
    ("zorn.py", "ZORN[Y, Y, X] = -EPS3", "ZORN[Y, Y, X] = EPS3",
     ["tests/test_zorn.py"]),
    # Zorn basis map: the b entry of the image of q7
    ("zorn.py", "PHI[Q7, [A, B]] = -1, 1", "PHI[Q7, [A, B]] = -1, -1",
     ["tests/test_zorn.py"]),
    # sigma axes swapped in Q_a
    ("superspace.py", "odd[:, :2, 7:, :4] = -S.transpose(0, 2, 3, 1)",
     "odd[:, :2, 7:, :4] = -S.transpose(0, 3, 2, 1)", ["tests/test_superspace.py"]),
    # epsilon transposed in Qbar^ad
    ("superspace.py", 'np.einsum("ab,rbxy->raxy", EPS_RAISE[0], odd[:, 2:4])',
     'np.einsum("ba,rbxy->raxy", EPS_RAISE[0], odd[:, 2:4])', ["tests/test_superspace.py"]),
    # a wrong d/dtb sign in Qbar_ad
    ("superspace.py", "= (-d, -d, d, d)", "= (-d, -d, d, -d)", ["tests/test_superspace.py"]),
    # the Pauli identity without the denominator d
    ("spinor.py", "rhs = 2 * d * times_i(", "rhs = 2 * times_i(",
     ["tests/test_spinor.py::test_spin_commutators_match_matrix_reference"]),
    # an assignment in place of np.add.at, which drops a shared index
    ("search.py", "np.add.at(t_lorentz, (..., idx_m), LORENTZ)",
     "t_lorentz[..., idx_m] = LORENTZ",
     ["tests/test_search.py::test_layout_with_a_shared_index_matches_brute_force"]),
    # a consistency scan that skips the last row
    ("scalar.py", "reduced(i)[n] == (0, 0) for i in range(r, m))",
     "reduced(i)[n] == (0, 0) for i in range(r, m - 1))",
     ["tests/test_scalar.py::test_solver_agrees_with_sympy_on_consistency"]),
]


def survives(file, old, new, tests) -> bool:
    """True when `tests` all pass on a copy of the repository with `old` made `new`."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "nonassoc" / file
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{file}: the old text must occur exactly once: {old!r}")
        path.write_text(text.replace(old, new))
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              *tests], cwd=tmp, capture_output=True)
        return run.returncode == 0


def main(indices) -> int:
    survivors = []
    for k in indices:
        file, old, new, tests = MUTANTS[k]
        alive = survives(file, old, new, tests)
        print(f"{k}: {'SURVIVED' if alive else 'killed'}  {file}: {old!r} -> {new!r}")
        if alive:
            survivors.append(k)
    print(f"{len(survivors)} of {len(indices)} mutants survived" + (f": {survivors}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or range(len(MUTANTS))))
