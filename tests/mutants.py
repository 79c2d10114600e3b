"""Mutation checks: deliberate small faults in `src/` that the tests must catch.

Each entry of MUTANTS is (file in src/nonassoc, exact old text, new text,
tests to run).  For each entry the script copies `src/`, `tests/`,
`perfbench/` (some tests read it) and `pyproject.toml` to a temporary
directory, replaces the old text in the copy of `src/`, where it must occur
exactly once, and runs the listed tests with pytest in that directory.  A
mutant survives when those tests all pass.  The script prints one line per mutant and exits 1 if any survived.
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
    # Eq. 2-10 with the sign of its right side flipped
    ("zorn.py", "-2 * _eps_vectors(t, den)", "2 * _eps_vectors(t, den)",
     ["tests/test_zorn.py::test_tensor_decided_entries_match_element_reference"]),
    # Eq. 2-40 without the factor 2 on its right side
    ("zorn.py", "2 * EPS3 * den**2", "EPS3 * den**2",
     ["tests/test_zorn.py::test_tensor_decided_entries_match_element_reference"]),
    # Zorn basis map: the b entry of the image of q7
    ("zorn.py", "PHI[Q7, [A, B]] = -1, 1", "PHI[Q7, [A, B]] = -1, -1",
     ["tests/test_zorn.py"]),
    # the imaginary halves of a Zorn matrix's text read one slot early
    ("zorn.py", "zip(z.vec[1:9], z.vec[10:])", "zip(z.vec[1:9], z.vec[9:])",
     ["tests/test_zorn.py::test_zorn_text_writes_each_component_as_its_scalar"]),
    # from_zorn reads an element of any algebra as a Zorn matrix
    ("zorn.py", 'raise ValueError("from_zorn expects an element of zorn_matrices()")', "pass",
     ["tests/test_zorn.py::test_from_zorn_rejects_foreign_elements"]),
    # to_zorn puts the unit slot of the imaginary half at its end
    ("zorn.py", "[0, *re, 0, *im]", "[0, *re, *im, 0]",
     ["tests/test_zorn.py::test_zorn_scalar_coefficients_survive"]),
    # a common scale decided on real parts only
    ("scalar.py", "np.array_equal(gauss(np.multiply, u, vp), gauss(np.multiply, up, v))",
     "np.array_equal(gauss(np.multiply, u, vp)[0], gauss(np.multiply, up, v)[0])",
     ["tests/test_scalar.py"]),
    # a support that drops the entries where only u is nonzero
    ("scalar.py", "np.flatnonzero(u.any(axis=0) | v.any(axis=0))", "np.flatnonzero(v.any(axis=0))",
     ["tests/test_scalar.py"]),
    # a common scale decided in int64, where products wrap around
    ("scalar.py", "u, v = u[:, at].astype(object), v[:, at].astype(object)",
     "u, v = u[:, at], v[:, at]", ["tests/test_scalar.py"]),
    # the conjugate of the common scale
    ("scalar.py", "Fraction(ui * vr - ur * vi, n)", "Fraction(ur * vi - ui * vr, n)",
     ["tests/test_scalar.py"]),
    # sigma axes swapped in Q_a
    ("superspace.py", "odd[:, :2, 7:, :4] = -S.transpose(0, 2, 3, 1)",
     "odd[:, :2, 7:, :4] = -S.transpose(0, 3, 2, 1)", ["tests/test_superspace.py"]),
    # epsilon transposed in Qbar^ad
    ("superspace.py", 'np.einsum("ab,rbxy->raxy", EPS_RAISE[0], odd[:, 2:4])',
     'np.einsum("ba,rbxy->raxy", EPS_RAISE[0], odd[:, 2:4])', ["tests/test_superspace.py"]),
    # a wrong d/dtb sign in Qbar_ad
    ("superspace.py", "= (-d, -d, d, d)", "= (-d, -d, d, -d)", ["tests/test_superspace.py"]),
    # M^{02} (row 10) read for M^{01} in the [M, Q] samples
    ("superspace.py", "even[:, 9:10]", "even[:, 10:11]",
     ["tests/test_superspace.py::test_susy_report_matches_the_engine_reference"]),
    # Eq. 1-10a decided as the constant True
    ("superspace.py", "PoincareReport(not pp, not mp, not mm,", "PoincareReport(True, not mp, not mm,",
     ["tests/test_superspace.py::test_poincare_report_on_non_commuting_translations_matches_the_reference"]),
    # {Qbar, Qbar} = 0 (Eq. 1-60) decided as the constant True
    ("superspace.py", "qbqb = not _bracket(Qb, Qb, -1).any()", "qbqb = True",
     ["tests/test_superspace.py::test_susy_report_matches_the_engine_reference[Qbar1-gains-tb1]"]),
    # [P, Q] = [P, Qbar] = 0 decided as the constant True
    ("superspace.py", "pq = not (_bracket(P_up, Q, 1).any() or _bracket(P_up, Qb_up, 1).any())",
     "pq = True",
     ["tests/test_superspace.py::test_susy_report_matches_the_engine_reference[Q1-gains-x0-dth1]"]),
    # a Poincaré memo keyed on the stack as it is: the other momentum sign brackets again
    ("superspace.py", "key = (-flat if (first < 0).any() else flat).tobytes()",
     "key = flat.tobytes()",
     ["tests/test_superspace.py::test_the_second_momentum_sign_makes_no_bracket_call"]),
    # a merge sign that counts the crossings of the second monomial with itself
    ("superspace.py", "(m1 >> j + 1).bit_count()", "(m2 >> j + 1).bit_count()",
     ["tests/test_superspace.py::test_grassmann_relations"]),
    # a generator set that keeps a caller's int64 stack past the bound, where brackets wrap
    ("superspace.py", "A = _fit(den, A)", "A = np.array(A)",
     ["tests/test_superspace.py::test_generator_set_keeps_int64_only_where_brackets_cannot_overflow"]),
    # Eq. 4-30 decided as the constant True
    ("superspace.py", "return all(_merge_sign(1 << a, 1 << b) == -_merge_sign(1 << b, 1 << a)",
     "return True or all(_merge_sign(1 << a, 1 << b) == -_merge_sign(1 << b, 1 << a)",
     ["tests/test_superspace.py::test_grassmann_verdict_fails_for_commuting_generators"]),
    # Eq. 1-100 to 1-130 decided as the constant True
    ("spinor.py", "return np.array_equal(gauss(np.matmul, EPS_RAISE, EPS_LOWER), ID2)",
     "return True",
     ["tests/test_spinor.py::test_epsilon_inverse_verdict_fails_when_lower_is_not_the_inverse"]),
    # the Pauli identity without the denominator d
    ("spinor.py", "rhs = 2 * d * times_i(", "rhs = 2 * times_i(",
     ["tests/test_spinor.py::test_spin_commutators_match_matrix_reference"]),
    # an assignment in place of np.add.at, which drops a shared index
    ("search.py", "np.add.at(t_lorentz, (..., idx_m), LORENTZ)",
     "t_lorentz[..., idx_m] = LORENTZ",
     ["tests/test_search.py::test_layout_with_a_shared_index_matches_brute_force"]),
    # a search that skips steps on an entry that is its own associator factor
    ("search.py", "(k == i or k == j or left[k] or right[k])", "(left[k] or right[k])",
     ["tests/test_search.py::test_search_skips_only_steps_that_cannot_lower_the_residual"]),
    # a search that skips the steps whose bracket defects are not 0, and evaluates the rest
    ("search.py", "c.item(a, b, k) - c.item(b, a, k) != target[p][k]",
     "c.item(a, b, k) - c.item(b, a, k) == target[p][k]",
     ["tests/test_search.py::test_support_rejects_only_entries_whose_step_cannot_lower_the_residual"]),
    # a zero test that forgets the target, so [R^mu, Rt^nu] = 0 passes for 2 M
    ("search.py", "c.item(a, b, k) - c.item(b, a, k) != target[p][k]",
     "c.item(a, b, k) != c.item(b, a, k)",
     ["tests/test_search.py::test_search_skips_only_steps_that_cannot_lower_the_residual"]),
    # diagonal pairs left live: a shared index's c[x, x, :] read against its target
    ("search.py", "            if a != b:\n", "            if True:\n",
     ["tests/test_search.py::test_support_rejects_only_entries_whose_step_cannot_lower_the_residual"]),
    # nonzero counts left as they were when an accepted step crosses zero
    ("search.py", "support.moved(i, j, k, 1 if old == 0 else -1)", "pass",
     ["tests/test_search.py::test_search_skips_only_steps_that_cannot_lower_the_residual"]),
    # the bracket family left unmoved for a step in a bracket row that also reaches a sector
    ("search.py", "return bool(rows), sectors", "return False, sectors",
     ["tests/test_search.py::test_search_partial_residual_equals_the_full_one"]),
    # a one-sector step that keeps the moved sector's old sum
    ("search.py", "sums[s] = float(row @ row)",
     "sums[s] = float(row @ row) if len(sectors) == 2 else sums[s]",
     ["tests/test_search.py::test_search_partial_residual_equals_the_full_one"]),
    # a reject that leaves the new double in the live operand set
    ("search.py", "buf[slots, k] = old", "pass",
     ["tests/test_search.py::test_search_live_operands_equal_a_fresh_gather"]),
    # a write that reaches only the first slot of an entry the plan reads more than once
    ("search.py", "buf[slots, k] = new", "buf[slots[:1], k] = new",
     ["tests/test_search.py::test_search_live_operands_equal_a_fresh_gather[so31-shared-index]"]),
    # a restart that keeps stepping once its residual is within tolerance
    ("search.py", "if total <= cfg.tolerance:\n                break\n",
     "if total <= cfg.tolerance:\n                pass\n",
     ["tests/test_search.py::test_a_start_within_tolerance_stops_at_once"]),
    # a sum of elements over the smaller denominator, not the lcm
    ("algebra.py", "Element(self.algebra, self.den * fa,", "Element(self.algebra, self.den,",
     ["tests/test_algebra.py::test_element_arithmetic_matches_the_tuple_oracle"]),
    # a coefficient of -1 written out before a name
    ("scalar.py", "if name and not im and abs(re) == den:", "if name and not im and re == den:",
     ["tests/test_cli.py::test_table_zorn_flag_full_output"]),
    # a consistency scan that skips the last row
    ("scalar.py", "reduced(i)[n] == (0, 0) for i in range(r, m))",
     "reduced(i)[n] == (0, 0) for i in range(r, m - 1))",
     ["tests/test_scalar.py::test_solver_agrees_with_sympy_on_consistency"]),
    # a Bareiss step skipped when the row's factor is 0: the row is not
    # rescaled, and later exact divisions by the pivots go wrong
    ("scalar.py", "            fr, fi = row[c]\n",
     "            fr, fi = row[c]\n            if not (fr or fi):\n                continue\n",
     ["tests/test_scalar.py"]),
    # back-substitution that does not scale the right-hand side by the last pivot
    ("scalar.py", "ur, ui = pr * br - pi * bi, pr * bi + pi * br", "ur, ui = br, bi",
     ["tests/test_scalar.py"]),
    # a term scanner that reads two terms with no sign between them
    ("algfile.py", r'\s*(?=[+-]|\Z)"', r'\s*"', ["tests/test_algfile.py"]),
    # a coefficient past the integer digit limit escapes as a ValueError
    ("algfile.py", "except ValueError as exc:", "except TypeError as exc:",
     ["tests/test_cli.py::test_a_coefficient_past_the_integer_digit_limit_is_a_bad_rational"]),
    # the degree-4 slab without its x[k, l, j] image: the pair partition
    # S_ij o S_kl dropped, with the L3(i, k, l) e_j term it is summed with
    ("properties.py", "return _mod(_add_symmetric(np.negative(out, out=out), q))",
     "return _mod(np.negative(out, out=out) + q + q.swapaxes(-3, -2))",
     ["tests/test_properties.py::test_degree_four_decides_what_degree_three_misses"]),
    # the summed degree-4 cube of slab i starting at i + 1 instead of i
    ("properties.py", "s, m = i - 1, n - i + 1    # j, k, l from e_i on",
     "s, m = i, n - i    # j, k, l from e_i on",
     ["tests/test_properties.py::test_degree_four_decides_what_degree_three_misses"]),
    # the Jordan slab read for y = e_l from e_i on only
    ("properties.py", "return _mod(g)", "return _mod(g[..., s:, :])",
     ["tests/test_properties.py::test_witness_past_slab_one_is_the_polarized_defect"]),
    # a witness read off a slab as if it covered the whole basis on every axis
    ("properties.py", "rest = [int(a) + alg.dim - size for a, size in zip(at, nonzero.shape)]",
     "rest = [int(a) for a in at]",
     ["tests/test_properties.py::test_witness_past_slab_one_is_the_polarized_defect"]),
    # a unit witness that reads u e_j for e_j u too
    ("properties.py", "for side in (full[:, j + 1], full[j + 1]):",
     "for side in (full[:, j + 1], full[:, j + 1]):", ["tests/test_properties.py"]),
    # the derivation row with the sign of its ijk order flipped: its images span all six orders
    ("properties.py", '("bracket Leibniz rule", (-1, 0, 0, 1, -1, 0))',
     '("bracket Leibniz rule", (1, 0, 0, 1, -1, 0))', ["tests/test_properties.py"]),
    # the Lie-admissible row with the sign of its kji order flipped
    ("properties.py", "(1, -1, 1, -1, 1, -1)", "(1, -1, 1, -1, 1, 1)", ["tests/test_properties.py"]),
    # a Myung scan that keeps a law after its first failing slab: later slabs overwrite its witness
    ("properties.py", "                undecided.remove(g)\n", "                pass\n",
     ["tests/test_properties.py::test_myung_scan_drops_each_law_at_its_first_failing_slab"]),
    # Eq. 4-80 to 4-100 decided as the constant True
    ("properties.py", "MyungVerdict(alg, der.holds == (flex.holds and lie.holds), der, flex, lie)",
     "MyungVerdict(alg, True, der, flex, lie)",
     ["tests/test_properties.py::test_inconsistent_law_reports_fail_the_myung_entry"]),
    # a check that runs one slab scan per law: each law that holds re-contracts every slab
    ("properties.py", "for kernel, members in by_kernel.items():",
     "for kernel, members in ((k, [m]) for k, ms in by_kernel.items() for m in ms):",
     ["tests/test_properties.py::test_check_properties_contracts_each_slice_once"]),
    # the kij order read off slice 2, the slice of kji
    ("properties.py", "(0, True), (1, True), (2, True)", "(0, True), (2, True), (2, True)",
     ["tests/test_properties.py"]),
    # an exchanged order read as the slice of its position, without the swap of j and k
    ("properties.py", "views[o] = made[pos].swapaxes(-3, -2) if exchanged else made[pos]",
     "views[o] = made[pos]",
     ["tests/test_properties.py::test_split_octonion_witnesses_are_lex_first"]),
    # slices keyed so that positions 1 and 2 share one: the first computed serves both
    ("properties.py",
     "                    if pos not in made:\n                        made[pos] = slices(i, pos)\n",
     "                    if min(pos, 1) not in made:\n"
     "                        made[min(pos, 1)] = slices(i, pos)\n"
     "                    made[pos] = made[min(pos, 1)]\n",
     ["tests/test_properties.py::test_split_octonion_witnesses_are_lex_first"]),
    # Eq. 2-80/2-90-2-110, the Zorn isomorphism, decided as the constant False
    ("zorn.py", 'PropertyReport(alg, "zorn_isomorphism", True, None,',
     'PropertyReport(alg, "zorn_isomorphism", False, None,',
     ["tests/test_zorn.py::test_isomorphism_holds_on_the_table_the_zorn_form_generates"]),
    # Eq. 2-50 as printed decided as the constant False
    ("zorn.py", "SpinCommutatorReport(np.array_equal(brackets, twice_eps), not failing,",
     "SpinCommutatorReport(np.array_equal(brackets, twice_eps), False,",
     ["tests/test_zorn.py::test_printed_relation_holds_where_the_quaternion_products_carry_minus_i"]),
]


def survives(file, old, new, tests) -> bool:
    """True when `tests` all pass on a copy of the repository with `old` made `new`."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for part in ("src", "tests", "perfbench"):
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
