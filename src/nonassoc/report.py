"""The full verification checklist behind the `verify-paper` command.

Every entry carries a stable equation id, a three-valued status, and a
one-line detail.  PASS/FAIL entries assert an identity exactly; RECORDED
entries document a measured constant or a computed bracket where the
source relations are ambiguous or internally inconsistent, without
passing judgement.  The id set is closed: golden-file tests pin it.
This module only writes the ledger and decides nothing: each verdict comes
from the module that forms its data (`superspace`, `spinor`, `zorn`, `properties`).
"""

from __future__ import annotations

from typing import NamedTuple

from . import superspace as ss
from .corpus import standard_corpus
from .properties import myung_equivalence
from .scalar import GaussianRational
from .spinor import SigmaConvention, epsilon_inverse_holds
from .zorn import (
    verify_spin_commutators,
    verify_spin_decomposition,
    verify_zorn_isomorphism,
    zorn_octonions,
)

PASS = "PASS"
FAIL = "FAIL"
RECORDED = "RECORDED"


class ReportEntry(NamedTuple):
    eq_id: str
    status: str
    detail: str


class VerifyReport(NamedTuple):
    entries: tuple[ReportEntry, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, RECORDED: 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.counts[FAIL] else 0

    def render_lines(self) -> str:
        rows = []
        for e in self.entries:
            detail = e.detail.replace("\t", " ").replace("\n", " ")
            rows.append(f"{e.eq_id}\t{e.status}\t{detail}")
        return "\n".join(rows) + "\n"

    def render_text(self) -> str:
        width = max(len(e.eq_id) for e in self.entries)
        lines = ["identity checklist", "=" * 18]
        for e in self.entries:
            lines.append(f"{e.eq_id:<{width}}  {e.status:<8}  {e.detail}")
        c = self.counts
        lines.append("")
        lines.append(
            f"{c[PASS]} passed, {c[FAIL]} failed, {c[RECORDED]} recorded"
        )
        return "\n".join(lines) + "\n"


def _status(ok: bool) -> str:
    return PASS if ok else FAIL


def build_verify_report() -> VerifyReport:
    entries: list[ReportEntry] = []

    gens_minus = ss.build_generators(SigmaConvention.STANDARD, momentum_sign=-1)
    gens_plus = ss.build_generators(SigmaConvention.STANDARD, momentum_sign=+1)
    poin_minus = ss.verify_poincare(gens_minus)
    poin_plus = ss.verify_poincare(gens_plus)
    susy_std = ss.verify_susy(gens_minus)
    susy_quarter = ss.verify_susy(
        ss.build_generators(SigmaConvention.QUARTER, momentum_sign=-1)
    )

    entries.append(
        ReportEntry("Eq. 1-10a", _status(poin_minus.translations_commute
                                         and poin_plus.translations_commute),
                    "[P^mu, P^nu] = 0, 16 cases, both momentum signs")
    )
    entries.append(
        ReportEntry(
            "Eq. 1-20a",
            _status(poin_plus.boost_translation_holds),
            "[M^{mu nu}, P^lam] = i(eta^{nu lam} P^mu - eta^{mu lam} P^nu) "
            f"holds for P_mu = +i d_mu; overall sign flips for P_mu = -i d_mu "
            f"(that convention {'passes' if poin_minus.boost_translation_holds else 'fails'})",
        )
    )
    entries.append(
        ReportEntry(
            "Eq. 1-30a",
            _status(poin_plus.lorentz_closure_holds),
            "[M, M] closure, 256 cases, holds for P_mu = +i d_mu; "
            "sign-reversed for P_mu = -i d_mu",
        )
    )
    entries.append(
        ReportEntry(
            "Eq. 1-50",
            _status(susy_std.qq_vanish and susy_std.c1 == GaussianRational(2)),
            f"{{Q_a, Qbar_bd}} = c1 sigma^mu_(a bd) P_mu with c1 = {susy_std.c1} "
            "(standard sigma, P_mu = -i d_mu)",
        )
    )
    entries.append(
        ReportEntry(
            "Eq. 1-60",
            _status(susy_std.qq_vanish and susy_std.qbar_qbar_vanish
                    and susy_quarter.qq_vanish and susy_quarter.qbar_qbar_vanish),
            "{Q_a, Q_b} = {Qbar_ad, Qbar_bd} = 0, all pairs, both sigma conventions",
        )
    )
    entries.append(
        ReportEntry(
            "Eq. 1-90",
            _status(susy_std.inversion_quarter_holds),
            f"P_mu = (1/4) sigma_mu^(a ad) {{Q_a, Qbar_ad}} in the standard convention "
            f"(c2 = {susy_std.c2}); quarter convention measures c2 = {susy_quarter.c2}",
        )
    )
    spin, decomp = verify_spin_commutators(), verify_spin_decomposition()
    entries.extend([
        ReportEntry("Eq. 1-100-1-130", _status(epsilon_inverse_holds()),
                    "eps^{ab} eps_{bc} = delta, dotted = undotted; "
                    "note i*sigma^2 = -(printed eps^{ab})"),
        ReportEntry("Eq. 2-10", _status(decomp.split_bracket_holds),
                    "[q_(i+3), q_(j+3)] = -2 eps_ijk q_k, 27 coefficient cases"),
        ReportEntry("Eq. 2-30", _status(spin.quaternion_bracket_holds),
                    "[q_i, q_j] = 2 eps_ijk q_k, 27 coefficient cases"),
        ReportEntry("Eq. 2-40", _status(decomp.split_associator_holds),
                    "(q_(i+3), q_(j+3), q_(k+3)) = 2 eps_ijk q7, 27 cases"),
    ])
    entries.append(
        ReportEntry(
            "Eq. 2-50",
            _status(spin.printed_relation_holds),
            f"[i/2 q_i, i/2 q_j] = {spin.measured_factor} * eps_ijk (i/2) q_k: "
            "printed right side lacks the factor i; Pauli analogue "
            f"{'holds' if spin.pauli_side_holds else 'fails'}",
        )
    )
    entries.append(
        ReportEntry(
            "Eq. 2-60",
            _status(decomp.product_decomposition_holds),
            "(i/2) q_i = -(i/4) eps_ijk q_(j+3) q_(k+3), i = 1..3",
        )
    )

    zorn = verify_zorn_isomorphism()
    entries.append(
        ReportEntry("Eq. 2-80/2-90-2-110", _status(zorn.holds), zorn.detail)
    )

    entries.append(
        ReportEntry(
            "Eq. 3-10",
            _status(susy_std.spatial_inversion_quarter_holds),
            "spatial components of the Eq. 1-90 inversion, standard convention",
        )
    )
    lam = str(decomp.bracket_constant)
    if not decomp.bracket_constant_uniform:
        lam += " (not uniform over i)"
    entries.append(
        ReportEntry(
            "Eq. 3-30",
            RECORDED,
            f"lambda = {lam}: -(1/4) eps [q_(j+3), q_(k+3)] = "
            "lambda q_i, while the i/2-scaled operator of Eq. 2-60 is (i/2) q_i; factor i/2",
        )
    )
    entries.append(
        ReportEntry(
            "Eq. 4-30",
            _status(ss.grassmann_relations_hold()),
            "{th, th} = {tb, tb} = {th, tb} = 0, all index pairs",
        )
    )

    verdicts = myung_equivalence(standard_corpus() + [zorn_octonions()])
    myung_ok = all(v.equivalence_holds for v in verdicts)
    entries.append(
        ReportEntry(
            "Eq. 4-80-4-100",
            _status(myung_ok),
            "derivation property <=> (flexible and Lie-admissible) on "
            + ", ".join(v.algebra.name for v in verdicts),
        )
    )

    for eq_id, bracket, index, stated in (
            ("Eq. 1-10", "[P^mu, Q_a]", "a", "sigma^mu_(a ad) Qbar^ad"),
            ("Eq. 1-20", "[P^mu, Qbar^ad]", "ad", "-sigma^(mu ad a) Q_a")):
        computed = (f"{bracket} = 0 for all mu, {index}" if susy_std.p_q_brackets_vanish
                    else "[P^mu, Q_a] and [P^mu, Qbar^ad] do not all vanish")
        entries.append(ReportEntry(eq_id, RECORDED,
                                   f"computed {computed}; stated right side is {stated}"))
    for eq_id, (bracket, computed) in zip(("Eq. 1-30", "Eq. 1-40"), susy_std.m_q_samples):
        entries.append(ReportEntry(eq_id, RECORDED, "sigma^{mu nu} is undefined, so no "
                                   f"pass/fail; orbital-only bracket {bracket} = {computed}"))
    entries.append(
        ReportEntry(
            "Const c1",
            RECORDED,
            f"c1 = {susy_std.c1} (standard) and {susy_quarter.c1} (quarter) with "
            "P_mu = -i d_mu; flipping the momentum sign negates it",
        )
    )
    quarter_coeff = (
        GaussianRational(1) / susy_quarter.c2 if susy_quarter.c2 else None
    )
    entries.append(
        ReportEntry(
            "Const c2",
            RECORDED,
            f"c2 = {susy_std.c2} (standard convention: inversion coefficient 1/4) "
            f"and c2 = {susy_quarter.c2} (quarter convention: coefficient would be "
            f"{quarter_coeff})",
        )
    )
    entries.append(
        ReportEntry(
            "Const lambda",
            RECORDED,
            f"lambda = {lam}; bracket decomposition lands on q_i, "
            "not on the i/2-scaled operator",
        )
    )

    return VerifyReport(tuple(entries))
