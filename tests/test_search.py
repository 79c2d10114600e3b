import collections
import importlib.util
import itertools
import pathlib
import statistics
import sys

import numpy as np
import pytest

from nonassoc.corpus import LORENTZ, LORENTZ_SLOTS, MINKOWSKI
from nonassoc.search import (
    BASE_DIM,
    EPS4,
    ROLE_M,
    ROLE_R,
    ROLE_RT,
    CandidateAlgebra,
    ResidualBreakdown,
    SearchConfig,
    _Support,
    _targets_for,
    default_roles,
    residual,
    search,
)
from oracle import permuted_candidate, reference_search

ROOT = pathlib.Path(__file__).resolve().parent.parent


def lorentz_bracket_coeffs(munu, rhosigma):
    """Coefficients of [m_munu, m_rhosigma] on the six antisymmetric slots.

    Real form of the boost/rotation algebra: the bracket equals
    eta^{nu rho} m^{mu sigma} + eta^{mu sigma} m^{nu rho}
    - eta^{mu rho} m^{nu sigma} - eta^{nu sigma} m^{mu rho}.
    """
    mu, nu = munu
    rho, sigma = rhosigma
    out = {}

    def put(coeff, a, b):
        if coeff == 0 or a == b:
            return
        if a > b:
            a, b = b, a
            coeff = -coeff
        slot = LORENTZ_SLOTS.index((a, b))
        out[slot] = out.get(slot, 0) + coeff

    put(MINKOWSKI[nu] if nu == rho else 0, mu, sigma)
    put(MINKOWSKI[mu] if mu == sigma else 0, nu, rho)
    put(-(MINKOWSKI[mu] if mu == rho else 0), nu, sigma)
    put(-(MINKOWSKI[nu] if nu == sigma else 0), mu, rho)
    return out


def brute_force_residual(cand):
    """Independent expansion with plain loops; no shared einsum code."""
    c = cand.c
    dim = cand.dim
    idx_r = [cand.roles[f"R{mu}"] for mu in range(4)]
    idx_rt = [cand.roles[f"Rt{mu}"] for mu in range(4)]
    idx_m = [cand.roles[f"M{a}{b}"] for a, b in LORENTZ_SLOTS]

    def mul(u, v):
        out = [0.0] * dim
        for i in range(dim):
            if u[i] == 0.0:
                continue
            for j in range(dim):
                if v[j] == 0.0:
                    continue
                for k in range(dim):
                    out[k] += u[i] * v[j] * c[i, j, k]
        return out

    def basis(i):
        v = [0.0] * dim
        v[i] = 1.0
        return v

    def m_vec(mu, nu):
        v = [0.0] * dim
        if mu == nu:
            return v
        sign = 1.0
        if mu > nu:
            mu, nu, sign = nu, mu, -1.0
        v[idx_m[LORENTZ_SLOTS.index((mu, nu))]] = sign
        return v

    r_comm = 0.0
    for mu in range(4):
        for nu in range(4):
            ab = mul(basis(idx_r[mu]), basis(idx_rt[nu]))
            ba = mul(basis(idx_rt[nu]), basis(idx_r[mu]))
            target = m_vec(mu, nu)
            for k in range(dim):
                r_comm += (ab[k] - ba[k] - 2.0 * target[k]) ** 2

    r_lorentz = 0.0
    for a in range(6):
        for b in range(6):
            ab = mul(basis(idx_m[a]), basis(idx_m[b]))
            ba = mul(basis(idx_m[b]), basis(idx_m[a]))
            target = [0.0] * dim
            for slot, coeff in lorentz_bracket_coeffs(LORENTZ_SLOTS[a], LORENTZ_SLOTS[b]).items():
                target[idx_m[slot]] += coeff
            for k in range(dim):
                r_lorentz += (ab[k] - ba[k] - target[k]) ** 2

    r_assoc = 0.0
    for sector in (idx_r, idx_rt):
        for mu, nu, rho in itertools.product(range(4), repeat=3):
            left = mul(mul(basis(sector[mu]), basis(sector[nu])), basis(sector[rho]))
            right = mul(basis(sector[mu]), mul(basis(sector[nu]), basis(sector[rho])))
            target = [0.0] * dim
            for sig in range(4):
                e = EPS4[mu, nu, rho, sig]
                if e:
                    target[sector[sig]] += 2.0 * e * MINKOWSKI[sig]
            for k in range(dim):
                r_assoc += (left[k] - right[k] - target[k]) ** 2

    return r_comm, r_lorentz, r_assoc


def test_lorentz_constants_match_the_slot_by_slot_bracket():
    for a, ab in enumerate(LORENTZ_SLOTS):
        for b, cd in enumerate(LORENTZ_SLOTS):
            expected = [0] * 6
            for slot, coeff in lorentz_bracket_coeffs(ab, cd).items():
                expected[slot] += coeff
            assert LORENTZ[a, b].tolist() == expected, (ab, cd)


def test_residual_equality_ignores_the_sector_sums():
    # a partial evaluation copies r_sectors; a full one recomputes them
    full, partial = ResidualBreakdown(1.0, 2.0, 3.0, (1.0, 2.0)), ResidualBreakdown(1.0, 2.0, 3.0)
    assert full == partial and not full != partial and hash(full) == hash(partial)
    assert repr(full) == "ResidualBreakdown(r_comm=1.0, r_lorentz=2.0, r_assoc=3.0)"
    assert full != ResidualBreakdown(1.0, 2.0, 4.0, (1.0, 2.0))


def test_layout():
    roles = default_roles()
    assert len(roles) == BASE_DIM == 15


def test_zero_candidate_residual_matches_brute_force():
    cand = CandidateAlgebra.zero()
    got = residual(cand)
    rc, rl, ra = brute_force_residual(cand)
    assert got.r_comm == pytest.approx(rc, abs=1e-12)
    assert got.r_lorentz == pytest.approx(rl, abs=1e-12)
    assert got.r_assoc == pytest.approx(ra, abs=1e-12)
    # analytic values: 12 off-diagonal comm targets of norm 4; 24 nonzero
    # eps entries of norm 4 per P-sector; 24 single-coefficient bracket targets
    assert got.r_comm == pytest.approx(48.0)
    assert got.r_assoc == pytest.approx(192.0)
    assert got.r_lorentz == pytest.approx(24.0)
    assert got.total == pytest.approx(got.r_comm + got.r_lorentz + got.r_assoc)


def test_random_candidates_match_brute_force():
    for seed in (1, 2):
        cand = CandidateAlgebra.random(seed, scale=0.3)
        got = residual(cand)
        rc, rl, ra = brute_force_residual(cand)
        assert got.r_comm == pytest.approx(rc, rel=1e-10)
        assert got.r_lorentz == pytest.approx(rl, rel=1e-10)
        assert got.r_assoc == pytest.approx(ra, rel=1e-10)


def _assert_matches_brute_force(cand):
    got = residual(cand)
    rc, rl, ra = brute_force_residual(cand)
    assert got.r_comm == pytest.approx(rc, rel=1e-10)
    assert got.r_lorentz == pytest.approx(rl, rel=1e-10)
    assert got.r_assoc == pytest.approx(ra, rel=1e-10)


def test_permuted_layout_matches_brute_force():
    perm = np.random.default_rng(5).permutation(BASE_DIM)
    _assert_matches_brute_force(permuted_candidate(CandidateAlgebra.random(4), perm))


def _unit_roles():
    """The base layout with a spare `unit` label on a sixteenth basis element."""
    return {**default_roles(), "unit": BASE_DIM}


def test_unit_layout_matches_brute_force():
    c = np.random.default_rng(9).normal(0.0, 0.3, size=(16, 16, 16))
    _assert_matches_brute_force(CandidateAlgebra(16, c, _unit_roles()))


def test_layout_with_a_shared_index_matches_brute_force():
    # two labels on one basis element: their targets add up there
    roles = default_roles()
    roles["M02"], roles["Rt3"] = roles["M01"], roles["M23"]
    cand = CandidateAlgebra.random(3, scale=0.3)
    _assert_matches_brute_force(CandidateAlgebra(cand.dim, cand.c, roles))


def test_so31_embedding_is_exact():
    cand = CandidateAlgebra.so31_embedded()
    assert residual(cand).r_lorentz <= 1e-12


def test_a_tensor_that_is_not_dim_cubed_is_rejected():
    with pytest.raises(ValueError, match="dim\\^3"):
        CandidateAlgebra(BASE_DIM, np.zeros((BASE_DIM, BASE_DIM, BASE_DIM - 1)), default_roles())


def test_residual_is_permutation_covariant():
    rng = np.random.default_rng(5)
    cand = CandidateAlgebra.random(4, scale=0.4)
    base = residual(cand)
    perm = rng.permutation(cand.dim)
    permuted = permuted_candidate(cand, perm)
    moved = residual(permuted)
    assert moved.total == pytest.approx(base.total, rel=1e-9)
    assert moved.r_lorentz == pytest.approx(base.r_lorentz, rel=1e-9)


def test_perturbation_of_exact_sector_is_quadratic():
    base = CandidateAlgebra.so31_embedded()
    m0 = base.roles["M01"]
    vals = []
    for delta in (1e-3, 1e-4):
        cand = base.copy()
        cand.c[m0, base.roles["M02"], base.roles["M12"]] += delta
        vals.append(residual(cand).r_lorentz / delta**2)
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)


def test_search_zero_iters_returns_init():
    init = CandidateAlgebra.so31_embedded()
    cfg = SearchConfig(restarts=1, max_iters=0, rng_seed=7)
    result = search(cfg, init=init)
    assert np.array_equal(result.best.c, init.c)
    assert result.traces == [[residual(init).total]]


def test_a_start_within_tolerance_stops_at_once():
    result = search(SearchConfig(max_iters=50, tolerance=1e6), init=CandidateAlgebra.so31_embedded())
    assert result.traces == [[240.0]]
    assert result.converged


def test_search_is_seed_deterministic():
    cfg = SearchConfig(restarts=3, max_iters=120, rng_seed=21)
    a = search(cfg, init=CandidateAlgebra.zero())
    b = search(cfg, init=CandidateAlgebra.zero())
    assert a.traces == b.traces
    assert np.array_equal(a.best.c, b.best.c)


def test_search_traces_non_increasing():
    cfg = SearchConfig(restarts=4, max_iters=150, rng_seed=1)
    result = search(cfg, init=CandidateAlgebra.zero())
    assert len(result.traces) == 4
    for trace in result.traces:
        assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_search_frozen_exact_sector_stays_exact():
    init = CandidateAlgebra.so31_embedded()
    cfg = SearchConfig(restarts=2, max_iters=150, rng_seed=3)
    result = search(cfg, init=init, freeze={"M"})
    assert result.best_residual.r_lorentz <= 1e-12
    for trace in result.traces:
        assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_search_leaves_init_unchanged():
    init = CandidateAlgebra.random(8, scale=0.3)
    before = init.c.copy()
    search(SearchConfig(restarts=2, max_iters=200, rng_seed=4), init=init)
    assert np.array_equal(init.c, before)


def test_search_best_residual_is_the_residual_of_best():
    cfg = SearchConfig(restarts=3, max_iters=200, rng_seed=12)
    result = search(cfg, init=CandidateAlgebra.so31_embedded())
    again = residual(result.best)
    assert (again.r_comm, again.r_lorentz, again.r_assoc) == (
        result.best_residual.r_comm, result.best_residual.r_lorentz, result.best_residual.r_assoc)


@pytest.mark.parametrize("freeze", [{"M"}, {"R", "Rt"}])
def test_search_frozen_entries_are_bit_equal(freeze):
    init = CandidateAlgebra.random(6, scale=0.3)
    cfg = SearchConfig(restarts=2, max_iters=300, rng_seed=3)
    result = search(cfg, init=init, freeze=freeze)
    labels = {"R": ROLE_R, "Rt": ROLE_RT, "M": ROLE_M}
    for sector in freeze:
        idx = [init.roles[label] for label in labels[sector]]
        block = np.ix_(idx, idx)
        assert np.array_equal(result.best.c[block], init.c[block])
    assert not np.array_equal(result.best.c, init.c)


def test_search_benchmark_run_accept_decisions():
    """The benchmark's search run: these are the values of the einsum
    residual with a copy per step, so the accept decisions stay the same."""
    cfg = SearchConfig(restarts=2, max_iters=5000, rng_seed=0)
    result = search(cfg, init=CandidateAlgebra.so31_embedded())
    assert str(result.best_residual) == (
        "total=2.178511e+02 comm=4.347381e+01 lorentz=4.553576e+00 assoc=1.698237e+02")
    decreases = [sum(b < a for a, b in zip(trace, trace[1:])) for trace in result.traces]
    assert decreases == [16, 1749]
    # one entry for the start and one per evaluated step of the 5000
    assert [len(trace) for trace in result.traces] == [279, 4571]


def test_search_calls_the_module_residual_once_per_trace_entry(monkeypatch):
    """perfbench/child.py wraps `residual` in the `nonassoc.search` module and
    splits a traced search into restarts at the call that starts each trace:
    `search` must reach `residual` through the module global, once per trace
    entry.  The module comes from sys.modules, as in the benchmark."""
    module = sys.modules["nonassoc.search"]
    calls = []

    def counting(cand, *args):
        calls.append(cand)
        return residual(cand, *args)

    monkeypatch.setattr(module, "residual", counting)
    cfg = SearchConfig(restarts=2, max_iters=300, rng_seed=0)
    result = search(cfg, init=CandidateAlgebra.so31_embedded())
    assert len(calls) == sum(len(trace) for trace in result.traces) == 279


def test_benchmark_trace_splits_restarts_at_their_first_residual_call(monkeypatch):
    """A traced pass of perfbench/child.py, on an unedited copy of it, times
    each restart from the `residual` span at the start of its trace: the
    split falls on the first call with the restart's own candidate, and
    `layer_metrics` raises nothing."""
    spec = importlib.util.spec_from_file_location("child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    module = sys.modules["nonassoc.search"]
    owners = []

    def recording(cand, *args):
        owners.append(cand)
        return residual(cand, *args)

    monkeypatch.setattr(module, "residual", recording)
    rec = child.Recorder()
    rec.install()
    try:
        result = module.search(SearchConfig(restarts=3, max_iters=200, rng_seed=0),
                               init=CandidateAlgebra.so31_embedded())
    finally:
        rec.uninstall()
    metrics = child.layer_metrics(rec, [], 1.0, result.traces)

    starts = [span[1] for span in rec.spans if span[0] == "search.residual"]
    assert len(starts) == len(owners) == sum(len(trace) for trace in result.traces)
    firsts = [n for n in range(1, len(owners)) if owners[n] is not owners[n - 1]]
    assert firsts == list(itertools.accumulate(len(trace) for trace in result.traces[:-1]))
    (span,) = [span for span in rec.spans if span[0] == "search.search"]
    bounds = [span[1], *(starts[n] for n in firsts), span[1] + span[2]]
    assert metrics["search.restart_s"] == statistics.median(
        b - a for a, b in zip(bounds, bounds[1:]))
    assert metrics["search.iterations"] == sum(len(trace) - 1 for trace in result.traces)


def _shared_index_so31():
    roles = default_roles()
    roles["M02"], roles["Rt3"] = roles["M01"], roles["M23"]
    cand = CandidateAlgebra.so31_embedded()
    return CandidateAlgebra(cand.dim, cand.c, roles)


SKIP_CASES = {
    "so31": (CandidateAlgebra.so31_embedded(), set(), 2, 0),
    "zero": (CandidateAlgebra.zero(), set(), 1, 3),
    "random": (CandidateAlgebra.random(5, scale=0.3), set(), 2, 1),
    "so31-unit": (CandidateAlgebra(16, np.pad(CandidateAlgebra.so31_embedded().c, (0, 1)),
                                   _unit_roles()), set(), 3, 7),
    "so31-shared-index": (_shared_index_so31(), set(), 2, 2),
    "so31-permuted": (permuted_candidate(CandidateAlgebra.so31_embedded(),
                                         np.random.default_rng(6).permutation(BASE_DIM)),
                      set(), 1, 4),
    "so31-frozen-R-Rt": (CandidateAlgebra.so31_embedded(), {"R", "Rt"}, 3, 11),
    "zero-frozen-M": (CandidateAlgebra.zero(), {"M"}, 2, 13),
}


def _accepted(trace):
    return [b for a, b in zip(trace, trace[1:]) if b < a]


def _bracket_rows(cand):
    """The rows c[i, j, :] that a bracket defect between two distinct basis
    elements reads: [R^mu, Rt^nu] and [M_s, M_t], in either order."""
    r, rt, m = ([cand.roles[label] for label in labels] for labels in (ROLE_R, ROLE_RT, ROLE_M))
    pairs = [(a, b) for a in r for b in rt] + [(a, b) for a in m for b in m]
    return {row for a, b in pairs if a != b for row in ((a, b), (b, a))}


def _skip_class(entry, before, after, rows):
    """The class of a skipped step on `entry`, whose residual goes from
    `before` to `after`.  Off the bracket rows it cannot change anything: all
    three parts stay bit-identical.  In a bracket row it moves only defects
    that were exactly 0: assoc stays bit-identical, and neither bracket part
    falls."""
    if entry[:2] not in rows:
        assert (after.r_comm, after.r_lorentz, after.r_assoc) == (
            before.r_comm, before.r_lorentz, before.r_assoc), entry
        return "cannot-change"
    assert after.r_assoc == before.r_assoc, entry
    assert after.r_comm >= before.r_comm and after.r_lorentz >= before.r_lorentz, entry
    return "zero-defect"


@pytest.mark.parametrize("case", SKIP_CASES)
def test_search_skips_only_steps_that_cannot_lower_the_residual(monkeypatch, case):
    """Against the loop that evaluates every step: the same accepts, best
    table and best residual; the trace is the reference trace without the
    skipped steps' entries; each skipped step falls in one of the two
    classes of `_skip_class`, and the reference rejects it."""
    init, freeze, restarts, seed = SKIP_CASES[case]
    cfg = SearchConfig(restarts=restarts, max_iters=300, rng_seed=seed)
    ref, steps = reference_search(cfg, init, freeze)
    rows = _bracket_rows(init)
    tables = []

    def recording(cand, *args):
        tables.append(hash(cand.c.tobytes()))
        return residual(cand, *args)

    monkeypatch.setattr(sys.modules["nonassoc.search"], "residual", recording)
    got = search(cfg, init=init, freeze=freeze)

    assert len(tables) == sum(len(trace) for trace in got.traces)
    classes = {"cannot-change": 0, "zero-defect": 0}
    for trace, ref_trace, taken in zip(got.traces, ref.traces, steps, strict=True):
        keys, tables = tables[:len(trace)], tables[len(trace):]
        evaluated, n = [], 0    # the reference steps the search evaluated, in order
        for key in keys:
            n = next((m for m in range(n, len(taken)) if taken[m][0] == key), None)
            assert n is not None, "the search evaluated a table the reference never did"
            evaluated.append(n)
            n += 1
        assert evaluated[0] == 0
        assert trace == [ref_trace[n] for n in evaluated]
        assert _accepted(trace) == _accepted(ref_trace)
        for n in sorted(set(range(len(taken))) - set(evaluated)):
            _, before, after, entry = taken[n]
            classes[_skip_class(entry, before, after, rows)] += 1
            assert ref_trace[n] == ref_trace[n - 1], n
    assert sum(classes.values()) > 0
    if case == "so31":
        assert min(classes.values()) > 0, classes
    assert got.best.c.tobytes() == ref.best.c.tobytes()
    assert got.best_residual == ref.best_residual
    assert got.converged == ref.converged


@pytest.mark.parametrize("cand", [CandidateAlgebra.so31_embedded(), _shared_index_so31()],
                         ids=["default", "shared-index"])
def test_support_counts_follow_entries_to_and_from_zero(cand):
    c = cand.c.copy()
    targets = _targets_for(cand)
    support = _Support(targets, c)
    for i, j, k in np.random.default_rng(0).integers(cand.dim, size=(300, 3)).tolist():
        was = c[i, j, k] != 0
        c[i, j, k] = 0.0 if was else 1.0
        support.moved(i, j, k, -1 if was else 1)
        assert support.sectors == _Support(targets, c).sectors


def _planted_so31():
    """so31 with planted bracket defects: exactly 0 on nonzero entries, and
    nonzero, in a comm row and in a Lorentz row."""
    cand = CandidateAlgebra.so31_embedded()
    r0, rt0, rt1, m01, m02, x0 = (cand.roles[label]
                                  for label in ("R0", "Rt0", "Rt1", "M01", "M02", "X0"))
    c = cand.c
    c[r0, rt1, m01] = 2.0                       # [R0, Rt1] = 2 M01 exactly
    c[r0, rt0, x0] = c[rt0, r0, x0] = 0.75      # symmetric, so no bracket
    c[m01, m02, x0] = c[m02, m01, x0] = 0.5
    c[r0, rt1, x0] = 0.25                       # defects 0.25 and 0.375
    c[m01, m02, m01] += 0.375
    return cand


LIVE_TABLES = {
    "so31": CandidateAlgebra.so31_embedded(),
    "zero": CandidateAlgebra.zero(),
    "so31-shared-index": _shared_index_so31(),
    "so31-planted": _planted_so31(),
}


@pytest.mark.parametrize("table", LIVE_TABLES)
def test_support_rejects_only_entries_whose_step_cannot_lower_the_residual(table):
    """Every entry `_Support.live` rejects, stepped by +delta and by -delta,
    falls in one of the two classes of `_skip_class`, and both classes occur."""
    cand = LIVE_TABLES[table].copy()
    c, rows = cand.c, _bracket_rows(cand)
    support = _Support(_targets_for(cand), c)
    before = residual(cand)
    classes = {"cannot-change": 0, "zero-defect": 0}
    for i, j, k in itertools.product(range(cand.dim), repeat=3):
        if support.live(i, j, k):
            continue
        old = c[i, j, k]
        for delta in (0.125, -0.125):
            c[i, j, k] = old + delta
            classes[_skip_class((i, j, k), before, residual(cand), rows)] += 1
        c[i, j, k] = old
    assert min(classes.values()) > 0, classes

    roles = cand.roles
    if table == "so31-shared-index":
        # [M01, M02] is a diagonal pair here, c - c - its target: it never moves
        x = roles["M01"]
        assert not any(support.live(x, x, k) for k in range(cand.dim))
    if table == "so31-planted":
        r0, rt0, rt1, m01, m02, x0 = (roles[label]
                                      for label in ("R0", "Rt0", "Rt1", "M01", "M02", "X0"))
        assert not support.live(r0, rt1, m01)
        assert not support.live(rt0, r0, x0) and not support.live(m02, m01, x0)
        assert support.live(rt1, r0, x0) and support.live(m02, m01, m01)


def _bits(res):
    return [x.hex() for x in (res.r_comm, res.r_lorentz, res.r_assoc, *res.r_sectors)]


@pytest.mark.parametrize("case", [*SKIP_CASES, "so31-benchmark-run"])
def test_search_partial_residual_equals_the_full_one(monkeypatch, case):
    """Every `residual` call of a search, most of them on the families one
    step can move, equals a fresh full `residual(cand)` of the same table bit
    for bit: all three parts and both sector sums."""
    if case == "so31-benchmark-run":
        init, freeze, restarts, seed, iters = CandidateAlgebra.so31_embedded(), set(), 2, 0, 5000
    else:
        (init, freeze, restarts, seed), iters = SKIP_CASES[case], 300
    moved = []

    def checking(cand, *args):
        got = residual(cand, *args)
        assert _bits(got) == _bits(residual(cand))
        moved.append(args[1] if args else None)
        return got

    monkeypatch.setattr(sys.modules["nonassoc.search"], "residual", checking)
    result = search(SearchConfig(restarts=restarts, max_iters=iters, rng_seed=seed),
                    init=init, freeze=freeze)
    assert len(moved) == sum(len(trace) for trace in result.traces)
    assert moved.count(None) == restarts    # the full call at the start of each restart
    if case == "so31-benchmark-run":
        kinds = collections.Counter(moved)
        assert (kinds[True, ()], kinds[False, (0,)] + kinds[False, (1,)], kinds[True, (0, 1)]) == (
            656, 3439, 753)


@pytest.mark.parametrize("table", LIVE_TABLES)
def test_support_names_every_family_a_step_can_move(table):
    """Every entry `_Support.live` passes, stepped by +delta and by -delta:
    the bracket family is named exactly for the rows of distinct-pair
    brackets, and each family left out keeps its sums bit for bit."""
    cand = LIVE_TABLES[table].copy()
    c, rows = cand.c, _bracket_rows(cand)
    support = _Support(_targets_for(cand), c)
    before = residual(cand)
    for i, j, k in itertools.product(range(cand.dim), repeat=3):
        families = support.live(i, j, k)
        if families is None:
            continue
        bracket, sectors = families
        assert bracket == ((i, j) in rows), (i, j, k)
        old = c[i, j, k]
        for delta in (0.125, -0.125):
            c[i, j, k] = old + delta
            after = residual(cand)
            if not bracket:
                assert (after.r_comm, after.r_lorentz) == (before.r_comm, before.r_lorentz)
            for s in {0, 1} - set(sectors):
                assert after.r_sectors[s] == before.r_sectors[s], (i, j, k, s)
        c[i, j, k] = old


def test_search_improves_from_zero():
    cfg = SearchConfig(restarts=1, max_iters=3000, rng_seed=7, step_scale=0.5)
    result = search(cfg, init=CandidateAlgebra.zero())
    assert result.best_residual.total < 264.0


def test_candidate_export_import_round_trip():
    from nonassoc.algfile import parse_text, serialize
    from nonassoc.search import candidate_from_algebra, candidate_to_algebra

    cand = CandidateAlgebra.random(17, scale=0.4)
    text = serialize(candidate_to_algebra(cand), roles=cand.roles, scalar_tag="float64")
    parsed = parse_text(text)
    back = candidate_from_algebra(parsed.algebra, parsed.roles)
    assert back.roles == cand.roles
    assert np.array_equal(back.c, cand.c)  # doubles survive the p/q encoding exactly
    assert residual(back).total == residual(cand).total


def test_search_rejects_bad_config():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(step_scale=-1.0)
    with pytest.raises(ValueError):
        search(SearchConfig(), freeze={"bogus"})


def test_search_rejects_negative_seed():
    with pytest.raises(ValueError, match="rng_seed non-negative"):
        SearchConfig(rng_seed=-1)


@pytest.mark.parametrize("field", ["step_scale", "tolerance"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_search_rejects_non_finite_config(field, value):
    with pytest.raises(ValueError, match="finite"):
        SearchConfig(**{field: value})
