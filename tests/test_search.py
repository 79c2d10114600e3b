import itertools

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
    SearchConfig,
    default_roles,
    residual,
    search,
)


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


def test_layout():
    roles = default_roles()
    assert len(roles) == BASE_DIM == 15
    roles_u = default_roles(with_unit=True)
    assert roles_u["unit"] == 15
    assert CandidateAlgebra.zero(with_unit=True).dim == 16


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
    _assert_matches_brute_force(CandidateAlgebra.random(4).permuted(perm))


def test_unit_layout_matches_brute_force():
    cand = CandidateAlgebra.random(9, scale=0.3, with_unit=True)
    assert cand.dim == 16
    _assert_matches_brute_force(cand)


def test_layout_with_a_shared_index_matches_brute_force():
    # two labels on one basis element: their targets add up there
    roles = default_roles()
    roles["M02"], roles["Rt3"] = roles["M01"], roles["M23"]
    cand = CandidateAlgebra.random(3, scale=0.3)
    _assert_matches_brute_force(CandidateAlgebra(cand.dim, cand.c, roles))


def test_so31_embedding_is_exact():
    cand = CandidateAlgebra.so31_embedded()
    assert residual(cand).r_lorentz <= 1e-12


def test_residual_is_permutation_covariant():
    rng = np.random.default_rng(5)
    cand = CandidateAlgebra.random(4, scale=0.4)
    base = residual(cand)
    perm = rng.permutation(cand.dim)
    permuted = cand.permuted(perm)
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
