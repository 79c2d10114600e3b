"""Residual evaluation and derivative-free local search for a candidate
algebra carrying momentum-like generators R, Rtilde and a Lorentz sector.

The constraint families, expanded into coefficient equations over the
basis and scored as sums of squared defects:

  comm:    [R^mu, Rt^nu] = 2 M^{mu nu}
  lorentz: [M^{mu nu}, M^{rho sigma}] closes on the boost/rotation
           structure constants (real form; the conventional factor i on
           the right-hand side is absorbed into the constants)
  assoc:   (P^mu, P^nu, P^rho) = 2 eps^{mu nu rho sigma} P_sigma for
           P = R and P = Rt, with eps^{0123} = +1 and index lowering by
           diag(+,-,-,-)

This module works in double precision, unlike the exact engines: the
constraint set has no known exact solution, so the tooling explores.
Search is multi-restart perturb-and-accept descent; restart k draws from
its own stream spawned from (rng_seed, k), so results are reproducible
and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import LORENTZ_SLOTS, MINKOWSKI, lorentz_bracket_coeffs

# Role slots: 4 R, 4 Rtilde, 6 Lorentz, one spare; optional unit appended.
ROLE_R = tuple(f"R{mu}" for mu in range(4))
ROLE_RT = tuple(f"Rt{mu}" for mu in range(4))
ROLE_M = tuple(f"M{a}{b}" for a, b in LORENTZ_SLOTS)
ROLE_SPARE = ("X0",)
ROLE_UNIT = "unit"

BASE_DIM = len(ROLE_R) + len(ROLE_RT) + len(ROLE_M) + len(ROLE_SPARE)  # 15


def default_roles(with_unit: bool = False) -> dict[str, int]:
    labels = ROLE_R + ROLE_RT + ROLE_M + ROLE_SPARE
    roles = {label: k for k, label in enumerate(labels)}
    if with_unit:
        roles[ROLE_UNIT] = len(labels)
    return roles


def _eps4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    import itertools

    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for a in range(4):
            for b in range(a + 1, 4):
                if p[a] > p[b]:
                    sign = -sign
        eps[perm] = sign
    return eps


EPS4 = _eps4()


@dataclass
class CandidateAlgebra:
    """Dense real structure constants with a fixed role layout."""

    dim: int
    c: np.ndarray
    roles: dict[str, int]
    seed: int | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure tensor must be dim^3")
        needed = set(ROLE_R + ROLE_RT + ROLE_M)
        missing = needed - set(self.roles)
        if missing:
            raise ValueError(f"missing role slots: {sorted(missing)}")

    @classmethod
    def zero(cls, with_unit: bool = False) -> "CandidateAlgebra":
        roles = default_roles(with_unit)
        dim = BASE_DIM + (1 if with_unit else 0)
        return cls(dim, np.zeros((dim, dim, dim)), roles)

    @classmethod
    def so31_embedded(cls, with_unit: bool = False) -> "CandidateAlgebra":
        """Zero R-sectors with the exact boost/rotation constants in the M-sector."""
        cand = cls.zero(with_unit)
        m_idx = [cand.roles[label] for label in ROLE_M]
        for a in range(6):
            for b in range(6):
                for slot, coeff in lorentz_bracket_coeffs(LORENTZ_SLOTS[a], LORENTZ_SLOTS[b]).items():
                    # the product table is half the bracket, so the
                    # antisymmetrized bracket reproduces the constants
                    cand.c[m_idx[a], m_idx[b], m_idx[slot]] = coeff / 2.0
        return cand

    @classmethod
    def random(cls, seed: int, scale: float = 0.5, with_unit: bool = False) -> "CandidateAlgebra":
        cand = cls.zero(with_unit)
        rng = np.random.default_rng(seed)
        cand.c = rng.normal(0.0, scale, size=cand.c.shape)
        cand.seed = seed
        return cand

    def copy(self) -> "CandidateAlgebra":
        return CandidateAlgebra(self.dim, self.c.copy(), dict(self.roles), self.seed)

    def permuted(self, perm: np.ndarray) -> "CandidateAlgebra":
        """Relabel basis indices by `perm` (new index = perm[old index])."""
        c2 = np.zeros_like(self.c)
        c2[np.ix_(perm, perm, perm)] = self.c
        roles = {label: int(perm[idx]) for label, idx in self.roles.items()}
        return CandidateAlgebra(self.dim, c2, roles, self.seed)


@dataclass(frozen=True)
class ResidualBreakdown:
    r_comm: float
    r_lorentz: float
    r_assoc: float

    @property
    def total(self) -> float:
        return self.r_comm + self.r_lorentz + self.r_assoc

    def __str__(self):
        return (f"total={self.total:.6e} comm={self.r_comm:.6e} "
                f"lorentz={self.r_lorentz:.6e} assoc={self.r_assoc:.6e}")


class _Targets:
    """Right-hand-side coefficient tensors for one role layout."""

    def __init__(self, roles: dict[str, int], dim: int):
        self.idx_r = np.array([roles[l] for l in ROLE_R])
        self.idx_rt = np.array([roles[l] for l in ROLE_RT])
        self.idx_m = np.array([roles[l] for l in ROLE_M])

        def m_vec(mu, nu):
            v = np.zeros(dim)
            if mu == nu:
                return v
            sign = 1.0
            if mu > nu:
                mu, nu, sign = nu, mu, -1.0
            v[self.idx_m[LORENTZ_SLOTS.index((mu, nu))]] = sign
            return v

        self.t_comm = np.zeros((4, 4, dim))
        for mu in range(4):
            for nu in range(4):
                self.t_comm[mu, nu] = 2.0 * m_vec(mu, nu)

        self.t_lorentz = np.zeros((6, 6, dim))
        for a in range(6):
            for b in range(6):
                v = np.zeros(dim)
                for slot, coeff in lorentz_bracket_coeffs(LORENTZ_SLOTS[a], LORENTZ_SLOTS[b]).items():
                    v[self.idx_m[slot]] += coeff
                self.t_lorentz[a, b] = v

        self.t_assoc = {}
        for tag, sector in (("R", self.idx_r), ("Rt", self.idx_rt)):
            t = np.zeros((4, 4, 4, dim))
            for mu in range(4):
                for nu in range(4):
                    for rho in range(4):
                        for sig in range(4):
                            e = EPS4[mu, nu, rho, sig]
                            if e:
                                t[mu, nu, rho, sector[sig]] += 2.0 * e * MINKOWSKI[sig]
            self.t_assoc[tag] = t


_TARGET_CACHE: dict[tuple, _Targets] = {}


def _targets_for(cand: CandidateAlgebra) -> _Targets:
    key = (cand.dim, tuple(sorted(cand.roles.items())))
    if key not in _TARGET_CACHE:
        _TARGET_CACHE[key] = _Targets(cand.roles, cand.dim)
    return _TARGET_CACHE[key]


def residual(cand: CandidateAlgebra) -> ResidualBreakdown:
    """Sum of squared defects of every constraint coefficient equation."""
    t = _targets_for(cand)
    c = cand.c

    block = c[np.ix_(t.idx_r, t.idx_rt)] - c[np.ix_(t.idx_rt, t.idx_r)].transpose(1, 0, 2)
    r_comm = float(((block - t.t_comm) ** 2).sum())

    mm = c[np.ix_(t.idx_m, t.idx_m)]
    bracket = mm - mm.transpose(1, 0, 2)
    r_lorentz = float(((bracket - t.t_lorentz) ** 2).sum())

    r_assoc = 0.0
    for tag, sector in (("R", t.idx_r), ("Rt", t.idx_rt)):
        cs = c[np.ix_(sector, sector)]                      # (4, 4, dim)
        left = np.einsum("ijm,mkl->ijkl", cs, c[:, sector, :])
        right = np.einsum("jkm,iml->ijkl", cs, c[sector, :, :])
        r_assoc += float(((left - right - t.t_assoc[tag]) ** 2).sum())

    return ResidualBreakdown(r_comm, r_lorentz, r_assoc)


def candidate_to_algebra(cand: CandidateAlgebra):
    """Exact snapshot of a float candidate (doubles serialize as p/q)."""
    from fractions import Fraction

    from .algebra import AlgebraDef

    products = {}
    for i in range(cand.dim):
        for j in range(cand.dim):
            terms = {
                k: Fraction(*cand.c[i, j, k].as_integer_ratio())
                for k in range(cand.dim)
                if cand.c[i, j, k] != 0.0
            }
            if terms:
                products[(i, j)] = (0, terms)
    return AlgebraDef.from_products("candidate", cand.dim, products, unital=False)


def candidate_from_algebra(alg, roles: dict[str, int], seed: int | None = None) -> CandidateAlgebra:
    """Rebuild a candidate from a parsed algebra file and its roles line."""
    c = np.zeros((alg.dim, alg.dim, alg.dim))
    for i in range(alg.dim):
        for j in range(alg.dim):
            unit, coeffs = alg.structure[i][j]
            if not unit.is_zero():
                raise ValueError("candidate algebras carry no unit multiples")
            for k, v in enumerate(coeffs):
                if not v.is_zero():
                    if v.im != 0:
                        raise ValueError("candidate structure constants must be real")
                    c[i, j, k] = float(v.re)
    return CandidateAlgebra(alg.dim, c, dict(roles), seed)


@dataclass
class SearchConfig:
    restarts: int = 1
    max_iters: int = 1000
    step_scale: float = 0.1
    rng_seed: int = 0
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.restarts <= 0 or self.max_iters < 0:
            raise ValueError("restarts must be positive and max_iters non-negative")
        if self.step_scale <= 0 or self.tolerance <= 0:
            raise ValueError("step_scale and tolerance must be positive")


@dataclass
class SearchResult:
    best: CandidateAlgebra
    best_residual: ResidualBreakdown
    traces: list[list[float]] = field(default_factory=list)
    converged: bool = False


def _frozen_mask(cand: CandidateAlgebra, freeze: set[str]) -> np.ndarray:
    """Entries c[i, j, :] are frozen when i and j both sit in a frozen sector."""
    sectors = {"R": ROLE_R, "Rt": ROLE_RT, "M": ROLE_M}
    mask = np.zeros(cand.c.shape, dtype=bool)
    for label in freeze:
        if label not in sectors:
            raise ValueError(f"unknown freeze sector {label!r}; expected one of R, Rt, M")
        idx = [cand.roles[l] for l in sectors[label]]
        mask[np.ix_(idx, idx)] = True
    return mask


def search(cfg: SearchConfig, init: CandidateAlgebra | None = None,
           freeze: set[str] | None = None) -> SearchResult:
    """Multi-restart coordinate perturbation with accept-if-improved."""
    freeze = freeze or set()
    base = init.copy() if init is not None else CandidateAlgebra.zero()
    mask = _frozen_mask(base, freeze)
    free_entries = np.argwhere(~mask)
    seed_seq = np.random.SeedSequence(cfg.rng_seed)
    streams = seed_seq.spawn(cfg.restarts)

    best: CandidateAlgebra | None = None
    best_res: ResidualBreakdown | None = None
    traces: list[list[float]] = []

    for r in range(cfg.restarts):
        rng = np.random.default_rng(streams[r])
        cand = base.copy()
        if r > 0:
            noise = rng.normal(0.0, cfg.step_scale, size=cand.c.shape)
            noise[mask] = 0.0
            cand.c = cand.c + noise
        cur = residual(cand)
        trace = [cur.total]
        for _ in range(cfg.max_iters):
            if cur.total <= cfg.tolerance:
                break
            i, j, k = free_entries[rng.integers(len(free_entries))]
            delta = rng.normal(0.0, cfg.step_scale)
            trial = cand.copy()
            trial.c[i, j, k] += delta
            res = residual(trial)
            if res.total < cur.total:
                cand, cur = trial, res
            trace.append(cur.total)
        traces.append(trace)
        if best_res is None or cur.total < best_res.total:
            best, best_res = cand, cur

    return SearchResult(
        best=best,
        best_residual=best_res,
        traces=traces,
        converged=best_res.total <= cfg.tolerance,
    )
