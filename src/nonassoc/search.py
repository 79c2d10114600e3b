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

This module works in double precision, unlike the exact engines: no
exact solution of the constraint set is bundled yet, so the tooling
explores. Search is multi-restart perturb-and-accept descent; restart k
draws from its own stream spawned from (rng_seed, k), so results are
reproducible and independent of scheduling.

Each role layout gets a gather plan once: flat indices into `c.ravel()`
for the bracket rows c[a, b, :] and c[b, a, :], and for the blocks of
both P-sectors that the associators need, stacked on a leading axis. A
residual is then a few gathers, two batched matmuls and dot products.
The search steps one entry in place and writes the old double back on
reject, so a candidate is never copied per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import EPS4, LORENTZ, LORENTZ_SLOTS, MINKOWSKI, SLOT_MATRICES

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
        m = [cand.roles[label] for label in ROLE_M]
        # the product table is half the bracket, so the antisymmetrized
        # bracket reproduces the constants
        cand.c[np.ix_(m, m, m)] = LORENTZ / 2.0
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
    """Right-hand sides and flat gather indices into `c.ravel()` for one role layout."""

    def __init__(self, roles: dict[str, int], dim: int):
        idx_r = [roles[l] for l in ROLE_R]
        idx_rt = [roles[l] for l in ROLE_RT]
        idx_m = [roles[l] for l in ROLE_M]
        sectors = np.array([idx_r, idx_rt])                    # (2, 4): P = R, Rt

        # np.add.at adds up where two labels share an index
        t_comm = np.zeros((4, 4, dim))
        np.add.at(t_comm, (..., idx_m), 2.0 * SLOT_MATRICES.transpose(1, 2, 0))
        t_lorentz = np.zeros((6, 6, dim))
        np.add.at(t_lorentz, (..., idx_m), LORENTZ)
        t_assoc = np.zeros((2, 4, 4, 4, dim))
        np.add.at(t_assoc, (np.arange(2)[:, None], ..., sectors),
                  np.moveaxis(2.0 * EPS4 * MINKOWSKI, -1, 0))
        self.t_assoc = t_assoc.reshape(2, -1)

        flat = np.arange(dim ** 3).reshape(dim, dim, dim)
        # bracket rows c[a, b, :] - c[b, a, :]: the 16 comm pairs, then the 36 Lorentz pairs
        pairs = [(a, b) for a in idx_r for b in idx_rt] + [(a, b) for a in idx_m for b in idx_m]
        self.ab = np.concatenate([flat[a, b] for a, b in pairs])
        self.ba = np.concatenate([flat[b, a] for a, b in pairs])
        self.t_bracket = np.concatenate([t_comm.ravel(), t_lorentz.ravel()])
        self.n_comm = t_comm.size
        # both sectors stacked on axis 0: cs = c[S, S, :] as 16 rows (i, j),
        # c[:, S, :] as a (dim, 4 dim) matrix, and the four (dim, dim) slabs c[S]
        self.cs = flat[sectors[:, :, None], sectors[:, None, :]].reshape(2, 16, dim)
        self.c_mid = flat[:, sectors].transpose(1, 0, 2, 3).reshape(2, dim, 4 * dim)
        self.c_row = flat[sectors]


_TARGET_CACHE: dict[tuple, _Targets] = {}


def _targets_for(cand: CandidateAlgebra) -> _Targets:
    key = (cand.dim, tuple(cand.roles.items()))
    t = _TARGET_CACHE.get(key)
    if t is None:
        t = _TARGET_CACHE[key] = _Targets(cand.roles, cand.dim)
    return t


def residual(cand: CandidateAlgebra) -> ResidualBreakdown:
    """Sum of squared defects of every constraint coefficient equation."""
    t = _targets_for(cand)
    c = cand.c.ravel()

    d = c[t.ab] - c[t.ba] - t.t_bracket
    comm, lorentz = d[:t.n_comm], d[t.n_comm:]

    cs = c[t.cs]
    left = cs @ c[t.c_mid]                # (P^i P^j) P^k: axes (s, (i, j), (k, l))
    right = cs[:, None] @ c[t.c_row]      # P^i (P^j P^k): axes (s, i, (j, k), l)
    d = left.reshape(2, -1) - right.reshape(2, -1) - t.t_assoc

    return ResidualBreakdown(float(comm @ comm), float(lorentz @ lorentz),
                             float(d[0] @ d[0]) + float(d[1] @ d[1]))


def candidate_to_algebra(cand: CandidateAlgebra):
    """Exact snapshot of a float candidate (doubles serialize as p/q).

    Each double is p / 2**k exactly (`as_integer_ratio`), so the largest
    2**k is the common denominator and the numerators go straight into the
    integer table `AlgebraDef` takes.
    """
    from .algebra import AlgebraDef

    ratios = [v.as_integer_ratio() for v in cand.c.ravel().tolist()]
    den = max(q for _, q in ratios)
    nums = [p * (den // q) for p, q in ratios]
    d = cand.dim
    return AlgebraDef("candidate", d, den, [[0, *nums[s:s + d]] for s in range(0, d**3, d)],
                      unital=False)


def candidate_from_algebra(alg, roles: dict[str, int], seed: int | None = None) -> CandidateAlgebra:
    """Rebuild a candidate from a parsed algebra file and its roles line."""
    n = alg.dim + 1
    t = alg.tensor[1:, 1:].astype(object)
    if (t[..., ::n] != 0).any():    # the unit's real and imaginary parts
        raise ValueError("candidate algebras carry no unit multiples")
    if (t[..., n + 1:] != 0).any():
        raise ValueError("candidate structure constants must be real")
    c = (t[..., 1:n] / alg._den).astype(float)
    return CandidateAlgebra(alg.dim, c, dict(roles), seed)


@dataclass
class SearchConfig:
    restarts: int = 1
    max_iters: int = 1000
    step_scale: float = 0.1
    rng_seed: int = 0
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.restarts <= 0 or self.max_iters < 0 or self.rng_seed < 0:
            raise ValueError("restarts must be positive, max_iters and rng_seed non-negative")
        if not all(math.isfinite(x) and x > 0 for x in (self.step_scale, self.tolerance)):
            raise ValueError("step_scale and tolerance must be positive and finite")


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
    base = init if init is not None else CandidateAlgebra.zero()
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
        c = cand.c
        cur = residual(cand)
        trace = [cur.total]
        for _ in range(cfg.max_iters):
            if cur.total <= cfg.tolerance:
                break
            i, j, k = free_entries[rng.integers(len(free_entries))]
            delta = rng.normal(0.0, cfg.step_scale)
            old = c[i, j, k]
            c[i, j, k] = old + delta
            res = residual(cand)
            if res.total < cur.total:
                cur = res
            else:
                c[i, j, k] = old  # the exact double, so a rejected step leaves no trace
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
