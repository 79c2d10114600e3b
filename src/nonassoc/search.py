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

A step is evaluated only when it can lower the residual.  On the
associator side it can when its entry e = c[i, j, k] is its own factor in
an associator (i and j in a P-sector S, k in {i, j}) or multiplies a
nonzero factor there: c[k, S, :] or c[S, k, :] when i and j are in S,
c[S, S, i] when j is in S, c[S, S, j] when i is in S.  Any other step
multiplies exact zeros only and leaves S's associator sum bit for bit.  On
the bracket side it can when e lies in a row c[a, b, :] or c[b, a, :] of a
pair with a != b whose defect c[a, b, k] - c[b, a, k] - t is not exactly
0.  A diagonal pair's defect c - c - t never moves; a zero defect's square
can only rise, and as IEEE rounding is monotone so can the sums of squares.
Any other step would be rejected.  It is skipped after its entry and
delta are drawn, so the random stream and every accept decision stay
those of evaluating every step.  Nonzero counts of c[S, S, m], c[m, S, :]
and c[S, m, :] for each sector keep the associator test O(1); they are
rebuilt at each restart and change only when an accepted step moves an
entry to or from zero.  The bracket test reads the defects of e's row,
two at most in the default layout, from the table.  A trace holds the
starting residual and then one entry per evaluated step, and each entry
is one call of the module's `residual`.

An evaluated step recomputes only the residual families it can move and
copies the others from the residual of the table before it.  There are
three: the bracket rows (comm and lorentz), the associators of P = R and
those of P = Rt.  The bracket family moves when e lies in a row c[a, b, :]
or c[b, a, :] of a pair with a != b, whatever its defects; sector S moves
when the associator test above holds for S.  A family that does not move
has bit-identical defects, so its sum is bit-identical too, and the
residual equals a full evaluation bit for bit.  From so31 with seed 0, of
4848 evaluated steps 656 move the bracket rows only, 3439 one sector only
and 753 all three families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import EPS4, LORENTZ, LORENTZ_SLOTS, MINKOWSKI, SLOT_MATRICES

# Role slots: 4 R, 4 Rtilde, 6 Lorentz, one spare.
ROLE_R = tuple(f"R{mu}" for mu in range(4))
ROLE_RT = tuple(f"Rt{mu}" for mu in range(4))
ROLE_M = tuple(f"M{a}{b}" for a, b in LORENTZ_SLOTS)
ROLE_SPARE = ("X0",)

BASE_DIM = len(ROLE_R) + len(ROLE_RT) + len(ROLE_M) + len(ROLE_SPARE)  # 15


def default_roles() -> dict[str, int]:
    return {label: k for k, label in enumerate(ROLE_R + ROLE_RT + ROLE_M + ROLE_SPARE)}


@dataclass
class CandidateAlgebra:
    """Dense real structure constants with a fixed role layout."""

    dim: int
    c: np.ndarray
    roles: dict[str, int]

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.dim, self.dim, self.dim):
            raise ValueError("structure tensor must be dim^3")
        needed = set(ROLE_R + ROLE_RT + ROLE_M)
        missing = needed - set(self.roles)
        if missing:
            raise ValueError(f"missing role slots: {sorted(missing)}")

    @classmethod
    def zero(cls) -> "CandidateAlgebra":
        return cls(BASE_DIM, np.zeros((BASE_DIM,) * 3), default_roles())

    @classmethod
    def so31_embedded(cls) -> "CandidateAlgebra":
        """Zero R-sectors with the exact boost/rotation constants in the M-sector."""
        cand = cls.zero()
        m = [cand.roles[label] for label in ROLE_M]
        # the product table is half the bracket, so the antisymmetrized
        # bracket reproduces the constants
        cand.c[np.ix_(m, m, m)] = LORENTZ / 2.0
        return cand

    @classmethod
    def random(cls, seed: int, scale: float = 0.5) -> "CandidateAlgebra":
        cand = cls.zero()
        cand.c = np.random.default_rng(seed).normal(0.0, scale, size=cand.c.shape)
        return cand

    def copy(self) -> "CandidateAlgebra":
        return CandidateAlgebra(self.dim, self.c.copy(), dict(self.roles))


@dataclass(frozen=True)
class ResidualBreakdown:
    r_comm: float
    r_lorentz: float
    r_assoc: float
    # the associator sums of P = R and P = Rt; r_assoc is their sum
    r_sectors: tuple[float, float] | None = field(default=None, compare=False, repr=False)

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
        self.sectors = sectors

        # np.add.at adds up where two labels share an index
        t_comm = np.zeros((4, 4, dim))
        np.add.at(t_comm, (..., idx_m), 2.0 * SLOT_MATRICES.transpose(1, 2, 0))
        t_lorentz = np.zeros((6, 6, dim))
        np.add.at(t_lorentz, (..., idx_m), LORENTZ)
        t_assoc = np.zeros((2, 4, 4, 4, dim))
        np.add.at(t_assoc, (np.arange(2)[:, None], ..., sectors),
                  np.moveaxis(2.0 * EPS4 * MINKOWSKI, -1, 0))
        t_assoc = t_assoc.reshape(2, -1)

        flat = np.arange(dim ** 3).reshape(dim, dim, dim)
        # bracket rows c[a, b, :] - c[b, a, :]: the 16 comm pairs, then the 36 Lorentz pairs
        self.pairs = pairs = ([(a, b) for a in idx_r for b in idx_rt]
                              + [(a, b) for a in idx_m for b in idx_m])
        self.ab = np.concatenate([flat[a, b] for a, b in pairs])
        self.ba = np.concatenate([flat[b, a] for a, b in pairs])
        self.t_bracket = np.concatenate([t_comm.ravel(), t_lorentz.ravel()])
        self.n_comm = t_comm.size
        # sectors stacked on axis 0: c[S, S, :] as 16 rows (i, j), c[:, S, :]
        # as a (dim, 4 dim) matrix, the four (dim, dim) slabs c[S] and the
        # targets, for both sectors and for each one alone
        cs = flat[sectors[:, :, None], sectors[:, None, :]].reshape(2, 16, dim)
        c_mid = flat[:, sectors].transpose(1, 0, 2, 3).reshape(2, dim, 4 * dim)
        c_row = flat[sectors]
        self.assoc = {s: (cs[list(s)], c_mid[list(s)], c_row[list(s)], t_assoc[list(s)])
                      for s in ((0, 1), (0,), (1,))}


_TARGET_CACHE: dict[tuple, _Targets] = {}


def _targets_for(cand: CandidateAlgebra) -> _Targets:
    key = (cand.dim, tuple(cand.roles.items()))
    t = _TARGET_CACHE.get(key)
    if t is None:
        t = _TARGET_CACHE[key] = _Targets(cand.roles, cand.dim)
    return t


def residual(cand: CandidateAlgebra, prev: ResidualBreakdown | None = None,
             moved: tuple[bool, tuple[int, ...]] | None = None) -> ResidualBreakdown:
    """Sum of squared defects of every constraint coefficient equation.

    The defects fall into three families: the bracket rows, summed into
    `r_comm` and `r_lorentz`, and the associators of each P-sector, whose
    two sums (R, Rt) are `r_sectors` and add up to `r_assoc`.
    `residual(cand)` evaluates all three.  After a step on one entry, `prev`
    is the residual of the table before the step and `moved`, as
    `_Support.live` returns it, is (bracket, sectors): whether the bracket
    family moves, and the indices (0 for R, 1 for Rt) of the sectors that
    do.  The families it leaves out are copied from `prev`: their defects
    are bit-identical, and so are their sums.
    """
    t = _targets_for(cand)
    c = cand.c.ravel()
    bracket, sectors = moved or (True, (0, 1))

    if bracket:
        d = c[t.ab] - c[t.ba] - t.t_bracket
        comm, lorentz = d[:t.n_comm], d[t.n_comm:]
        r_comm, r_lorentz = float(comm @ comm), float(lorentz @ lorentz)
    else:
        r_comm, r_lorentz = prev.r_comm, prev.r_lorentz

    sums = list(prev.r_sectors) if moved else [0.0, 0.0]
    if sectors:
        cs, c_mid, c_row, t_assoc = t.assoc[sectors]
        cs = c[cs]
        left = cs @ c[c_mid]              # (P^i P^j) P^k: axes (s, (i, j), (k, l))
        right = cs[:, None] @ c[c_row]    # P^i (P^j P^k): axes (s, i, (j, k), l)
        d = left.reshape(t_assoc.shape) - right.reshape(t_assoc.shape) - t_assoc
        for s, row in zip(sectors, d):
            sums[s] = float(row @ row)

    return ResidualBreakdown(r_comm, r_lorentz, sums[0] + sums[1], tuple(sums))


def candidate_to_algebra(cand: CandidateAlgebra):
    """Exact snapshot of a float candidate (doubles serialize as p/q).

    A double is m * 2**e (`np.frexp`), the integer m * 2**53 over 2**(53 - e).
    2**D, D the largest 53 - e of a nonzero entry, is a common denominator,
    and the numerators go straight into the integer table `AlgebraDef` takes,
    which reduces it.  Infinite and NaN entries raise ValueError.
    """
    from .algebra import AlgebraDef

    c = cand.c.ravel()
    if not np.isfinite(c).all():
        raise ValueError("candidate structure constants must be finite")
    mant, exp = np.frexp(c)
    den_bits = 53 - int(exp[c != 0].min(initial=53))
    nums = ((mant * 2.0**53).astype(np.int64).astype(object)
            << np.maximum(exp - 53 + den_bits, 0).astype(object))
    d = cand.dim
    return AlgebraDef("candidate", d, 1 << den_bits,
                      [[0, *row] for row in nums.reshape(d * d, d).tolist()], unital=False)


def candidate_from_algebra(alg, roles: dict[str, int]) -> CandidateAlgebra:
    """Rebuild a candidate from a parsed algebra file and its roles line."""
    n = alg.dim + 1
    t = alg.tensor[1:, 1:].astype(object)
    if (t[..., ::n] != 0).any():    # the unit's real and imaginary parts
        raise ValueError("candidate algebras carry no unit multiples")
    if (t[..., n + 1:] != 0).any():
        raise ValueError("candidate structure constants must be real")
    try:
        c = (t[..., 1:n] / alg._den).astype(float)
    except OverflowError:
        raise ValueError("candidate structure constants must lie in the double range") from None
    return CandidateAlgebra(alg.dim, c, dict(roles))


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


class _Support:
    """Whether a step on c[i, j, k] can lower the residual, for one table.

    `bracket[i][j]` lists as (a, b, p) the bracket defects
    d[p, :] = c[a, b, :] - c[b, a, :] - target[p] that read the row
    c[i, j, :], for the pairs with a != b: a diagonal pair's defect never
    moves.  Each P-sector S (its distinct indices) keeps `member[m]` for m
    in S and the nonzero counts `pair[m]` of c[S, S, m], `left[m]` of
    c[m, S, :] and `right[m]` of c[S, m, :].
    """

    def __init__(self, t: _Targets, c: np.ndarray):
        dim = len(c)
        self.c = c
        self.target = t.t_bracket.reshape(-1, dim).tolist()
        self.bracket = [[[] for _ in range(dim)] for _ in range(dim)]
        for p, (a, b) in enumerate(t.pairs):
            if a != b:
                self.bracket[a][b].append((a, b, p))
                self.bracket[b][a].append((a, b, p))
        nonzero = c != 0
        self.sectors = []
        for s in t.sectors:
            member = np.zeros(dim, dtype=bool)
            member[s] = True
            s = np.flatnonzero(member)
            self.sectors.append((member.tolist(),
                                 nonzero[np.ix_(s, s)].sum(axis=(0, 1)).tolist(),
                                 nonzero[:, s].sum(axis=(1, 2)).tolist(),
                                 nonzero[s].sum(axis=(0, 2)).tolist()))

    def live(self, i: int, j: int, k: int) -> tuple[bool, tuple[int, ...]] | None:
        """The families of `residual` that a step on c[i, j, k] can move:
        (whether c[i, j, :] is a bracket row, the sectors whose associators
        it reaches), or None when the step cannot lower the residual."""
        sectors = ()
        for s, (member, pair, left, right) in enumerate(self.sectors):
            # e in c[S, S, k]: its own factor, or times c[k, S, :] or c[S, k, :];
            # e in c[:, S, :] times c[S, S, i], or in c[S] times c[S, S, j]
            if (member[i] and member[j] and (k == i or k == j or left[k] or right[k])
                    or member[j] and pair[i] or member[i] and pair[j]):
                sectors += (s,)
        rows = self.bracket[i][j]
        if sectors:
            return bool(rows), sectors
        # the step moves only these defects; from exactly 0 their squares can only rise
        c, target = self.c, self.target
        for a, b, p in rows:
            if c.item(a, b, k) - c.item(b, a, k) != target[p][k]:
                return True, ()
        return None

    def moved(self, i: int, j: int, k: int, change: int):
        """Count c[i, j, k] turning nonzero (`change` 1) or zero (-1)."""
        for member, pair, left, right in self.sectors:
            if member[i] and member[j]:
                pair[k] += change
            if member[j]:
                left[i] += change
            if member[i]:
                right[j] += change


def search(cfg: SearchConfig, init: CandidateAlgebra | None = None,
           freeze: set[str] | None = None) -> SearchResult:
    """Multi-restart coordinate perturbation with accept-if-improved; steps
    that cannot lower the residual are drawn but not evaluated, and the
    others recompute only the residual families they can move."""
    freeze = freeze or set()
    base = init if init is not None else CandidateAlgebra.zero()
    mask = _frozen_mask(base, freeze)
    free_entries = np.argwhere(~mask).tolist()
    targets = _targets_for(base)
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
        support = _Support(targets, c)
        cur = residual(cand)
        total = cur.total
        trace = [total]
        for _ in range(cfg.max_iters):
            if total <= cfg.tolerance:
                break
            i, j, k = free_entries[rng.integers(len(free_entries))]
            delta = rng.normal(0.0, cfg.step_scale)
            families = support.live(i, j, k)
            if families is None:
                continue  # the residual would not fall, so the step would be rejected
            old = c[i, j, k]
            c[i, j, k] = new = old + delta
            res = residual(cand, cur, families)
            if res.total < total:
                cur, total = res, res.total
                if (old == 0) != (new == 0):
                    support.moved(i, j, k, 1 if old == 0 else -1)
            else:
                c[i, j, k] = old  # the exact double, so a rejected step leaves no trace
            trace.append(total)
        traces.append(trace)
        if best_res is None or total < best_res.total:
            best, best_res = cand, cur

    return SearchResult(
        best=best,
        best_residual=best_res,
        traces=traces,
        converged=best_res.total <= cfg.tolerance,
    )
