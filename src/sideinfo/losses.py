"""Loss functions, Bayes-risk minimization, and proper scoring rules.

Two loss shapes are supported:

* ActionMatrixLoss: a finite reconstruction alphabet, given as an n x k
  matrix of (possibly +inf) per-action losses.  Bayes risk is an exact
  column minimum.
* ScoringRuleLoss: simplex-valued actions, ell(x, Q).  Rules flagged
  `proper` are minimized by reporting Q = P, so their Bayes risk is an
  exact evaluation; unflagged rules fall back to a seeded numeric search
  over the simplex (approximate, with a reported optimality gap).  The
  Savage rules of `savage_from_G` are proper rules of this shape.

Every Bayes risk is solved by `_solve`, over an (R, n) stack in the loss's
tier; `bayes_risk` is its R = 1 case and the C kernel in `benefit` its caller.

Simplex-action rules share one batched contract: `loss_vector` maps a
forecast (n,) or a batch (K, n) to the same shape, row k holding ell(x, Q_k)
for every x.  The numeric search and the propriety audit evaluate their
forecasts as batches through it; the search's multi-start gradient descent
runs the 16 starts of every row of a stack in lockstep, one finite-difference
batch and one step batch per iteration, each start on the path it takes
alone.  A start retires at a fixed point (an accepted step that leaves its
bits unchanged would repeat until the iteration cap) and reuses its gradient
after a rejected step (its q, and so its finite differences, are unchanged).
Each row's best start is then refined by Nelder-Mead (`_nelder_mead`, an
in-house port of scipy's, pinned bit for bit against it by the parity test
in tests/test_losses.py), so no Bayes solve loads scipy.

Every expected loss, in both exact tiers and in the numeric search's
objective, is one masked elementwise product p_x * ell_x over the x with
p_x > 0 (0 * inf = 0), summed as a left fold from 0 over x (`_masked_risk`).  No
risk goes through a BLAS dot, spherical's included (its |q|^2 is the same
left fold), so a row's risk is the same alone or in any batch, in any memory
layout, on every CPU.

Built-ins: log, zero_one, brier, spherical, absolute_ordered.  All symbols
are 0-based here; 1-based indexing lives only at the file/CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import NotProper, ParameterOutOfRange, UnboundedBelow, UnknownLoss, _check_count
from .prob import ConvexOracle, Dist, _as_probs, _simplex

BUILTIN_LOSSES = ("log", "zero_one", "brier", "spherical", "absolute_ordered")

# Losses whose value at the honest report exceeds this are treated as infinite.
HUGE = 1e17

# Points per block of the numeric search's grid check: the n = 3 lattice
# (20,301 points) is one block, the n = 4 lattice (1.37M points) 42.
GRID_BLOCK = 1 << 15


@dataclass(frozen=True)
class ActionMatrixLoss:
    """Loss over a finite action alphabet: matrix[x, a] = ell(x, action a)."""

    matrix: np.ndarray
    name: Optional[str] = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)
        if m.ndim != 2:
            raise ParameterOutOfRange("action matrix must be 2-d")
        if np.any(np.isnan(m)) or np.any(m == -np.inf):
            raise ParameterOutOfRange("action matrix entries must be > -inf and not NaN")
        if not np.all(np.isfinite(m).any(axis=0)):
            raise ParameterOutOfRange("every action needs at least one finite entry")
        if not np.all(np.isfinite(m).any(axis=1)):
            raise UnboundedBelow("some outcome has no finite action (violates finiteness)")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class ScoringRuleLoss:
    """Loss over simplex-valued actions: eval_fn(x, Q) -> extended real.

    `vector_fn`, if given, must be row-wise: (n,) -> (n,) and (K, n) -> (K, n),
    row k depending on forecast k alone.  A batch returned in another shape,
    or whose first row is off by more than 1e-12 from that forecast alone,
    raises ParameterOutOfRange.  Without it, `eval_fn` runs per outcome and row.
    An `n` of None takes any alphabet size.
    """

    eval_fn: Callable[[int, np.ndarray], float]
    n: Optional[int]
    proper: bool = False
    name: Optional[str] = None
    vector_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def loss_vector(self, q: np.ndarray) -> np.ndarray:
        """ell(x, q) for every outcome x; a (K, n) batch gives one row per forecast."""
        q = np.asarray(q, dtype=float)
        if self.vector_fn is None:
            rows = q.reshape(-1, q.shape[-1])
            out = [[float(self.eval_fn(x, r)) for x in range(r.shape[0])] for r in rows]
            return np.array(out, dtype=float).reshape(q.shape)
        out = np.asarray(self.vector_fn(q), dtype=float)
        if out.shape != q.shape:
            raise ParameterOutOfRange(f"vector_fn returned shape {out.shape} for forecasts {q.shape}")
        if q.ndim == 2 and len(q) > 1:
            a, b = out[0], np.asarray(self.vector_fn(q[0]), dtype=float)
            with np.errstate(invalid="ignore"):  # inf - inf is NaN, never within 1e-12
                same = (a == b) | (np.abs(a - b) <= 1e-12) | (np.isnan(a) & np.isnan(b))
            if not same.all():
                raise ParameterOutOfRange("vector_fn is not row-wise: a batch row differs from its forecast alone")
        return out


LossSpec = Union[ActionMatrixLoss, ScoringRuleLoss]


@dataclass(frozen=True)
class BayesResult:
    """Outcome of Bayes-risk minimization.

    `minimizer` is an action index for matrix losses and a Dist for
    simplex-action rules.  `grid_gap` reports search-minus-grid slack for
    the numeric tier, whose result is checked against the step-1/200
    simplex lattice for n <= 4; it is None above n = 4 and when the exact
    tiers apply.
    """

    risk: float
    minimizer: object
    method: str  # "column-min" | "proper-fixed-point" | "numeric-search"
    grid_gap: Optional[float] = None


def builtin_loss(name: str, n: int) -> LossSpec:
    """Instantiate a built-in loss for an n-symbol alphabet."""
    if n < 2:
        raise ParameterOutOfRange(f"alphabet size must be >= 2, got {n}")
    key = name.replace("-", "_").lower()
    if key == "zero_one":
        return ActionMatrixLoss(matrix=1.0 - np.eye(n), name=key)
    if key == "absolute_ordered":
        idx = np.arange(n)
        return ActionMatrixLoss(matrix=np.abs(idx[:, None] - idx[None, :]).astype(float), name=key)
    if key == "log":
        def vec(q):
            q = _as_probs(q)
            out = np.full(q.shape, np.inf)
            m = q > 0
            out[m] = -np.log(q[m])
            return out
    elif key == "brier":
        def vec(q):
            q = _as_probs(q)
            return (q * q).sum(axis=-1, keepdims=True) - 2.0 * q + 1.0
    elif key == "spherical":
        def vec(q):
            q = _as_probs(q)
            return -q / np.sqrt(sum((q * q).T, 0.0).T)[..., None]  # |q|^2 as `_masked_risk`'s left fold
    else:
        raise UnknownLoss(f"unknown built-in loss {name!r}")
    return ScoringRuleLoss(eval_fn=lambda x, q: float(vec(q)[x]), n=n, proper=True, name=key, vector_fn=vec)


def reinstantiate(l: LossSpec, n: int) -> Optional[LossSpec]:
    """The same named loss family at a different alphabet size, if known."""
    name = getattr(l, "name", None)
    if name in BUILTIN_LOSSES:
        return builtin_loss(name, n) if n >= 2 else None
    return None


def _masked_risk(p: np.ndarray, ell: np.ndarray, bad: np.ndarray):
    """sum_x p_x ell_x over the last axis, as a left fold from 0: ((0 + t_0) + t_1) + ...

    0 * inf = 0: only the x with p_x > 0 contribute, and a `bad` entry at such
    an x makes the sum inf.  `p`, `ell` and `bad` broadcast together.  No BLAS:
    below eight terms this is numpy's own summation order, and it never
    depends on the CPU or the memory layout.
    """
    live = p > 0.0
    if live.all() and not bad.any():  # nothing to mask
        return sum((p * ell).T, 0.0).T  # Python's sum over the x axis, moved first: the left fold
    hit = live & bad
    terms = np.multiply(p, ell, out=np.zeros(hit.shape), where=live & ~bad)
    return np.where(hit.any(axis=-1), np.inf, sum(terms.T, 0.0).T)


def _scored(l, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`loss_vector` of a forecast or a batch, and where it counts as infinite (inf or >= HUGE)."""
    vec = l.loss_vector(np.ascontiguousarray(q))  # a row scores as it would alone
    return vec, np.isinf(vec) | (vec >= HUGE)


def _expected_scoring_loss(l, p: np.ndarray, q: np.ndarray):
    """E_P[ell(X, q)], a float for one forecast and an array for a (K, n) batch.

    `p` is one distribution (n,) or one per forecast (K, n).  0 * inf = 0; a
    loss that is inf or >= HUGE where p > 0 makes the row inf.
    """
    risk = _masked_risk(p, *_scored(l, q))
    return float(risk) if risk.ndim == 0 else risk


def _tier(l: LossSpec, n: int) -> str:
    """The method `_solve` takes for l on n symbols; an n other than l's raises ParameterOutOfRange."""
    if l.n is not None and n != l.n:
        raise ParameterOutOfRange(f"distribution has {n} symbols but loss expects {l.n}")
    if isinstance(l, ActionMatrixLoss):
        return "column-min"
    return "proper-fixed-point" if l.proper else "numeric-search"


def _simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a point, or of each row of a batch, onto the unit simplex."""
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = (np.cumsum(u, axis=-1) - 1.0) / np.arange(1, n + 1)
    k = n - 1 - np.argmax((u > css)[..., ::-1], axis=-1)  # the last index where u > css
    theta = css[k] if v.ndim == 1 else css[np.arange(len(css)), k][:, None]
    return np.maximum(v - theta, 0.0)


def _lattice(prefix: np.ndarray, rest: np.ndarray, n: int) -> np.ndarray:
    """Every count vector of n entries that extends a row of `prefix`, in lexicographic order.

    `rest[i]` is what row i of `prefix` leaves of the total; it becomes the last count.
    """
    while prefix.shape[1] < n - 1:
        reps = rest + 1
        parent = np.repeat(np.arange(len(rest)), reps)
        part = np.arange(parent.size) - np.repeat(np.cumsum(reps) - reps, reps)
        prefix = np.column_stack([prefix[parent], part])
        rest = rest[parent] - part
    return np.column_stack([prefix, rest])


def simplex_grid(n: int, steps: int) -> np.ndarray:
    """All points of the simplex lattice {c/steps : c in Z^n_{>=0}, sum c = steps}, c ascending."""
    return _lattice(np.zeros((1, 0), dtype=np.int64), np.array([steps], dtype=np.int64), n) / steps


def _grid_blocks(n: int, steps: int):
    """`simplex_grid(n, steps)` in order, in blocks of whole leading coordinates of about `GRID_BLOCK` points."""
    if n < 2:
        yield simplex_grid(n, steps)
        return
    lead = np.arange(steps + 1, dtype=np.int64)
    sizes = [math.comb(steps - a + n - 2, n - 2) for a in range(steps + 1)]  # points per leading count
    block = (np.cumsum(sizes) - 1) // GRID_BLOCK
    for part in np.split(lead, np.flatnonzero(np.diff(block)) + 1):
        yield _lattice(part[:, None], steps - part, n) / steps


def _nelder_mead(f, x0: np.ndarray):
    """Minimize f from x0: scipy 1.17.1's Nelder-Mead for the one case the numeric tier runs.

    A port of `scipy.optimize.minimize(f, x0, method="Nelder-Mead", options=
    {"maxiter": 400 n, "xatol": 1e-10, "fatol": 1e-12})`: coefficients rho 1,
    chi 2, psi 0.5, sigma 0.5, initial steps of 5% (0.00025 for a zero entry),
    no bounds and no limit on evaluations.  Every expression and every sort is
    scipy's, in scipy's order, so (x, fun) are its bits and f is called as
    often; the parity test pins this against scipy.  Returns (sim[0], min of
    the simplex values), a NaN minimum included.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.array(x0, dtype=float)  # scipy's own copy
    N = len(x0)
    maxiter = 400 * N
    sim = np.empty((N + 1, N), dtype=float)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + 0.05) * y[k]
        else:
            y[k] = 0.00025
        sim[k + 1] = y
    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = f(sim[k])
    ind = np.argsort(fsim)  # scipy sorts twice before the loop
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= 1e-10 and
                np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:  # expand
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:  # reflect
            sim[-1], fsim[-1] = xr, fxr
        else:
            doshrink = False
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:  # toward the best vertex, one vertex at a time
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def _numeric_bayes(l: ScoringRuleLoss, rows: np.ndarray, seed: int):
    """The numeric tier over an (R, n) stack: (risks, minimizers, grid gaps or None above n = 4).

    A row with no finite start gets risk inf and skips the refinement and the
    grid check; its minimizer and gap are never read.
    """
    r, n = rows.shape
    # multi-start projected (numeric) gradient descent, every start of every row
    # in lockstep: per iteration, one batch of central differences along +-h e_i
    # (2n projected points per start whose q moved) and one batch of steps.  Row
    # i owns starts 16i .. 16i + 15: itself, the uniform point and the same 14
    # draws of default_rng(seed).  Every operation is row-wise, so each start
    # follows its lone path bit for bit.  A rejected step leaves q as it was, so
    # its gradient is reused; an accepted step that leaves q's bits as they were
    # would repeat itself until the cap, so that start retires there.
    draws = np.random.default_rng(seed).dirichlet(np.ones(n), size=14)
    qs = np.hstack([rows, np.full((r, n), 1.0 / n), np.tile(draws.ravel(), (r, 1))]).reshape(-1, n)
    ps = np.repeat(rows, 16, axis=0)  # the distribution each start is scored against

    def f(starts, q):
        return _expected_scoring_loss(l, ps[starts], q)

    vals = f(slice(None), qs)
    lr = np.full(len(qs), 0.25)
    grad = np.empty_like(qs)
    stale = np.ones(len(qs), dtype=bool)  # q moved since grad was taken
    active = np.arange(len(qs))
    h = 1e-6
    steps = np.concatenate([np.eye(n), -np.eye(n)]) * h
    for _ in range(120):
        moved = active[stale[active]]
        if moved.size:
            fd = f(np.repeat(moved, 2 * n), _simplex_project((qs[moved, None] + steps).reshape(-1, n))).reshape(-1, 2 * n)
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf ends that start below
                grad[moved] = (fd[:, :n] - fd[:, n:]) / (2 * h)
            stale[moved] = False
            active = active[np.isfinite(grad[active]).all(axis=1)]
            if not active.size:
                break
        q_old = qs[active]
        q_new = _simplex_project(q_old - lr[active, None] * grad[active])
        v_new = f(active, q_new)
        better = v_new <= vals[active]
        qs[active[better]], vals[active[better]] = q_new[better], v_new[better]
        lr[active[~better]] *= 0.5
        stale[active[better]] = True
        fixed = better & (q_new.view(np.int64) == q_old.view(np.int64)).all(axis=1)
        active = active[(lr[active] >= 1e-8) & ~fixed]
        if not active.size:
            break
    # each row's first start with the lowest value; NaN never counts
    vals = np.where(np.isnan(vals), np.inf, vals).reshape(r, 16)
    first = vals.argmin(axis=1)
    risks, best = vals[np.arange(r), first], qs[np.arange(r) * 16 + first]
    live = np.flatnonzero(risks < np.inf)
    for i in live:  # Nelder-Mead refinement through the projection: scipy's arithmetic, run in-house
        x, fun = _nelder_mead(lambda z, p=rows[i]: _expected_scoring_loss(l, p, _simplex_project(z)), best[i])
        if np.isfinite(fun) and fun < risks[i]:
            best[i], risks[i] = _simplex_project(x), fun
    if n > 4:
        return risks, best, None
    # each row's first grid point of least value, block by block; NaN never counts, as in start
    # selection.  Each block's loss vectors are taken once, then scored against each row in turn.
    grid_q, grid_v, gaps = np.zeros((r, n)), np.full(r, np.inf), np.full(r, np.nan)
    for grid in _grid_blocks(n, 200) if live.size else ():
        vec, bad = _scored(l, grid)
        for i in live:
            gvals = _masked_risk(rows[i], vec, bad)
            gvals = np.where(np.isnan(gvals), np.inf, gvals)
            gi = int(np.argmin(gvals))
            if gvals[gi] < grid_v[i]:
                grid_q[i], grid_v[i] = grid[gi], gvals[gi]
    gaps[live] = risks[live] - grid_v[live]
    take = grid_v < risks
    best[take], risks[take] = grid_q[take], grid_v[take]
    return risks, best, gaps


# What `bayes_risk` raises, per tier, when p has no finite Bayes risk.
_UNBOUNDED = {
    "column-min": "no action has finite expected loss under p",
    "proper-fixed-point": "expected loss at the honest report is not finite",
    "numeric-search": "numeric search found no finite expected loss",
}


def _solve(l: LossSpec, rows: np.ndarray, seed: int = 0):
    """Bayes risk of each row of an (R, n) stack: (method, risks, minimizers, grid gaps or None).

    Column-min scores every action of every row as one (R, k, n) product and
    takes the first index of the least; a proper rule scores each row at
    itself, its own minimizer; the numeric tier checks its rows once
    (NegativeMass or NotNormalized, naming the row as a slice) and searches.
    A risk with no finite value is returned, not raised.  Each row gets the
    same bits as alone.
    """
    method = _tier(l, rows.shape[1])
    if method == "column-min":
        m = l.matrix.T
        vals = _masked_risk(rows[:, None, :], m, np.isinf(m))
        return method, vals.min(axis=1), vals.argmin(axis=1), None  # argmin takes the lowest index on ties
    if method == "proper-fixed-point":
        return method, _expected_scoring_loss(l, rows, rows), rows, None
    _simplex(rows, 1)
    return (method, *_numeric_bayes(l, rows, seed))


def bayes_risk(l: LossSpec, p, seed: int = 0) -> BayesResult:
    """Minimal expected loss against distribution p, with its minimizer: `_solve` of one row.

    Exact for action matrices (column minimum, ties to the lowest index) and
    for proper rules (evaluate at Q = P); approximate multi-start search for
    arbitrary scoring rules.  A p whose length differs from the loss's
    declared alphabet size raises ParameterOutOfRange, and one that is not a
    distribution within SIMPLEX_TOL raises NegativeMass or NotNormalized (p
    is checked, never renormalized).  A risk with no finite value (for the
    numeric search, no start with a finite expected loss) raises
    UnboundedBelow, and a seed that is negative or not an integer
    ParameterOutOfRange, before any work.

    Known cost: the numeric search checks itself against every point of
    `simplex_grid(n, 200)` for n <= 4, scored in blocks of whole leading
    coordinates (`GRID_BLOCK` points or so each), so at n = 4 (1.37M points)
    one call with a `vector_fn` peaks at 44 MB RSS (30 MB with numpy loaded,
    before the call).  A rule given only an `eval_fn` scores those points by
    one Python call per outcome, so at n = 4 one call takes 18-24 s on a
    2-core Xeon VM.  A stack (`_solve`) pays for them once.
    """
    _check_count("seed", seed)
    pv = _as_probs(p)
    _tier(l, pv.shape[0])  # the length is checked before the mass
    _simplex(pv, 1)
    method, risks, minimizers, gaps = _solve(l, pv[None], seed)
    if not np.isfinite(risks[0]):
        raise UnboundedBelow(_UNBOUNDED[method])
    m, gap = minimizers[0], None if gaps is None else float(gaps[0])
    return BayesResult(float(risks[0]), Dist(m) if m.ndim else int(m), method, gap)


def v_envelope(l: LossSpec, p, seed: int = 0) -> float:
    """Negative Bayes envelope V(P) = -inf_a E_P[ell(X, a)]; convex and bounded.

    Raises as `bayes_risk` does for a p that is not a distribution or a
    seed that is negative or not an integer.
    """
    return -bayes_risk(l, p, seed=seed).risk


def savage_from_G(g: ConvexOracle, n: Optional[int] = None) -> ScoringRuleLoss:
    """Proper scoring rule ell(x, Q) = <G'(Q), Q> - G(Q) - G'_x(Q).

    For any P the expected loss is minimized at Q = P with value -G(P), so
    the negative Bayes envelope of the returned rule is G itself.  Its
    `vector_fn` scores a batch one forecast at a time, as the oracle takes them.
    """

    def vec(q):
        q = np.asarray(q, dtype=float)
        if q.ndim == 2:
            return np.array([vec(r) for r in q], dtype=float).reshape(q.shape)
        sub = np.asarray(g.subgradient(q), dtype=float)
        mask = q != 0.0
        pairing = float((sub[mask] * q[mask]).sum())  # 0 * LOG_ZERO = 0
        return pairing - g.value(q) - sub

    return ScoringRuleLoss(eval_fn=lambda x, q: float(vec(q)[x]), n=n, proper=True, vector_fn=vec)


@dataclass(frozen=True)
class ProprietyReport:
    trials: int
    worst_margin: float
    worst_p: np.ndarray
    worst_q: np.ndarray


def audit_propriety(
    l: LossSpec,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    n: Optional[int] = None,
) -> ProprietyReport:
    """Check E_P[ell(X,P)] <= E_P[ell(X,Q)] + tol on random P against random and grid Q.

    Returns the worst (most negative) margin seen; raises NotProper with the
    offending (P, Q) witness if any dishonest report strictly wins.  An `n`
    that differs from the rule's declared alphabet size raises
    ParameterOutOfRange, as in `bayes_risk`, and so do trials < 1 and a seed
    that is negative or not an integer, before any work.
    """
    _check_count("seed", seed)
    if isinstance(l, ActionMatrixLoss):
        raise ParameterOutOfRange("propriety is defined for simplex-action rules")
    if trials < 1:
        raise ParameterOutOfRange(f"trials must be >= 1, got {trials}")
    if n is not None and l.n is not None and n != l.n:
        raise ParameterOutOfRange(f"audit asked for {n} symbols but loss expects {l.n}")
    size = n or l.n
    if size is None:
        raise ParameterOutOfRange("alphabet size unknown; pass n=")
    rng = np.random.default_rng(seed)
    fixed = [np.full((1, size), 1.0 / size), np.eye(size)]
    if size <= 3:
        fixed.append(simplex_grid(size, 20))
    worst = np.inf
    worst_p = worst_q = None
    for _ in range(trials):
        p = rng.dirichlet(np.ones(size))
        honest = _expected_scoring_loss(l, p, p)
        candidates = np.concatenate([rng.dirichlet(np.ones(size), size=8)] + fixed)
        margins = _expected_scoring_loss(l, p, candidates) - honest
        hits = np.flatnonzero(margins < -tol)
        if hits.size:  # the first dishonest report in candidate order
            raise NotProper(p=p, q=candidates[hits[0]], margin=float(margins[hits[0]]))
        i = int(np.argmin(np.where(np.isnan(margins), np.inf, margins)))  # NaN margins never count
        if margins[i] < worst:
            worst, worst_p, worst_q = margins[i], p, candidates[i]
    return ProprietyReport(trials=trials, worst_margin=float(worst), worst_p=worst_p, worst_q=worst_q)
