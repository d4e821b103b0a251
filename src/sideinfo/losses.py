"""Loss functions, Bayes-risk minimization, and proper scoring rules.

Two loss shapes are supported:

* ActionMatrixLoss: a finite reconstruction alphabet, given as an n x k
  matrix of (possibly +inf) per-action losses.  Bayes risk is an exact
  column minimum.
* ScoringRuleLoss: simplex-valued actions, ell(x, Q).  Rules flagged
  `proper` are minimized by reporting Q = P, so their Bayes risk is an
  exact evaluation; unflagged rules fall back to a numeric search over the
  simplex (approximate, with the gain of its local stage over its global
  one reported).  The Savage rules of `savage_from_G` are proper rules of
  this shape.

Every Bayes risk is solved by `_solve`, over an (R, n) stack in the loss's
tier; `bayes_risk` is its R = 1 case and the C kernel in `benefit` its caller.

Simplex-action rules share one batched contract: `loss_vector` maps a
forecast (n,) or a batch (K, n) to the same shape, row k holding ell(x, Q_k)
for every x.  The numeric search and the propriety audit evaluate their
forecasts as batches through it, the audit a block of trials per batch.  The
search runs the same way at every n and draws nothing at random.  A Bayes
risk is a minimum of functions affine in P, so the risk at any forecast
bounds it from above: the search scores one simplex lattice (the finest of
at most 200 steps with at most `GRID_BLOCK` points, built once per process)
once per stack, then polishes each row from its two least lattice points
and from itself, and once more from the best polished point, by Nelder-Mead
(`_nelder_mead`, an in-house port of scipy's, pinned bit for bit against it
by the parity test in tests/test_losses.py), so no Bayes solve loads scipy.
The polish scores one point at a time, and numpy's per-call cost is far
larger than arithmetic on 2-7 numbers, so its vertices, the projection of
one point onto the simplex (`_projected_point`, the only projection) and
the risk of one forecast (`_folded_risk`) run on Python floats end to end,
numpy only ordering the vertices; the risk has the batch path's arithmetic
in its order and so its bits.  Its objective depends on a point only
through the projected forecast, and Nelder-Mead mostly steps outside the
simplex, so each row keeps the risk of every forecast it has scored
(`_objective`): a forecast met again costs a projection and a lookup, not a
loss vector.

Every expected loss, in both exact tiers and in the numeric search's
objective, is one masked elementwise product p_x * ell_x over the x with
p_x > 0 (0 * inf = 0), summed as a left fold from 0 over x (`_masked_risk`,
and the same fold on Python floats for one forecast).  No
risk goes through a BLAS dot, and Brier's and spherical's |q|^2 is the same
left fold, so a row's risk is the same alone or in any batch, in any memory
layout, and with zero entries appended, and its fold order the same on every
CPU.  The loss values need not be: log loss takes `np.log`, whose SIMD path
can round differently from libm, so its risks can differ in the last bits
between CPUs.

Built-ins: log, zero_one, brier, spherical, absolute_ordered.  A loss is
taken for a built-in (by the file writer, the CLI and exact certification)
only when it is one (`_builtin_name`), never by its name alone.  All symbols
are 0-based here; 1-based indexing lives only at the file/CLI boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import NotProper, ParameterOutOfRange, UnboundedBelow, UnknownLoss, _check_count
from .prob import ConvexOracle, Dist, _as_probs, _simplex

BUILTIN_LOSSES = ("log", "zero_one", "brier", "spherical", "absolute_ordered")

# Losses whose value at the honest report exceeds this are treated as infinite.
HUGE = 1e17

# Most points of the numeric search's lattice: 200 steps at n = 2 and 3, 56 at
# n = 4, 27 at n = 5 and 17 at n = 6.
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
    Either must be a function of its forecast, with no state between calls:
    the numeric search scores a forecast it meets again within one row once.
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
            if (a == b).all():  # the usual case; the tolerance below only for rows that differ
                return out
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
    simplex-action rules.  `grid_gap`, for the numeric tier, is the least
    risk on its lattice minus the returned risk: >= 0, what the Nelder-Mead
    polish gained.  It is None when no lattice point has a finite risk and
    when the exact tiers apply.
    """

    risk: float
    minimizer: object
    method: str  # "column-min" | "proper-fixed-point" | "numeric-search"
    grid_gap: Optional[float] = None


def _log_vector(q):
    q = _as_probs(q)
    out = np.full(q.shape, np.inf)
    m = q > 0
    out[m] = -np.log(q[m])
    return out


def _brier_vector(q):
    q = _as_probs(q)
    return sum((q * q).T, 0.0).T[..., None] - 2.0 * q + 1.0  # |q|^2 as `_masked_risk`'s left fold


def _spherical_vector(q):
    q = _as_probs(q)
    return -q / np.sqrt(sum((q * q).T, 0.0).T)[..., None]  # |q|^2 as `_masked_risk`'s left fold


# The `vector_fn` of each built-in scoring rule; the other built-ins are action matrices.
_RULE_VECTORS = {"log": _log_vector, "brier": _brier_vector, "spherical": _spherical_vector}


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
    if key not in _RULE_VECTORS:
        raise UnknownLoss(f"unknown built-in loss {name!r}")
    vec = _RULE_VECTORS[key]
    return ScoringRuleLoss(eval_fn=lambda x, q: float(vec(q)[x]), n=n, proper=True, name=key, vector_fn=vec)


def _builtin_name(l: LossSpec) -> Optional[str]:
    """The built-in name of l when l is that built-in loss, else None; a name alone never makes one.

    A scoring rule counts when it is flagged proper and its `vector_fn` is
    the family's own function; an action matrix when it equals
    `builtin_loss(name, n).matrix`.
    """
    if isinstance(l, ActionMatrixLoss):
        same = l.name in ("zero_one", "absolute_ordered") and l.n >= 2
        return l.name if same and np.array_equal(l.matrix, builtin_loss(l.name, l.n).matrix) else None
    return l.name if l.proper and l.name in _RULE_VECTORS and l.vector_fn is _RULE_VECTORS[l.name] else None


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
    """E_P[ell(X, q)], a float for one forecast (n,) and an array for a (K, n) batch.

    `p` is one distribution (n,) or one per forecast (K, n).  0 * inf = 0; a
    loss that is inf, -inf or >= HUGE where p > 0 makes the row inf.  One
    forecast takes `_masked_risk`'s left fold on Python floats, the same bits
    without numpy's per-call cost: NaN passes through unless some live x is bad.
    """
    if q.ndim == 2:
        return _masked_risk(p, *_scored(l, q))
    return _folded_risk(p.tolist(), l.loss_vector(np.ascontiguousarray(q)).tolist())


def _folded_risk(p: list, ell: list) -> float:
    """`_masked_risk` of one forecast on Python floats: sum_x p_x ell_x from 0 over the live x."""
    risk = 0.0
    for px, ex in zip(p, ell):
        if px > 0.0:
            if ex >= HUGE or ex == -math.inf:
                return math.inf
            risk += px * ex  # an explicit fold: Python 3.12's sum() of floats compensates
    return risk


def _tier(l: LossSpec, n: int) -> str:
    """The method `_solve` takes for l on n symbols; an n other than l's raises ParameterOutOfRange."""
    if l.n is not None and n != l.n:
        raise ParameterOutOfRange(f"distribution has {n} symbols but loss expects {l.n}")
    if isinstance(l, ActionMatrixLoss):
        return "column-min"
    return "proper-fixed-point" if l.proper else "numeric-search"


def _projected_point(x: list) -> Optional[list]:
    """The Euclidean projection of one point, given as Python floats, onto the unit simplex; None when its entries or sum are not finite.

    The threshold is (cumsum - 1) / i at the last index, in descending
    order, where the entry exceeds it, the cumsum a left fold, and every
    entry at or below the threshold becomes +0.0, never -0.0: the bits of
    the sort, cumsum and np.maximum form of the projection.
    """
    s, theta = 0.0, None
    for i, a in enumerate(sorted(x, reverse=True), 1):  # a tie between 0.0 and -0.0 changes no threshold
        s += a  # 0.0 + -0.0 is +0.0 where cumsum keeps -0.0; (s - 1.0) is -1.0 either way
        c = (s - 1.0) / i
        if a > c:
            theta = c
    if not x or not math.isfinite(s):
        return None
    if theta is None:  # no entry exceeds its threshold: argmax's fallback, the last one
        theta = c
    return [d if (d := a - theta) > 0.0 else 0.0 for a in x]


def _simplex_project(v: np.ndarray) -> np.ndarray:
    """`_projected_point` of a point (n,) as an array; all NaN when its entries or sum are not finite."""
    q = _projected_point(v.tolist())
    return np.full(v.shape, np.nan) if q is None else np.array(q)


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


@functools.lru_cache(maxsize=8)
def _one_block_grid(n: int, steps: int) -> np.ndarray:
    """`simplex_grid(n, steps)`, built once per process and read-only.

    The keys in use are the search lattices of n = 2-6 and
    `audit_propriety`'s (2, 20) and (3, 20), seven of the eight slots.
    """
    grid = simplex_grid(n, steps)
    grid.setflags(write=False)
    return grid


def _nelder_mead(f, x0: np.ndarray):
    """Minimize f from x0: scipy 1.17.1's Nelder-Mead for the one case the numeric tier runs.

    A port of `scipy.optimize.minimize(f, x0, method="Nelder-Mead", options=
    {"maxiter": 400 n, "xatol": 1e-10, "fatol": 1e-12})`: coefficients rho 1,
    chi 2, psi 0.5, sigma 0.5, initial steps of 5% (0.00025 for a zero entry),
    no bounds and no limit on evaluations.  Every expression and every sort is
    scipy's, in scipy's order, so (x, fun) are its bits and f is called as
    often; the parity test pins this against scipy.  The vertices and their
    values are Python floats, since numpy's per-call cost dwarfs arithmetic on
    2-7 numbers: f gets each vertex as a list of floats it must not change,
    the centroid sums each coordinate from 0.0 as numpy's axis-0 reduce does,
    and the vertex order is numpy's argsort of the values, ties included.
    Returns (sim[0] as an array, min of the simplex values), NaN included.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.array(x0, dtype=float).tolist()  # scipy's own copy
    N = len(x0)
    maxiter = 400 * N
    sim = [x0]
    for k in range(N):
        y = list(x0)
        if y[k] != 0:
            y[k] = (1 + 0.05) * y[k]
        else:
            y[k] = 0.00025
        sim.append(y)
    fsim = [float(f(x)) for x in sim]

    def order(sim, fsim):  # scipy's `np.take(., np.argsort(fsim), 0)` of both
        ind = np.array(fsim).argsort().tolist()  # ndarray.argsort: np.argsort(list) costs about 3x
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    sim, fsim = order(sim, fsim)  # scipy sorts twice before the loop
    sim, fsim = order(sim, fsim)
    iterations = 1
    while iterations < maxiter:
        best, f0 = sim[0], fsim[0]
        # np.max(...) <= tol: every entry within tol, and any NaN fails
        if (all(abs(a - b) <= 1e-10 for x in sim[1:] for a, b in zip(x, best)) and
                all(abs(f0 - v) <= 1e-12 for v in fsim[1:])):
            break
        xbar = []
        for col in zip(*sim[:-1]):  # np.add.reduce(sim[:-1], 0) / N: a left fold from +0.0
            s = 0.0
            for a in col:
                s += a
            xbar.append(s / N)
        worst = sim[-1]
        xr = [(1 + rho) * b - rho * w for b, w in zip(xbar, worst)]
        fxr = float(f(xr))
        if fxr < f0:  # expand
            xe = [(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)]
            fxe = float(f(xe))
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:  # reflect
            sim[-1], fsim[-1] = xr, fxr
        else:
            doshrink = False
            if fxr < fsim[-1]:  # outside contraction
                xc = [(1 + psi * rho) * b - psi * rho * w for b, w in zip(xbar, worst)]
                fxc = float(f(xc))
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]
                fxcc = float(f(xcc))
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:  # toward the best vertex, one vertex at a time
                for j in range(1, N + 1):
                    sim[j] = [b + sigma * (a - b) for a, b in zip(sim[j], best)]
                    fsim[j] = float(f(sim[j]))
        iterations += 1
        sim, fsim = order(sim, fsim)
    return np.array(sim[0]), np.min(fsim)


def _objective(l: ScoringRuleLoss, p: np.ndarray):
    """The polish's objective for one row, f(z) = E_p[ell(X, proj(z))], scoring each projected forecast once.

    f depends on z only through the bits of its projection, and Nelder-Mead
    mostly steps outside the simplex, so most of its points project onto a
    forecast it has already scored.  A memo of this row, keyed by the exact
    projected point, keeps each risk: a miss makes one `loss_vector` call and
    `_expected_scoring_loss`'s fold, a hit returns the same float, NaN and
    0.0 included.  The key is the point as a tuple of floats: its entries are
    finite and never -0.0, so two keys are equal exactly when their bits
    are.  A point whose entries or sum are not finite has no projection: it
    scores NaN and is never kept.
    """
    pl, memo = p.tolist(), {}

    def f(z: list) -> float:
        q = _projected_point(z)
        if q is None:
            return math.nan
        key = tuple(q)
        risk = memo.get(key)
        if risk is None:  # not by truthiness: a kept 0.0 or NaN is returned as it is
            risk = memo[key] = _folded_risk(pl, l.loss_vector(np.array(q)).tolist())
        return risk

    return f


def _polished(f, x0: np.ndarray, risk: float, q: np.ndarray):
    """(risk, q), or Nelder-Mead's (value, projected point) from x0 where lower; a start with f not finite is skipped."""
    if math.isfinite(f(x0.tolist())):
        x, fun = _nelder_mead(f, x0)
        if fun < risk:  # NaN never
            return fun, _simplex_project(x)
    return risk, q


def _numeric_bayes(l: ScoringRuleLoss, rows: np.ndarray):
    """The numeric tier over an (R, n) stack: (risks, minimizers, grid gaps, NaN where no lattice point is finite).

    The lattice's loss vectors are taken once, then scored against each row
    in turn (never as one (R, points, n) array).  Each row is polished by
    Nelder-Mead through the projection from its two least lattice points (the
    first in lattice order on ties; NaN never counts) and from itself, each
    start whose own risk is finite, and, if a polish won, once more from its
    point, since a converged simplex can stall beside a kink; the least value
    is kept, the earlier on ties.  The starts, their checks and the restart
    share one `_objective`, so each projected forecast of a row is scored
    once, and its memo is dropped with the row.  A row with no finite value
    gets risk inf; its minimizer is never read.
    """
    r, n = rows.shape
    steps = 200
    while steps > 1 and math.comb(steps + n - 1, n - 1) > GRID_BLOCK:
        steps -= 1
    grid = _one_block_grid(n, steps)
    vec, bad = _scored(l, grid)
    risks, best, gaps = np.full(r, np.inf), np.zeros((r, n)), np.full(r, np.nan)
    for i, p in enumerate(rows):
        gvals = _masked_risk(p, vec, bad)
        gvals = np.where(np.isnan(gvals), np.inf, gvals)
        first = int(np.argmin(gvals))
        lattice, risks[i], best[i] = gvals[first], gvals[first], grid[first]
        gvals[first] = np.inf  # so the next argmin is the second least
        f = _objective(l, p)
        for x0 in (grid[first], grid[int(np.argmin(gvals))], p):
            risks[i], best[i] = _polished(f, x0, risks[i], best[i])
        if risks[i] < lattice:
            risks[i], best[i] = _polished(f, best[i], risks[i], best[i])
        if lattice < np.inf:
            gaps[i] = lattice - risks[i]
    return risks, best, gaps


# What `bayes_risk` raises, per tier, when p has no finite Bayes risk.
_UNBOUNDED = {
    "column-min": "no action has finite expected loss under p",
    "proper-fixed-point": "expected loss at the honest report is not finite",
    "numeric-search": "numeric search found no finite expected loss",
}


def _solve(l: LossSpec, rows: np.ndarray):
    """Bayes risk of each row of an (R, n) stack: (method, risks, minimizers, grid gaps (NaN for none) or None).

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
    return (method, *_numeric_bayes(l, rows))


def bayes_risk(l: LossSpec, p, seed: int = 0) -> BayesResult:
    """Minimal expected loss against distribution p, with its minimizer: `_solve` of one row.

    Exact for action matrices (column minimum, ties to the lowest index) and
    for proper rules (evaluate at Q = P); an approximate lattice-and-polish
    search for arbitrary scoring rules.  A p whose length differs from the
    loss's declared alphabet size raises ParameterOutOfRange, and one that is
    not a distribution within SIMPLEX_TOL raises NegativeMass or
    NotNormalized (p is checked, never renormalized).  A risk with no finite
    value (for the numeric search, no lattice point or polish with a finite
    expected loss) raises UnboundedBelow, and a seed that is negative or not
    an integer ParameterOutOfRange, before any work.  No tier uses the seed:
    every one is deterministic, and the seed is only checked.

    Known cost: the numeric search scores every point of its lattice, at
    most `GRID_BLOCK` of them, once per call (once per stack in `_solve`),
    and keeps each n's lattice for the process (GRID_BLOCK n floats at most;
    about 1 MB at n = 4).  One call at n = 4 with a `vector_fn` raises the
    peak RSS by about 4.4 MB over the 30 MB of Python, numpy and this
    package loaded.  A rule given only an `eval_fn` scores the lattice by one
    Python call per outcome and point, so one call takes about 0.3 s at n = 4
    and 0.35 s at n = 5 and 6 on a 2-core Xeon VM.  The polish runs at most
    400 n Nelder-Mead iterations per start, four starts per row, each scoring
    1 to n + 2 points on Python floats (numpy only to order the vertices); a
    forecast the row has already scored costs its projection and a lookup.
    """
    _check_count("seed", seed)
    pv = _as_probs(p)
    _tier(l, pv.shape[0])  # the length is checked before the mass
    _simplex(pv, 1)
    method, risks, minimizers, gaps = _solve(l, pv[None])
    if not np.isfinite(risks[0]):
        raise UnboundedBelow(_UNBOUNDED[method])
    m, gap = minimizers[0], None if gaps is None or np.isnan(gaps[0]) else float(gaps[0])
    return BayesResult(float(risks[0]), Dist(m) if m.ndim else int(m), method, gap)


def v_envelope(l: LossSpec, p) -> float:
    """Negative Bayes envelope V(P) = -inf_a E_P[ell(X, a)]; convex and bounded.

    Raises as `bayes_risk` does for a p that is not a distribution.
    """
    return -bayes_risk(l, p).risk


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


_PROPRIETY_TOL = 1e-9  # how far a dishonest report may beat the honest one in `audit_propriety`


def audit_propriety(l: LossSpec, trials: int = 100, seed: int = 0, n: Optional[int] = None) -> ProprietyReport:
    """Check E_P[ell(X,P)] <= E_P[ell(X,Q)] + 1e-9 on random P against random and grid Q.

    Returns the worst (most negative) margin seen, the earliest of equal ones
    (NaN never counts); raises NotProper with the first trial's first
    dishonest report that strictly wins.  Trials run in blocks of at most
    3 `GRID_BLOCK` floats per (trial, candidate, outcome) stack (one trial if
    it is larger), one `loss_vector` batch each, with the draws and bits of
    one trial at a time.  A hit costs the rest of its block: an `eval_fn`-only
    rule may be called more often, and an error the rule raises on any
    forecast of the block is raised in place of the hit.  Reports hold
    copies.  An `n` that differs from the rule's declared alphabet size raises
    ParameterOutOfRange, as in `bayes_risk`, and so do an `n` that is not an
    integer >= 2, `trials` that is not an integer >= 1 and a seed that is
    negative or not an integer, before any work.
    """
    _check_count("seed", seed)
    _check_count("trials", trials, least=1)
    if n is not None:
        _check_count("n", n, least=2)
    if isinstance(l, ActionMatrixLoss):
        raise ParameterOutOfRange("propriety is defined for simplex-action rules")
    if n is not None and l.n is not None and n != l.n:
        raise ParameterOutOfRange(f"audit asked for {n} symbols but loss expects {l.n}")
    size = n or l.n
    if size is None:
        raise ParameterOutOfRange("alphabet size unknown; pass n=")
    rng = np.random.default_rng(seed)
    fixed = np.concatenate([np.full((1, size), 1.0 / size), np.eye(size)] + ([_one_block_grid(size, 20)] if size <= 3 else []))
    per_trial = 8 + len(fixed)  # a trial's candidates: its 8 random Q, then the fixed ones
    block = max(1, 3 * GRID_BLOCK // (per_trial * size))  # each (b, C, n) stack about 3 GRID_BLOCK floats
    worst, worst_p, worst_q = np.inf, None, None
    for start in range(0, trials, block):
        draws = rng.dirichlet(np.ones(size), size=(min(block, trials - start), 9))  # each trial's P, then its Q
        ps, cands = draws[:, 0], np.concatenate([draws[:, 1:], np.broadcast_to(fixed, (len(draws), *fixed.shape))], 1)
        honest = np.array([_expected_scoring_loss(l, p, p) for p in ps])
        vec, bad = _scored(l, cands.reshape(-1, size))
        margins = _masked_risk(ps[:, None], vec.reshape(cands.shape), bad.reshape(cands.shape)) - honest[:, None]
        hits = np.flatnonzero(margins < -_PROPRIETY_TOL)
        k = int(hits[0]) if hits.size else int(np.argmin(np.where(np.isnan(margins), np.inf, margins)))
        t, j = divmod(k, per_trial)
        if hits.size:
            raise NotProper(p=ps[t].copy(), q=cands[t, j].copy(), margin=float(margins[t, j]))
        if margins[t, j] < worst:  # copies: a view would keep the whole block alive
            worst, worst_p, worst_q = margins[t, j], ps[t].copy(), cands[t, j].copy()
    return ProprietyReport(trials=trials, worst_margin=float(worst), worst_p=worst_p, worst_q=worst_q)
