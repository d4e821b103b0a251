"""Directed information, the conservation law, transfer entropy, and
Geweke's linear-Gaussian causality measure.

Finite-alphabet quantities are computed by exact enumeration of the
sequence space: a joint Markov model is unrolled into the full
distribution over (X^n, Y^n) and every term is an exact entropy of a
marginal.  This makes identities like the conservation law hard numeric
tests rather than statistical ones.  Geweke's measure is the one
continuous-valued quantity: the restricted prediction variance comes from
exact autocovariances via Levinson-Durbin, never from simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .errors import HorizonTooLarge, NotStationary, ParameterOutOfRange
from .prob import entropy

STATE_LIMIT = 10**7


@dataclass(frozen=True)
class MarkovJointProcess:
    """A jointly Markov pair process on finite alphabets.

    States are pairs z = (x, y) flattened as z = x * ny + y.  `initial` is
    the distribution of (X_1, Y_1); `kernel[z, z']` is the transition
    probability to the next pair.
    """

    nx: int
    ny: int
    initial: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        init = np.asarray(self.initial, dtype=float).reshape(-1)
        ker = np.asarray(self.kernel, dtype=float)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "kernel", ker)
        init.setflags(write=False)
        ker.setflags(write=False)
        q = self.nx * self.ny
        if init.shape != (q,) or ker.shape != (q, q):
            raise ParameterOutOfRange(
                f"initial must have shape ({q},) and kernel ({q}, {q})"
            )
        if not (np.isfinite(init).all() and np.isfinite(ker).all()):
            raise ParameterOutOfRange("initial and kernel entries must be finite")
        if np.any(init < -1e-12) or abs(init.sum() - 1.0) > 1e-9:
            raise ParameterOutOfRange("initial is not a distribution")
        if np.any(ker < -1e-12) or np.any(np.abs(ker.sum(axis=1) - 1.0) > 1e-9):
            raise ParameterOutOfRange("kernel rows are not distributions")

    def stationary(self) -> np.ndarray:
        """A stationary distribution of the pair kernel."""
        q = self.kernel.shape[0]
        a = np.vstack([self.kernel.T - np.eye(q), np.ones(q)])
        b = np.concatenate([np.zeros(q), [1.0]])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.maximum(pi, 0.0)
        return pi / pi.sum()

    def is_stationary(self, tol: float = 1e-9) -> bool:
        return bool(np.abs(self.initial @ self.kernel - self.initial).max() <= tol)


@dataclass(frozen=True)
class ExplicitProcess:
    """A full distribution over (X^n, Y^n), axes ordered x1, y1, x2, y2, ..."""

    nx: int
    ny: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", t)
        t.setflags(write=False)
        if t.ndim % 2 != 0:
            raise ParameterOutOfRange("table needs an (x, y) axis pair per step")
        if not np.isfinite(t).all():
            raise ParameterOutOfRange("table entries must be finite")
        if abs(t.sum() - 1.0) > 1e-9 or np.any(t < -1e-12):
            raise ParameterOutOfRange("table is not a distribution")

    @property
    def horizon(self) -> int:
        return self.table.ndim // 2


ProcessModel = Union[MarkovJointProcess, ExplicitProcess]


def unroll(m: MarkovJointProcess, n: int, state_limit: int = STATE_LIMIT) -> ExplicitProcess:
    """Expand a Markov model into the explicit sequence distribution at horizon n."""
    if n < 1:
        raise ParameterOutOfRange(f"horizon must be >= 1, got {n}")
    q = m.nx * m.ny
    if q**n > state_limit:
        raise HorizonTooLarge(
            f"sequence space {q}**{n} exceeds the enumeration bound {state_limit}"
        )
    dist = m.initial.copy()  # flat over pair states, shape (q,)*i flattened
    for _ in range(n - 1):
        dist = (dist[..., None] * m.kernel).reshape(dist.shape + (q,))
    shape = ()
    for _ in range(n):
        shape += (m.nx, m.ny)
    return ExplicitProcess(nx=m.nx, ny=m.ny, table=dist.reshape(shape))


def _prepare(m: ProcessModel, n: int, state_limit: int) -> ExplicitProcess:
    if isinstance(m, MarkovJointProcess):
        return unroll(m, n, state_limit=state_limit)
    if n > m.horizon:
        raise HorizonTooLarge(f"explicit model has horizon {m.horizon}, requested {n}")
    if n < m.horizon:
        keep = tuple(range(2 * n))
        drop = tuple(ax for ax in range(m.table.ndim) if ax not in keep)
        return ExplicitProcess(nx=m.nx, ny=m.ny, table=m.table.sum(axis=drop))
    return m


def _h(proc: ExplicitProcess, axes: tuple[int, ...], cache: Optional[dict] = None) -> float:
    """Entropy of the marginal on the given axes (x_i at 2i, y_i at 2i+1).

    The same marginal entropies appear in several terms of each identity;
    passing a dict as cache memoizes them for the duration of one call.
    """
    if not axes:
        return 0.0
    key = tuple(sorted(axes))
    if cache is not None and key in cache:
        return cache[key]
    drop = tuple(ax for ax in range(proc.table.ndim) if ax not in axes)
    marg = proc.table.sum(axis=drop) if drop else proc.table
    out = entropy(marg.reshape(-1))
    if cache is not None:
        cache[key] = out
    return out


def _x_axes(i: int) -> tuple[int, ...]:
    return tuple(2 * k for k in range(i))


def _y_axes(i: int) -> tuple[int, ...]:
    return tuple(2 * k + 1 for k in range(i))


def directed_info(m: ProcessModel, n: int, state_limit: int = STATE_LIMIT) -> float:
    """I(X^n -> Y^n) = sum_i I(X^i; Y_i | Y^{i-1}), exactly."""
    proc = _prepare(m, n, state_limit)
    cache: dict = {}
    total = 0.0
    for i in range(1, n + 1):
        total += (
            _h(proc, _x_axes(i) + _y_axes(i - 1), cache)
            + _h(proc, _y_axes(i), cache)
            - _h(proc, _x_axes(i) + _y_axes(i), cache)
            - _h(proc, _y_axes(i - 1), cache)
        )
    return total


def causally_cond_entropy(m: ProcessModel, n: int, state_limit: int = STATE_LIMIT) -> float:
    """H(Y^n || X^n) = sum_i H(Y_i | Y^{i-1}, X^i), exactly."""
    proc = _prepare(m, n, state_limit)
    cache: dict = {}
    total = 0.0
    for i in range(1, n + 1):
        total += _h(proc, _x_axes(i) + _y_axes(i), cache) - _h(proc, _x_axes(i) + _y_axes(i - 1), cache)
    return total


def reverse_delayed_di(m: ProcessModel, n: int, state_limit: int = STATE_LIMIT) -> float:
    """I(Y^{n-1} -> X^n) = sum_i [H(X_i | X^{i-1}) - H(X_i | X^{i-1}, Y^{i-1})]."""
    proc = _prepare(m, n, state_limit)
    cache: dict = {}
    total = 0.0
    for i in range(1, n + 1):
        total += (
            _h(proc, _x_axes(i), cache)
            - _h(proc, _x_axes(i - 1), cache)
            - _h(proc, _x_axes(i) + _y_axes(i - 1), cache)
            + _h(proc, _x_axes(i - 1) + _y_axes(i - 1), cache)
        )
    return total


def _delayed_forward_di(proc: ExplicitProcess, n: int, cache: Optional[dict] = None) -> float:
    """I(X^{n-1} -> Y^n) = sum_i I(X^{i-1}; Y_i | Y^{i-1})."""
    total = 0.0
    for i in range(1, n + 1):
        total += (
            _h(proc, _x_axes(i - 1) + _y_axes(i - 1), cache)
            - _h(proc, _y_axes(i - 1), cache)
            - _h(proc, _x_axes(i - 1) + _y_axes(i), cache)
            + _h(proc, _y_axes(i), cache)
        )
    return total


def _instantaneous(proc: ExplicitProcess, n: int, cache: Optional[dict] = None) -> float:
    """sum_i I(X_i; Y_i | X^{i-1}, Y^{i-1})."""
    total = 0.0
    for i in range(1, n + 1):
        total += (
            _h(proc, _x_axes(i) + _y_axes(i - 1), cache)
            + _h(proc, _x_axes(i - 1) + _y_axes(i), cache)
            - _h(proc, _x_axes(i) + _y_axes(i), cache)
            - _h(proc, _x_axes(i - 1) + _y_axes(i - 1), cache)
        )
    return total


@dataclass(frozen=True)
class DIReport:
    """Directed-information decomposition of the total dependence (nats).

    The conservation law says total_mi = forward + reverse_delayed, and in
    refined form total_mi = delayed_forward + reverse_delayed +
    instantaneous; the residuals record how exactly the identity held.
    """

    forward: float
    reverse_delayed: float
    instantaneous: float
    total_mi: float
    delayed_forward: float
    residual: float
    residual_refined: float


def conservation_check(m: ProcessModel, n: int, state_limit: int = STATE_LIMIT) -> DIReport:
    """Both forms of the conservation law, with the two sides computed independently."""
    proc = _prepare(m, n, state_limit)
    forward = directed_info(proc, n)
    reverse = reverse_delayed_di(proc, n)
    cache: dict = {}
    inst = _instantaneous(proc, n, cache)
    delayed_fwd = _delayed_forward_di(proc, n, cache)
    total = (
        _h(proc, _x_axes(n), cache)
        + _h(proc, _y_axes(n), cache)
        - _h(proc, _x_axes(n) + _y_axes(n), cache)
    )
    return DIReport(
        forward=forward,
        reverse_delayed=reverse,
        instantaneous=inst,
        total_mi=total,
        delayed_forward=delayed_fwd,
        residual=abs(total - forward - reverse),
        residual_refined=abs(total - delayed_fwd - reverse - inst),
    )


def granger_noncausal(m: ProcessModel, n: int, tol: float = 1e-9) -> bool:
    """True when Y does not Granger-cause X at horizon n (zero delayed reverse DI)."""
    return reverse_delayed_di(m, n) <= tol


def transfer_entropy(m: MarkovJointProcess, direction: str = "y->x", tol: float = 1e-9) -> float:
    """Schreiber's single-stage stationary term, e.g. I(Y_0; X_1 | X_0) for y->x.

    Requires the model to start in its stationary law; at stationarity this
    is the one-step causal information flow.
    """
    if not isinstance(m, MarkovJointProcess):
        raise ParameterOutOfRange("transfer entropy needs a Markov joint model")
    if not m.is_stationary(tol=tol):
        raise NotStationary("initial distribution is not stationary for the kernel")
    if direction not in ("y->x", "x->y"):
        raise ParameterOutOfRange(f"direction must be 'y->x' or 'x->y', got {direction!r}")
    # joint of (X_0, Y_0, X_1, Y_1)
    two = (m.initial[:, None] * m.kernel).reshape(m.nx, m.ny, m.nx, m.ny)
    if direction == "y->x":
        j = two.sum(axis=3)  # axes (cond=x0, b=y0, c=x1)
    else:
        j = two.sum(axis=2).transpose(1, 0, 2)  # axes (cond=y0, b=x0, c=y1)

    def h(t, keep):
        drop = tuple(ax for ax in range(t.ndim) if ax not in keep)
        s = t.sum(axis=drop) if drop else t
        return entropy(s.reshape(-1))

    # I(B; C | A) with axes (A, B, C)
    return h(j, (0, 1)) + h(j, (0, 2)) - h(j, (0, 1, 2)) - h(j, (0,))


@dataclass(frozen=True)
class DiRateResult:
    """Directed-information rate estimate from successive finite-horizon increments."""

    rate: float
    converged: bool
    horizon: int
    last_gap: float


def di_rate(
    m: MarkovJointProcess,
    direction: str = "y->x",
    max_n: int = 16,
    tol: float = 1e-6,
    state_limit: int = STATE_LIMIT,
) -> DiRateResult:
    """lim (1/n) of the delayed directed information, via stabilized increments.

    The prefix distribution is grown one step at a time and the per-step
    increment of I(Y^{n-1} -> X^n) read off it, so horizon n costs one
    kernel extension rather than a fresh unroll.  Returns the latest
    increment once consecutive increments agree within tol; if the horizon
    cap or the enumeration bound is hit first, the best estimate is
    returned with converged=False.
    """
    if not m.is_stationary():
        raise NotStationary("initial distribution is not stationary for the kernel")
    if direction not in ("y->x", "x->y"):
        raise ParameterOutOfRange(f"direction must be 'y->x' or 'x->y', got {direction!r}")
    if max_n < 2:
        raise ParameterOutOfRange(f"max_n must be >= 2, got {max_n}")
    model = m if direction == "y->x" else _swap_roles(m)
    q = model.nx * model.ny
    dist = model.initial.copy()  # flat over pair states, length q**i
    prev_inc: Optional[float] = None
    inc = 0.0
    horizon = 1
    for n in range(2, max_n + 1):
        if q**n > state_limit:
            return DiRateResult(rate=inc, converged=False, horizon=horizon, last_gap=np.inf)
        dist = (dist[..., None] * model.kernel).reshape(dist.shape + (q,))
        shape = ()
        for _ in range(n):
            shape += (model.nx, model.ny)
        proc = ExplicitProcess(nx=model.nx, ny=model.ny, table=dist.reshape(shape))
        inc_n = (
            _h(proc, _x_axes(n))
            - _h(proc, _x_axes(n - 1))
            - _h(proc, _x_axes(n) + _y_axes(n - 1))
            + _h(proc, _x_axes(n - 1) + _y_axes(n - 1))
        )
        if prev_inc is not None and abs(inc_n - prev_inc) <= tol:
            return DiRateResult(rate=inc_n, converged=True, horizon=n, last_gap=abs(inc_n - prev_inc))
        prev_inc, inc, horizon = inc_n, inc_n, n
    gap = np.inf if prev_inc is None else 0.0
    return DiRateResult(rate=inc, converged=False, horizon=horizon, last_gap=gap)


def _swap_roles(m: MarkovJointProcess) -> MarkovJointProcess:
    """The same process with X and Y exchanged."""
    perm = (
        np.arange(m.nx * m.ny).reshape(m.nx, m.ny).T.reshape(-1)
    )  # z=(x,y) -> z'=(y,x)
    return MarkovJointProcess(
        nx=m.ny,
        ny=m.nx,
        initial=m.initial[perm],
        kernel=m.kernel[np.ix_(perm, perm)],
    )


# ---------------------------------------------------------------------------
# Geweke's measure for bivariate Gaussian VAR models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarModel:
    """A stationary bivariate VAR(p): z_t = sum_k A_k z_{t-k} + eps_t.

    Component 0 is x, component 1 is y; `sigma` is the innovation
    covariance.  Stationarity (companion spectral radius < 1) is enforced
    at construction.
    """

    coeffs: np.ndarray  # shape (p, 2, 2)
    sigma: np.ndarray  # shape (2, 2)

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if a.ndim == 2:
            a = a[None, :, :]
        s = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "coeffs", a)
        object.__setattr__(self, "sigma", s)
        a.setflags(write=False)
        s.setflags(write=False)
        if a.ndim != 3 or a.shape[1:] != (2, 2):
            raise ParameterOutOfRange("coeffs must have shape (p, 2, 2)")
        if s.shape != (2, 2) or abs(s[0, 1] - s[1, 0]) > 1e-12:
            raise ParameterOutOfRange("sigma must be symmetric 2x2")
        if np.any(np.linalg.eigvalsh(s) <= 0):
            raise ParameterOutOfRange("sigma must be positive definite")
        if max(abs(np.linalg.eigvals(self.companion()))) >= 1.0:
            raise NotStationary("companion spectral radius must be < 1")

    @property
    def order(self) -> int:
        return self.coeffs.shape[0]

    def companion(self) -> np.ndarray:
        p = self.order
        f = np.zeros((2 * p, 2 * p))
        f[:2, :] = np.concatenate([self.coeffs[k] for k in range(p)], axis=1)
        if p > 1:
            f[2:, :-2] = np.eye(2 * (p - 1))
        return f


def var_autocovariances(v: VarModel, lags: int) -> np.ndarray:
    """Exact autocovariance matrices Gamma(0..lags) of the stationary VAR."""
    p = v.order
    f = v.companion()
    q = np.zeros((2 * p, 2 * p))
    q[:2, :2] = v.sigma
    s = solve_discrete_lyapunov(f, q)
    gammas = [s[:2, 2 * h: 2 * h + 2].copy() for h in range(min(p, lags + 1))]
    while len(gammas) <= lags:
        h = len(gammas)
        g = np.zeros((2, 2))
        for k in range(p):
            g += v.coeffs[k] @ gammas[h - k - 1]
        gammas.append(g)
    return np.array(gammas[: lags + 1])


def _levinson_variance(r: np.ndarray, k_tol: float) -> tuple[float, bool]:
    """Infinite-order linear prediction error variance via Levinson-Durbin.

    Runs over the supplied autocovariances r[0..L]; returns (variance,
    settled) where settled means the reflection coefficient magnitude fell
    below k_tol before the lags ran out (the remaining orders cannot move
    the variance materially).
    """
    err = float(r[0])
    a = np.zeros(0)
    for m in range(1, len(r)):
        acc = float(r[m]) - float(np.dot(a, r[m - 1: 0: -1]))
        k = acc / err
        new_a = np.empty(m)
        new_a[m - 1] = k
        if m > 1:
            new_a[: m - 1] = a - k * a[::-1]
        a = new_a
        err *= 1.0 - k * k
        if err <= 0:
            raise NotStationary("prediction error variance hit zero; model is degenerate")
        if abs(k) < k_tol:
            return err, True
    return err, False


def geweke_F(
    v: VarModel,
    direction: str = "y->x",
    k_tol: float = 1e-10,
    max_order: int = 10_000,
) -> float:
    """F_{Y => X} = ln[ sigma^2(X_t | X-past) / sigma^2(X_t | X,Y-past) ].

    The full-model residual variance is the x-component of the innovation
    covariance; the restricted variance comes from the exact stationary
    autocovariance sequence of x alone, run through Levinson-Durbin until
    the reflection coefficients die out (capped at max_order lags).

    Units: Geweke's log variance ratio.  For jointly Gaussian processes
    this equals twice the directed-information rate in nats per step; no
    conversion is applied here.
    """
    if direction not in ("y->x", "x->y"):
        raise ParameterOutOfRange(f"direction must be 'y->x' or 'x->y', got {direction!r}")
    comp = 0 if direction == "y->x" else 1
    full = float(v.sigma[comp, comp])
    # Autocovariances are extended in blocks until the recursion stops on its own.
    lags = 64
    while True:
        r = var_autocovariances(v, lags)[:, comp, comp]
        restricted, settled = _levinson_variance(r, k_tol=k_tol)
        if settled or lags >= max_order:
            break
        lags = min(max_order, lags * 4)
    return float(np.log(restricted / full))
