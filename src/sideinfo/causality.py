"""Directed information, the conservation law, transfer entropy, and
Geweke's linear-Gaussian causality measure.

Every finite-alphabet measure here is a form of directed information: a
signed sum of prefix entropies H(X^a, Y^b) of the pair process (Massey
1990).  `_prefix_entropies` computes the table of those entropies at a
horizon exactly, and each measure is a sum of per-step terms read from that
one table.  For a joint Markov model the table comes from a forward
recursion, never from the sequence space: the pair terms H(X^i, Y^i),
H(X^i, Y^{i-1}) and H(X^{i-1}, Y^i) are the running pair marginal dotted
with row entropies of the kernel, and H(X^i) and H(Y^i) come from forward
arrays P(X^{i-1}, X_i, Y_i) and their mirror (Rabiner 1989).  Their size is
at most max(nx, ny)^n * nx * ny, and that is the enumeration bound checked
against STATE_LIMIT.  An explicit table (`ExplicitProcess`, the way to
give a process that is not Markov) is summed directly, and its own horizon
bounds the one requested.  Exactness makes identities like the conservation
law hard numeric tests rather than statistical ones.  Geweke's measure is
the one continuous-valued quantity: the restricted prediction variance
comes from the innovations Riccati recursion on the VAR's companion form,
started at the exact stationary covariance and stopped by GEWEKE_K_TOL or
GEWEKE_MAX_ORDER, never from simulation; numpy is the only numeric
dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Union

import numpy as np

from .errors import HorizonTooLarge, NotStationary, ParameterOutOfRange, _check_count, _check_tol
from .prob import entropy

STATE_LIMIT = 10**7  # the most entries a Markov model's forward arrays may hold
GEWEKE_K_TOL = 1e-10  # geweke_F stops once a Riccati step lowers the variance by less than this squared, relative
GEWEKE_MAX_ORDER = 10_000  # the most Riccati steps geweke_F takes
ZERO_TOL = 1e-9  # a stationarity residual max |pi K - pi|, or a delayed reverse DI in nats, at most this counts as zero


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
        _check_count("nx", self.nx, least=1)
        _check_count("ny", self.ny, least=1)
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

    def is_stationary(self) -> bool:
        """True when initial K is initial within ZERO_TOL in every entry."""
        return bool(np.abs(self.initial @ self.kernel - self.initial).max() <= ZERO_TOL)


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
        if t.ndim < 2 or t.shape != (self.nx, self.ny) * (t.ndim // 2):
            raise ParameterOutOfRange(f"table shape {t.shape} is not (nx, ny) once per step")
        if not np.isfinite(t).all():
            raise ParameterOutOfRange("table entries must be finite")
        if abs(t.sum() - 1.0) > 1e-9 or np.any(t < -1e-12):
            raise ParameterOutOfRange("table is not a distribution")

    @property
    def horizon(self) -> int:
        return self.table.ndim // 2


ProcessModel = Union[MarkovJointProcess, ExplicitProcess]


def _forward_size(m: MarkovJointProcess, n: int) -> int:
    """max(nx, ny)^n * nx * ny, a bound on the entries of either forward array at horizon n."""
    return max(m.nx, m.ny) ** n * m.nx * m.ny


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row in nats (0 ln 0 = 0)."""
    return -(rows * np.log(np.where(rows > 0, rows, 1.0))).sum(axis=1)


def _coordinate_entropies(nc: int, no: int, initial: np.ndarray, kernel: np.ndarray) -> Iterator[float]:
    """Yield H(C^i) for i = 1, 2, ..., where C is the leading coordinate of each pair state.

    The forward array holds P(C_i, C^{i-1} = s, O_i), shape (nc, nc^{i-1}, no),
    with the prefixes s in a fixed order of no meaning to the entropy.
    """
    k3 = kernel.reshape(nc, no, nc * no)
    ones = np.ones(no)  # a product with ones sums the short o axis far faster than .sum(axis=2)
    fwd = initial.reshape(nc, 1, no)
    while True:
        yield entropy(fwd @ ones)
        # sum o_i out of P(c_i, s, o_i) K[(c_i, o_i), (c', o')]; the prefixes become (c_i, s)
        fwd = (fwd @ k3).reshape(-1, nc, no).transpose(1, 0, 2)


def _markov_steps(m: MarkovJointProcess) -> Iterator[dict]:
    """Yield the prefix entropies new at horizon i = 1, 2, ..., while i is within the bound.

    Horizon i adds the keys (i, i), (i, i - 1), (i - 1, i), (i, 0) and (0, i).
    """
    nx, ny, q = m.nx, m.ny, m.nx * m.ny
    k4 = m.kernel.reshape(nx, ny, nx, ny)
    # H(X_{i+1} | Z_i = z), H(Y_{i+1} | Z_i = z) and H(Z_{i+1} | Z_i = z), one column each
    cond = np.array([
        _row_entropies(k4.sum(axis=3).reshape(q, nx)),
        _row_entropies(k4.sum(axis=2).reshape(q, ny)),
        _row_entropies(m.kernel),
    ]).T
    xs = _coordinate_entropies(nx, ny, m.initial, m.kernel)
    ys = _coordinate_entropies(
        ny, nx, m.initial.reshape(nx, ny).T.reshape(q), k4.transpose(1, 0, 3, 2).reshape(q, q)
    )
    if _forward_size(m, 1) > STATE_LIMIT:
        return
    mu, hz = m.initial, entropy(m.initial)  # law of Z_i and H(Z^i)
    yield {(1, 0): next(xs), (0, 1): next(ys), (1, 1): hz}
    i = 2
    while _forward_size(m, i) <= STATE_LIMIT:
        hx, hy, hp = (mu @ cond).tolist()
        step = {(i, i - 1): hz + hx, (i - 1, i): hz + hy}
        hz += hp
        mu = mu @ m.kernel
        step[i, i], step[i, 0], step[0, i] = hz, next(xs), next(ys)
        yield step
        i += 1


def _prefix_entropies(m: ProcessModel, n: int) -> dict[tuple[int, int], float]:
    """{(a, b): H(X^a, Y^b)} for every prefix a measure reads up to horizon n.

    The keys are a = b, a = b +- 1, a = 0 and b = 0.  A Markov model runs the
    forward recursion, which raises HorizonTooLarge when its forward arrays
    (max(nx, ny)^n * nx * ny entries) exceed STATE_LIMIT.  An explicit table
    has each marginal taken from the previous one by summing off its trailing
    axis, so the table is the one large array.
    """
    _check_count("horizon", n, least=1)
    h = {(0, 0): 0.0}
    if isinstance(m, MarkovJointProcess):
        if _forward_size(m, n) > STATE_LIMIT:
            raise HorizonTooLarge(
                f"forward arrays of max({m.nx}, {m.ny})**{n} * {m.nx * m.ny} entries "
                f"exceed the enumeration bound {STATE_LIMIT}"
            )
        for step in islice(_markov_steps(m), n):
            h.update(step)
        return h
    if n > m.horizon:
        raise HorizonTooLarge(f"explicit model has horizon {m.horizon}, requested {n}")
    drop = tuple(range(2 * n, m.table.ndim))
    table = m.table.sum(axis=drop) if drop else m.table
    pair = table  # axes x1, y1, ..., x_i, y_i
    for i in range(n, 0, -1):
        h[i, i] = entropy(pair.reshape(-1))
        h[i - 1, i] = entropy(pair.sum(axis=-2).reshape(-1))
        pair = pair.sum(axis=-1)
        h[i, i - 1] = entropy(pair.reshape(-1))
        pair = pair.sum(axis=-1)
    xs = table.sum(axis=tuple(range(1, 2 * n, 2)))
    ys = table.sum(axis=tuple(range(0, 2 * n, 2)))
    for i in range(n, 1, -1):  # (1, 0) and (0, 1) came from the pair walk
        h[i, 0] = entropy(xs.reshape(-1))
        h[0, i] = entropy(ys.reshape(-1))
        xs, ys = xs.sum(axis=-1), ys.sum(axis=-1)
    return h


def _di_step(h: dict, i: int) -> float:
    """I(X^i; Y_i | Y^{i-1})."""
    return h[i, i - 1] + h[0, i] - h[i, i] - h[0, i - 1]


def _reverse_step(h: dict, i: int) -> float:
    """I(Y^{i-1}; X_i | X^{i-1})."""
    return h[i, 0] - h[i - 1, 0] - h[i, i - 1] + h[i - 1, i - 1]


def _delayed_forward_step(h: dict, i: int) -> float:
    """I(X^{i-1}; Y_i | Y^{i-1})."""
    return h[i - 1, i - 1] - h[0, i - 1] - h[i - 1, i] + h[0, i]


def _instantaneous_step(h: dict, i: int) -> float:
    """I(X_i; Y_i | X^{i-1}, Y^{i-1})."""
    return h[i, i - 1] + h[i - 1, i] - h[i, i] - h[i - 1, i - 1]


def _sum_steps(h: dict, n: int, step) -> float:
    return sum(step(h, i) for i in range(1, n + 1))


def directed_info(m: ProcessModel, n: int) -> float:
    """I(X^n -> Y^n) = sum_i I(X^i; Y_i | Y^{i-1}), exactly."""
    return _sum_steps(_prefix_entropies(m, n), n, _di_step)


def causally_cond_entropy(m: ProcessModel, n: int) -> float:
    """H(Y^n || X^n) = sum_i H(Y_i | Y^{i-1}, X^i), exactly."""
    h = _prefix_entropies(m, n)
    return sum(h[i, i] - h[i, i - 1] for i in range(1, n + 1))


def reverse_delayed_di(m: ProcessModel, n: int) -> float:
    """I(Y^{n-1} -> X^n) = sum_i [H(X_i | X^{i-1}) - H(X_i | X^{i-1}, Y^{i-1})]."""
    return _sum_steps(_prefix_entropies(m, n), n, _reverse_step)


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


def conservation_check(m: ProcessModel, n: int) -> DIReport:
    """Both forms of the conservation law at horizon n.

    Both sides of each identity are sums over one table of prefix entropies,
    so the law holds as a telescoping identity; the residuals measure the
    floating-point rounding of that sum, not a second computation.
    """
    h = _prefix_entropies(m, n)
    forward = _sum_steps(h, n, _di_step)
    reverse = _sum_steps(h, n, _reverse_step)
    inst = _sum_steps(h, n, _instantaneous_step)
    delayed_fwd = _sum_steps(h, n, _delayed_forward_step)
    total = h[n, 0] + h[0, n] - h[n, n]
    return DIReport(
        forward=forward,
        reverse_delayed=reverse,
        instantaneous=inst,
        total_mi=total,
        delayed_forward=delayed_fwd,
        residual=abs(total - forward - reverse),
        residual_refined=abs(total - delayed_fwd - reverse - inst),
    )


def granger_noncausal(m: ProcessModel, n: int) -> bool:
    """True when Y does not Granger-cause X at horizon n: the delayed reverse DI is at most ZERO_TOL nats."""
    return reverse_delayed_di(m, n) <= ZERO_TOL


def _is_y_to_x(direction: str) -> bool:
    """True for 'y->x', False for 'x->y'; any other direction raises ParameterOutOfRange."""
    if direction not in ("y->x", "x->y"):
        raise ParameterOutOfRange(f"direction must be 'y->x' or 'x->y', got {direction!r}")
    return direction == "y->x"


def _flow_step(m: MarkovJointProcess, direction: str):
    """Check a stationary-flow input; return the per-step DI term of its direction.

    The x->y (delayed forward) step is the y->x (reverse) step with X and Y swapped.
    """
    if not isinstance(m, MarkovJointProcess):
        raise ParameterOutOfRange("a stationary flow measure needs a Markov joint model")
    if not m.is_stationary():
        raise NotStationary("initial distribution is not stationary for the kernel")
    return _reverse_step if _is_y_to_x(direction) else _delayed_forward_step


def transfer_entropy(m: MarkovJointProcess, direction: str = "y->x") -> float:
    """Schreiber's single-stage stationary term, e.g. I(Y_0; X_1 | X_0) for y->x.

    Requires the model to start in its stationary law; at stationarity this
    is the one-step causal information flow, step 2 of the delayed reverse
    (y->x) or delayed forward (x->y) directed-information sum.
    """
    step = _flow_step(m, direction)
    return step(_prefix_entropies(m, 2), 2)


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
) -> DiRateResult:
    """lim (1/n) of the delayed directed information, via stabilized increments.

    The increment at horizon n is step n of I(Y^{n-1} -> X^n) for y->x, or
    of I(X^{n-1} -> Y^n) for x->y, read from one prefix-entropy table that
    grows a horizon at a time.  Returns the latest increment once
    consecutive increments agree within tol; if the horizon cap is reached,
    or the next horizon's forward arrays would exceed STATE_LIMIT, the
    latest increment is returned with converged=False; if not even the
    horizon-2 arrays fit, no increment is measured and HorizonTooLarge is
    raised.  last_gap is the last measured distance between consecutive
    increments, inf when only one was measured.  A max_n that is not an
    integer >= 2, or a tol that is not finite and >= 0, raises
    ParameterOutOfRange.
    """
    step = _flow_step(m, direction)
    _check_count("max_n", max_n, least=2)
    _check_tol(tol)
    steps = _markov_steps(m)
    h = {(0, 0): 0.0, **next(steps, {})}
    rate, gap, horizon = 0.0, np.inf, 1
    for n, new in zip(range(2, max_n + 1), steps):  # the table grows only while n is in range
        h.update(new)
        inc = step(h, n)
        if horizon > 1:  # an earlier increment was measured
            gap = abs(inc - rate)
            if gap <= tol:
                return DiRateResult(rate=inc, converged=True, horizon=n, last_gap=gap)
        rate, horizon = inc, n
    if horizon == 1:  # the horizon-2 arrays exceed STATE_LIMIT, so this raises HorizonTooLarge
        _prefix_entropies(m, 2)
    return DiRateResult(rate=rate, converged=False, horizon=horizon, last_gap=gap)


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
        if not (np.isfinite(a).all() and np.isfinite(s).all()):
            raise ParameterOutOfRange("coeffs and sigma entries must be finite")
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


def _restricted_variance(v: VarModel, comp: int) -> float:
    """Prediction error variance of component comp from its own past (see geweke_F).

    P starts at the stationary covariance Gamma0 = F Gamma0 F' + Q of the
    companion state; each innovations Riccati step (Anderson & Moore 1979)
    P <- F P F' + Q - (F P e)(F P e)' / P_ee conditions on one more past value.
    """
    f = v.companion()
    d = f.shape[0]
    q = np.zeros((d, d))
    q[:2, :2] = v.sigma
    p = np.linalg.solve(np.eye(d * d) - np.kron(f, f), q.reshape(-1)).reshape(d, d)
    err = float(p[comp, comp])
    for _ in range(GEWEKE_MAX_ORDER):
        fp = f @ p
        p = fp @ f.T + q - np.outer(fp[:, comp], fp[:, comp]) / err
        err, prev = float(p[comp, comp]), err
        if err <= 0:
            raise NotStationary("prediction error variance hit zero; model is degenerate")
        if 1.0 - err / prev < GEWEKE_K_TOL * GEWEKE_K_TOL:
            break
    return err


def geweke_F(v: VarModel, direction: str = "y->x") -> float:
    """F_{Y => X} = ln[ sigma^2(X_t | X-past) / sigma^2(X_t | X,Y-past) ].

    The full-model residual variance is the x-component of the innovation
    covariance.  The restricted variance is the prediction error of x from
    its own past, read off the innovations Riccati recursion on the
    companion form, one step per past value conditioned on (at most
    GEWEKE_MAX_ORDER steps).  The recursion stops once a step lowers that
    variance by a relative amount below GEWEKE_K_TOL**2: 1 - P_ee(m) /
    P_ee(m-1) is k_m**2 for Levinson-Durbin's reflection coefficient k_m,
    so in exact arithmetic this is Levinson's stop rule |k_m| <
    GEWEKE_K_TOL.  In float the relative drop resolves only to about
    1.1e-16, so a GEWEKE_K_TOL at or below about 1e-8 means "run until the
    variance stops falling in float": its 1e-10 then stops earlier than
    Levinson would (after at most 166 steps, against 220 orders, on the
    test and benchmark corpora) with the measure within 4e-14 of
    Levinson's.  At 1e-6 and above the stop order is Levinson's.

    Units: Geweke's log variance ratio.  For jointly Gaussian processes
    this equals twice the directed-information rate in nats per step; no
    conversion is applied here.
    """
    comp = 0 if _is_y_to_x(direction) else 1
    full = float(v.sigma[comp, comp])
    return float(np.log(_restricted_variance(v, comp) / full))
