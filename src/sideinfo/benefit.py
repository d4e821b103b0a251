"""Benefit of side information C(loss, P_XY) and its convex-function form.

C = R(P_X) - sum_y P_Y(y) R(P_{X|Y=y}), the drop in optimal risk from
observing Y, equals the Jensen gap of the normalized convex function G
built from the Bayes envelope.  Every C in the package comes from one
kernel, `_c_stack`, over a stack of joints (K, a, b); C of a joint is the
same bits alone (`c_value`, K = 1) or in any stack.  `benefit` evaluates
the gap route on those same solves, so its residual measures rounding of
the normalized-G form, not a second computation.  `benefit_from_G` is the
gap route for any convex oracle; `benefit_from_G(g_normalized(l), j)` is
the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRange, UnboundedBelow, _check_count
from .losses import LossSpec, _masked_risk, _solve, v_envelope
from .prob import (
    ConvexOracle,
    Dist,
    Joint,
    _as_probs,
    condition_on_y,
    jensen_gap,
    marginals,
    slice_given_w,
    w_marginal,
)


@dataclass(frozen=True)
class BenefitReport:
    """C(loss, joint) with its decomposition.

    c_value = risk_no_side - risk_with_side, in nats for log loss and in
    loss units otherwise.  decomposition_residual is the absolute gap
    between this and the Jensen gap of the normalized G on the same Bayes
    solves, so it measures float rounding and should sit at that scale.
    """

    c_value: float
    risk_no_side: float
    risk_with_side: float
    per_y_minimizers: dict
    decomposition_residual: float


def _c_stack(l: LossSpec, tables: np.ndarray):
    """C for each joint of a (K, a, b) stack, as (c, rows, risks, minimizers, y, P_Y(y)).

    `rows` holds P_X of every joint, then P_{X|Y=y} for every (k, y) with
    P_Y(y) > 0 in (k, y) order, and nothing else; `risks` and `minimizers`
    are theirs, solved as one stack (`losses._solve`), and `y`, `P_Y(y)`
    label the conditionals.  C is R(P_X), then c -= P_Y(y) R(P_{X|Y=y}) for
    y in order.  P_Y is a left fold over x, so zero rows appended to a
    table add +0.0 to it, whatever |Y| is.  A non-finite risk leaves C
    non-finite (see `_finite`).
    """
    if tables.ndim != 3:
        raise ValueError("C needs 2-axis joints; use conditional_benefit for a W axis")
    tables = np.ascontiguousarray(tables)  # the marginal sums take one order, whatever the layout
    k, a, b = tables.shape
    py = sum(tables.transpose(1, 0, 2), np.zeros((k, b)))
    kk, yy = np.nonzero(py > 0.0)
    w = py[kk, yy]
    rows = np.concatenate([tables.sum(axis=2), tables[kk, :, yy] / w[:, None]])
    _, risks, minimizers, _ = _solve(l, rows)
    given_y = np.zeros((k, b))  # a zero-mass y keeps weight 0 and risk 0, so c -= 0 leaves c as it is
    given_y[kk, yy] = risks[k:]
    c = risks[:k].copy()
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, still non-finite
        for y in range(b):
            c -= py[:, y] * given_y[:, y]
    return c, rows, risks, minimizers, yy, w


def _finite(c: np.ndarray) -> np.ndarray:
    """c, after checking that no C is non-finite (a Bayes risk with no finite value)."""
    if not np.isfinite(c).all():
        raise UnboundedBelow("a Bayes risk of the joint has no finite value")
    return c


def _vertex_risks(l: LossSpec, n: int) -> np.ndarray:
    """R(delta_i) for each of n outcomes i; G(P) = -R(P) + sum_i R(delta_i) p_i."""
    return _finite(_solve(l, np.eye(n))[1])


def benefit(l: LossSpec, j: Joint) -> BenefitReport:
    """The benefit of observing Y when predicting X under loss l.

    Zero-probability side-information symbols are skipped; their
    conditionals are never formed.  Values are in nats for log loss and in
    loss units otherwise; the CLI's `--scale` converts them afterwards.
    """
    a = _vertex_risks(l, j.nx)
    c, rows, risks, minimizers, ys, ws = _c_stack(l, j.table[None])
    c = float(_finite(c)[0])
    lin = _masked_risk(rows, a, np.isinf(a))  # sum_i R(delta_i) q_i for every solved row
    with_side = mixed_g = 0.0
    for i, w in enumerate(ws, start=1):
        with_side += w * risks[i]
        mixed_g += w * (-risks[i] + lin[i])
    via_gap = mixed_g - (-risks[0] + lin[0])
    return BenefitReport(
        c_value=c,
        risk_no_side=float(risks[0]),
        risk_with_side=with_side,
        per_y_minimizers={int(y): Dist(m) if m.ndim else int(m) for y, m in zip(ys, minimizers[1:])},
        decomposition_residual=abs(c - via_gap),
    )


def c_value(l: LossSpec, j: Joint, seed: int = 0) -> float:
    """Fast path: just the scalar C, skipping the cross-check and report.

    A seed that is negative or not an integer raises ParameterOutOfRange
    before any work; no Bayes tier uses it, so it is only checked.
    """
    _check_count("seed", seed)
    return float(_finite(_c_stack(l, j.table[None])[0])[0])


def numeric_subgradient(fn, p) -> tuple[np.ndarray, float]:
    """Central-difference subgradient of fn on the simplex at p.

    Differences are taken along the feasible directions e_i - p (projected
    onto the simplex tangent space).  Returns (gradient, kink_gap) where
    kink_gap is the largest disagreement between one-sided slopes; values
    above ~1e-3 flag a non-differentiable point (piecewise-linear envelopes
    of matrix losses have these).
    """
    step = 1e-6
    pv = _as_probs(p)
    n = pv.shape[0]
    f0 = fn(pv)
    grad = np.zeros(n)
    kink = 0.0
    for i in range(n):
        d = -pv.copy()
        d[i] += 1.0  # direction e_i - p; p + h*d stays on the simplex for h in [0, 1]
        fwd = (fn(pv + step * d) - f0) / step
        # backward step leaves the simplex when coordinate i is within step of 0
        if pv[i] * (1.0 + step) >= step:
            bwd = (f0 - fn(pv - step * d)) / step
            grad[i] = 0.5 * (fwd + bwd)
            kink = max(kink, abs(fwd - bwd))
        else:
            grad[i] = fwd
    return grad, kink


def g_normalized(l: LossSpec) -> ConvexOracle:
    """The Bayes envelope normalized to vanish at the vertices.

    G(P) = V(P) - sum_i V(delta_i) p_i, where V is the negative Bayes
    envelope of l.  G is convex, G(delta_i) = 0, and the benefit equals the
    Jensen gap of G.  The subgradient is numeric (central differences on
    tangent directions), so expect kinks for matrix losses.
    """
    if l.n is None:
        raise ParameterOutOfRange("loss has no declared alphabet size; pass n= to savage_from_G")
    a = -_vertex_risks(l, l.n)  # V(delta_i)

    def value(q: np.ndarray) -> float:
        qv = _as_probs(q)
        return v_envelope(l, qv) - float(np.dot(a, qv))

    def subgradient(q: np.ndarray) -> np.ndarray:
        return numeric_subgradient(value, q)[0]

    return ConvexOracle(value=value, subgradient=subgradient, symmetric=False)


def benefit_from_G(g: ConvexOracle, j: Joint) -> float:
    """C via Theorem-form: sum_y P_Y(y) G(P_{X|Y=y}) - G(P_X)."""
    py = marginals(j)[1].probs
    live = [y for y in range(j.ny) if py[y] > 0.0]
    return jensen_gap(g, py[live], [condition_on_y(j, y) for y in live])


def conditional_benefit(l: LossSpec, j: Joint) -> float:
    """Benefit of Y for predicting X given common side information W.

    Computed as sum_w P_W(w) * benefit(l, P_{XY|W=w}), one kernel stack over
    the w of positive mass; equals the drop in optimal risk from
    W-measurable to (Y,W)-measurable predictors.
    """
    if not j.has_w:
        raise ValueError("conditional benefit needs a 3-axis joint")
    pw = w_marginal(j).probs
    live = [w for w in range(j.nw) if pw[w] > 0.0]
    c = _finite(_c_stack(l, np.stack([slice_given_w(j, w).table for w in live]))[0])
    total = 0.0
    for w, cw in zip(live, c):
        total += pw[w] * cw
    return total
