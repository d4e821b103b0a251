"""Benefit of side information C(loss, P_XY) and its convex-function form.

C = R(P_X) - sum_y P_Y(y) R(P_{X|Y=y}), the drop in optimal risk from
observing Y, equals the Jensen gap of the normalized convex function G
built from the Bayes envelope.  `c_value` and `benefit` form C from one
solve of each point; `benefit` evaluates the gap route on those same
solves, so its residual measures rounding of the normalized-G form, not a
second computation.  `benefit_from_G` is the gap route for any convex
oracle; `benefit_from_G(g_normalized(l), j)` is the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRange
from .losses import LossSpec, bayes_risk, v_envelope
from .prob import (
    ConvexOracle,
    Joint,
    _as_probs,
    condition_on_y,
    jensen_gap,
    marginals,
    point_mass,
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


def _conditionals(j: Joint, py) -> list:
    """(y, P_Y(y), P_{X|Y=y}) for every y of positive mass; no other y is conditioned on."""
    return [(y, py.probs[y], condition_on_y(j, y)) for y in range(j.ny) if py.probs[y] > 0.0]


def _solve(l: LossSpec, j: Joint, seed: int):
    """C with its points, each solved once: (c, P_X, R(P_X), [(y, P_Y(y), P_{X|Y=y}, result)])."""
    px, py = marginals(j)
    base = bayes_risk(l, px, seed=seed)
    solved = [(y, w, q, bayes_risk(l, q, seed=seed)) for y, w, q in _conditionals(j, py)]
    c = base.risk
    for _, w, _, r in solved:
        c -= w * r.risk
    return c, px, base, solved


def _vertex_risks(l: LossSpec, seed: int) -> np.ndarray:
    """R(delta_i) for each outcome i; G(P) = -R(P) + sum_i R(delta_i) p_i."""
    if l.n is None:
        raise ParameterOutOfRange("loss has no declared alphabet size; pass n= to savage_from_G")
    return np.array([bayes_risk(l, point_mass(i, l.n), seed=seed).risk for i in range(l.n)])


def benefit(l: LossSpec, j: Joint, seed: int = 0, scale: float = 1.0) -> BenefitReport:
    """The benefit of observing Y when predicting X under loss l.

    Zero-probability side-information symbols are skipped; their
    conditionals are never formed.  Values are in nats for log loss (and
    loss units otherwise); `scale` multiplies the reported numbers for
    callers who want another unit, and is never baked into the arithmetic.
    """
    a = _vertex_risks(l, seed)
    c, px, base, solved = _solve(l, j, seed)
    with_side = mixed_g = 0.0
    for _, w, q, r in solved:
        with_side += w * r.risk
        mixed_g += w * (-r.risk + float(np.dot(a, q.probs)))
    via_gap = mixed_g - (-base.risk + float(np.dot(a, px.probs)))
    return BenefitReport(
        c_value=scale * c,
        risk_no_side=scale * base.risk,
        risk_with_side=scale * with_side,
        per_y_minimizers={y: r.minimizer for y, _, _, r in solved},
        decomposition_residual=abs(scale) * abs(c - via_gap),
    )


def c_value(l: LossSpec, j: Joint, seed: int = 0) -> float:
    """Fast path: just the scalar C, skipping the cross-check and report."""
    return _solve(l, j, seed)[0]


def numeric_subgradient(fn, p, step: float = 1e-6) -> tuple[np.ndarray, float]:
    """Central-difference subgradient of fn on the simplex at p.

    Differences are taken along the feasible directions e_i - p (projected
    onto the simplex tangent space).  Returns (gradient, kink_gap) where
    kink_gap is the largest disagreement between one-sided slopes; values
    above ~1e-3 flag a non-differentiable point (piecewise-linear envelopes
    of matrix losses have these).
    """
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


def g_normalized(l: LossSpec, seed: int = 0) -> ConvexOracle:
    """The Bayes envelope normalized to vanish at the vertices.

    G(P) = V(P) - sum_i V(delta_i) p_i, where V is the negative Bayes
    envelope of l.  G is convex, G(delta_i) = 0, and the benefit equals the
    Jensen gap of G.  The subgradient is numeric (central differences on
    tangent directions), so expect kinks for matrix losses.
    """
    a = -_vertex_risks(l, seed)  # V(delta_i)

    def value(q: np.ndarray) -> float:
        qv = _as_probs(q)
        return v_envelope(l, qv, seed=seed) - float(np.dot(a, qv))

    def subgradient(q: np.ndarray) -> np.ndarray:
        return numeric_subgradient(value, q)[0]

    return ConvexOracle(value=value, subgradient=subgradient, symmetric=False)


def benefit_from_G(g: ConvexOracle, j: Joint) -> float:
    """C via Theorem-form: sum_y P_Y(y) G(P_{X|Y=y}) - G(P_X)."""
    _, weights, conds = zip(*_conditionals(j, marginals(j)[1]))
    return jensen_gap(g, np.array(weights), conds)


def conditional_benefit(l: LossSpec, j: Joint, seed: int = 0, scale: float = 1.0) -> float:
    """Benefit of Y for predicting X given common side information W.

    Computed as sum_w P_W(w) * benefit(l, P_{XY|W=w}); equals the drop in
    optimal risk from W-measurable to (Y,W)-measurable predictors.
    """
    if not j.has_w:
        raise ValueError("conditional benefit needs a 3-axis joint")
    pw = w_marginal(j)
    total = 0.0
    for w in range(j.nw):
        if pw.probs[w] > 0.0:
            total += pw.probs[w] * c_value(l, slice_given_w(j, w), seed=seed)
    return scale * total
