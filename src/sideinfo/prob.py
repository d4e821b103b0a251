"""Exact arithmetic on finite distributions.

Distributions live on the probability simplex over a finite alphabet;
joints are dense tables over X x Y (optionally X x Y x W).  Everything is
computed in nats with the 0*log(0) = 0 convention.  All values are
immutable after construction and every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConvexityViolation,
    NegativeMass,
    NotNormalized,
    ZeroConditioningEvent,
    _check_count,
)

SIMPLEX_TOL = 1e-9

# Sentinel standing in for log(0) in subgradients; pairings treat 0 * LOG_ZERO as 0.
LOG_ZERO = -1e18


def _as_probs(p) -> np.ndarray:
    if isinstance(p, Dist):
        return p.probs
    return np.asarray(p, dtype=float)


@dataclass(frozen=True)
class Dist:
    """A point on the probability simplex.

    `correction` records the largest adjustment applied during validation
    (clamped negatives plus renormalization), 0.0 for exact inputs.
    """

    probs: np.ndarray
    correction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        self.probs.setflags(write=False)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    def __len__(self) -> int:
        return self.n


def validate_dist(probs) -> Dist:
    """Validate / repair a probability vector into a Dist.

    Entries in [-SIMPLEX_TOL, 0) are clamped to 0 and a sum within
    SIMPLEX_TOL of 1 is renormalized; larger violations raise NegativeMass /
    NotNormalized.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise NotNormalized(f"expected a nonempty 1-d probability vector, got shape {p.shape}")
    clamped, s = _simplex(p, 1)
    correction = float(-p[p < 0].sum()) if np.any(p < 0) else 0.0
    correction = max(correction, abs(float(s) - 1.0))
    return Dist(clamped / s, correction=correction)


def _simplex(p: np.ndarray, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """p with entries in [-SIMPLEX_TOL, 0) clamped to 0, and the sums of its slices over the trailing `ndim` axes.

    Raises NegativeMass for a non-finite entry or one below -SIMPLEX_TOL, and
    NotNormalized for a sum more than SIMPLEX_TOL from 1, naming a stack's first
    failing slice; p is not changed.  Message numbers are Python floats,
    so the text is the same under any numpy version.
    """
    lead = p.shape[: p.ndim - ndim]
    t = p.reshape((-1,) + p.shape[len(lead):])  # a lone table is summed as a stack of one
    axes = tuple(range(1, t.ndim))
    clamped = np.where(t < 0, 0.0, t)
    s = clamped.sum(axis=axes)
    checks = (  # in this order: a sum is read only once every entry is finite
        (NegativeMass, ~np.isfinite(t).all(axis=axes), lambda k: "entries must be finite"),
        (NegativeMass, (t < -SIMPLEX_TOL).any(axis=axes), lambda k: f"negative mass beyond tolerance: min entry {float(t[k].min())!r}"),
        (NotNormalized, np.abs(s - 1.0) > SIMPLEX_TOL, lambda k: f"entries sum to {float(s[k])!r}, not 1 within {SIMPLEX_TOL}"),
    )
    for error, bad, message in checks:
        if bad.any():
            k = int(bad.argmax())
            raise error(message(k) + (f" (slice {k})" if lead else ""))
    return clamped.reshape(p.shape), s.reshape(lead)


def point_mass(i: int, n: int) -> Dist:
    """The vertex distribution delta_i on an n-symbol alphabet (0-based i)."""
    p = np.zeros(n)
    p[i] = 1.0
    return Dist(p)


@dataclass(frozen=True)
class Joint:
    """A joint probability table over X x Y, optionally X x Y x W."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        self.table.setflags(write=False)

    @property
    def nx(self) -> int:
        return self.table.shape[0]

    @property
    def ny(self) -> int:
        return self.table.shape[1]

    @property
    def nw(self) -> int:
        if self.table.ndim < 3:
            raise ValueError("joint has no W axis")
        return self.table.shape[2]

    @property
    def has_w(self) -> bool:
        return self.table.ndim == 3


def validate_joint(table) -> Joint:
    """Validate / repair a 2- or 3-axis probability table into a Joint, as `validate_dist` does a vector."""
    t = np.asarray(table, dtype=float)
    if t.ndim not in (2, 3):
        raise NotNormalized(f"joint must have 2 or 3 axes, got {t.ndim}")
    clamped, s = _simplex(t, t.ndim)
    return Joint(clamped / s)


def marginals(j: Joint) -> tuple[Dist, Dist]:
    """Row and column marginals (P_X, P_Y) of a 2-axis joint."""
    t = j.table
    if t.ndim != 2:
        raise ValueError("marginals needs a 2-axis joint; use w_marginal / slice_given_w")
    return Dist(t.sum(axis=1)), Dist(t.sum(axis=0))


def w_marginal(j: Joint) -> Dist:
    """P_W of a 3-axis joint."""
    return Dist(j.table.sum(axis=(0, 1)))


def condition_on_y(j: Joint, y: int) -> Dist:
    """P_{X|Y=y} for a 2-axis joint; raises on zero-probability y."""
    if j.table.ndim != 2:
        raise ValueError("condition_on_y needs a 2-axis joint")
    col = j.table[:, y]
    py = col.sum()
    if py <= 0.0:
        raise ZeroConditioningEvent(f"P(Y={y}) = 0")
    return Dist(col / py)


def slice_given_w(j: Joint, w: int) -> Joint:
    """The conditional 2-axis joint P_{XY|W=w}; raises on zero-probability w."""
    sl = j.table[:, :, w]
    pw = sl.sum()
    if pw <= 0.0:
        raise ZeroConditioningEvent(f"P(W={w}) = 0")
    return Joint(sl / pw)


def entropy(p) -> float:
    """Shannon entropy -sum p_i ln p_i in nats (0 ln 0 = 0)."""
    arr = _as_probs(p)
    m = arr > 0
    return float(-(arr[m] * np.log(arr[m])).sum())


def mutual_information(j: Joint) -> float:
    """I(X;Y) in nats, computed as H(X) - sum_y P_Y(y) H(X|Y=y)."""
    t = j.table
    if t.ndim != 2:
        raise ValueError("mutual_information needs a 2-axis joint")
    px = t.sum(axis=1)
    py = t.sum(axis=0)
    h_cond = 0.0
    for y in range(t.shape[1]):
        if py[y] > 0:
            h_cond += py[y] * entropy(t[:, y] / py[y])
    return entropy(px) - h_cond


def conditional_mutual_information(j: Joint) -> float:
    """I(X;Y|W) in nats for a 3-axis joint: sum_w P_W(w) I(X;Y|W=w)."""
    t = j.table
    if t.ndim != 3:
        raise ValueError("conditional mutual information needs a 3-axis joint")
    pw = t.sum(axis=(0, 1))
    out = 0.0
    for w in range(t.shape[2]):
        if pw[w] > 0:
            out += pw[w] * mutual_information(Joint(t[:, :, w] / pw[w]))
    return out


# ---------------------------------------------------------------------------
# Convex oracles (Phi functions for Jensen gaps) and the gap primitive
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexOracle:
    """A convex function on the simplex with a subgradient map.

    `value` maps a probability vector to a real; `subgradient` returns a
    full-coordinate subgradient (only its tangent component matters on the
    simplex).  Components of subgradients may use the LOG_ZERO sentinel for
    log-type functions at the boundary; pairings must apply 0 * LOG_ZERO = 0.
    `symmetric` asserts permutation invariance; it is spot-checked, not proven.
    """

    value: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]
    symmetric: bool = False


def jensen_gap(g: ConvexOracle, weights, points: Sequence) -> float:
    """sum_y w_y g(P_y) - g(sum_y w_y P_y); nonnegative for convex g."""
    w = _as_probs(weights)
    pts = [_as_probs(p) for p in points]
    if len(pts) != w.shape[0]:
        raise ValueError("weights and points must have equal length")
    mix = np.zeros_like(pts[0])
    acc = 0.0
    for wy, p in zip(w, pts):
        if wy > 0:
            acc += wy * g.value(p)
            mix = mix + wy * p
    return acc - g.value(mix)


def neg_entropy_oracle() -> ConvexOracle:
    """G(P) = sum p ln p, the convex function whose Jensen gap is mutual information."""

    def value(q: np.ndarray) -> float:
        q = np.asarray(q, dtype=float)
        m = q > 0
        return float((q[m] * np.log(q[m])).sum())

    def subgradient(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        out = np.full(q.shape, LOG_ZERO)
        m = q > 0
        out[m] = np.log(q[m]) + 1.0
        return out

    return ConvexOracle(value=value, subgradient=subgradient, symmetric=True)


def sum_squares_oracle() -> ConvexOracle:
    """G(P) = sum p_i^2, the convex function behind the Brier family's Jensen gap."""

    def value(q: np.ndarray) -> float:
        q = np.asarray(q, dtype=float)
        return float((q * q).sum())

    def subgradient(q: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(q, dtype=float)

    return ConvexOracle(value=value, subgradient=subgradient, symmetric=True)


_MIDPOINT_TOL = 1e-12  # how far a midpoint may sit above the chord in `check_convex_oracle`
_PLANE_TOL = 1e-9  # how far a point may sit below a supporting plane, and a symmetric G move under a permutation


def check_convex_oracle(g: ConvexOracle, n: int, pairs: int = 256, seed: int = 0) -> float:
    """Spot-check oracle convexity on seeded random pairs; returns worst slack.

    Checks midpoint convexity, the supporting-hyperplane inequality for the
    reported subgradient, and (if flagged) permutation invariance.  This is a
    probabilistic guardrail, not a proof; raises ConvexityViolation on failure,
    and ParameterOutOfRange, before any work, for an `n` that is not an
    integer >= 2, `pairs` that is not an integer >= 1 and a seed that is
    negative or not an integer.
    """
    _check_count("seed", seed)
    _check_count("pairs", pairs, least=1)
    _check_count("n", n, least=2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        mid = g.value((p + q) / 2.0) - (g.value(p) + g.value(q)) / 2.0
        if mid > _MIDPOINT_TOL:
            raise ConvexityViolation(f"midpoint convexity fails by {mid:.3g} at {p}, {q}")
        sub = np.asarray(g.subgradient(p), dtype=float)
        # 0 * LOG_ZERO = 0 convention on the pairing
        diff = q - p
        mask = diff != 0.0
        plane = g.value(p) + float((sub[mask] * diff[mask]).sum()) - g.value(q)
        if plane > _PLANE_TOL:
            raise ConvexityViolation(f"supporting hyperplane fails by {plane:.3g} at {p}")
        worst = max(worst, mid, plane)
        if g.symmetric:
            perm = rng.permutation(n)
            gap = abs(g.value(p[perm]) - g.value(p))
            if gap > _PLANE_TOL:
                raise ConvexityViolation(f"symmetry flag set but value changed by {gap:.3g}")
    return worst
