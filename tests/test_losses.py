import ast
import collections
import dataclasses
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import sideinfo as si
from sideinfo.benefit import c_value
from sideinfo.errors import NegativeMass, NotNormalized, NotProper, ParameterOutOfRange, UnboundedBelow, UnknownLoss
from sideinfo.losses import _expected_scoring_loss, _lattice, _nelder_mead, _one_block_grid, _simplex_project, simplex_grid

from conftest import linear_oracle

LN2 = math.log(2)


def unflagged_rule(kind: str, n: int) -> si.ScoringRuleLoss:
    """A proper=False rule whose vector_fn takes a forecast or a (K, n) batch.

    `linear` is the improper score -q_x and `steep` the same times 50, whose
    starts all jump to one vertex within a few steps; `kink` is |q_x - 0.3|;
    `brier` and `log` are the Brier and log scores without their proper flag.
    """

    def vector_fn(q):
        q = np.asarray(q, dtype=float)
        if kind == "linear":
            return -q
        if kind == "steep":
            return -50.0 * q
        if kind == "kink":
            return np.abs(q - 0.3)
        if kind == "log":
            with np.errstate(divide="ignore"):
                return -np.log(q)
        return (q * q).sum(axis=-1, keepdims=True) - 2.0 * q + 1.0

    return si.ScoringRuleLoss(
        eval_fn=lambda x, q: float(vector_fn(q)[x]), n=n, proper=False, vector_fn=vector_fn
    )


class TestBuiltinLoss:
    def test_log_value(self):
        l = si.builtin_loss("log", 2)
        assert l.eval_fn(0, np.array([0.5, 0.5])) == pytest.approx(LN2, abs=1e-12)

    def test_log_infinite_at_zero_mass(self):
        l = si.builtin_loss("log", 2)
        assert l.eval_fn(1, np.array([1.0, 0.0])) == math.inf

    def test_zero_one_diagonal(self):
        l = si.builtin_loss("zero_one", 3)
        assert l.matrix[1, 1] == 0.0
        assert l.matrix[0, 1] == 1.0

    def test_brier_perfect_forecast(self):
        l = si.builtin_loss("brier", 2)
        assert l.eval_fn(0, np.array([1.0, 0.0])) == 0.0

    def test_spherical(self):
        l = si.builtin_loss("spherical", 2)
        assert l.eval_fn(0, np.array([0.5, 0.5])) == pytest.approx(-0.5 / math.sqrt(0.5))

    def test_absolute_ordered(self):
        l = si.builtin_loss("absolute_ordered", 4)
        assert l.matrix[0, 3] == 3.0
        assert l.matrix[2, 2] == 0.0

    def test_hyphenated_name(self):
        assert si.builtin_loss("zero-one", 3).name == "zero_one"

    def test_unknown(self):
        with pytest.raises(UnknownLoss):
            si.builtin_loss("hinge", 3)


class TestBayesRisk:
    def test_log_attains_entropy(self):
        r = si.bayes_risk(si.builtin_loss("log", 3), [0.25, 0.25, 0.5])
        assert r.risk == pytest.approx(1.5 * LN2, abs=1e-12)
        assert r.method == "proper-fixed-point"

    def test_zero_one_column_min(self):
        r = si.bayes_risk(si.builtin_loss("zero_one", 3), [0.25, 0.25, 0.5])
        assert r.risk == pytest.approx(0.5, abs=1e-15)
        assert r.minimizer == 2
        assert r.method == "column-min"

    def test_brier_value(self):
        r = si.bayes_risk(si.builtin_loss("brier", 2), [0.5, 0.5])
        assert r.risk == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "p, error",
        [([2.0, 0.0, 0.0], NotNormalized), ([0.5, 0.7, -0.2], NegativeMass), ([math.nan, 0.5, 0.5], NegativeMass)],
    )
    @pytest.mark.parametrize(
        "l",
        [si.builtin_loss("log", 3), si.builtin_loss("zero_one", 3), si.builtin_loss("brier", 3), unflagged_rule("linear", 3)],
        ids=["log", "zero_one", "brier", "numeric-linear"],
    )
    def test_not_a_distribution_rejected(self, p, error, l):
        # log loss returned -1.386, 0.596 and 0.693 on these before the check
        with pytest.raises(error):
            si.bayes_risk(l, p)
        with pytest.raises(error):
            si.v_envelope(l, p)

    def test_valid_input_checked_not_renormalized(self):
        # within SIMPLEX_TOL of the simplex, p is used as given, bit for bit
        p = np.array([0.5, 0.5 + 5e-10, -1e-12])
        r = si.bayes_risk(si.builtin_loss("log", 3), p)
        assert r.minimizer.probs.tobytes() == p.tobytes()

    def test_tie_break_lowest_index(self):
        r = si.bayes_risk(si.builtin_loss("zero_one", 2), [0.5, 0.5])
        assert r.minimizer == 0

    def test_matrix_matches_brute_force(self):
        # the documented order: a left fold from 0 of p_x m[x, a] over the x with p_x > 0
        def value(mat, p, a):
            total = 0.0
            for x in range(len(p)):
                if p[x] > 0.0:
                    total += p[x] * mat[x, a]
            return total

        rng = np.random.default_rng(0)
        for _ in range(100):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            mat = rng.normal(size=(n, k))
            x_inf = int(rng.integers(n))
            mat[x_inf, k - 1] = math.inf  # one column with an inf entry
            p = rng.dirichlet(np.ones(n))
            if rng.uniform() < 0.5:  # 0 * inf = 0: the column is finite when p puts no mass there
                p[x_inf] = 0.0
                p = p / p.sum()
            r = si.bayes_risk(si.ActionMatrixLoss(matrix=mat), p)
            brute = [value(mat, p, a) for a in range(k)]
            assert r.risk == min(brute)
            assert r.minimizer == brute.index(min(brute))

    def test_infinite_entries_zero_weight(self):
        mat = np.array([[0.0, math.inf], [math.inf, 0.0]])
        r = si.bayes_risk(si.ActionMatrixLoss(matrix=mat), [1.0, 0.0])
        assert r.risk == 0.0
        assert r.minimizer == 0

    def test_no_finite_action(self):
        mat = np.array([[0.0, math.inf], [math.inf, 0.0]])
        with pytest.raises(UnboundedBelow):
            si.bayes_risk(si.ActionMatrixLoss(matrix=mat), [0.5, 0.5])

    def test_numeric_search_matches_proper_answer(self):
        # Brier minus its proper flag goes through the numeric tier; the true
        # minimum is still at q = p with risk 1 - sum p^2.
        p = np.array([0.2, 0.3, 0.5])
        proper = si.builtin_loss("brier", 3)
        blind = si.ScoringRuleLoss(eval_fn=proper.eval_fn, n=3, proper=False)
        r = si.bayes_risk(blind, p)
        assert r.method == "numeric-search"
        assert r.risk == pytest.approx(1 - float((p * p).sum()), abs=1e-6)
        assert r.grid_gap is not None

    def test_numeric_search_improper_rule(self):
        # linear score -Q(x): optimal report is the vertex at argmax p
        rule = si.ScoringRuleLoss(eval_fn=lambda x, q: -float(q[x]), n=2, proper=False)
        r = si.bayes_risk(rule, [0.6, 0.4])
        assert r.risk == pytest.approx(-0.6, abs=1e-9)

    def test_callers_array_stays_writable(self):
        # the proper tier's minimizer once froze the caller's own array
        p = np.array([0.2, 0.3, 0.5])
        r = si.bayes_risk(si.builtin_loss("brier", 3), p)
        assert p.flags.writeable and r.minimizer.probs.tolist() == p.tolist()

    def test_length_must_match_declared_n(self):
        rule = si.ScoringRuleLoss(eval_fn=lambda x, q: -float(q[x]), n=2, proper=True)
        with pytest.raises(ParameterOutOfRange):
            si.bayes_risk(rule, [0.2, 0.3, 0.5])
        with pytest.raises(ParameterOutOfRange):
            si.bayes_risk(si.savage_from_G(si.neg_entropy_oracle(), n=2), [0.2, 0.3, 0.5])
        with pytest.raises(ParameterOutOfRange):  # the length is checked before the mass
            si.bayes_risk(si.builtin_loss("log", 3), [2.0, 0.0])

    def test_numeric_search_pinned(self):
        # exact values, so a change in evaluation order or batching shows; the seed changes nothing
        cases = [
            (unflagged_rule("brier", 3), [0.2, 0.3, 0.5], 0.6199999999999999,
             [0.2000000024208037, 0.30000000130515175, 0.4999999962740446], 1.1102230246251565e-16),
            (unflagged_rule("brier", 2), [0.7, 0.3], 0.41999999999999993,
             [0.699999997477913, 0.3000000025220871], 1.1102230246251565e-16),
            (unflagged_rule("linear", 3), [0.2, 0.5, 0.3], -0.5, [0.0, 1.0, 0.0], 0.0),
            (si.ScoringRuleLoss(eval_fn=lambda x, q: -float(q[x]), n=2), [0.35, 0.65], -0.65, [0.0, 1.0], 0.0),
            (unflagged_rule("linear", 4), [0.1, 0.2, 0.3, 0.4], -0.4, [0.0, 0.0, 0.0, 1.0], 0.0),
        ]
        for rule, p, risk, minimizer, gap in cases:
            for seed in (0, 7):
                r = si.bayes_risk(rule, p, seed=seed)
                assert r.method == "numeric-search"
                assert (r.risk, r.minimizer.probs.tolist(), r.grid_gap) == (risk, minimizer, gap)

    def test_numeric_search_matches_per_start_oracle(self):
        # the lattice and the polish from each start in turn, with scipy's Nelder-Mead
        corpus = []
        rng = np.random.default_rng(909)
        for n in range(2, 6):
            face, near_face = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            face[-1], near_face[0] = 0.0, 1e-9
            for p in (rng.dirichlet(np.ones(n)), face / face.sum()):
                corpus += [(kind, p) for kind in ("linear", "brier", "log", "eval_fn")]
            # near a face, unflagged log is steep
            corpus.append(("log", near_face / near_face.sum()))
            # a kinked rule, inside and on a face; a steep one whose minimum is a vertex
            corpus += [("kink", rng.dirichlet(np.ones(n))), ("kink", face / face.sum())]
            corpus += [("steep", rng.dirichlet(np.ones(n))), ("steep", face / face.sum())]
        assert len(corpus) == 52
        for kind, p in corpus:
            n = len(p)
            rule = _eval_fn_rule(n) if kind == "eval_fn" else unflagged_rule(kind, n)
            r = si.bayes_risk(rule, p)
            assert r.method == "numeric-search"
            expect = _per_start_numeric_bayes(rule, p)
            assert (r.risk, r.minimizer.probs.tolist(), r.grid_gap) == expect, (kind, p)

    def test_numeric_search_matches_slsqp_multistart_above_n4(self):
        # the unflagged cubic rule against an independent oracle, 8 p per n from
        # default_rng(1).  The lockstep descent stopped near the uniform point, up to
        # 0.064 above the oracle
        rng = np.random.default_rng(1)
        for n in range(5, 9):
            for _ in range(8):
                _assert_cubic_matches_slsqp(n, rng)

    def test_numeric_search_matches_slsqp_multistart_above_n8(self):
        # the same above n = 8, where the lattice has 8 steps (n = 10) and 7 (n = 12)
        rng = np.random.default_rng(10)
        for n in (10, 12):
            for _ in range(2):
                _assert_cubic_matches_slsqp(n, rng)

    @pytest.mark.parametrize("kind, limit", [("linear", 26), ("brier", 655)])
    def test_numeric_search_work(self, kind, limit):
        # one batch, the whole lattice, and then single points of the polish, at most `limit` of
        # them: each projected forecast is scored once (488 and 882 when each evaluation made one)
        rule, sizes = unflagged_rule(kind, 3), []

        def counted(q):
            sizes.append(len(q) if np.ndim(q) == 2 else 0)
            return rule.vector_fn(q)

        r = si.bayes_risk(dataclasses.replace(rule, vector_fn=counted), [0.2, 0.3, 0.5], seed=1)
        assert r.method == "numeric-search"
        assert [k for k in sizes if k] == [len(simplex_grid(3, 200))]
        assert 0 < sizes.count(0) <= limit

    @pytest.mark.parametrize("kind, n", [("linear", 3), ("linear", 5), ("brier", 3), ("eval_fn", 2)])
    def test_polish_scores_each_forecast_once(self, kind, n):
        # the polish's objective depends on z only through its projection, and one row's
        # memo scores each projected forecast once across its starts, its finiteness checks
        # and the restart; on linear at n = 3 the single points are exactly the distinct
        # forecasts the per-start scipy oracle scores (where it scores the same one many times)
        def counted_rule(log):
            rule = _eval_fn_rule(n) if kind == "eval_fn" else unflagged_rule(kind, n)
            if kind == "eval_fn":
                return dataclasses.replace(rule, eval_fn=lambda x, q: log.append(tuple(q.tolist())) or rule.eval_fn(x, q))

            def vector_fn(q):
                log.append("batch" if np.ndim(q) == 2 else tuple(q.tolist()))
                return rule.vector_fn(q)

            return dataclasses.replace(rule, vector_fn=vector_fn)

        def polish_points(log):  # the single points after the lattice batch and its row-wise check of row 0
            if kind == "eval_fn":  # one eval_fn call per outcome and forecast
                return log[len(_one_block_grid(n, 200)) * n :: n]
            return log[log.index("batch") + 2 :]

        for p in np.random.default_rng(2929).dirichlet(np.ones(n), size=3):
            got = []
            si.bayes_risk(counted_rule(got), p)
            points = polish_points(got)
            assert points and len(points) == len(set(points)), (kind, p)
            if (kind, n) == ("linear", 3):
                scored = []
                _per_start_numeric_bayes(counted_rule(scored), p)
                distinct = set(polish_points(scored))
                assert len(points) == len(distinct) and set(points) == distinct, p
                assert len(polish_points(scored)) > 10 * len(distinct)

    def test_lattice_keeps_the_first_least_point(self):
        # a bonus on the lattice edge (a, 56 - a, 0, 0) / 56, 0 < a < 56, which the
        # polish cannot keep off the lattice; the least value ties at many points,
        # and the lattice's first one must win, as in one argmin
        def vec(q):
            q = np.asarray(q, dtype=float)
            c = q * 56
            on_lattice = (np.abs(c - np.round(c)) < 1e-9).all(axis=-1)
            edge = on_lattice & (q[..., 0] > 0) & (q[..., 1] > 0) & (q[..., 2] == 0) & (q[..., 3] == 0)
            return -q - 0.1 * edge[..., None]

        rule = si.ScoringRuleLoss(eval_fn=lambda x, q: float(vec(q)[x]), n=4, vector_fn=vec)
        p = np.array([0.4995, 0.4995, 0.001, 0.0])
        grid = simplex_grid(4, 56)
        vals = _expected_scoring_loss(rule, p, grid)
        ties = np.flatnonzero(vals == vals.min())
        assert len(ties) > 2
        r = si.bayes_risk(rule, p)
        assert (r.risk, r.grid_gap) == (vals.min(), 0.0)
        assert r.minimizer.probs.tolist() == grid[ties[0]].tolist()

    def test_nan_grid_points_never_count(self):
        # linear score plus 0 * sum(log q): NaN on every grid point with a zero coordinate
        def vec(q):
            with np.errstate(divide="ignore", invalid="ignore"):
                return -q + 0.0 * np.log(q).sum(axis=-1, keepdims=True)

        rule = si.ScoringRuleLoss(eval_fn=lambda x, q: float(vec(q)[x]), n=3, vector_fn=vec)
        p = np.array([0.2, 0.3, 0.5])
        r = si.bayes_risk(rule, p)
        grid = simplex_grid(3, 200)
        vals = (grid * -p).sum(axis=1)[(grid > 0).all(axis=1)]  # the grid's finite expected losses
        assert math.isfinite(r.grid_gap) and r.grid_gap >= 0.0
        assert r.risk + r.grid_gap == pytest.approx(vals.min(), abs=1e-15)  # the lattice's least risk

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_numeric_search_without_finite_start(self, value):
        rule = si.ScoringRuleLoss(eval_fn=lambda x, q: value, n=3)
        with pytest.raises(UnboundedBelow):
            si.bayes_risk(rule, [0.2, 0.3, 0.5])


def _assert_cubic_matches_slsqp(n: int, rng: np.random.Generator):
    """The unflagged cubic rule -q_x^3 + |q|^2 / 2 at one p drawn from rng, against an
    independent oracle: SLSQP from 200 Dirichlet starts (drawn after p) and every vertex."""

    def vec(q):
        q = np.asarray(q, dtype=float)
        return -q ** 3 + 0.5 * (q * q).sum(axis=-1, keepdims=True)

    rule = si.ScoringRuleLoss(eval_fn=lambda x, q: float(vec(q)[x]), n=n, vector_fn=vec)
    p = rng.dirichlet(np.ones(n))

    def f(q):
        return float(-(p * q ** 3).sum() + 0.5 * (q * q).sum())

    oracle = math.inf
    for q0 in np.vstack([rng.dirichlet(np.ones(n), size=200), np.eye(n)]):
        res = minimize(f, q0, jac=lambda q: -3.0 * p * q * q + q, method="SLSQP",
                       bounds=[(0.0, 1.0)] * n, options={"ftol": 1e-12},
                       constraints={"type": "eq", "fun": lambda q: q.sum() - 1.0, "jac": np.ones_like})
        if res.success:
            oracle = min(oracle, f(_simplex_project(res.x)))
    r = si.bayes_risk(rule, p)
    assert r.risk <= oracle + 1e-9, (n, p, r.risk, oracle)
    assert r.grid_gap is not None and r.grid_gap >= 0.0
    assert _expected_scoring_loss(rule, p, r.minimizer.probs) == pytest.approx(r.risk, abs=1e-15)


def _eval_fn_rule(n: int) -> si.ScoringRuleLoss:
    """An improper rule given only per-outcome evaluation, no vector_fn."""
    return si.ScoringRuleLoss(eval_fn=lambda x, q: float(q[x] ** 2 - q.sum()), n=n)


def _per_start_numeric_bayes(l, p):
    """The numeric tier written out plainly, one start after another through scipy: the reference oracle."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    steps = max(s for s in range(1, 201) if math.comb(s + n - 1, n - 1) <= si.losses.GRID_BLOCK)

    def f(q):
        return _expected_scoring_loss(l, p, q)

    grid = simplex_grid(n, steps)
    gvals = f(grid)
    gvals[np.isnan(gvals)] = np.inf
    order = np.argsort(gvals, kind="stable")
    best_q, best_v = grid[order[0]], gvals[order[0]]

    def polish(q0):
        nonlocal best_q, best_v
        if math.isfinite(f(_simplex_project(q0))):
            res = minimize(
                lambda z: f(_simplex_project(z)),
                q0,
                method="Nelder-Mead",
                options={"maxiter": 400 * n, "xatol": 1e-10, "fatol": 1e-12},
            )
            if res.fun < best_v:
                best_q, best_v = _simplex_project(res.x), float(res.fun)

    for q0 in (grid[order[0]], grid[order[1]], p):
        polish(q0)
    if best_v < gvals[order[0]]:  # once more from a polished best
        polish(best_q)
    gap = float(gvals[order[0]] - best_v) if gvals[order[0]] < np.inf else None
    return float(best_v), np.asarray(best_q, dtype=float).tolist(), gap


def _inf_at_zero_rule(n: int) -> si.ScoringRuleLoss:
    """The improper score -q_x, but inf at outcome 0: a row with p_0 > 0 has no finite risk."""

    def vector_fn(q):
        out = -np.asarray(q, dtype=float)
        out[..., 0] = np.inf
        return out

    return si.ScoringRuleLoss(eval_fn=lambda x, q: float(vector_fn(q)[x]), n=n, vector_fn=vector_fn)


def _stack_corpus():
    """204 numeric-tier stacks of 1-3 rows: n = 2-5, rows on faces, eval_fn-only rules, unbounded rows."""
    rng = np.random.default_rng(1616)
    kinds = ("linear", "brier", "kink", "log", "steep", "inf0")
    corpus = []
    for k in range(204):
        n = (2, 3, 4, 2, 3, 5, 4)[k % 7]
        kind = "eval_fn" if k % 50 == 10 or k % 100 == 11 else kinds[k % 6]  # n = 2, 3, 3, 4, 4 and 5
        rows = rng.dirichlet(np.ones(n), size=1 + k % 3)
        for row in rows[rng.random(len(rows)) < 0.5]:  # about half the rows on a face
            row[rng.integers(n)] = 0.0
        if kind == "inf0":  # rows with p_0 = 0 are finite, the others unbounded, in any order
            rows[rng.random(len(rows)) < 0.5, 0] = 0.0
        rows = rows / rows.sum(axis=1, keepdims=True)
        rule = {"eval_fn": _eval_fn_rule, "inf0": _inf_at_zero_rule}.get(kind, lambda n: unflagged_rule(kind, n))(n)
        corpus.append((kind, rule, rows))
    return corpus


class TestSolveStack:
    def test_each_row_is_its_lone_bayes_risk(self):
        corpus, unbounded_mid_stack = _stack_corpus(), 0
        assert len(corpus) >= 200 and {len(rows[0]) for _, _, rows in corpus} == {2, 3, 4, 5}
        assert {len(rows[0]) for kind, _, rows in corpus if kind == "eval_fn"} == {2, 3, 4, 5}
        for kind, rule, rows in corpus:
            method, risks, minimizers, gaps = si.losses._solve(rule, rows)
            assert method == "numeric-search" and gaps.shape == risks.shape
            for i, row in enumerate(rows):
                try:
                    lone = si.bayes_risk(rule, row)
                except UnboundedBelow:
                    assert risks[i] == np.inf, (kind, row)
                    unbounded_mid_stack += 0 < i < len(rows) - 1
                    continue
                got = (float(risks[i]), minimizers[i].tobytes(), None if np.isnan(gaps[i]) else float(gaps[i]))
                assert got == (lone.risk, lone.minimizer.probs.tobytes(), lone.grid_gap), (kind, row)
                assert lone.grid_gap is not None and lone.grid_gap >= 0.0, (kind, row)
        assert unbounded_mid_stack > 0

    def test_unbounded_rows_raise_from_c_and_the_scan(self):
        rule = _inf_at_zero_rule(3)
        with pytest.raises(UnboundedBelow):  # P_X and both conditionals put mass on outcome 0
            c_value(rule, si.validate_joint([[0.2, 0.1], [0.3, 0.1], [0.2, 0.1]]))
        with pytest.raises(UnboundedBelow):  # only the second conditional does
            c_value(rule, si.validate_joint([[0.0, 0.1], [0.3, 0.1], [0.2, 0.3]]))
        with pytest.raises(UnboundedBelow):
            si.find_violation(rule, 3, budget=8)
        assert math.isfinite(c_value(rule, si.validate_joint([[0.0, 0.0], [0.3, 0.1], [0.2, 0.4]])))

    @pytest.mark.parametrize("n, steps", [(2, 200), (3, 200), (4, 56), (5, 27), (6, 17)])
    def test_one_lattice_batch_per_stack(self, n, steps):
        # whatever R, the lattice's loss vectors are taken in one batch, the whole
        # cached lattice; everything else (the polish) scores one point at a time
        rule, batches = unflagged_rule("brier", n), []

        def counted(q):
            if np.ndim(q) == 2:
                batches.append(q)
            return rule.vector_fn(q)

        lattice = _one_block_grid(n, steps)  # the finest of at most 200 steps within GRID_BLOCK points
        assert len(lattice) <= si.losses.GRID_BLOCK
        assert steps == 200 or math.comb(steps + n, n - 1) > si.losses.GRID_BLOCK
        for r in (1, 6):
            batches.clear()
            rows = np.random.default_rng(5).dirichlet(np.ones(n), size=r)
            si.losses._solve(dataclasses.replace(rule, vector_fn=counted), rows)
            assert len(batches) == 1 and batches[0] is lattice

    def test_numeric_rows_are_checked(self):
        # a conditional row (-0.5, 1.5) of a joint that was never validated
        proper = si.builtin_loss("brier", 2)
        blind = si.ScoringRuleLoss(eval_fn=proper.eval_fn, n=2, vector_fn=proper.vector_fn)
        with pytest.raises(NegativeMass, match=r"min entry -0\.5.* \(slice 2\)"):
            si.benefit(blind, si.Joint([[0.5, -0.1], [0.3, 0.3]]))


def _nan_inf_huge_rule(n: int) -> si.ScoringRuleLoss:
    """The improper score -q_x, but NaN at outcome 0 where q_0 > 0.6, inf at outcome 1
    where q_1 < 0.1 and 2 HUGE at the last outcome where its q > 0.8."""

    def vector_fn(q):
        q = np.asarray(q, dtype=float)
        out = -q
        out[..., 0] = np.where(q[..., 0] > 0.6, np.nan, out[..., 0])
        out[..., 1] = np.where(q[..., 1] < 0.1, np.inf, out[..., 1])
        out[..., -1] = np.where(q[..., -1] > 0.8, 2.0 * si.losses.HUGE, out[..., -1])
        return out

    return si.ScoringRuleLoss(eval_fn=lambda x, q: float(vector_fn(q)[x]), n=n, vector_fn=vector_fn)


def _rounded_log_rule(n: int) -> si.ScoringRuleLoss:
    """Unflagged log loss rounded to 12 decimals: np.log may differ in its last bit between
    CPUs (its SIMD path), and the rounding keeps a pinned digest the same on every one."""

    def vector_fn(q):
        with np.errstate(divide="ignore"):
            return np.round(-np.log(np.asarray(q, dtype=float)), 12)

    return si.ScoringRuleLoss(eval_fn=lambda x, q: float(vector_fn(q)[x]), n=n, vector_fn=vector_fn)


def test_solve_outputs_digest_pinned():
    # the numeric tier's outputs, bit for bit: a SHA-256 of `_solve`'s method, risks,
    # minimizers and gaps over stacks of one inner row and one on a face, n = 2-5
    rules = {"eval_fn": _eval_fn_rule, "log": _rounded_log_rule, "wild": _nan_inf_huge_rule,
             "inf0": _inf_at_zero_rule}
    rng, digest, rows_seen = np.random.default_rng(2828), hashlib.sha256(), 0
    for n in (2, 3, 4, 5):
        for kind in ("linear", "brier", "kink", "log", "eval_fn", "wild", "inf0"):
            if (kind == "eval_fn" and n > 3) or (kind == "inf0" and n != 3):  # keeps the test under a second
                continue
            rows = rng.dirichlet(np.ones(n), size=2)
            rows[1, rng.integers(n)] = 0.0
            rows = rows / rows.sum(axis=1, keepdims=True)
            method, risks, minimizers, gaps = si.losses._solve(rules.get(kind, lambda n: unflagged_rule(kind, n))(n), rows)
            for part in (method.encode(), risks.tobytes(), minimizers.tobytes(), gaps.tobytes()):
                digest.update(part)
            rows_seen += len(rows)
    assert rows_seen == 46
    assert digest.hexdigest() == "22454f67500fea14325814af2969d0e2ce87e50a45dbf8429d67f8ebcc64f198"


def _nm_steps(values, n_dim) -> collections.Counter:
    """The Nelder-Mead step of each iteration, read back from the sequence of objective values.

    Replays only the ordering of the simplex values: after the n_dim + 1
    starting values, each iteration scores a reflection, then an expansion
    (below the best), nothing more (below the second worst) or a contraction,
    outside (below the worst) or inside; a failed contraction shrinks, which
    rescores every vertex but the best.
    """
    fsim, i, steps = np.sort(values[: n_dim + 1]), n_dim + 1, collections.Counter()
    while i < len(values):
        fxr, i = values[i], i + 1
        if fxr < fsim[0]:
            steps["expand" if values[i] < fxr else "expand rejected"] += 1
            fsim[-1], i = values[i] if values[i] < fxr else fxr, i + 1
        elif fxr < fsim[-2]:
            steps["reflect"] += 1
            fsim[-1] = fxr
        else:
            outside, f2, i = fxr < fsim[-1], values[i], i + 1
            steps["outside" if outside else "inside"] += 1
            if (f2 <= fxr) if outside else (f2 < fsim[-1]):
                fsim[-1] = f2
            else:
                steps["shrink"] += 1
                fsim[1:], i = values[i : i + n_dim], i + n_dim
        fsim = np.sort(fsim)
    return steps


def _nan_rule(n: int) -> si.ScoringRuleLoss:
    """The improper score -q_x, NaN at outcome 0 wherever q_0 > 0.4."""

    def vector_fn(q):
        out = -np.asarray(q, dtype=float)
        out[..., 0] = np.where(out[..., 0] < -0.4, np.nan, out[..., 0])
        return out

    return si.ScoringRuleLoss(eval_fn=lambda x, q: float(vector_fn(q)[x]), n=n, vector_fn=vector_fn)


def _nelder_mead_corpus():
    """72 refinements of the numeric tier's kind: n = 2-6, starts and rows on faces, inf, ties and NaN."""
    rng = np.random.default_rng(2020)
    const = lambda n: si.ScoringRuleLoss(eval_fn=lambda x, q: 1.0, n=n, vector_fn=lambda q: np.ones_like(q))
    rules = {**{k: (lambda n, k=k: unflagged_rule(k, n)) for k in ("linear", "brier", "kink", "log", "steep")},
             "const": const, "nan": _nan_rule, "inf0": _inf_at_zero_rule}
    corpus = []
    for k in range(72):
        n, kind = 2 + k % 5, list(rules)[k % len(rules)]
        p, x0 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        if k % 3 == 0:  # a row on a face
            p[rng.integers(n)] = 0.0
            p /= p.sum()
        if k % 4 < 2:  # a start with zero entries: the 0.00025 step
            x0[rng.permutation(n)[: 1 + k % (n - 1)]] = 0.0
            x0 /= x0.sum()
        if kind == "inf0" and k % 2 and k % 3:  # p_0 = 0 off a face: a finite row
            p[0] = 0.0
            p /= p.sum()
        corpus.append((kind, rules[kind](n), p, x0))
    return corpus


class TestNelderMead:
    """`losses._nelder_mead` is scipy's Nelder-Mead under the numeric tier's options, bit for bit."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")  # inf - inf
    def test_matches_scipy_bit_for_bit(self):
        steps, nan_seen = collections.Counter(), False
        for kind, rule, p, x0 in _nelder_mead_corpus():
            logs = ([], [])

            def objective(z, log):
                v = _expected_scoring_loss(rule, p, _simplex_project(z))
                log.append(v)
                return v

            n = len(x0)
            res = minimize(lambda z: objective(z, logs[0]), x0, method="Nelder-Mead",
                           options={"maxiter": 400 * n, "xatol": 1e-10, "fatol": 1e-12})
            x, fun = _nelder_mead(lambda z: objective(z, logs[1]), x0)
            assert x.tobytes() == res.x.tobytes(), (kind, p, x0)
            assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes(), (kind, p, x0)
            assert len(logs[1]) == res.nfev, (kind, p, x0)
            assert np.array(logs[1]).tobytes() == np.array(logs[0]).tobytes(), (kind, p, x0)
            steps += _nm_steps(np.array(logs[1]), n)
            nan_seen |= bool(np.isnan(logs[1]).any())
        assert all(steps[s] > 0 for s in ("expand", "expand rejected", "outside", "inside", "shrink")), steps
        assert nan_seen

    def test_step_reader_counts_every_evaluation(self):
        # a constant objective: every value ties, so each iteration's reflection is not below the
        # worst and its inside contraction not below it either, and the simplex shrinks; the 5%
        # steps (0.025) fall within xatol = 1e-10 after 28 halvings
        values = []
        _nelder_mead(lambda z: values.append(1.0) or 1.0, np.array([0.5, 0.5]))
        assert _nm_steps(np.array(values), 2) == collections.Counter(inside=28, shrink=28)
        assert len(values) == 3 + 28 * (2 + 2)

    def test_losses_module_imports_no_scipy(self):
        tree = ast.parse(Path(si.losses.__file__).read_text())
        names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [m for m in names if m.split(".")[0] == "scipy"]


class TestLossVectorBatch:
    @pytest.mark.parametrize(
        "rule",
        [
            si.builtin_loss("log", 3),
            si.builtin_loss("brier", 3),
            si.builtin_loss("spherical", 3),
            si.ScoringRuleLoss(eval_fn=lambda x, q: float(q[x] ** 2 - q.sum()), n=3),
            si.savage_from_G(si.neg_entropy_oracle(), n=3),
        ],
        ids=["log", "brier", "spherical", "eval_fn-only", "savage"],
    )
    def test_batch_equals_stacked_single_calls(self, rule):
        rng = np.random.default_rng(8)
        batch = np.vstack([rng.dirichlet(np.ones(3), size=6), np.eye(3), simplex_grid(3, 4)])
        out = rule.loss_vector(batch)
        assert out.shape == batch.shape
        assert np.array_equal(out, np.array([rule.loss_vector(q) for q in batch]))

    @pytest.mark.parametrize("name", si.losses.BUILTIN_LOSSES)
    def test_layouts_and_lone_rows_agree(self, name):
        # C-ordered batches, F-ordered batches and each row alone give the same bits
        rng = np.random.default_rng(11)
        for n in (4, 5):
            l = si.builtin_loss(name, n)
            batch = rng.dirichlet(np.ones(n), size=500)
            lone = np.array([si.bayes_risk(l, row).risk for row in batch])
            for layout in (batch, np.asfortranarray(batch)):
                assert np.array_equal(si.losses._solve(l, layout)[1], lone)
                if isinstance(l, si.ScoringRuleLoss):
                    assert np.array_equal(l.loss_vector(layout), np.array([l.loss_vector(row) for row in batch]))

    def test_spherical_norm_is_the_left_fold(self):
        # |q|^2 is ((0 + q_0 q_0) + q_1 q_1) + ..., not a BLAS dot, in every layout
        rng = np.random.default_rng(12)
        for n in range(2, 13):
            l = si.builtin_loss("spherical", n)
            batch = rng.dirichlet(np.ones(n), size=60)
            for q in (batch, np.asfortranarray(batch), batch[::3], batch[:, ::-1]):
                expected = []
                for row in q.tolist():
                    norm2 = 0.0
                    for v in row:
                        norm2 += v * v
                    expected.append([-v / math.sqrt(norm2) for v in row])
                assert np.array_equal(l.loss_vector(q), np.array(expected))

    @pytest.mark.parametrize(
        "vector_fn",
        [lambda q: -q / np.linalg.norm(q), lambda q: -np.atleast_2d(q)[0]],
        ids=["not-row-wise", "wrong-shape"],
    )
    def test_bad_vector_fn_rejected(self, vector_fn):
        rule = si.ScoringRuleLoss(
            eval_fn=lambda x, q: float(vector_fn(q)[x]), n=3, proper=False, vector_fn=vector_fn
        )
        with pytest.raises(ParameterOutOfRange):
            si.bayes_risk(rule, [0.2, 0.3, 0.5])
        with pytest.raises(ParameterOutOfRange):
            si.audit_propriety(rule, trials=5)
        # flagged proper, the rule meets a batch in the violation scan's C kernel
        proper = dataclasses.replace(rule, proper=True)
        with pytest.raises(ParameterOutOfRange):
            si.find_violation(proper, 3, budget=30)


    @pytest.mark.parametrize(
        "batch_row, alone, ok",
        [
            ([np.inf, 1.0, 2.0], [np.inf, 1.0, 2.0], True),
            ([-np.inf, 1.0, 2.0], [-np.inf, 1.0, 2.0], True),
            ([np.inf, 1.0, 2.0], [-np.inf, 1.0, 2.0], False),
            ([np.nan, 1.0, 2.0], [np.nan, 1.0, 2.0], True),
            ([np.nan, 1.0, 2.0], [0.0, 1.0, 2.0], False),
            ([0.0, 1.0, 2.0], [np.nan, 1.0, 2.0], False),
            ([0.0, 1.0, 2.0], [1e-12, 1.0, 2.0], True),
            ([-1e-12, 1.0, 2.0], [0.0, 1.0, 2.0], True),
            ([0.0, 1.0, 2.0], [2e-12, 1.0, 2.0], False),
            ([np.inf, 1.0, 2.0], [1e300, 1.0, 2.0], False),
        ],
    )
    def test_row_wise_check_boundaries(self, batch_row, alone, ok):
        # row 0 of a batch against the same forecast alone: equal, within 1e-12, or both NaN
        def vector_fn(q):
            return np.tile(batch_row, (len(q), 1)) if q.ndim == 2 else np.array(alone)

        rule = si.ScoringRuleLoss(eval_fn=lambda x, q: 0.0, n=3, vector_fn=vector_fn)
        batch = np.full((2, 3), 1.0 / 3.0)
        if ok:
            assert np.array_equal(rule.loss_vector(batch), np.tile(batch_row, (2, 1)), equal_nan=True)
        else:
            with pytest.raises(ParameterOutOfRange, match="not row-wise"):
                rule.loss_vector(batch)


class TestVEnvelope:
    def test_log_is_neg_entropy(self):
        assert si.v_envelope(si.builtin_loss("log", 2), [0.5, 0.5]) == pytest.approx(-LN2)

    def test_zero_one(self):
        v = si.v_envelope(si.builtin_loss("zero_one", 3), [0.25, 0.25, 0.5])
        assert v == pytest.approx(-0.5, abs=1e-15)

    def test_finite_at_vertices(self):
        for name in ("log", "zero_one", "brier", "spherical", "absolute_ordered"):
            l = si.builtin_loss(name, 3)
            for i in range(3):
                assert math.isfinite(si.v_envelope(l, si.point_mass(i, 3)))

    def test_convexity_sampled(self):
        rng = np.random.default_rng(1)
        for name in ("log", "zero_one", "brier", "spherical", "absolute_ordered"):
            l = si.builtin_loss(name, 4)
            for _ in range(50):
                p = rng.dirichlet(np.ones(4))
                q = rng.dirichlet(np.ones(4))
                lam = float(rng.uniform())
                left = si.v_envelope(l, lam * p + (1 - lam) * q)
                right = lam * si.v_envelope(l, p) + (1 - lam) * si.v_envelope(l, q)
                assert left <= right + 1e-9

    def test_bounded_by_vertex_max(self):
        rng = np.random.default_rng(2)
        for name in ("log", "zero_one", "brier", "spherical", "absolute_ordered"):
            l = si.builtin_loss(name, 4)
            cap = max(si.v_envelope(l, si.point_mass(i, 4)) for i in range(4))
            for _ in range(50):
                assert si.v_envelope(l, rng.dirichlet(np.ones(4))) <= cap + 1e-9


class TestSavage:
    def test_neg_entropy_gives_log_loss(self):
        rule = si.savage_from_G(si.neg_entropy_oracle(), n=3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.dirichlet(np.ones(3))
            assert np.allclose(rule.loss_vector(q), -np.log(q), atol=1e-9)

    def test_sum_squares_gives_brier_minus_one(self):
        rule = si.savage_from_G(si.sum_squares_oracle(), n=3)
        brier = si.builtin_loss("brier", 3)
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = rng.dirichlet(np.ones(3))
            assert np.allclose(rule.loss_vector(q), brier.loss_vector(q) - 1.0, atol=1e-9)

    def test_linear_gives_constant(self):
        c = np.array([1.0, -0.5, 2.0])
        rule = si.savage_from_G(linear_oracle(c), n=3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = rng.dirichlet(np.ones(3))
            assert np.allclose(rule.loss_vector(q), -c, atol=1e-12)

    def test_envelope_recovers_g(self):
        g = si.sum_squares_oracle()
        rule = si.savage_from_G(g, n=3)
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            assert si.v_envelope(rule, p) == pytest.approx(g.value(p), abs=1e-9)


class TestAuditPropriety:
    def test_log_passes(self):
        rep = si.audit_propriety(si.builtin_loss("log", 3), trials=100, seed=0)
        assert rep.worst_margin >= -1e-9

    def test_brier_passes(self):
        rep = si.audit_propriety(si.builtin_loss("brier", 3), trials=100, seed=0)
        assert rep.worst_margin >= -1e-9

    def test_linear_score_not_proper(self):
        rule = si.ScoringRuleLoss(eval_fn=lambda x, q: -float(q[x]), n=2, proper=False)
        with pytest.raises(NotProper) as exc:
            si.audit_propriety(rule, trials=100, seed=0)
        assert exc.value.margin < -1e-9
        assert exc.value.p is not None and exc.value.q is not None

    def test_report_pinned(self):
        rep = si.audit_propriety(si.builtin_loss("spherical", 3), trials=20, seed=11)
        assert rep.worst_margin == 5.1019178613165295e-05
        assert rep.worst_p.tolist() == [0.001037553783724521, 0.45553265688821176, 0.5434297893280637]
        assert rep.worst_q.tolist() == [0.0, 0.45, 0.55]

    def test_n_must_match_declared_n(self):
        with pytest.raises(ParameterOutOfRange):
            si.audit_propriety(si.builtin_loss("log", 3), n=4, trials=5)
        rep = si.audit_propriety(si.builtin_loss("log", 3), n=3, trials=5)
        assert rep.worst_p.shape == (3,)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        # once a report of nothing: worst_margin inf, worst_p None
        with pytest.raises(ParameterOutOfRange, match="trials"):
            si.audit_propriety(si.builtin_loss("brier", 3), trials=trials)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"n": -2}, "n"), ({"n": 1}, "n"), ({"n": 2.5}, "n"), ({"n": "3"}, "n"),
         ({"trials": 2.5}, "trials"), ({"trials": "5"}, "trials"), ({"trials": None}, "trials")],
    )
    def test_sizes_checked_before_any_work(self, kwargs, name, monkeypatch):
        # once n = -2 raised numpy's ValueError, n = 1 returned a report and trials = 2.5 a TypeError
        rule = dataclasses.replace(si.builtin_loss("brier", 3), n=None)  # any alphabet size
        call = {"n": 3, "trials": 2, **kwargs}
        assert si.audit_propriety(rule, n=np.int64(2), trials=np.uint8(1)).trials == 1
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ParameterOutOfRange, match=name):
            si.audit_propriety(rule, **call)

    def test_not_proper_witness_pinned(self):
        rule = si.ScoringRuleLoss(eval_fn=lambda x, q: -float(q[x]), n=2, proper=False)
        with pytest.raises(NotProper) as exc:
            si.audit_propriety(rule, trials=100, seed=0)
        assert exc.value.p.tolist() == [0.4000707853732506, 0.5999292146267494]
        assert exc.value.q.tolist() == [0.25241805539539025, 0.7475819446046097]
        assert exc.value.margin == -0.0295096426883662
        assert type(exc.value.margin) is float


def _stars_and_bars(n: int, steps: int) -> np.ndarray:
    """The lattice from its definition: the n - 1 bar slots among steps + n - 1, lexicographic."""
    rows = [
        [b - a - 1 for a, b in zip((-1,) + bars, bars + (steps + n - 1,))]
        for bars in itertools.combinations(range(steps + n - 1), n - 1)
    ]
    return np.array(rows, dtype=float) / steps


@pytest.mark.parametrize("n, steps", [(2, 5), (3, 200), (4, 30)])
def test_simplex_grid_matches_stars_and_bars(n, steps):
    grid = simplex_grid(n, steps)
    assert grid.dtype == np.float64
    assert np.array_equal(grid, _stars_and_bars(n, steps))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("steps, rows", [(1, 1), (2, 1), (7, 1), (7, 5), (40, 100), (200, 1 << 15)])
def test_grid_blocks_concatenate_to_the_grid(n, steps, rows):
    # `_lattice` extends every row of a prefix: blocks of whole leading
    # coordinates, of about `rows` points each, extend to the grid in order
    if n == 5 and steps == 200:
        steps = 60  # the n = 5 lattice at 200 steps has 70M points
    grid = simplex_grid(n, steps)
    if n == 1:  # no leading coordinate to split: the one point
        assert grid.tolist() == [[1.0]]
        blocks = [grid]
    else:
        lead = np.arange(steps + 1, dtype=np.int64)
        sizes = [math.comb(steps - a + n - 2, n - 2) for a in range(steps + 1)]  # points per leading count
        block = (np.cumsum(sizes) - 1) // rows
        parts = np.split(lead, np.flatnonzero(np.diff(block)) + 1)
        blocks = [_lattice(part[:, None], steps - part, n) / steps for part in parts]
    assert np.concatenate(blocks).shape == grid.shape
    assert np.concatenate(blocks).tobytes() == grid.tobytes()
    if n > 1:  # each block holds whole leading coordinates
        heads = [set(b[:, 0].tolist()) for b in blocks]
        assert all(a.isdisjoint(b) for a, b in itertools.combinations(heads, 2))


def test_one_block_lattices_are_built_once_and_read_only():
    # each n's lattice is built on first use and kept, read-only
    for n, steps in ((2, 200), (3, 200), (4, 56), (5, 27), (6, 17)):
        first, again = _one_block_grid(n, steps), _one_block_grid(n, steps)
        assert first is again and not first.flags.writeable
        assert first.tobytes() == simplex_grid(n, steps).tobytes()


def _project_along_axis(v):
    """`_simplex_project` with its threshold read by `take_along_axis`: the reference for direct indexing."""
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = (np.cumsum(u, axis=-1) - 1.0) / np.arange(1, n + 1)
    k = n - 1 - np.argmax((u > css)[..., ::-1], axis=-1)
    return np.maximum(v - np.take_along_axis(css, k[..., None], axis=-1), 0.0)


def test_simplex_project_matches_take_along_axis():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        batch = np.vstack([
            rng.normal(size=(40, n)),
            rng.normal(size=(10, n)) * 1e3,
            rng.integers(-2, 3, size=(20, n)) / 2.0,  # ties
            rng.dirichlet(np.ones(n), size=10),  # already on the simplex
            simplex_grid(n, 4),
            np.eye(n),
        ])
        for row in batch:
            assert _simplex_project(row).tobytes() == _project_along_axis(row).tobytes()
        assert _simplex_project(batch).tobytes() == _project_along_axis(batch).tobytes()
        assert _simplex_project(batch[:0]).shape == (0, n)


def test_one_point_projection_is_row_zero_of_a_batch():
    # a point is projected on Python floats; the batch's np.maximum gives +0.0
    # where v - theta is -0.0 (Python's max(-0.0, 0.0) is -0.0), and a
    # non-finite entry or sum takes the batch path
    rng = np.random.default_rng(41)
    points = [[1.0, -0.0], [-0.0, 0.0], [-0.0, -0.0, 1.0], [0.5, -0.0, 0.5], [-0.0], [0.0, 1.0, -0.0, -0.0],
              [math.inf, 0.2], [-math.inf, 0.5, 0.5], [math.nan, 0.5, 0.5], [1e308, 1e308, -1.0], [3.0, 3.0, -3.0]]
    for n in range(1, 7):
        points += rng.normal(size=(20, n)).tolist() + (rng.integers(-2, 3, size=(20, n)) / 2.0).tolist()
        points += rng.dirichlet(np.ones(n), size=5).tolist() + np.eye(n).tolist()
    for z in map(np.array, points):
        with np.errstate(over="ignore", invalid="ignore"):  # 1e308 + 1e308, inf - inf
            one, row = _simplex_project(z), _simplex_project(z[None])[0]
        assert one.shape == z.shape and one.dtype == np.float64
        assert one.tobytes() == row.tobytes(), z
    batch = rng.normal(size=(30, 4))
    batch[batch < -0.8] = -0.0
    for z, row in zip(batch, _simplex_project(batch)):
        assert _simplex_project(z).tobytes() == row.tobytes(), z
    assert _simplex_project(np.array([1.0, -0.0])).tobytes() == np.array([1.0, 0.0]).tobytes()


def _fixed_rule(values) -> si.ScoringRuleLoss:
    """A rule whose loss vector is `values` at every forecast (row-wise, so batches pass)."""
    values = np.array(values, dtype=float)
    return si.ScoringRuleLoss(eval_fn=lambda x, q: float(values[x]), n=len(values),
                              vector_fn=lambda q: np.broadcast_to(values, np.shape(q)).copy())


def test_one_forecast_risk_is_row_zero_of_a_batch():
    # one forecast folds p_x ell_x on Python floats: from +0.0 (so -0.0 terms sum
    # to +0.0), 0 * inf = 0, an inf, -inf or >= HUGE loss at a live x makes it
    # inf, and NaN passes through otherwise
    huge = si.losses.HUGE
    ps = [[0.2, 0.3, 0.5], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5 + 5e-10, -1e-12]]
    values = [[1.0, 2.0, 3.0], [-0.0, -0.0, -0.0], [-0.0, 5.0, -1.0], [math.inf, 1.0, 2.0], [-math.inf, 1.0, 2.0],
              [huge, 1.0, 2.0], [1e18, -0.0, 2.0], [math.nan, 1.0, 2.0], [math.nan, math.inf, 1.0],
              [1.0, math.nan, -math.inf], [0.0, -1e300, -1e300]]
    rules = [_fixed_rule(v) for v in values] + [unflagged_rule(k, 3) for k in ("linear", "log", "brier")]
    rules.append(_eval_fn_rule(3))
    qs = np.vstack([np.eye(3), [[0.0, 0.5, 0.5], [0.25, 0.25, 0.5], [1 / 3, 1 / 3, 1 / 3]]])
    seen = set()
    for rule, p, q in itertools.product(rules, map(np.array, ps), qs):
        with np.errstate(divide="ignore"):
            one = _expected_scoring_loss(rule, p, q)
            rows = _expected_scoring_loss(rule, p, qs), _expected_scoring_loss(rule, p[None], q[None])
        assert type(one) is float
        expect = rows[0][qs.tolist().index(q.tolist())]
        assert np.float64(one).tobytes() == expect.tobytes() == rows[1][0].tobytes(), (rule, p, q)
        seen.add("nan" if math.isnan(one) else "inf" if one == math.inf else "-0.0" if str(one) == "-0.0"
                 else "+0.0" if one == 0.0 else "finite")
    assert seen == {"nan", "inf", "+0.0", "finite"}


def test_nelder_mead_edge_cases_match_scipy():
    # starts with -0.0 entries (stepped by 0.00025, as 0.0 is), and a NaN half-line
    # that keeps a NaN vertex to the iteration cap, so fun is np.min's NaN, not
    # the best value that Python's min would pick; every vertex passed to f is scipy's
    cases = [(lambda z: math.nan if z[0] > 0 else 1.0, [0.0])]
    for x0 in ([-0.0, 0.5, 0.5], [-0.0, -0.0, 1.0], [0.25, -0.0, 0.75], [-0.0, 1.0]):
        for kind in ("linear", "kink"):
            rule, p = unflagged_rule(kind, len(x0)), np.full(len(x0), 1.0 / len(x0))
            cases.append((lambda z, rule=rule, p=p: _expected_scoring_loss(rule, p, _simplex_project(z)), x0))
    for f, x0 in cases:
        logs = ([], [])

        def objective(z, log):
            log.append((z.tobytes(), f(z)))
            return log[-1][1]

        res = minimize(lambda z: objective(z, logs[0]), np.array(x0), method="Nelder-Mead",
                       options={"maxiter": 400 * len(x0), "xatol": 1e-10, "fatol": 1e-12})
        x, fun = _nelder_mead(lambda z: objective(z, logs[1]), np.array(x0))
        assert (x.tobytes(), np.float64(fun).tobytes()) == (res.x.tobytes(), np.float64(res.fun).tobytes()), x0
        assert [z for z, _ in logs[1]] == [z for z, _ in logs[0]], x0
        assert np.array([v for _, v in logs[1]]).tobytes() == np.array([v for _, v in logs[0]]).tobytes(), x0
    assert math.isnan(_nelder_mead(cases[0][0], np.array([0.0]))[1])


def test_simplex_grid_counts():
    assert simplex_grid(2, 4).shape == (5, 2)
    g = simplex_grid(3, 10)
    assert g.shape == (66, 3)
    assert np.allclose(g.sum(axis=1), 1.0)


_P3 = [0.2, 0.3, 0.5]
# each seeded entry point as a float of its result
_SEEDED = {
    "bayes_risk": lambda rule, seed: si.bayes_risk(rule, _P3, seed=seed).risk,
    "v_envelope": lambda rule, seed: si.v_envelope(rule, _P3, seed=seed),
    "audit_propriety": lambda rule, seed: si.audit_propriety(rule, trials=3, seed=seed).worst_margin,
}


@pytest.mark.parametrize("entry", sorted(_SEEDED))
@pytest.mark.parametrize("tier", ["exact", "numeric"])
def test_seed_out_of_range(entry, tier, monkeypatch):
    # once an exact tier ignored a bad seed, and the numeric tier and the
    # audit raised numpy's bare ValueError or TypeError from default_rng
    rule = si.builtin_loss("brier", 3) if tier == "exact" else unflagged_rule("brier", 3)
    call = _SEEDED[entry]
    assert call(rule, np.uint32(3)) == call(rule, np.int64(3)) == call(rule, 3)
    monkeypatch.setattr(si.losses, "_solve", None)  # no work before the check
    monkeypatch.setattr(np.random, "default_rng", None)
    for seed in (-1, 2.5, "3", None):
        with pytest.raises(ParameterOutOfRange, match="seed"):
            call(rule, seed)
