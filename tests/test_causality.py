import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov

import sideinfo as si
from sideinfo.causality import STATE_LIMIT, ProcessModel, _prefix_entropies
from sideinfo.errors import HorizonTooLarge, NotStationary, ParameterOutOfRange

from conftest import (
    copy_process,
    delayed_copy_process,
    independent_process,
    random_stationary_markov,
    unroll,
    x_from_y_process,
)

LN2 = math.log(2)


class TestProcessValidation:
    def test_markov_nan_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            si.MarkovJointProcess(2, 2, [np.nan, 0.25, 0.25, 0.5], np.full((4, 4), 0.25))
        kernel = np.full((4, 4), 0.25)
        kernel[1, 2] = np.nan
        with pytest.raises(ParameterOutOfRange):
            si.MarkovJointProcess(2, 2, np.full(4, 0.25), kernel)

    def test_explicit_nan_rejected(self):
        table = np.full((2, 2), 0.25)
        table[0, 1] = np.nan
        with pytest.raises(ParameterOutOfRange):
            si.ExplicitProcess(2, 2, table)

    def test_explicit_shape_must_match_alphabets(self):
        with pytest.raises(ParameterOutOfRange):
            si.ExplicitProcess(2, 2, np.full((3, 2, 3, 2), 1 / 36))
        with pytest.raises(ParameterOutOfRange):
            si.ExplicitProcess(2, 2, np.array(1.0))

    def test_explicit_nonpositive_horizon_rejected(self):
        proc = unroll(copy_process(), 3)
        for n in (0, -1):
            with pytest.raises(ParameterOutOfRange):
                si.directed_info(proc, n)
            with pytest.raises(ParameterOutOfRange):
                si.granger_noncausal(proc, n)

    def test_di_rate_needs_markov_model(self):
        with pytest.raises(ParameterOutOfRange):
            si.di_rate(unroll(independent_process(), 3))


class TestDirectedInfo:
    def test_copy_process(self):
        assert si.directed_info(copy_process(), 3) == pytest.approx(3 * LN2, abs=1e-12)

    def test_independent(self):
        assert si.directed_info(independent_process(), 3) == pytest.approx(0.0, abs=1e-12)

    def test_delayed_copy(self):
        assert si.directed_info(delayed_copy_process(), 3) == pytest.approx(2 * LN2, abs=1e-12)

    def test_monotone_in_horizon(self):
        m = random_stationary_markov(0)
        vals = [si.directed_info(m, n) for n in range(1, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v >= -1e-12 for v in vals)

    def test_horizon_bound(self):
        with pytest.raises(HorizonTooLarge):
            si.directed_info(copy_process(), 4, state_limit=63)

    def test_degenerate_horizon_rejected(self):
        for n in (0, -1):
            with pytest.raises(ParameterOutOfRange):
                si.directed_info(copy_process(), n)

    def test_explicit_shorter_prefix(self):
        proc = unroll(copy_process(), 4)
        assert si.directed_info(proc, 2) == pytest.approx(2 * LN2, abs=1e-12)
        with pytest.raises(HorizonTooLarge):
            si.directed_info(proc, 5)


class TestCausallyCondEntropy:
    def test_copy_process_zero(self):
        assert si.causally_cond_entropy(copy_process(), 3) == pytest.approx(0.0, abs=1e-12)

    def test_independent_full_entropy(self):
        assert si.causally_cond_entropy(independent_process(), 3) == pytest.approx(
            3 * LN2, abs=1e-12
        )

    def test_delayed_copy_single_bit(self):
        assert si.causally_cond_entropy(delayed_copy_process(), 3) == pytest.approx(
            LN2, abs=1e-12
        )

    def test_identity_with_directed_info(self):
        # H(Y^n) - H(Y^n || X^n) = I(X^n -> Y^n)
        for seed in range(10):
            m = random_stationary_markov(seed)
            n = 5
            proc = unroll(m, n)
            hy = si.entropy(proc.table.sum(axis=tuple(2 * k for k in range(n))).reshape(-1))
            assert hy - si.causally_cond_entropy(m, n) == pytest.approx(
                si.directed_info(m, n), abs=1e-9
            )


class TestReverseDelayedDI:
    def test_copy_process_zero(self):
        assert si.reverse_delayed_di(copy_process(), 3) == pytest.approx(0.0, abs=1e-12)

    def test_delayed_copy_zero(self):
        assert si.reverse_delayed_di(delayed_copy_process(), 3) == pytest.approx(0.0, abs=1e-12)

    def test_x_from_y(self):
        assert si.reverse_delayed_di(x_from_y_process(), 3) == pytest.approx(2 * LN2, abs=1e-12)

    def test_nonnegative_monotone(self):
        m = random_stationary_markov(1)
        vals = [si.reverse_delayed_di(m, n) for n in range(1, 7)]
        assert all(v >= -1e-12 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestConservation:
    def test_copy_process(self):
        rep = si.conservation_check(copy_process(), 3)
        assert rep.total_mi == pytest.approx(3 * LN2, abs=1e-12)
        assert rep.forward == pytest.approx(3 * LN2, abs=1e-12)
        assert rep.reverse_delayed == pytest.approx(0.0, abs=1e-12)
        assert rep.residual <= 1e-9

    def test_independent(self):
        rep = si.conservation_check(independent_process(), 3)
        assert rep.total_mi == pytest.approx(0.0, abs=1e-12)
        assert rep.residual <= 1e-12

    def test_random_models_horizon_six(self):
        for seed in range(20):
            rep = si.conservation_check(random_stationary_markov(seed), 6)
            assert rep.residual <= 1e-9
            assert rep.residual_refined <= 1e-9

    def test_explicit_process_accepted(self):
        proc = unroll(copy_process(), 3)
        rep = si.conservation_check(proc, 3)
        assert rep.forward == pytest.approx(3 * LN2, abs=1e-12)


class TestGranger:
    def test_copy_noncausal(self):
        assert si.granger_noncausal(copy_process(), 3)

    def test_x_from_y_causal(self):
        assert not si.granger_noncausal(x_from_y_process(), 3)

    def test_independent_noncausal(self):
        assert si.granger_noncausal(independent_process(), 3)


class TestTransferEntropy:
    def test_copy_zero(self):
        assert si.transfer_entropy(copy_process(), "y->x") == pytest.approx(0.0, abs=1e-12)

    def test_x_from_y(self):
        assert si.transfer_entropy(x_from_y_process(), "y->x") == pytest.approx(LN2, abs=1e-12)

    def test_independent_both_directions(self):
        m = independent_process()
        assert si.transfer_entropy(m, "y->x") == pytest.approx(0.0, abs=1e-12)
        assert si.transfer_entropy(m, "x->y") == pytest.approx(0.0, abs=1e-12)

    def test_x_to_y_direction_on_copy_like(self):
        # in the delayed copy, information flows x -> y one step later
        assert si.transfer_entropy(delayed_copy_process(), "x->y") == pytest.approx(
            LN2, abs=1e-12
        )

    def test_not_stationary_rejected(self):
        k = np.zeros((4, 4))
        for x in range(2):
            for y in range(2):
                k[x * 2 + y, (1 - x) * 2 + (1 - y)] = 1.0  # deterministic flip
        m = si.MarkovJointProcess(2, 2, np.array([1.0, 0.0, 0.0, 0.0]), k)
        with pytest.raises(NotStationary):
            si.transfer_entropy(m, "y->x")

    def test_matches_increment_on_example_processes(self):
        # when the X marginal is itself Markov, the single-stage term equals
        # the stationary increment of the delayed reverse DI
        for m in (copy_process(), x_from_y_process(), independent_process()):
            inc = si.reverse_delayed_di(m, 6) - si.reverse_delayed_di(m, 5)
            assert si.transfer_entropy(m, "y->x") == pytest.approx(inc, abs=1e-6)


class TestDiRate:
    def test_x_from_y_rate(self):
        r = si.di_rate(x_from_y_process(), "y->x", max_n=10, tol=1e-9)
        assert r.converged
        assert r.rate == pytest.approx(LN2, abs=1e-9)

    def test_independent_zero(self):
        r = si.di_rate(independent_process(), "y->x", max_n=8, tol=1e-9)
        assert r.converged
        assert r.rate == pytest.approx(0.0, abs=1e-12)

    def test_direction_flip(self):
        r = si.di_rate(x_from_y_process(), "x->y", max_n=8, tol=1e-9)
        assert r.rate == pytest.approx(0.0, abs=1e-9)

    def test_rate_is_exact_last_increment(self):
        for seed in range(4):
            m = random_stationary_markov(seed)
            r = si.di_rate(m, "y->x", max_n=9, tol=1e-12)
            inc = si.reverse_delayed_di(m, r.horizon) - si.reverse_delayed_di(m, r.horizon - 1)
            assert r.rate == pytest.approx(inc, abs=1e-12)

    def test_self_consistency_at_horizon_twelve(self):
        # the per-step average lags the limit increment by about rate/n, so the
        # 1e-3 agreement is checked on weakly coupled kernels where it holds
        for seed in range(2):
            m = random_stationary_markov(seed, conc=10.0)
            r = si.di_rate(m, "y->x", max_n=12, tol=1e-12, state_limit=2**25)
            total = si.reverse_delayed_di(m, 12, state_limit=2**25)
            assert r.rate == pytest.approx(total / 12, abs=1e-3)

    def test_unstationary_rejected(self):
        m = si.MarkovJointProcess(
            2, 2, np.array([1.0, 0.0, 0.0, 0.0]), np.tile(np.full(4, 0.25), (4, 1))
        )
        with pytest.raises(NotStationary):
            si.di_rate(m, "y->x")

    def test_last_gap_at_horizon_cap(self):
        m = random_stationary_markov(0)
        r = si.di_rate(m, "y->x", max_n=3, tol=1e-15)
        incs = [si.reverse_delayed_di(m, n) - si.reverse_delayed_di(m, n - 1) for n in (2, 3)]
        assert not r.converged
        assert r.last_gap > 0
        assert r.last_gap == pytest.approx(abs(incs[1] - incs[0]), abs=1e-12)

    def test_last_gap_at_enumeration_bound(self):
        m = random_stationary_markov(0)
        r = si.di_rate(m, "y->x", max_n=12, tol=1e-15, state_limit=2**4 * 4)
        incs = [si.reverse_delayed_di(m, n) - si.reverse_delayed_di(m, n - 1) for n in (3, 4)]
        assert (r.converged, r.horizon) == (False, 4)
        assert r.last_gap == pytest.approx(abs(incs[1] - incs[0]), abs=1e-12)
        # one measured increment leaves nothing to compare
        assert si.di_rate(m, "y->x", max_n=12, state_limit=2**2 * 4).last_gap == math.inf

    def test_no_increment_under_the_bound_raises(self):
        # once rate=0.0 at horizon 1, a rate measured from nothing
        m = random_stationary_markov(0)
        with pytest.raises(HorizonTooLarge, match=r"max\(2, 2\)\*\*2 \* 4 entries exceed the enumeration bound 5"):
            si.di_rate(m, "y->x", max_n=12, state_limit=5)


def _axes_entropy(table: np.ndarray, axes: frozenset) -> float:
    """Entropy of the marginal on `axes`, by one direct sum over every other axis."""
    if not axes:
        return 0.0
    drop = tuple(ax for ax in range(table.ndim) if ax not in axes)
    return si.entropy(table.sum(axis=drop).reshape(-1))


def _cmi(table: np.ndarray, a: frozenset, b: frozenset, c: frozenset = frozenset()) -> float:
    """I(A; B | C) for disjoint axis sets, from its definition."""
    h = lambda axes: _axes_entropy(table, axes)  # noqa: E731
    return h(a | c) + h(b | c) - h(a | b | c) - h(c)


def reference_measures(table: np.ndarray, n: int) -> dict[str, float]:
    """Each finite-alphabet measure at horizon n from its definition, by brute force.

    Axes are ordered x1, y1, x2, y2, ...; X^i and Y^i are prefixes, X_i and
    Y_i single steps.
    """
    t = table.sum(axis=tuple(range(2 * n, table.ndim)))
    xs = lambda i: frozenset(range(0, 2 * i, 2))  # noqa: E731
    ys = lambda i: frozenset(range(1, 2 * i, 2))  # noqa: E731
    x = lambda i: frozenset({2 * i - 2})  # noqa: E731
    y = lambda i: frozenset({2 * i - 1})  # noqa: E731
    steps = range(1, n + 1)
    return {
        "forward": sum(_cmi(t, xs(i), y(i), ys(i - 1)) for i in steps),
        "causal_cond": sum(
            _axes_entropy(t, xs(i) | ys(i)) - _axes_entropy(t, xs(i) | ys(i - 1)) for i in steps
        ),
        "reverse": sum(_cmi(t, ys(i - 1), x(i), xs(i - 1)) for i in steps),
        "delayed_forward": sum(_cmi(t, xs(i - 1), y(i), ys(i - 1)) for i in steps),
        "instantaneous": sum(_cmi(t, x(i), y(i), xs(i - 1) | ys(i - 1)) for i in steps),
        "total": _cmi(t, xs(n), ys(n)),
    }


def _assert_matches_reference(m: ProcessModel, n: int, ref: dict[str, float]) -> None:
    assert si.directed_info(m, n) == pytest.approx(ref["forward"], abs=1e-12)
    assert si.causally_cond_entropy(m, n) == pytest.approx(ref["causal_cond"], abs=1e-12)
    assert si.reverse_delayed_di(m, n) == pytest.approx(ref["reverse"], abs=1e-12)
    assert si.granger_noncausal(m, n) == (ref["reverse"] <= 1e-9)
    rep = si.conservation_check(m, n)
    assert rep.forward == pytest.approx(ref["forward"], abs=1e-12)
    assert rep.reverse_delayed == pytest.approx(ref["reverse"], abs=1e-12)
    assert rep.delayed_forward == pytest.approx(ref["delayed_forward"], abs=1e-12)
    assert rep.instantaneous == pytest.approx(ref["instantaneous"], abs=1e-12)
    assert rep.total_mi == pytest.approx(ref["total"], abs=1e-12)
    assert rep.residual == pytest.approx(
        abs(ref["total"] - ref["forward"] - ref["reverse"]), abs=1e-12
    )
    assert rep.residual_refined == pytest.approx(
        abs(ref["total"] - ref["delayed_forward"] - ref["reverse"] - ref["instantaneous"]),
        abs=1e-12,
    )


ORACLE_MODELS = [(seed, nx, ny) for seed in range(2) for nx, ny in ((2, 2), (3, 2), (2, 3))]

# (label, model, largest horizon) for the forward recursion against the unrolled table
ENGINE_MODELS = [
    *[(f"2x2-seed{seed}", random_stationary_markov(seed), 10) for seed in range(2)],
    *[
        (f"{nx}x{ny}", random_stationary_markov(0, nx=nx, ny=ny), 6)
        for nx, ny in ((3, 2), (2, 3), (3, 3), (1, 2), (2, 1), (1, 3), (1, 1))
    ],
    ("copy", copy_process(), 10),
    ("delayed-copy", delayed_copy_process(), 10),
]


class TestReferenceOracle:
    @pytest.mark.parametrize("seed,nx,ny", ORACLE_MODELS)
    def test_markov_measures(self, seed, nx, ny):
        m = random_stationary_markov(seed, nx=nx, ny=ny)
        refs = {}
        for n in range(1, 7):
            refs[n] = reference_measures(unroll(m, n).table, n)
            _assert_matches_reference(m, n, refs[n])
        for direction, key in (("y->x", "reverse"), ("x->y", "delayed_forward")):
            r = si.di_rate(m, direction, max_n=6, tol=1e-12)
            inc = refs[r.horizon][key] - refs[r.horizon - 1][key]
            assert r.rate == pytest.approx(inc, abs=1e-12)

    @pytest.mark.parametrize(
        "m,horizon", [case[1:] for case in ENGINE_MODELS], ids=[case[0] for case in ENGINE_MODELS]
    )
    def test_engine_matches_unrolled_table(self, m, horizon):
        for n in range(1, horizon + 1):
            engine = _prefix_entropies(m, n, STATE_LIMIT)
            oracle = _prefix_entropies(unroll(m, n), n, STATE_LIMIT)
            assert engine.keys() == oracle.keys()
            assert max(abs(engine[k] - oracle[k]) for k in engine) <= 1e-12

    def test_conservation_at_horizon_twenty_two(self):
        # the forward arrays reach 2**22 * 4 entries; the sequence space would be 4**22
        rep = si.conservation_check(random_stationary_markov(0), 22, state_limit=2**22 * 4)
        assert rep.residual <= 1e-9
        assert rep.residual_refined <= 1e-9

    def test_non_markov_explicit_table(self):
        rng = np.random.default_rng(12)
        table = rng.dirichlet(np.full(6**3, 0.5))
        table[rng.random(table.size) < 0.3] = 0.0  # zero cells exercise 0 log 0
        table = (table / table.sum()).reshape((2, 3) * 3)
        proc = si.ExplicitProcess(2, 3, table)
        for n in range(1, 4):
            _assert_matches_reference(proc, n, reference_measures(table, n))

    @pytest.mark.parametrize("seed,nx,ny", ORACLE_MODELS)
    def test_transfer_entropy_closed_form(self, seed, nx, ny):
        m = random_stationary_markov(seed, nx=nx, ny=ny)
        two = (m.initial[:, None] * m.kernel).reshape(nx, ny, nx, ny)  # x0, y0, x1, y1
        te_yx = _cmi(two, frozenset({1}), frozenset({2}), frozenset({0}))  # I(Y_0; X_1 | X_0)
        te_xy = _cmi(two, frozenset({0}), frozenset({3}), frozenset({1}))  # I(X_0; Y_1 | Y_0)
        assert si.transfer_entropy(m, "y->x") == pytest.approx(te_yx, abs=1e-12)
        assert si.transfer_entropy(m, "x->y") == pytest.approx(te_xy, abs=1e-12)


@st.composite
def processes(draw) -> tuple[ProcessModel, int]:
    """A random joint Markov model or explicit table, with a horizon it supports."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = nx * ny

    def dist(size: int) -> np.ndarray:
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
        return w / w.sum() if w.sum() > 0 else np.full(size, 1.0 / size)

    if draw(st.booleans()):
        n = draw(st.integers(1, max(k for k in range(1, 7) if q**k <= 64)))
        return si.ExplicitProcess(nx, ny, dist(q**n).reshape((nx, ny) * n)), n
    kernel = np.stack([dist(q) for _ in range(q)])
    n = draw(st.integers(1, max(k for k in range(1, 7) if q**k <= 10**4)))
    return si.MarkovJointProcess(nx, ny, dist(q), kernel), n


class TestConservationProperties:
    @given(processes())
    def test_conservation_law_and_nonnegativity(self, case):
        m, n = case
        rep = si.conservation_check(m, n)
        assert abs(rep.total_mi - rep.forward - rep.reverse_delayed) <= 1e-9
        assert abs(
            rep.total_mi - rep.delayed_forward - rep.reverse_delayed - rep.instantaneous
        ) <= 1e-9
        measures = [
            rep.forward, rep.reverse_delayed, rep.instantaneous, rep.total_mi,
            rep.delayed_forward, si.directed_info(m, n), si.causally_cond_entropy(m, n),
            si.reverse_delayed_di(m, n),
        ]
        assert min(measures) >= -1e-12


class TestGeweke:
    def test_no_coupling_zero(self):
        v = si.VarModel(coeffs=np.array([[[0.7, 0.0], [0.3, 0.5]]]), sigma=np.eye(2))
        assert abs(si.geweke_F(v)) <= 1e-9

    def test_closed_form_ln_one_plus_b_squared(self):
        for b in (0.5, 1.0, 2.0):
            v = si.VarModel(coeffs=np.array([[[0.0, b], [0.0, 0.0]]]), sigma=np.eye(2))
            assert si.geweke_F(v) == pytest.approx(math.log(1 + b * b), abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        count = 0
        while count < 20:
            a = rng.uniform(-0.6, 0.6, size=(2, 2))
            if max(abs(np.linalg.eigvals(a))) >= 0.95:
                continue
            v = si.VarModel(coeffs=a[None], sigma=np.array([[1.0, 0.3], [0.3, 1.0]]))
            assert si.geweke_F(v) >= -1e-9
            count += 1

    def test_zero_iff_no_coupling(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ax, ayx, ay = rng.uniform(-0.7, 0.7, size=3)
            v0 = si.VarModel(
                coeffs=np.array([[[ax, 0.0], [ayx, ay]]]),
                sigma=np.array([[1.0, 0.2], [0.2, 0.9]]),
            )
            assert abs(si.geweke_F(v0)) <= 1e-9
            b = float(rng.uniform(0.2, 0.7)) * float(rng.choice([-1.0, 1.0]))
            v1 = si.VarModel(
                coeffs=np.array([[[ax * 0.5, b], [ayx * 0.5, ay * 0.5]]]),
                sigma=np.array([[1.0, 0.2], [0.2, 0.9]]),
            )
            assert si.geweke_F(v1) > 1e-6

    def test_var2_model(self):
        v = si.VarModel(
            coeffs=np.array([[[0.4, 0.2], [0.1, 0.3]], [[0.1, 0.1], [0.0, 0.2]]]),
            sigma=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        f = si.geweke_F(v)
        assert f > 0
        assert math.isfinite(f)

    def test_var2_against_simulation(self):
        a1 = np.array([[0.3, 0.2], [0.1, 0.25]])
        a2 = np.array([[0.15, 0.1], [0.0, 0.2]])
        sigma = np.array([[1.0, 0.15], [0.15, 0.7]])
        v = si.VarModel(coeffs=np.stack([a1, a2]), sigma=sigma)
        exact = si.geweke_F(v)
        rng = np.random.default_rng(777)
        steps = 300_000
        eps = rng.standard_normal((steps, 2)) @ np.linalg.cholesky(sigma).T
        z = np.zeros((steps, 2))
        for t in range(2, steps):
            z[t] = a1 @ z[t - 1] + a2 @ z[t - 2] + eps[t]
        x, y = z[2000:, 0], z[2000:, 1]
        design = np.column_stack([x[1:-1], x[:-2], y[1:-1], y[:-2], np.ones(x.shape[0] - 2)])
        res_full = x[2:] - design @ np.linalg.lstsq(design, x[2:], rcond=None)[0]
        lag = 30
        w = np.lib.stride_tricks.sliding_window_view(x, lag + 1)
        dr = np.column_stack([w[:, :-1], np.ones(w.shape[0])])
        res_restr = w[:, -1] - dr @ np.linalg.lstsq(dr, w[:, -1], rcond=None)[0]
        simulated = math.log(float(np.var(res_restr)) / float(np.var(res_full)))
        assert simulated == pytest.approx(exact, rel=0.05)

    def test_unstable_rejected(self):
        with pytest.raises(NotStationary):
            si.VarModel(coeffs=np.array([[[1.1, 0.0], [0.0, 0.5]]]), sigma=np.eye(2))

    def test_direction_argument(self):
        v = si.VarModel(coeffs=np.array([[[0.0, 1.0], [0.0, 0.0]]]), sigma=np.eye(2))
        assert si.geweke_F(v, "y->x") == pytest.approx(LN2, abs=1e-9)
        assert abs(si.geweke_F(v, "x->y")) <= 1e-9
        with pytest.raises(ParameterOutOfRange):
            si.geweke_F(v, "sideways")

    def test_bad_direction_same_message_everywhere(self):
        v = si.VarModel(coeffs=np.array([[[0.0, 1.0], [0.0, 0.0]]]), sigma=np.eye(2))
        row = np.array([0.25, 0.25, 0.25, 0.25])
        m = si.MarkovJointProcess(2, 2, row.copy(), np.tile(row, (4, 1)))
        text = r"^direction must be 'y->x' or 'x->y', got 'sideways'$"
        for call in (lambda: si.geweke_F(v, "sideways"), lambda: si.transfer_entropy(m, "sideways"),
                     lambda: si.di_rate(m, "sideways")):
            with pytest.raises(ParameterOutOfRange, match=text):
                call()


def _block_autocovariances(v: si.VarModel, lags: int) -> np.ndarray:
    """Gamma(0..lags) from scipy's discrete Lyapunov solve and the VAR recurrence (the oracle)."""
    p = v.order
    q = np.zeros((2 * p, 2 * p))
    q[:2, :2] = v.sigma
    s = solve_discrete_lyapunov(v.companion(), q)
    gammas = [s[:2, 2 * h: 2 * h + 2].copy() for h in range(min(p, lags + 1))]
    while len(gammas) <= lags:
        h = len(gammas)
        g = np.zeros((2, 2))
        for k in range(p):
            g += v.coeffs[k] @ gammas[h - k - 1]
        gammas.append(g)
    return np.array(gammas[: lags + 1])


def _block_levinson(r: np.ndarray, k_tol: float) -> tuple[float, bool]:
    """Levinson-Durbin over a fixed block r[0..L]; (variance, settled before the block ran out)."""
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
        if abs(k) < k_tol:
            return err, True
    return err, False


def _block_geweke(v: si.VarModel, direction: str, k_tol: float = 1e-10) -> tuple[float, int]:
    """F by block Levinson-Durbin, with 64-lag blocks regrown x4 until it settles; (F, lags computed)."""
    comp = 0 if direction == "y->x" else 1
    lags = 64
    while True:
        restricted, settled = _block_levinson(_block_autocovariances(v, lags)[:, comp, comp], k_tol)
        if settled:
            return float(np.log(restricted / float(v.sigma[comp, comp]))), lags
        lags *= 4


def _seeded_var(seed: int) -> si.VarModel:
    """A stationary VAR of order 1 + seed % 3 with random coefficients and innovation covariance."""
    rng = np.random.default_rng(seed)
    p = 1 + seed % 3
    while True:
        c = rng.normal(size=(2, 2))
        try:
            return si.VarModel(coeffs=0.5 * rng.normal(size=(p, 2, 2)), sigma=c @ c.T + 0.2 * np.eye(2))
        except NotStationary:
            continue


class TestGewekeRiccati:
    """geweke_F's Riccati recursion against the scipy-built block Levinson-Durbin oracle."""

    def test_matches_block_oracle(self):
        lags_used = []
        for seed in range(12):
            v = _seeded_var(seed)
            for direction in ("y->x", "x->y"):
                expected, lags = _block_geweke(v, direction)
                assert abs(si.geweke_F(v, direction) - expected) <= 1e-12
                lags_used.append(lags)
        assert max(lags_used) > 64  # the corpus includes a model that outgrows the first block

    def test_max_order_matches_oracle_order(self):
        v = _seeded_var(2)  # Levinson needs 76 orders in the y->x direction
        full = float(v.sigma[0, 0])
        for max_order in (1, 5, 63):
            r = _block_autocovariances(v, max_order)[:, 0, 0]
            restricted, settled = _block_levinson(r, 1e-10)
            assert not settled
            assert abs(si.geweke_F(v, max_order=max_order) - float(np.log(restricted / full))) <= 1e-12
        assert si.geweke_F(v, max_order=5) != si.geweke_F(v)

    @pytest.mark.parametrize("k_tol", [1e-2, 1e-4, 1e-6])
    def test_k_tol_matches_oracle_stop(self, k_tol):
        for seed in range(12):
            v = _seeded_var(seed)
            for direction in ("y->x", "x->y"):
                expected, _ = _block_geweke(v, direction, k_tol)
                assert abs(si.geweke_F(v, direction, k_tol=k_tol) - expected) <= 1e-12


class TestVarModelValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["coeffs", "sigma"])
    def test_non_finite_entry_rejected(self, field, bad):
        params = {"coeffs": np.array([[[0.5, 0.1], [0.0, 0.3]]]), "sigma": np.eye(2)}
        params[field][(0,) * params[field].ndim] = bad
        with pytest.raises(ParameterOutOfRange, match="finite"):
            si.VarModel(**params)
