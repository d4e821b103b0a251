import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sideinfo as si
from sideinfo.errors import NegativeMass, NotNormalized, ParameterOutOfRange, ZeroConditioningEvent
from sideinfo.prob import _simplex

from conftest import linear_oracle, random_joint, random_joint3

LN2 = math.log(2)


class TestValidateDist:
    def test_exact_simplex_point(self):
        d = si.validate_dist([0.25, 0.25, 0.5])
        assert np.array_equal(d.probs, [0.25, 0.25, 0.5])
        assert d.correction == 0.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            si.validate_dist([0.5, 0.5, 0.1])

    def test_clamp_within_tolerance(self):
        d = si.validate_dist([1.0, -1e-12, 1e-12])
        assert d.probs[1] == 0.0
        assert abs(d.probs.sum() - 1.0) < 1e-15
        assert d.correction > 0.0

    def test_negative_mass_beyond_tolerance(self):
        with pytest.raises(NegativeMass):
            si.validate_dist([1.1, -0.1])


class TestSimplexCheck:
    def test_messages_print_python_floats(self):
        with pytest.raises(NotNormalized, match=r"^entries sum to 1\.4, not 1 within 1e-09$"):
            si.validate_dist([0.5, 0.9])
        with pytest.raises(NegativeMass, match=r"^negative mass beyond tolerance: min entry -0\.2$"):
            si.validate_joint([[0.6, 0.6], [-0.2, 0.0]])

    def test_stack_names_first_failing_slice(self):
        ok, long, low = [[0.5, 0.5]], [[0.5, 0.6]], [[-0.5, 1.5]]
        with pytest.raises(NotNormalized, match=r"^entries sum to 1\.1, not 1 within 1e-09 \(slice 1\)$"):
            _simplex(np.array([ok, long, long]), 2)
        with pytest.raises(NegativeMass, match=r"^negative mass beyond tolerance: min entry -0\.5 \(slice 2\)$"):
            _simplex(np.array([ok, ok, low]), 2)

    def test_stack_slices_same_bits_as_alone(self):
        rng = np.random.default_rng(4)
        stack = rng.dirichlet(np.ones(12), size=50).reshape(50, 4, 3) * (1 + rng.uniform(-5e-10, 5e-10, (50, 1, 1)))
        stack[::7, 0, 1] += stack[::7, 0, 0]
        stack[::7, 0, 0] = -1e-12  # clamped, within tol
        clamped, sums = _simplex(stack, 2)
        for k, table in enumerate(stack):
            alone, s = _simplex(table, 2)
            assert np.array_equal(clamped[k], alone) and sums[k] == s
            assert np.array_equal(si.validate_joint(table).table, alone / s)


class TestJointBasics:
    def test_marginals_hand_sum(self, witness_joint):
        px, py = si.marginals(witness_joint)
        assert np.allclose(px.probs, [0.25, 0.25, 0.5])
        assert np.allclose(py.probs, [0.5, 0.5])

    def test_marginals_product_measure(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.5, 0.5])
        j = si.Joint(px[:, None] * py[None, :])
        mx, my = si.marginals(j)
        assert np.allclose(mx.probs, px)
        assert np.allclose(my.probs, py)

    def test_marginals_point_mass(self):
        j = si.validate_joint([[1.0, 0.0], [0.0, 0.0]])
        mx, my = si.marginals(j)
        assert np.array_equal(mx.probs, [1.0, 0.0])
        assert np.array_equal(my.probs, [1.0, 0.0])

    def test_condition_on_y(self, witness_joint):
        assert np.allclose(si.condition_on_y(witness_joint, 0).probs, [0, 0, 1])
        assert np.allclose(si.condition_on_y(witness_joint, 1).probs, [0.5, 0.5, 0])

    def test_condition_independent(self):
        px = np.array([0.3, 0.7])
        j = si.Joint(px[:, None] * np.array([0.5, 0.5])[None, :])
        for y in range(2):
            assert np.allclose(si.condition_on_y(j, y).probs, px)

    def test_condition_zero_event(self):
        j = si.validate_joint([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroConditioningEvent):
            si.condition_on_y(j, 1)

    def test_two_axis_ops_reject_three_axis_joints(self):
        j3 = si.Joint(np.full((2, 2, 2), 0.125))
        with pytest.raises(ValueError):
            si.marginals(j3)
        with pytest.raises(ValueError):
            si.condition_on_y(j3, 0)
        with pytest.raises(ValueError):
            si.mutual_information(j3)

    def test_marginal_extraction_consistent(self):
        # weighting conditionals by the Y marginal reproduces the table
        rng = np.random.default_rng(11)
        for _ in range(25):
            j = random_joint(rng, 4, 3)
            _, py = si.marginals(j)
            rebuilt = np.zeros_like(j.table)
            for y in range(j.ny):
                if py.probs[y] > 0:
                    rebuilt[:, y] = py.probs[y] * si.condition_on_y(j, y).probs
            assert np.allclose(rebuilt, j.table, atol=1e-12)


class TestEntropy:
    def test_uniform_binary(self):
        assert si.entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)

    def test_point_mass(self):
        assert si.entropy([1.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert si.entropy([0.25, 0.25, 0.5]) == pytest.approx(1.5 * LN2, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            h = si.entropy(p)
            assert -1e-12 <= h <= math.log(n) + 1e-12


class TestMutualInformation:
    def test_witness_joint(self, witness_joint):
        assert si.mutual_information(witness_joint) == pytest.approx(LN2, abs=1e-12)

    def test_product_joint_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            px = rng.dirichlet(np.ones(3))
            py = rng.dirichlet(np.ones(4))
            j = si.Joint(px[:, None] * py[None, :])
            assert abs(si.mutual_information(j)) < 1e-12

    def test_copy_joint(self):
        j = si.validate_joint([[0.5, 0.0], [0.0, 0.5]])
        assert si.mutual_information(j) == pytest.approx(LN2, abs=1e-12)

    def test_symmetry_in_roles(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            assert si.mutual_information(j) == pytest.approx(
                si.mutual_information(si.Joint(j.table.T)), abs=1e-12
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            j = random_joint(rng, 4, 3)
            px_perm = rng.permutation(4)
            py_perm = rng.permutation(3)
            shuffled = si.Joint(j.table[np.ix_(px_perm, py_perm)])
            assert si.mutual_information(shuffled) == pytest.approx(
                si.mutual_information(j), abs=1e-12
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            j = random_joint(rng, 3, 3)
            assert si.mutual_information(j) >= -1e-12


class TestConditionalMutualInformation:
    def test_w_independent_equals_mi(self):
        rng = np.random.default_rng(5)
        j2 = random_joint(rng, 3, 3)
        pw = np.array([0.4, 0.6])
        j3 = si.Joint(j2.table[:, :, None] * pw[None, None, :])
        assert si.conditional_mutual_information(j3) == pytest.approx(
            si.mutual_information(j2), abs=1e-12
        )

    def test_w_equals_y_zero(self):
        rng = np.random.default_rng(6)
        j2 = random_joint(rng, 3, 3)
        t3 = np.zeros((3, 3, 3))
        for y in range(3):
            t3[:, y, y] = j2.table[:, y]
        assert abs(si.conditional_mutual_information(si.Joint(t3))) < 1e-12

    def test_matches_per_slice_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            j = random_joint3(rng, 2, 2, 2)
            # independent oracle: weighted per-slice MI computed from raw sums
            t = j.table
            expected = 0.0
            for w in range(2):
                pw = t[:, :, w].sum()
                if pw > 0:
                    sl = t[:, :, w] / pw
                    acc = 0.0
                    for x in range(2):
                        for y in range(2):
                            if sl[x, y] > 0:
                                acc += sl[x, y] * math.log(
                                    sl[x, y] / (sl[x, :].sum() * sl[:, y].sum())
                                )
                    expected += pw * acc
            assert si.conditional_mutual_information(j) == pytest.approx(expected, abs=1e-10)


class TestJensenGap:
    def test_sum_squares_vertices(self):
        g = si.sum_squares_oracle()
        gap = si.jensen_gap(g, [0.5, 0.5], [si.point_mass(0, 2), si.point_mass(1, 2)])
        assert gap == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_unequal_lengths_rejected(self, k):
        # once a bare ValueError, which the CLI does not map to an exit code
        with pytest.raises(ParameterOutOfRange, match="equal length"):
            si.jensen_gap(si.sum_squares_oracle(), [0.5, 0.5], [si.point_mass(0, 2)] * k)

    def test_degenerate_mixture(self):
        g = si.neg_entropy_oracle()
        p = si.validate_dist([0.2, 0.8])
        assert si.jensen_gap(g, [0.3, 0.7], [p, p]) == pytest.approx(0.0, abs=1e-12)

    def test_linear_oracle_zero(self):
        rng = np.random.default_rng(8)
        g = linear_oracle([1.0, -2.0, 0.5])
        for _ in range(20):
            pts = [si.Dist(rng.dirichlet(np.ones(3))) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            assert si.jensen_gap(g, w, pts) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_for_convex(self):
        rng = np.random.default_rng(9)
        for g in (si.neg_entropy_oracle(), si.sum_squares_oracle()):
            for _ in range(100):
                k = int(rng.integers(2, 5))
                pts = [si.Dist(rng.dirichlet(np.ones(3))) for _ in range(k)]
                w = rng.dirichlet(np.ones(k))
                assert si.jensen_gap(g, w, pts) >= -1e-9

    def test_mi_is_neg_entropy_gap(self):
        rng = np.random.default_rng(10)
        g = si.neg_entropy_oracle()
        for _ in range(100):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            _, py = si.marginals(j)
            pts = [si.condition_on_y(j, y) for y in range(j.ny) if py.probs[y] > 0]
            w = [py.probs[y] for y in range(j.ny) if py.probs[y] > 0]
            assert si.jensen_gap(g, np.array(w), pts) == pytest.approx(
                si.mutual_information(j), abs=1e-9
            )


class TestConvexOracleChecks:
    def test_builtin_oracles_pass(self):
        for g in (si.neg_entropy_oracle(), si.sum_squares_oracle(), linear_oracle([1.0, 1.0, 1.0])):
            si.check_convex_oracle(g, 3, pairs=256, seed=0)

    def test_concave_function_fails(self):
        bad = si.ConvexOracle(
            value=lambda q: -float((q * q).sum()),
            subgradient=lambda q: -2.0 * q,
            symmetric=True,
        )
        with pytest.raises(si.ConvexityViolation):
            si.check_convex_oracle(bad, 3, pairs=64, seed=0)

    def test_asymmetric_flagged_symmetric_fails(self):
        bad = si.ConvexOracle(
            value=lambda q: float(q[0] ** 2),
            subgradient=lambda q: np.array([2.0 * q[0]] + [0.0] * (len(q) - 1)),
            symmetric=True,
        )
        with pytest.raises(si.ConvexityViolation):
            si.check_convex_oracle(bad, 3, pairs=64, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None])
    def test_seed_out_of_range(self, seed, monkeypatch):
        # once -1 raised numpy's bare ValueError and 2.5 a TypeError from default_rng
        g = si.sum_squares_oracle()
        check = lambda s: si.check_convex_oracle(g, 3, pairs=32, seed=s)
        assert check(np.uint32(3)) == check(np.int64(3)) == check(3)
        monkeypatch.setattr(np.random, "default_rng", None)  # no work before the check
        with pytest.raises(ParameterOutOfRange, match="seed"):
            check(seed)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"pairs": 0}, "pairs"), ({"pairs": -1}, "pairs"), ({"pairs": 2.5}, "pairs"), ({"pairs": "4"}, "pairs"),
         ({"n": 0}, "n"), ({"n": 1}, "n"), ({"n": -2}, "n"), ({"n": 2.5}, "n"), ({"n": None}, "n")],
    )
    def test_sizes_checked_before_any_work(self, kwargs, name, monkeypatch):
        # once pairs = 0 let a concave oracle pass, pairs = 2.5 raised a TypeError, n = -2 numpy's ValueError
        # and n = 0 passed vacuously
        concave = si.ConvexOracle(value=lambda q: -float((q * q).sum()), subgradient=lambda q: -2.0 * q)
        assert si.check_convex_oracle(si.sum_squares_oracle(), np.int64(2), pairs=np.uint8(1)) >= 0.0
        monkeypatch.setattr(np.random, "default_rng", None)  # no work before the check
        with pytest.raises(ParameterOutOfRange, match=f"^{name} must"):
            si.check_convex_oracle(concave, **{"n": 3, "pairs": 4, **kwargs})


# Each in-memory validator: a valid flat parameter vector, a builder from it, and its documented error.
_VALIDATORS = {
    "validate_dist": ([0.25, 0.25, 0.5], si.validate_dist, NegativeMass),
    "validate_joint": ([0.1, 0.2, 0.3, 0.4], lambda f: si.validate_joint(f.reshape(2, 2)), NegativeMass),
    "MarkovJointProcess": (
        [0.25] * 20, lambda f: si.MarkovJointProcess(2, 2, f[:4], f[4:].reshape(4, 4)), ParameterOutOfRange
    ),
    "VarModel": (
        [0.5, 0.1, 0.0, 0.3, 0.2, 0.0, 0.1, 0.2, 1.0, 0.2, 0.2, 1.0],
        lambda f: si.VarModel(coeffs=f[:8].reshape(2, 2, 2), sigma=f[8:].reshape(2, 2)),
        ParameterOutOfRange,
    ),
}


class TestNonFiniteInputProperties:
    @pytest.mark.parametrize("name", sorted(_VALIDATORS))
    def test_valid_base_accepted(self, name):
        flat, build, _ = _VALIDATORS[name]
        build(np.array(flat))

    @given(
        name=st.sampled_from(sorted(_VALIDATORS)),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        data=st.data(),
    )
    def test_non_finite_entry_rejected(self, name, bad, data):
        flat, build, error = _VALIDATORS[name]
        f = np.array(flat)
        f[data.draw(st.integers(0, f.size - 1))] = bad
        with pytest.raises(error, match="finite"):
            build(f)
