import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sideinfo as si
from sideinfo import sufficiency
from sideinfo.benefit import c_value, numeric_subgradient
from sideinfo.errors import ParameterOutOfRange

from conftest import random_joint, random_joint3

LN2 = math.log(2)


class TestBenefit:
    def test_log_on_copy_joint_is_mi(self):
        j = si.validate_joint([[0.5, 0.0], [0.0, 0.5]])
        rep = si.benefit(si.builtin_loss("log", 2), j)
        assert rep.c_value == pytest.approx(LN2, abs=1e-12)
        assert rep.risk_no_side == pytest.approx(LN2, abs=1e-12)
        assert rep.risk_with_side == pytest.approx(0.0, abs=1e-12)

    def test_product_joint_zero_for_every_loss(self):
        rng = np.random.default_rng(0)
        px = rng.dirichlet(np.ones(3))
        py = rng.dirichlet(np.ones(3))
        j = si.Joint(px[:, None] * py[None, :])
        for name in ("log", "zero_one", "brier", "spherical", "absolute_ordered"):
            rep = si.benefit(si.builtin_loss(name, 3), j)
            assert rep.c_value == pytest.approx(0.0, abs=1e-12)

    def test_zero_one_witness_joint(self, witness_joint):
        rep = si.benefit(si.builtin_loss("zero_one", 3), witness_joint)
        assert rep.c_value == pytest.approx(0.25, abs=1e-15)
        assert rep.per_y_minimizers == {0: 2, 1: 0}

    def test_nonnegative_and_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            for name in ("log", "zero_one", "brier"):
                rep = si.benefit(si.builtin_loss(name, j.nx), j)
                assert rep.c_value >= -1e-9
                assert rep.decomposition_residual <= 1e-9

    def test_zero_probability_y_skipped(self):
        j = si.validate_joint([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        rep = si.benefit(si.builtin_loss("log", 2), j)
        assert 2 not in rep.per_y_minimizers
        assert rep.c_value == pytest.approx(LN2, abs=1e-12)

    def test_log_equals_mi_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            rep = si.benefit(si.builtin_loss("log", j.nx), j)
            assert rep.c_value == pytest.approx(si.mutual_information(j), abs=1e-9)

    def test_c_value_is_the_scalar_path_bit_for_bit(self):
        for name in ("log", "zero_one", "brier", "spherical", "absolute_ordered"):
            for n in range(2, 6):
                l = si.builtin_loss(name, n)
                _, tables, _, ys = sufficiency._chunk(n, 0, 60, 0)  # the first 60 scan candidates
                for table, ny in zip(tables, ys):
                    j = si.Joint(table[:, :ny])
                    assert si.benefit(l, j).c_value == c_value(l, j)

    def test_witness_c_before_reproduced_bit_for_bit(self):
        for name in ("zero_one", "brier", "spherical", "absolute_ordered"):
            for n in range(3, 6):
                l = si.builtin_loss(name, n)
                for seed in (0, 1, 2):
                    w = si.find_violation(l, n, budget=300, seed=seed)
                    assert si.benefit(l, w.joint).c_value == w.c_before

    def test_each_point_solved_once(self, monkeypatch):
        # numeric-tier rule: P_X, each P_{X|Y=y} of positive mass and each vertex
        proper = si.builtin_loss("brier", 3)
        blind = si.ScoringRuleLoss(
            eval_fn=proper.eval_fn, n=3, proper=False, vector_fn=proper.vector_fn
        )
        j = si.validate_joint([[0.2, 0.1, 0.0], [0.1, 0.2, 0.0], [0.1, 0.3, 0.0]])
        real, solved = si.losses._numeric_bayes, []

        def counted(l, rows):
            solved.extend(map(tuple, rows.tolist()))
            return real(l, rows)

        monkeypatch.setattr(si.losses, "_numeric_bayes", counted)
        si.benefit(blind, j)
        # 3 vertices, P_X and the 2 conditionals of positive mass, each once
        given_y = j.table[:, :2] / j.table[:, :2].sum(axis=0)
        points = sorted(map(tuple, np.vstack([np.eye(3), j.table.sum(axis=1), given_y.T]).tolist()))
        assert len(solved) == 6 and np.allclose(sorted(solved), points, rtol=0, atol=1e-15)


class TestGNormalized:
    def test_savage_rule_without_n(self):
        # c_value and benefit take the alphabet size from the joint; the normalized envelope has none
        rule = si.savage_from_G(si.neg_entropy_oracle())
        j = si.validate_joint([[0.3, 0.2], [0.1, 0.4]])
        assert c_value(rule, j) == pytest.approx(si.mutual_information(j), abs=1e-12)
        with pytest.raises(si.ParameterOutOfRange, match="savage_from_G"):
            si.g_normalized(rule)

    @pytest.mark.parametrize("g", [si.sum_squares_oracle(), si.neg_entropy_oracle()], ids=["sum_squares", "neg_entropy"])
    def test_benefit_of_a_rule_without_n(self, g):
        rule = si.savage_from_G(g)
        rng = np.random.default_rng(4)
        for _ in range(20):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            rep = si.benefit(rule, j)
            assert rep.c_value == c_value(rule, j)
            assert rep.decomposition_residual <= 1e-12

    def test_log_gives_neg_entropy(self):
        g = si.g_normalized(si.builtin_loss("log", 3))
        rng = np.random.default_rng(3)
        ref = si.neg_entropy_oracle()
        for _ in range(25):
            p = rng.dirichlet(np.ones(3))
            assert g.value(p) == pytest.approx(ref.value(p), abs=1e-9)

    def test_zero_one_gives_max_minus_one(self):
        g = si.g_normalized(si.builtin_loss("zero_one", 3))
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = rng.dirichlet(np.ones(3))
            assert g.value(p) == pytest.approx(float(p.max()) - 1.0, abs=1e-12)

    def test_vanishes_at_vertices(self):
        for name in ("log", "zero_one", "brier", "spherical", "absolute_ordered"):
            g = si.g_normalized(si.builtin_loss(name, 4))
            for i in range(4):
                assert abs(g.value(si.point_mass(i, 4).probs)) <= 1e-9

    def test_uniform_offset_cancels(self):
        base = si.builtin_loss("zero_one", 3)
        shifted = si.ActionMatrixLoss(matrix=base.matrix + 0.7)
        g0 = si.g_normalized(base)
        g1 = si.g_normalized(shifted)
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = rng.dirichlet(np.ones(3))
            assert g0.value(p) == pytest.approx(g1.value(p), abs=1e-12)

    def test_per_outcome_offset_cancels(self):
        base = si.builtin_loss("absolute_ordered", 3)
        c = np.array([0.3, -0.2, 1.1])
        shifted = si.ActionMatrixLoss(matrix=base.matrix + c[:, None])
        g0 = si.g_normalized(base)
        g1 = si.g_normalized(shifted)
        rng = np.random.default_rng(6)
        for _ in range(25):
            p = rng.dirichlet(np.ones(3))
            assert g0.value(p) == pytest.approx(g1.value(p), abs=1e-12)

    def test_numeric_subgradient_supports(self):
        g = si.g_normalized(si.builtin_loss("brier", 3))
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            sub = g.subgradient(p)
            assert g.value(q) >= g.value(p) + float(np.dot(sub, q - p)) - 1e-6

    def test_kink_detection(self):
        # max(p) - 1 has a kink on the diagonal; brier's envelope is smooth
        g_pl = si.g_normalized(si.builtin_loss("zero_one", 2))
        _, kink = numeric_subgradient(g_pl.value, np.array([0.5, 0.5]))
        assert kink > 1e-3
        g_sm = si.g_normalized(si.builtin_loss("brier", 2))
        _, kink = numeric_subgradient(g_sm.value, np.array([0.5, 0.5]))
        assert kink <= 1e-3


class TestBenefitFromG:
    def test_neg_entropy_copy_joint(self):
        j = si.validate_joint([[0.5, 0.0], [0.0, 0.5]])
        assert si.benefit_from_G(si.neg_entropy_oracle(), j) == pytest.approx(LN2, abs=1e-12)

    def test_sum_squares_witness(self, witness_joint):
        assert si.benefit_from_G(si.sum_squares_oracle(), witness_joint) == pytest.approx(
            0.375, abs=1e-12
        )

    def test_product_zero(self):
        rng = np.random.default_rng(8)
        px = rng.dirichlet(np.ones(3))
        py = rng.dirichlet(np.ones(2))
        j = si.Joint(px[:, None] * py[None, :])
        for g in (si.neg_entropy_oracle(), si.sum_squares_oracle()):
            assert si.benefit_from_G(g, j) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_path(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            j = random_joint(rng, 3, 3)
            for name in ("log", "zero_one", "brier"):
                l = si.builtin_loss(name, 3)
                g = si.g_normalized(l)
                assert si.benefit_from_G(g, j) == pytest.approx(
                    si.benefit(l, j).c_value, abs=1e-9
                )


@st.composite
def joints3(draw):
    """3-axis joints (nx >= 2) whose entries include zeros, so some W slices have no mass."""
    shape = (draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    t = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)).filter(lambda a: a.sum() > 0))
    return si.validate_joint(t / t.sum())


class TestConditionalBenefit:
    @given(j=joints3())
    def test_log_equals_cmi_property(self, j):
        assert si.conditional_benefit(si.builtin_loss("log", j.nx), j) == pytest.approx(
            si.conditional_mutual_information(j), abs=1e-12
        )

    def test_degenerate_w(self):
        rng = np.random.default_rng(10)
        j2 = random_joint(rng, 3, 3)
        j3 = si.Joint(j2.table[:, :, None])
        for name in ("log", "zero_one"):
            l = si.builtin_loss(name, 3)
            assert si.conditional_benefit(l, j3) == pytest.approx(
                si.benefit(l, j2).c_value, abs=1e-12
            )

    def test_w_equals_y_zero(self):
        rng = np.random.default_rng(11)
        j2 = random_joint(rng, 3, 3)
        t3 = np.zeros((3, 3, 3))
        for y in range(3):
            t3[:, y, y] = j2.table[:, y]
        assert si.conditional_benefit(si.builtin_loss("log", 3), si.Joint(t3)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_log_equals_cmi(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            j = random_joint3(rng, 2, 2, 2)
            assert si.conditional_benefit(si.builtin_loss("log", 2), j) == pytest.approx(
                si.conditional_mutual_information(j), abs=1e-9
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            j = random_joint3(rng, 3, 2, 2)
            for name in ("zero_one", "brier"):
                assert si.conditional_benefit(si.builtin_loss(name, 3), j) >= -1e-9


def _blind_brier(n):
    """Brier without its proper flag: a numeric-tier rule."""
    proper = si.builtin_loss("brier", n)
    return si.ScoringRuleLoss(eval_fn=proper.eval_fn, n=n, proper=False, vector_fn=proper.vector_fn)


_J2 = si.validate_joint([[0.2, 0.1], [0.1, 0.2], [0.1, 0.3]])
# each seeded entry point as a float of its result
_SEEDED = {
    "c_value": lambda l, seed: c_value(l, _J2, seed=seed),
}


@pytest.mark.parametrize("entry", sorted(_SEEDED))
@pytest.mark.parametrize("tier", ["exact", "numeric"])
def test_seed_out_of_range(entry, tier, monkeypatch):
    # once an exact tier ignored a bad seed, and the numeric tier raised
    # numpy's bare ValueError or TypeError from default_rng
    l = si.builtin_loss("zero_one", 3) if tier == "exact" else _blind_brier(3)
    call = _SEEDED[entry]
    assert call(l, np.uint32(3)) == call(l, np.int64(3)) == call(l, 3)
    monkeypatch.setattr(sys.modules["sideinfo.benefit"], "_solve", None)  # no work before the check
    for seed in (-1, 2.5, "3", None):
        with pytest.raises(ParameterOutOfRange, match="seed"):
            call(l, seed)
