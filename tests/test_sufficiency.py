import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sideinfo as si
from sideinfo import sufficiency
from sideinfo.benefit import _c_stack, c_value
from sideinfo.errors import AlphabetTooLarge, ParameterOutOfRange, UnboundedBelow

from conftest import random_joint

LN2 = math.log(2)


class TestCheckSufficient:
    def test_witness_merge_sufficient(self, witness_joint):
        t = si.Transform((0, 0, 1))
        cert = si.check_sufficient(t, witness_joint)
        assert cert.is_sufficient
        assert cert.max_class_tv <= 1e-15

    def test_bad_merge_not_sufficient(self, witness_joint):
        t = si.Transform((0, 1, 0))  # merge x1 with x3
        cert = si.check_sufficient(t, witness_joint)
        assert not cert.is_sufficient
        assert cert.max_class_tv == pytest.approx(1.0, abs=1e-12)

    def test_identity_always_sufficient(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            j = random_joint(rng, 4, 3)
            assert si.check_sufficient(si.Transform.identity(4), j).is_sufficient

    def test_zero_mass_symbols_exempt(self):
        j = si.validate_joint([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
        cert = si.check_sufficient(si.Transform((0, 1, 1)), j)
        assert cert.is_sufficient
        assert cert.zero_mass_symbols == (2,)

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            # joints with duplicated rows so coarse sufficient merges exist
            rows = rng.dirichlet(np.ones(3), size=2)
            assign = np.array([0, 0, 1, 1])
            px = rng.dirichlet(np.ones(4))
            j = si.Joint(px[:, None] * rows[assign])
            coarse = si.Transform((0, 0, 1, 1))
            assert si.check_sufficient(coarse, j).is_sufficient
            for refined in (si.Transform((0, 1, 2, 2)), si.Transform((0, 0, 1, 2)), si.Transform.identity(4)):
                assert si.check_sufficient(refined, j).is_sufficient


class TestEnumerateSufficient:
    def test_witness_joint_merges(self, witness_joint):
        suff = si.enumerate_sufficient(witness_joint)
        mappings = sorted(t.mapping for t in suff.merges)
        assert mappings == [(0, 0, 1), (0, 1, 2)]
        assert suff.permutations_exhaustive
        assert len(suff.permutations) == 6

    def test_product_joint_all_partitions(self):
        px = np.array([0.2, 0.3, 0.5])
        py = np.array([0.4, 0.6])
        j = si.Joint(px[:, None] * py[None, :])
        suff = si.enumerate_sufficient(j)
        assert len(suff.merges) == 5  # Bell(3)

    def test_distinct_rows_identity_only(self):
        j = si.validate_joint([[0.3, 0.0], [0.0, 0.3], [0.2, 0.2]])
        suff = si.enumerate_sufficient(j)
        assert [t.mapping for t in suff.merges] == [(0, 1, 2)]

    def test_every_enumerated_merge_verifies(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rows = rng.dirichlet(np.ones(2), size=2)
            assign = rng.integers(0, 2, size=4)
            px = rng.dirichlet(np.ones(4))
            j = si.Joint(px[:, None] * rows[assign])
            for t in si.enumerate_sufficient(j).merges:
                assert si.check_sufficient(t, j).is_sufficient

    def test_near_tol_rows_merge_only_pairwise(self):
        # rows r0 + d and r0 - d are each within tol of r0 but 1.8e-9 apart
        r0, d = np.array([0.5, 0.3, 0.2]), np.array([0.9e-9, -0.9e-9, 0.0])
        rows = np.array([r0, r0 + d, r0 - d, [0.1, 0.2, 0.7]])
        j = si.validate_joint(np.array([0.2, 0.3, 0.3, 0.2])[:, None] * rows)
        merges = si.enumerate_sufficient(j).merges
        assert sorted(t.mapping for t in merges) == [(0, 0, 1, 2), (0, 1, 2, 3)]
        for t in merges:
            assert si.check_sufficient(t, j).is_sufficient
        for name in ("brier", "zero_one"):
            l = si.builtin_loss(name, 4)
            for w in si.audit_dpa(l, j).violations:
                assert si.verify_witness(l, w)

    def test_alphabet_bound(self):
        j = si.Joint(np.full((13, 2), 1.0 / 26))
        with pytest.raises(AlphabetTooLarge):
            si.enumerate_sufficient(j)


class TestPushForward:
    def test_witness_merge(self, witness_joint):
        out = si.push_forward(witness_joint, si.Transform((0, 0, 1)))
        assert np.allclose(out.table, [[0.0, 0.5], [0.5, 0.0]])

    def test_identity_unchanged(self, witness_joint):
        out = si.push_forward(witness_joint, si.Transform.identity(3))
        assert np.array_equal(out.table, witness_joint.table)

    def test_constant_map(self, witness_joint):
        out = si.push_forward(witness_joint, si.Transform((0, 0, 0)))
        assert out.table.shape == (1, 2)
        assert np.allclose(out.table[0], [0.5, 0.5])

    @pytest.mark.parametrize("mapping", [(0, 1), (0, 1, 0, 1)], ids=["short", "long"])
    def test_map_of_other_length_rejected(self, mapping, witness_joint):
        t = si.Transform(mapping)
        with pytest.raises(ParameterOutOfRange):
            si.push_forward(witness_joint, t)
        with pytest.raises(ParameterOutOfRange):
            si.check_sufficient(t, witness_joint)

    def test_empty_map_rejected(self):
        # once accepted, after which image_size raised a bare ValueError
        with pytest.raises(ParameterOutOfRange, match="at least one symbol"):
            si.Transform(())

    @pytest.mark.parametrize(
        "blocks",
        [[[0, -1], [1]], [[0, 1], [1, 2]], [[0, 5], [1, 2]]],
        ids=["negative-wraps", "overlap", "out-of-range"],
    )
    def test_blocks_must_partition_the_alphabet(self, blocks):
        # once (0, 1, 0), (0, 1, 1) and a bare IndexError
        with pytest.raises(ParameterOutOfRange, match="partition"):
            si.Transform.from_blocks(blocks, 3)
        assert si.Transform.from_blocks([[1], [2, 0]], 3) == si.Transform((0, 1, 0))

    def test_mi_preserved_under_sufficient_merge(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rows = rng.dirichlet(np.ones(3), size=2)
            assign = np.array([0, 0, 1, 1])
            px = rng.dirichlet(np.ones(4))
            j = si.Joint(px[:, None] * rows[assign])
            for t in si.enumerate_sufficient(j).merges:
                assert si.mutual_information(si.push_forward(j, t)) == pytest.approx(
                    si.mutual_information(j), abs=1e-9
                )


class TestAuditDpa:
    def test_log_clean_on_witness(self, witness_joint):
        rep = si.audit_dpa(si.builtin_loss("log", 3), witness_joint)
        assert rep.clean
        merged = [e for e in rep.entries if e.transform.mapping == (0, 0, 1)]
        assert merged[0].c_after == pytest.approx(LN2, abs=1e-12)

    def test_zero_one_violation(self, witness_joint):
        rep = si.audit_dpa(si.builtin_loss("zero_one", 3), witness_joint)
        kinds = {w.kind for w in rep.violations}
        assert "dpa_violation" in kinds
        w = next(w for w in rep.violations if w.kind == "dpa_violation")
        assert w.c_before == pytest.approx(0.25, abs=1e-15)
        assert w.c_after == pytest.approx(0.5, abs=1e-15)

    def test_brier_violation(self, witness_joint):
        rep = si.audit_dpa(si.builtin_loss("brier", 3), witness_joint)
        w = next(w for w in rep.violations if w.kind == "dpa_violation")
        assert w.c_before == pytest.approx(0.375, abs=1e-15)
        assert w.c_after == pytest.approx(0.5, abs=1e-15)

    def test_log_clean_on_random_instances(self):
        # joints built with duplicated conditional rows so nontrivial merges exist
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            rows = rng.dirichlet(np.ones(3), size=max(1, n // 2))
            assign = rng.integers(0, rows.shape[0], size=n)
            px = rng.dirichlet(np.ones(n))
            j = si.Joint(px[:, None] * rows[assign])
            assert si.audit_dpa(si.builtin_loss("log", n), j).clean

    def test_entries_in_scan_order(self, witness_joint):
        # merges first, then the permutations in lexicographic order
        rep = si.audit_dpa(si.builtin_loss("zero_one", 3), witness_joint)
        assert [e.c_after for e in rep.entries] == [0.5] + [0.25] * 7
        assert [(w.kind, w.transform.mapping) for w in rep.violations] == [("dpa_violation", (0, 0, 1))]

    def test_unnamed_matrix_scores_merged_class_on_its_label(self):
        # weighted zero-one, W(x, a) = (x + 1) [x != a]: merging {x1, x2} leaves P_T(X) = (0.8, 0.2), and
        # class 1 lands on symbol 1 (weight 2), so C after is 0.2 * 2; on symbol 2 (weight 3) it would be 0.2 * 3
        l = si.ActionMatrixLoss((1.0 - np.eye(3)) * np.arange(1.0, 4.0)[:, None])
        j = si.validate_joint([[0.0, 0.4], [0.0, 0.4], [0.2, 0.0]])
        rep = si.audit_dpa(l, j)
        (merged,) = [e for e in rep.entries if e.transform.mapping == (0, 0, 1)]
        assert (rep.c_before, merged.c_after) == (0.6, 0.4)
        assert rep.equality_deviations == (merged,)

    def test_symmetric_g_no_asymmetry_witness(self):
        rng = np.random.default_rng(5)
        rule = si.savage_from_G(si.sum_squares_oracle(), n=2)
        for _ in range(20):
            j = random_joint(rng, 2, 2)
            assert si.audit_dpa(rule, j).clean

    def test_asymmetric_g_yields_asymmetry_witness(self):
        # q1^2 would not do: on the binary simplex it differs from the
        # symmetric -q1*q2 by a linear term, which Jensen gaps ignore.
        g = si.ConvexOracle(
            value=lambda q: float(q[0] ** 3),
            subgradient=lambda q: np.array([3.0 * q[0] ** 2, 0.0]),
            symmetric=False,
        )
        rule = si.savage_from_G(g, n=2)
        j = si.validate_joint([[0.5, 0.2], [0.1, 0.2]])
        rep = si.audit_dpa(rule, j)
        assert any(w.kind == "asymmetry" for w in rep.violations)

    def test_equality_deviations_reported_separately(self, witness_joint):
        # zero-one's merge strictly raises C, so it appears in both lists
        rep = si.audit_dpa(si.builtin_loss("zero_one", 3), witness_joint)
        assert rep.equality_deviations
        assert all(
            e.transform.image_size < witness_joint.nx for e in rep.equality_deviations
        )


    @pytest.mark.parametrize(
        "loss",
        [si.builtin_loss("brier", 3), si.ActionMatrixLoss(matrix=1e4 * (1.0 - np.eye(3)))],
        ids=["brier", "scaled-zero-one"],
    )
    def test_loose_tol_admits_no_insufficient_merge(self, loss):
        # rows 1 and 2 are 0.0067 apart in total variation, so merging them is not
        # sufficient; a C tolerance of 0.01 must not make it so
        t = np.array([[0.2, 0.1], [0.2, 0.097], [0.1, 0.3]])
        j = si.validate_joint(t / t.sum())
        assert not si.check_sufficient(si.Transform((0, 0, 1)), j).is_sufficient
        rep = si.audit_dpa(loss, j, tol=0.01)
        assert rep.violations == ()
        assert [e.transform.mapping for e in rep.entries] == [(0, 1, 2)] + list(itertools.permutations(range(3)))


class TestProofFamily:
    def test_spec_instance(self, witness_joint):
        j = si.proof_family(3, t=0.5, lambda1=0.0, lambda2=1.0, alpha=0.5)
        assert np.allclose(j.table, witness_joint.table, atol=1e-15)

    def test_equal_lambdas_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            si.proof_family(3, t=0.5, lambda1=0.5, lambda2=0.5, alpha=0.5)

    def test_t_one_endpoint(self):
        j = si.proof_family(3, t=1.0, lambda1=0.0, lambda2=1.0, alpha=0.5)
        assert np.allclose(j.table[1], 0.0)  # x2 carries no mass at t=1
        cert = si.check_sufficient(si.Transform((0, 0, 1)), j)
        assert cert.is_sufficient

    def test_merge_sufficient_by_construction(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            tail = rng.dirichlet(np.ones(2)) * rng.uniform(0.05, 0.5)
            r = 1.0 - tail.sum()
            lam = np.sort(rng.uniform(0.0, r, size=2))
            if lam[0] == lam[1]:
                continue
            j = si.proof_family(
                5,
                t=float(rng.uniform()),
                lambda1=float(lam[0]),
                lambda2=float(lam[1]),
                alpha=float(rng.uniform()),
                tail=tuple(tail),
            )
            assert si.check_sufficient(si.Transform((0, 0, 1, 2, 3)), j).is_sufficient

    def test_same_bits_as_pinned_arithmetic(self):
        rng = np.random.default_rng(9)
        for n in (3, 4, 6):
            for _ in range(40):
                tail = rng.dirichlet(np.ones(n - 3)) * rng.uniform(0.05, 0.6) if n > 3 else ()
                lam = np.sort(rng.uniform(0.0, 1.0 - sum(tail), size=2))
                args = (n, float(rng.uniform()), float(lam[0]), float(lam[1]), float(rng.uniform()), tuple(tail))
                assert si.proof_family(*args).table.tobytes() == _pinned_proof_family(*args).table.tobytes()

    def test_tail_validation(self):
        with pytest.raises(ParameterOutOfRange):
            si.proof_family(4, t=0.5, lambda1=0.0, lambda2=0.5, alpha=0.5, tail=(0.7, 0.4))
        with pytest.raises(ParameterOutOfRange):
            si.proof_family(3, t=1.5, lambda1=0.0, lambda2=1.0, alpha=0.5)


class TestFindViolation:
    def test_zero_one_finds_witness(self):
        w = si.find_violation(si.builtin_loss("zero_one", 3), 3, budget=10_000, seed=0)
        assert w is not None and w.kind == "dpa_violation"
        assert si.verify_witness(si.builtin_loss("zero_one", 3), w)

    def test_brier_finds_witness(self):
        w = si.find_violation(si.builtin_loss("brier", 3), 3, budget=10_000, seed=0)
        assert w is not None
        assert si.verify_witness(si.builtin_loss("brier", 3), w)

    def test_log_returns_none(self):
        w = si.find_violation(si.builtin_loss("log", 3), 3, budget=1_500, seed=0)
        assert w is None

    def test_brier_none_on_binary(self):
        w = si.find_violation(si.builtin_loss("brier", 2), 2, budget=1_500, seed=0)
        assert w is None

    def test_first_hit_in_scan_order(self):
        w = si.find_violation(si.builtin_loss("zero_one", 3), 3, budget=2_000, seed=7)
        assert w.kind == "dpa_violation"
        assert w.transform.mapping == (0, 0, 1)
        assert w.joint.table.tolist() == [
            [0.0, 0.24930747922437674],
            [0.0, 0.22437673130193908],
            [0.5263157894736842, 0.0],
        ]
        assert (w.c_before, w.c_after) == (0.24930747922437674, 0.4736842105263158)

    def test_verify_rejects_kind_not_matching_transform(self, witness_joint):
        l = si.builtin_loss("zero_one", 3)
        (w,) = si.audit_dpa(l, witness_joint).violations
        assert si.verify_witness(l, w)
        # the merge raises C, but a merge is never an asymmetry witness
        assert not si.verify_witness(l, dataclasses.replace(w, kind="asymmetry"))

    def test_verify_rejects_insufficient_transform(self):
        # merging rows 1 and 2 raises Brier C by 0.02, and the stored values and kind
        # reproduce, but the rows differ, so the merge is no evidence against the axiom
        t = np.array([[0.2, 0.1], [0.2, 0.097], [0.1, 0.3]])
        j = si.validate_joint(t / t.sum())
        l, merge = si.builtin_loss("brier", 3), si.Transform((0, 0, 1))
        before, after = c_value(l, j), _c_after(l, j, merge)
        assert after > before + 0.01
        assert not si.verify_witness(l, si.ViolationWitness(j, merge, before, after, "dpa_violation"))

    def test_verify_rejects_witness_of_no_kind(self):
        # the identity changes nothing, so its values reproduce, but "" names no evidence
        l = si.builtin_loss("zero_one", 3)
        w = si.find_violation(l, 3, budget=2_000, seed=7)
        c = w.c_before
        assert not si.verify_witness(l, si.ViolationWitness(w.joint, si.Transform((0, 1, 2)), c, c, ""))

    def test_verify_raises_on_unbounded_c_after(self):
        # finite on the interior only: the merge leaves a zero-mass symbol
        def vector_fn(q):
            return np.where(np.min(q, axis=-1, keepdims=True) > 0.0, 1.0 - q, np.inf)

        l = si.ScoringRuleLoss(eval_fn=lambda x, q: float(vector_fn(q)[x]), n=3, proper=True, vector_fn=vector_fn)
        j = si.validate_joint(np.array([0.3, 0.3, 0.4])[:, None] * np.array([[0.6, 0.4], [0.6, 0.4], [0.2, 0.8]]))
        c = c_value(l, j)
        with pytest.raises(UnboundedBelow):
            si.verify_witness(l, si.ViolationWitness(j, si.Transform((0, 0, 1)), c, c, "dpa_violation"))

    def test_failed_reverification_raises(self, monkeypatch):
        monkeypatch.setattr(sufficiency, "verify_witness", lambda *a, **k: False)
        with pytest.raises(si.WitnessVerificationFailed):
            si.find_violation(si.builtin_loss("zero_one", 3), 3, budget=2_000, seed=7)

    def test_witness_reverification_exact(self):
        l = si.builtin_loss("zero_one", 4)
        w = si.find_violation(l, 4, budget=5_000, seed=1)
        assert w is not None
        before = si.benefit(l, w.joint).c_value
        assert abs(before - w.c_before) <= 1e-12

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_tol_out_of_range(self, tol, witness_joint):
        with pytest.raises(ParameterOutOfRange):
            si.find_violation(si.builtin_loss("log", 3), 3, budget=300, tol=tol)
        with pytest.raises(ParameterOutOfRange):
            si.audit_dpa(si.builtin_loss("log", 3), witness_joint, tol=tol)
        l = si.builtin_loss("zero_one", 3)
        (w,) = si.audit_dpa(l, witness_joint).violations
        with pytest.raises(ParameterOutOfRange):
            si.verify_witness(l, w, tol=tol)

    def test_negative_budget(self):
        with pytest.raises(ParameterOutOfRange):
            si.find_violation(si.builtin_loss("log", 3), 3, budget=-5)

    @pytest.mark.parametrize("budget", [1, 5, 300])
    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, "3", None])
    def test_seed_out_of_range(self, seed, budget):
        # budget 1 is the grid candidate 0 alone, which draws nothing seeded
        with pytest.raises(ParameterOutOfRange, match="seed"):
            si.find_violation(si.builtin_loss("log", 3), 3, budget=budget, seed=seed)

    @pytest.mark.parametrize("budget", [2.5, 5.0, "5", None])
    def test_budget_not_an_integer(self, budget):
        with pytest.raises(ParameterOutOfRange, match="budget"):
            si.find_violation(si.builtin_loss("log", 3), 3, budget=budget)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_audit_and_enumerate_seed_out_of_range(self, n, seed):
        j = random_joint(np.random.default_rng(n), n, 2)
        with pytest.raises(ParameterOutOfRange, match="seed"):
            si.audit_dpa(si.builtin_loss("log", n), j, seed=seed)
        with pytest.raises(ParameterOutOfRange, match="seed"):
            si.enumerate_sufficient(j, seed=seed)

    def test_numpy_integer_seed_and_budget(self):
        l = si.builtin_loss("zero_one", 4)
        w = si.find_violation(l, 4, budget=np.int64(5_000), seed=np.uint32(1))
        assert _encode_witness(w) == _encode_witness(si.find_violation(l, 4, budget=5_000, seed=1))

    def test_loss_for_other_alphabet(self):
        with pytest.raises(ParameterOutOfRange):
            si.find_violation(si.builtin_loss("zero_one", 3), 4, budget=300)


# The scan's candidates one at a time, pinned as the oracle for
# `sufficiency._chunk`: each builds one candidate as a Joint and a Transform
# from its stream words, with SplitMix64 on Python ints, the word decoders
# in scalar form, and `proof_family`'s and `validate_joint`'s arithmetic
# written out here.


def _pinned_validate(table):
    t = np.asarray(table, dtype=float)
    t = np.where(t < 0, 0.0, t)
    return si.Joint(t / t.sum())


def _pinned_proof_family(n, t, lambda1, lambda2, alpha, tail):
    tail = tuple(float(v) for v in tail)
    r = 1.0 - sum(tail)

    def member(lam):
        return np.array([lam * t, lam * (1.0 - t), r - lam, *tail])

    return _pinned_validate(np.stack([alpha * member(lambda1), (1.0 - alpha) * member(lambda2)], axis=1))


_M64 = 2**64 - 1


def _splitmix64(state, d):
    """The first d outputs of SplitMix64 from state: add the golden gamma, then the finalizer."""
    out = []
    for _ in range(d):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


def _stream_words(seed, stream, k, d):
    """Candidate k's d words: SplitMix64 from a key that folds in the seed's 64-bit limbs, the stream and k."""
    limbs = [seed & _M64]
    while seed >> 64:
        seed >>= 64
        limbs.append(seed & _M64)
    key = 0
    for v in limbs + [stream, k]:
        key = _splitmix64(key ^ v, 1)[0]
    return _splitmix64(key, d)


def _uniform(w):
    return (w >> 11) * 2.0**-53


def _below(w, r):
    return ((w >> 32) * r) >> 32


def _flat_dirichlet(words):
    cuts = sorted(_uniform(w) for w in words)
    return [hi - lo for lo, hi in zip([0.0] + cuts, cuts + [1.0])]


def _order(words):
    return sorted(range(len(words)), key=lambda i: words[i])


_T_GRID, _ALPHA_GRID = sufficiency._T_GRID, sufficiency._ALPHA_GRID
_S_GRID = np.linspace(0.0, 1.0, 20)
_LAMBDA_PAIRS = [(_S_GRID[i], _S_GRID[j]) for i in range(20) for j in range(19, i, -1)]


def _grid_candidate(n, k, seed):
    total = len(_T_GRID) * len(_ALPHA_GRID) * len(_LAMBDA_PAIRS)
    if k >= total:
        return None
    per_t = len(_ALPHA_GRID) * len(_LAMBDA_PAIRS)
    t = float(_T_GRID[k // per_t])
    rem = k % per_t
    alpha = float(_ALPHA_GRID[rem // len(_LAMBDA_PAIRS)])
    s1, s2 = _LAMBDA_PAIRS[rem % len(_LAMBDA_PAIRS)]
    if n == 3:
        tail = ()
        r = 1.0
    else:
        w = _stream_words(seed, 101, k, n - 3)
        mass = 0.05 + (0.6 - 0.05) * _uniform(w[0])
        tail = tuple(mass * v for v in _flat_dirichlet(w[1:]))
        r = 1.0 - mass
    lam1, lam2 = s1 * r, s2 * r
    if not lam1 < lam2:
        return None
    joint = _pinned_proof_family(n, t, lam1, lam2, alpha, tail)
    return joint, si.Transform(tuple([0, 0] + list(range(1, n - 1))))


def _merge_candidate(n, k, seed):
    w = _stream_words(seed, 202, k, 5 * n)
    m = 2 + _below(w[0], 2)
    n_classes = 1 + _below(w[1], n - 1)
    drawn = [x if x < n_classes else _below(w[3 + x], n_classes) for x in range(n)]
    assignment = [drawn[i] for i in _order(w[3 + n : 3 + 2 * n])]
    px = _flat_dirichlet(w[3 + 2 * n : 2 + 3 * n])
    rows = [_flat_dirichlet(w[2 + 3 * n + 2 * c : 1 + 3 * n + 2 * c + m]) for c in range(n - 1)]
    table = [[px[x] * v for v in rows[a]] for x, a in enumerate(assignment)]
    mergeable = [c for c in range(n_classes) if assignment.count(c) >= 2]
    cls = mergeable[_below(w[2], len(mergeable))]
    members = [x for x in range(n) if assignment[x] == cls]
    blocks = [members] + [[x] for x in range(n) if x not in members]
    return _pinned_validate(table), si.Transform.from_blocks(blocks, n)


def _perm_candidate(n, k, seed):
    w = _stream_words(seed, 303, k, 4 * n)
    m = 2 + _below(w[0], 2)
    perm = _order(w[1 : 1 + n])
    if perm == list(range(n)):
        perm = perm[-1:] + perm[:-1]
    table = np.array(_flat_dirichlet(w[1 + n : n * (m + 1)])).reshape(n, m)
    return _pinned_validate(table), si.Transform(tuple(perm))


def _candidate(n, idx, seed):
    """Scan candidate idx: the three streams interleave round-robin."""
    phase, k = idx % 3, idx // 3
    if phase == 0:
        return _grid_candidate(n, k, seed) if n >= 3 else None
    if phase == 1:
        return _merge_candidate(n, k, seed)
    return _perm_candidate(n, k, seed)


def _c_after(l, j, t, seed=0):
    """C after a sufficient transform, alone: `c_value` of the joint pushed onto its own n symbols."""
    return c_value(l, si.Joint(sufficiency._push(j.table[None], np.array([t.mapping]), j.nx)[0]), seed=seed)


def _witness_kind(l, j, t, before, after, tol):
    """The witness rule for one transform, certified as `_decide` certifies it: its kind of evidence, or None."""
    maps, before, after = np.array([t.mapping]), np.array([before]), np.array([after])
    kinds = sufficiency._witness_kinds(maps, before, after, tol)
    return str(sufficiency._certify(l, j.table[None], maps, before, after, kinds, tol)[0]) or None


def _scalar_scan(l, n, budget, seed=0, tol=1e-9):
    """The scan one candidate at a time, through `c_value` and `_c_after`, in scan order."""
    for idx in range(budget):
        made = _candidate(n, idx, seed)
        if made is None:
            continue
        joint, transform = made
        before = sufficiency.c_value(l, joint)
        after = _c_after(l, joint, transform)
        kind = _witness_kind(l, joint, transform, before, after, tol)
        if kind is not None:
            return sufficiency.ViolationWitness(joint, transform, before, after, kind)
    return None


def _unnamed_scaled_brier(n):
    brier = si.builtin_loss("brier", n)
    return si.ScoringRuleLoss(
        eval_fn=lambda x, q: 3.0 * brier.eval_fn(x, q), n=n, proper=True, vector_fn=lambda q: 3.0 * brier.loss_vector(q)
    )


def _cubic_savage(n):
    # G(q) = q_1^3 is convex on the simplex and not symmetric
    g = si.ConvexOracle(
        value=lambda q: float(q[0] ** 3),
        subgradient=lambda q: np.concatenate([[3.0 * q[0] ** 2], np.zeros(len(q) - 1)]),
    )
    return si.savage_from_G(g, n=n)


SCAN_LOSSES = [*si.losses.BUILTIN_LOSSES, "unnamed", "weighted_zero_one", "savage"]


def _scan_loss(name, n):
    if name == "unnamed":
        return _unnamed_scaled_brier(n)
    if name == "weighted_zero_one":  # unnamed and not symmetric: permutations move C
        return si.ActionMatrixLoss((1.0 - np.eye(n)) * np.arange(1.0, n + 1.0)[:, None])
    if name == "savage":
        return _cubic_savage(n)
    return si.builtin_loss(name, n)


def _inf_at_full_support(q):
    return np.where(np.min(q, axis=-1, keepdims=True) > 0.0, np.inf, 1.0 - q)


def _inf_at_second_over_half(q):
    with np.errstate(divide="ignore"):
        return np.where(q[..., 1:2] > 0.5, np.inf, -np.log(q))


def _first_unbounded(l, n, seed=0):
    """The first scan index whose C before or after is not finite, by the scalar path."""
    for idx in itertools.count():
        made = _candidate(n, idx, seed)
        if made is None:
            continue
        try:
            sufficiency.c_value(l, made[0])
            _c_after(l, *made)
        except UnboundedBelow:
            return idx


def _chunk_rows(n, start, stop, seed):
    """`sufficiency._chunk` as {scan index: (table cut to its own |Y|, mapping)}, after checking the stack's shape, order and padding."""
    rows = {}
    pos, tables, maps, ys = sufficiency._chunk(n, start, stop, seed)
    assert (np.diff(pos) > 0).all()
    assert tables.shape == (len(pos), n, 3) and maps.shape == (len(pos), n) and ys.shape == (len(pos),)
    for p, table, mapping, b in zip(pos.tolist(), tables, maps.tolist(), ys.tolist()):
        assert table[:, b:].tobytes() == np.zeros((n, 3 - b)).tobytes()
        rows[start + p] = (table[:, :b], tuple(mapping))
    return rows


# chunk ranges for a budget of 900: the scan's chunks of 1, 4, 16, 64, 256, 256, 256 candidates, then one
# cut short by the budget, and the doubling ranges of an earlier schedule (1, 2, 4, ..., 256, 256, then
# 133), kept because `_chunk` must be right for any range
_SCAN_CHUNKS = [(0, 1), (1, 5), (5, 21), (21, 85), (85, 341), (341, 597), (597, 853), (853, 900)]
_SCAN_CHUNKS += [(2**i - 1, 2 ** (i + 1) - 1) for i in range(1, 9)] + [(511, 767), (767, 900)]
_GRID_END = 3 * 20 * 20 * 190  # scan index of the first grid candidate past the grid


def _encode_witness(w):
    if w is None:
        return "None"
    t = w.joint.table
    return f"{w.kind}|{w.transform.mapping}|{w.c_before.hex()}|{w.c_after.hex()}|{t.shape}|{t.tobytes().hex()}"


def _parity_corpus():
    """Scans of every built-in loss, n = 2-5, seeds 0-3, three tols; audits of 40 random 3-5-symbol joints."""
    out = []
    for name in si.losses.BUILTIN_LOSSES:
        for n in range(2, 6):
            l = si.builtin_loss(name, n)
            for seed in range(4):
                for tol in (1e-9, 1e-12, 0.0):
                    out.append(_encode_witness(si.find_violation(l, n, budget=1_500, seed=seed, tol=tol)))
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        rows = rng.dirichlet(np.ones(int(rng.integers(2, 4))), size=int(rng.integers(1, n)))
        j = si.Joint(rng.dirichlet(np.ones(n))[:, None] * rows[rng.integers(0, len(rows), size=n)])
        for name in si.losses.BUILTIN_LOSSES:
            rep = si.audit_dpa(si.builtin_loss(name, n), j)
            out.append("|".join([
                rep.c_before.hex(),
                ",".join(e.c_after.hex() for e in rep.entries),
                ";".join(_encode_witness(w) for w in rep.violations),
                ",".join(str(e.transform.mapping) for e in rep.equality_deviations),
            ]))
    return out


def test_scan_and_audit_parity_corpus():
    # 440 outputs, every float as hex and every table as bytes; the hash was
    # recorded when the scan moved to the counter-based stream (`_words`)
    out = _parity_corpus()
    assert len(out) == 440
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == "0c1e034619e12d85647e78d1d707a3120a433607a1b5a5655b1acbff1e681015"


class TestCertification:
    """At tol 0 a float delta C at rounding scale is no witness: hits near the threshold are re-decided beyond rounding."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_log_has_no_witness_at_tol_zero(self, n):
        # Theorem 1: log's C is I(X;Y), which no sufficient transform raises
        assert si.find_violation(si.builtin_loss("log", n), n, budget=600, seed=0, tol=0.0) is None

    @pytest.mark.parametrize("name", si.losses.BUILTIN_LOSSES)
    def test_no_builtin_witness_on_binary_at_tol_zero(self, name):
        # Theorem 2: every built-in is symmetric at n = 2
        assert si.find_violation(si.builtin_loss(name, 2), 2, budget=1_500, seed=0, tol=0.0) is None

    def test_log_audit_clean_at_tol_zero(self):
        # 120 joints, n = 3-5, each with one duplicated conditional row
        rng = np.random.default_rng(120)
        for n in (3, 4, 5):
            for _ in range(40):
                rows = rng.dirichlet(np.ones(int(rng.integers(2, 4))), size=n - 1)
                assignment = rng.permutation(np.append(np.arange(n - 1), rng.integers(n - 1)))
                j = si.Joint(rng.dirichlet(np.ones(n))[:, None] * rows[assignment])
                assert si.audit_dpa(si.builtin_loss("log", n), j, tol=0.0).clean

    def test_verify_rejects_rounding_scale_witness(self):
        # X and Y independent, so every merge is sufficient and C is 0; in floats this one "raises" C by 2.8e-16
        l, t = si.builtin_loss("log", 3), si.Transform((0, 1, 0))
        rng = np.random.default_rng(0)
        rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2))
        j = si.Joint(np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2))))
        before, after = c_value(l, j), _c_after(l, j, t)
        assert after > before
        assert not si.verify_witness(l, si.ViolationWitness(j, t, before, after, "dpa_violation"), tol=0.0)

    def test_log_hits_cleared_without_arithmetic(self, monkeypatch):
        # the data-processing inequality decides every log hit, so no exact delta C is computed; the
        # float rule alone flags hits in all three runs, so the clearing is not vacuous
        certify, hits = sufficiency._certify, []

        def counted(l, tables, maps, before, after, kinds, tol):
            hits.append(int((kinds != "").sum()))
            return certify(l, tables, maps, before, after, kinds, tol)

        def no_arithmetic(*args):
            raise AssertionError("a log hit needs no delta C")

        monkeypatch.setattr(sufficiency, "_certify", counted)
        monkeypatch.setattr(sufficiency, "_scaled_risk", no_arithmetic)
        for n in (3, 5):
            assert si.find_violation(si.builtin_loss("log", n), n, budget=1_500, seed=0, tol=0.0) is None
            assert sum(hits) > 0
            hits.clear()
        rng = np.random.default_rng(0)  # X and Y independent, as in the test above
        rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2))
        j = si.Joint(np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2))))
        assert si.audit_dpa(si.builtin_loss("log", 3), j, tol=0.0).clean
        assert sum(hits) > 0

    def test_a_rule_named_log_is_not_cleared_as_log(self, witness_joint):
        # Brier's scores under the name "log": only the built-in log loss is cleared by the data-processing
        # inequality, so this rule keeps Brier's violation, decided on float C even at its threshold
        named = dataclasses.replace(si.builtin_loss("brier", 3), name="log")
        (w,) = si.audit_dpa(named, witness_joint, tol=0.0).violations
        tol = w.c_after - w.c_before - 1e-13
        assert [v.transform for v in si.audit_dpa(named, witness_joint, tol=tol).violations] == [w.transform]
        assert si.verify_witness(named, w, tol=tol)
        assert si.find_violation(named, 3, budget=10, seed=0, tol=0.0).kind == "dpa_violation"


    def test_a_rule_named_brier_is_not_certified_as_brier(self, witness_joint):
        # 3 x Brier named "brier": its float delta C of 0.375 clears the threshold by 1e-13, so the hit is
        # re-decided, and once that used Brier's exact delta C of 0.125 and dropped the violation
        brier = si.builtin_loss("brier", 3)
        named = si.ScoringRuleLoss(
            eval_fn=lambda x, q: 3.0 * brier.eval_fn(x, q), n=3, proper=True, name="brier",
            vector_fn=lambda q: 3.0 * brier.vector_fn(q),
        )
        unnamed = dataclasses.replace(named, name=None)
        for l in (named, unnamed):
            (w,) = si.audit_dpa(l, witness_joint).violations
            assert w.c_after - w.c_before == 0.375
            tol = 0.375 - 1e-13
            assert [v.transform for v in si.audit_dpa(l, witness_joint, tol=tol).violations] == [w.transform]
            assert si.verify_witness(l, w, tol=tol)
        assert si.audit_dpa(brier, witness_joint, tol=0.125 - 1e-13).violations  # the real Brier, certified exactly


class TestChunkOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 2**64 + 3])
    def test_matches_pinned_generators(self, n, seed):
        # tables byte for byte, mappings, and which candidates are skipped
        for start, stop in _SCAN_CHUNKS + [(_GRID_END - 10, _GRID_END + 11)]:
            rows = _chunk_rows(n, start, stop, seed)
            for idx in range(start, stop):
                made = _candidate(n, idx, seed)
                if made is None:
                    assert idx not in rows
                    continue
                table, mapping = rows.pop(idx)
                assert table.shape == made[0].table.shape
                assert table.tobytes() == made[0].table.tobytes()
                assert mapping == made[1].mapping
            assert not rows

    def test_past_the_grid_skipped(self):
        for n in (3, 4):
            rows = _chunk_rows(n, _GRID_END - 3, _GRID_END + 3, 0)
            assert sorted(rows) == [_GRID_END - 3, _GRID_END - 2, _GRID_END - 1, _GRID_END + 1, _GRID_END + 2]


@pytest.mark.parametrize("name, n, budget", [("log", 3, 600), ("zero_one", 2, 700)])
def test_one_kernel_stack_per_chunk_and_image_size(name, n, budget, monkeypatch):
    # chunks of 1, 4, 16, 64, 256, 256 and the rest; each takes one kernel stack for C before and one for C
    # after, whatever its image sizes, and a chunk with no candidate (at n = 2, the first) takes none
    chunk, c_stack, calls = sufficiency._chunk, sufficiency._c_stack, []

    def counted_chunk(*args):
        out = chunk(*args)
        calls.append([len(out[2]), 0])  # [candidates, kernel stacks]
        return out

    def counted_c_stack(*args, **kwargs):
        calls[-1][1] += 1
        return c_stack(*args, **kwargs)

    monkeypatch.setattr(sufficiency, "_chunk", counted_chunk)
    monkeypatch.setattr(sufficiency, "_c_stack", counted_c_stack)
    assert si.find_violation(si.builtin_loss(name, n), n, budget=budget, seed=9) is None
    assert len(calls) == 7
    assert [stacks for _, stacks in calls] == [2 if rows else 0 for rows, _ in calls]
    assert (calls[0][0] == 0) == (n == 2)


@pytest.mark.parametrize(
    "name, n, seed, idx, ny",
    [("zero_one", 4, 3, 6, 2), ("absolute_ordered", 4, 0, 2, 2), ("absolute_ordered", 3, 0, 5, 3), ("absolute_ordered", 4, 2, 4, 3)],
)
def test_witness_keeps_its_own_y_alphabet(name, n, seed, idx, ny):
    # the chunk pads every table to |Y| = 3; the witness is the candidate at its scan index, unpadded, byte for byte
    l = si.builtin_loss(name, n)
    assert si.find_violation(l, n, budget=idx, seed=seed) is None
    w = si.find_violation(l, n, budget=idx + 1, seed=seed)
    joint, transform = _candidate(n, idx, seed)
    assert w.joint.table.shape == joint.table.shape == (n, ny)
    assert w.joint.table.tobytes() == joint.table.tobytes()
    assert w.transform == transform


def test_splitmix64_known_answer():
    # the first outputs of SplitMix64 from state 0, as published with its reference code
    assert _splitmix64(0, 2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert sufficiency._splitmix(np.zeros(1, dtype=np.uint64), 2).tolist() == [_splitmix64(0, 2)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_scan_builds_no_generator_per_candidate(n, monkeypatch):
    # every draw of the scan and of the n > 5 permutation sample reads stream words; numpy's generators go unused
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy generator was built")

    for name in ("default_rng", "Generator", "PCG64", "SeedSequence"):
        monkeypatch.setattr(np.random, name, refuse)
    assert si.find_violation(si.builtin_loss("log", n), n, budget=600) is None
    j = si.Joint(np.full((6, 2), 1.0 / 12.0))
    assert len(si.enumerate_sufficient(j, seed=n).permutations) > 1
    assert si.audit_dpa(si.builtin_loss("log", 6), j, seed=n).clean


def _pinned_push(table, mapping):
    out = np.zeros((max(mapping) + 1, table.shape[1]))
    np.add.at(out, np.array(mapping), table)
    return out


def _mapped_stack(seed, n, b, k, m_pick, zero_frac):
    """k tables (n, b) with some zero-mass rows, and k random maps of n symbols onto the same m labels."""
    rng = np.random.default_rng(seed)
    m = 1 + m_pick % n
    tables = rng.dirichlet(np.ones(n * b), size=k).reshape(k, n, b) * (rng.uniform(size=(k, n, 1)) >= zero_frac)
    maps = np.array([rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])) for _ in range(k)])
    return tables, maps, m


mapped_stacks = st.builds(
    _mapped_stack,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    b=st.integers(1, 4),
    k=st.integers(1, 6),
    m_pick=st.integers(0, 6),
    zero_frac=st.sampled_from([0.0, 0.4, 1.0]),
)


class TestBatchedPush:
    @given(stack=mapped_stacks)
    def test_rows_equal_push_forward_alone(self, stack):
        tables, maps, m = stack
        out, full = sufficiency._push(tables, maps, m), sufficiency._push(tables, maps, tables.shape[1])
        for table, mapping, row, full_row in zip(tables, maps.tolist(), out, full):
            j, t = si.Joint(table), si.Transform(tuple(mapping))
            assert row.tobytes() == si.push_forward(j, t).table.tobytes() == _pinned_push(table, mapping).tobytes()
            # on the tables' own n symbols: label k on symbol k, then zero rows
            assert full_row.tobytes() == np.concatenate([row, np.zeros((len(table) - m, table.shape[1]))]).tobytes()

    @pytest.mark.parametrize("name", si.losses.BUILTIN_LOSSES)
    def test_builtin_c_after_equals_its_family_on_the_image(self, name):
        # C after on the n-symbol push equals the built-in re-instantiated at the image size m on the m-symbol
        # push, bit for bit: every fold skips or adds +0.0 for a zero row, and an action on an empty symbol never
        # wins; random maps onto 2..n labels (m = n: permutations), joints with zero-mass rows, |Y| = 1-3
        rng = np.random.default_rng(24)
        for n in range(2, 13):
            l = si.builtin_loss(name, n)
            for b in (1, 2, 3):
                live = (rng.uniform(size=(12, n, 1)) >= 0.3) | (np.arange(n)[:, None] == rng.integers(0, n, (12, 1, 1)))
                tables = rng.dirichlet(np.ones(n * b), size=12).reshape(12, n, b) * live  # one row or more live
                tables /= tables.sum(axis=(1, 2), keepdims=True)
                ms = rng.integers(2, n + 1, size=12)
                maps = np.array([rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])) for m in ms])
                after, _ = sufficiency._decide(l, tables, maps, np.nan, 1e-9)  # C before NaN: no row is a hit
                for table, mapping, m, c in zip(tables, maps.tolist(), ms.tolist(), after.tolist()):
                    oracle = c_value(si.builtin_loss(name, m), si.push_forward(si.Joint(table), si.Transform(tuple(mapping))))
                    assert c.hex() == oracle.hex()

    @pytest.mark.parametrize("name", si.losses.BUILTIN_LOSSES)
    def test_audit_entries_equal_c_after_alone(self, name):
        # the 5-symbol audit-dpa joints of the benchmark: (class sizes, |Y|)
        shapes = (((2, 2, 1), 2), ((3, 2), 3), ((2, 1, 1, 1), 2), ((4, 1), 3))
        rng = np.random.default_rng(12)
        l = si.builtin_loss(name, 5)
        for sizes, ny in shapes:
            rows = rng.dirichlet(np.ones(ny), size=len(sizes))
            assignment = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
            j = si.Joint(rng.dirichlet(np.ones(5))[:, None] * rows[assignment])
            entries = si.audit_dpa(l, j).entries
            assert len(entries) == math.prod(len(list(sufficiency._set_partitions(list(range(s))))) for s in sizes) + 120
            for e in entries:
                assert e.c_after == _c_after(l, j, e.transform)


class TestScreen:
    @pytest.mark.parametrize("name", SCAN_LOSSES)
    @settings(max_examples=25)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2**16), budget=st.integers(0, 300))
    def test_matches_scalar_scan(self, name, n, seed, budget):
        l = _scan_loss(name, n)
        assert repr(si.find_violation(l, n, budget=budget, seed=seed)) == repr(_scalar_scan(l, n, budget, seed))

    def test_near_threshold_tolerances(self):
        # the witness's own gap, one ulp either side, and offsets of 1e-13 and 1e-11
        l = si.builtin_loss("zero_one", 3)
        w = si.find_violation(l, 3, budget=2_000, seed=7)
        gap = w.c_after - w.c_before
        tols = [np.nextafter(gap, 0.0), gap, np.nextafter(gap, 1.0), gap - 1e-13, gap + 1e-13, gap - 1e-11]
        for tol in map(float, tols):
            expect = _scalar_scan(l, 3, 2_000, seed=7, tol=tol)
            assert repr(si.find_violation(l, 3, budget=2_000, seed=7, tol=tol)) == repr(expect)

    @pytest.mark.parametrize(
        "l",
        [
            # every full-support P meets an inf in each action
            si.ActionMatrixLoss(np.array([[0.0, np.inf, 1.0], [1.0, 0.0, np.inf], [np.inf, 1.0, 0.0]])),
            # inf at full-support forecasts only: C before is inf, C after a merge is finite
            si.ScoringRuleLoss(
                eval_fn=lambda x, q: float(_inf_at_full_support(q)[x]), n=3, proper=True, vector_fn=_inf_at_full_support
            ),
            # log loss, inf only where q_2 > 1/2: the first non-finite candidate (index 5) is mid-chunk
            si.ScoringRuleLoss(
                eval_fn=lambda x, q: float(_inf_at_second_over_half(q)[x]),
                n=3,
                proper=True,
                vector_fn=_inf_at_second_over_half,
            ),
        ],
        ids=["matrix", "proper-rule", "mid-chunk"],
    )
    def test_nonfinite_raises_at_first_in_scan_order(self, l):
        first = _first_unbounded(l, 3)
        assert repr(si.find_violation(l, 3, budget=first)) == repr(_scalar_scan(l, 3, first))
        with pytest.raises(UnboundedBelow):
            si.find_violation(l, 3, budget=first + 1)

    def test_zero_times_inf_screened_as_nonfinite(self):
        # 0 * inf = 0: the scan's stacks mask it as c_value does alone
        l = si.ActionMatrixLoss(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, np.inf], [1.0, np.inf, 0.0]]))
        w = si.find_violation(l, 3, budget=300, seed=2)
        assert repr(w) == repr(_scalar_scan(l, 3, 300, seed=2))


def _joint_stack(seeds, n, m, zero_frac):
    """Same-shape random joints with some cells, rows and columns of zero mass."""
    tables = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        table = rng.dirichlet(np.ones(n * m)).reshape(n, m) * (rng.uniform(size=(n, m)) >= zero_frac)
        if table.sum() == 0.0:
            table[0, 0] = 1.0
        tables.append(table / table.sum())
    return np.stack(tables)


joint_stacks = st.builds(
    _joint_stack,
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    n=st.integers(2, 5),
    m=st.integers(1, 3),
    zero_frac=st.sampled_from([0.0, 0.3, 0.6]),
)


class TestBatchedC:
    @given(tables=joint_stacks)
    def test_log_is_mutual_information(self, tables):
        c = _c_stack(si.builtin_loss("log", tables.shape[1]), tables)[0]
        for ck, table in zip(c, tables):
            assert abs(ck - si.mutual_information(si.Joint(table))) <= 1e-12

    @given(
        tables=joint_stacks,
        name=st.sampled_from(si.losses.BUILTIN_LOSSES),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    def test_each_row_equals_c_value_alone(self, tables, name, layout):
        # bit for bit, whatever else is in the stack and however it is laid out
        l = si.builtin_loss(name, tables.shape[1])
        stack = {"C": tables, "F": np.asfortranarray(tables), "strided": np.repeat(tables, 2, axis=0)[::2]}[layout]
        c = _c_stack(l, stack)[0]
        for ck, table in zip(c, tables):
            assert ck >= -1e-12
            assert ck == sufficiency.c_value(l, si.Joint(table))


def test_permutation_invariance_for_symmetric_losses():
    # losses whose normalized G is permutation symmetric keep C under relabeling
    rng = np.random.default_rng(8)
    for name in ("log", "zero_one", "brier", "spherical"):
        l = si.builtin_loss(name, 3)
        for _ in range(20):
            j = random_joint(rng, 3, 3)
            c = si.benefit(l, j).c_value
            for perm in itertools.permutations(range(3)):
                pj = si.push_forward(j, si.Transform(perm))
                assert si.benefit(l, pj).c_value == pytest.approx(c, abs=1e-9)
