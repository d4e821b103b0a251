"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a `[acceptance] criterion N: PASS ...` line (visible with
pytest -s or in failure output); stated runtime bounds are asserted.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import sideinfo as si
from sideinfo.losses import simplex_grid
from sideinfo.prob import LOG_ZERO

from conftest import (
    copy_process,
    package_env,
    random_joint,
    random_joint3,
    random_stationary_markov,
    unroll,
)

LN2 = math.log(2)


def _report(num: int, detail: str) -> None:
    print(f"[acceptance] criterion {num}: PASS {detail}")


def test_criterion_01_theorem1_forward_log_benefit_is_mi():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        j = random_joint(rng, n, m)
        c = si.benefit(si.builtin_loss("log", n), j).c_value
        worst = max(worst, abs(c - si.mutual_information(j)))
        assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"1000 joints, worst |C - I| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_theorem1_converse_witnesses():
    # zero-one finds a verified witness within the budget
    start = time.perf_counter()
    w = si.find_violation(si.builtin_loss("zero_one", 3), 3, budget=10_000, seed=0)
    elapsed = time.perf_counter() - start
    assert w is not None and w.kind == "dpa_violation"
    assert si.verify_witness(si.builtin_loss("zero_one", 3), w)
    assert elapsed < 5.0

    # the hand-derived parametric instance, exactly
    j = si.proof_family(3, t=0.5, lambda1=0.0, lambda2=1.0, alpha=0.5)
    merge = si.Transform((0, 0, 1))
    for name, before, after in (("zero_one", 0.25, 0.5), ("brier", 0.375, 0.5)):
        l3 = si.builtin_loss(name, 3)
        l2 = si.builtin_loss(name, 2)
        assert si.benefit(l3, j).c_value == before
        assert si.benefit(l2, si.push_forward(j, merge)).c_value == after

    # log loss, and any positive scaling of it, yields no witness
    assert si.find_violation(si.builtin_loss("log", 3), 3, budget=10_000, seed=0) is None
    scaled = si.ScoringRuleLoss(
        eval_fn=lambda x, q: 2.5 * (-math.log(q[x])) if q[x] > 0 else math.inf,
        n=3,
        proper=True,
        name=None,
        vector_fn=lambda q: 2.5 * si.builtin_loss("log", 3).loss_vector(q),
    )
    assert si.find_violation(scaled, 3, budget=10_000, seed=0) is None
    _report(2, f"zero-one witness in {elapsed:.2f}s; 0.25->0.5 and 0.375->0.5 exact; log/scaled-log none")


def _symmetric_binary_oracle(rng: np.random.Generator) -> si.ConvexOracle:
    """Random mixture of |q1 - 1/2|^k (k = 2, 3, 4) and scaled negative binary entropy."""
    c = rng.uniform(0.1, 2.0, size=4)  # c[0] scales -H2, c[1:] the power terms

    def value(q):
        u = abs(float(q[0]) - 0.5)
        ent = sum(float(v) * math.log(v) for v in q if v > 0)
        return c[0] * ent + c[1] * u**2 + c[2] * u**3 + c[3] * u**4

    def subgradient(q):
        u = float(q[0]) - 0.5
        s = math.copysign(1.0, u) if u != 0 else 0.0
        au = abs(u)
        # d|u|^k/dq1 = k|u|^{k-1} sign(u) / 2 on the simplex line; opposite for q2
        power = (2 * c[1] * au + 3 * c[2] * au**2 + 4 * c[3] * au**3) * s / 2.0
        logs = np.where(np.asarray(q) > 0, np.log(np.maximum(q, 1e-300)) + 1.0, LOG_ZERO)
        return c[0] * logs + np.array([power, -power])

    return si.ConvexOracle(value=value, subgradient=subgradient, symmetric=True)


def test_criterion_03_theorem2_binary_family():
    rng = np.random.default_rng(33)
    witnesses = 0
    for _ in range(50):
        g = _symmetric_binary_oracle(rng)
        rule = si.savage_from_G(g, n=2)
        for _ in range(200):
            j = random_joint(rng, 2, 2)
            rep = si.audit_dpa(rule, j)
            witnesses += len(rep.violations)
    assert witnesses == 0

    asym = si.ConvexOracle(
        value=lambda q: float(q[0] ** 3),
        subgradient=lambda q: np.array([3.0 * q[0] ** 2, 0.0]),
        symmetric=False,
    )
    rep = si.audit_dpa(si.savage_from_G(asym, n=2), si.validate_joint([[0.5, 0.2], [0.1, 0.2]]))
    assert any(w.kind == "asymmetry" for w in rep.violations)
    _report(3, "50 symmetric G x 200 binary joints: 0 witnesses; asymmetric G caught")


def test_criterion_04_lemma_invariants():
    rng = np.random.default_rng(44)
    names = ("log", "zero_one", "brier", "spherical", "absolute_ordered")
    worst = 0.0
    for i in range(1000):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        j = random_joint(rng, n, m)
        rep = si.benefit(si.builtin_loss(names[i % len(names)], n), j)
        worst = max(worst, rep.decomposition_residual)
        assert rep.decomposition_residual <= 1e-9

    for name in names:
        for n in (3, 4):
            g = si.g_normalized(si.builtin_loss(name, n))
            for i in range(n):
                assert abs(g.value(si.point_mass(i, n).probs)) <= 1e-9

    for name in names:
        l = si.builtin_loss(name, 4)
        cap = max(si.v_envelope(l, si.point_mass(i, 4)) for i in range(4))
        for _ in range(200):
            p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            lam = float(rng.uniform())
            assert si.v_envelope(l, lam * p + (1 - lam) * q) <= (
                lam * si.v_envelope(l, p) + (1 - lam) * si.v_envelope(l, q) + 1e-9
            )
            assert si.v_envelope(l, p) <= cap + 1e-9
    _report(4, f"normalized-G rounding residual (same solves as C) worst {worst:.2e}; G(delta)=0; V convex and vertex-bounded")


def test_criterion_05_savage_representation():
    # interior lattice with 210 points (>= the stated 200), n = 3
    grid = [q for q in simplex_grid(3, 22) if np.all(q > 0)]
    assert len(grid) >= 200
    log_rule = si.savage_from_G(si.neg_entropy_oracle(), n=3)
    brier = si.builtin_loss("brier", 3)
    sq_rule = si.savage_from_G(si.sum_squares_oracle(), n=3)
    worst_log = worst_sq = 0.0
    for q in grid:
        worst_log = max(worst_log, float(np.abs(log_rule.loss_vector(q) + np.log(q)).max()))
        worst_sq = max(
            worst_sq, float(np.abs(sq_rule.loss_vector(q) - (brier.loss_vector(q) - 1.0)).max())
        )
    assert worst_log <= 1e-9
    assert worst_sq <= 1e-9
    si.audit_propriety(log_rule, trials=100, seed=5)
    si.audit_propriety(sq_rule, trials=100, seed=5)
    _report(5, f"{len(grid)}-point grid: log dev {worst_log:.2e}, brier dev {worst_sq:.2e}; propriety ok")


def test_criterion_06_conservation_law():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rep = si.conservation_check(random_stationary_markov(seed), 6)
        worst = max(worst, rep.residual, rep.residual_refined)
        assert rep.residual <= 1e-9
        assert rep.residual_refined <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    spot = si.conservation_check(copy_process(), 3)
    assert spot.forward == pytest.approx(3 * LN2, abs=1e-12)
    _report(6, f"100 models at horizon 6, worst residual {worst:.2e}, {elapsed:.1f}s; copy spot 3ln2")


def test_criterion_07_rate_identity_log_loss_bridge():
    log2 = si.builtin_loss("log", 2)
    n = 8
    worst = 0.0
    for seed in range(20):
        m = random_stationary_markov(seed)
        inc = si.reverse_delayed_di(m, n) - si.reverse_delayed_di(m, n - 1)
        proc = unroll(m, n)
        t = proc.table
        x_hist = tuple(2 * k for k in range(n - 1))
        y_hist = tuple(2 * k + 1 for k in range(n - 1))
        x_now = 2 * (n - 1)
        drop = tuple(ax for ax in range(t.ndim) if ax not in x_hist + y_hist + (x_now,))
        marg = t.sum(axis=drop)
        nd = marg.ndim
        # axes to (X_n, flattened Y^{n-1}, flattened X^{n-1})
        arr = marg.transpose((nd - 1,) + tuple(range(1, nd - 1, 2)) + tuple(range(0, nd - 1, 2)))
        j3 = si.Joint(arr.reshape(2, 2 ** (n - 1), 2 ** (n - 1)))
        bridged = si.conditional_benefit(log2, j3)
        worst = max(worst, abs(bridged - inc))
        assert abs(bridged - inc) <= 1e-9
    _report(7, f"20 models at horizon {n}: worst |benefit - DI increment| = {worst:.2e}")


def test_criterion_08_geweke():
    rng = np.random.default_rng(88)
    # F = 0 when the y -> x coefficients vanish
    for _ in range(20):
        ax, ayx, ay = rng.uniform(-0.7, 0.7, size=3)
        v = si.VarModel(
            coeffs=np.array([[[ax, 0.0], [ayx, ay]]]),
            sigma=np.array([[1.0, 0.2], [0.2, 0.9]]),
        )
        assert abs(si.geweke_F(v)) <= 1e-9

    # closed form ln(1 + b^2)
    for b in (0.5, 1.0, 2.0):
        v = si.VarModel(coeffs=np.array([[[0.0, b], [0.0, 0.0]]]), sigma=np.eye(2))
        assert si.geweke_F(v) == pytest.approx(math.log(1 + b * b), abs=1e-6)

    # generic stable VAR(1) against a least-squares simulation oracle
    start = time.perf_counter()
    a = np.array([[0.5, 0.3], [0.2, 0.4]])
    sigma = np.array([[1.0, 0.2], [0.2, 0.8]])
    exact = si.geweke_F(si.VarModel(coeffs=a[None], sigma=sigma))
    steps = 1_000_000
    noise = np.random.default_rng(12345).standard_normal((steps, 2)) @ np.linalg.cholesky(sigma).T
    z = np.zeros((steps, 2))
    for t in range(1, steps):
        z[t, 0] = a[0, 0] * z[t - 1, 0] + a[0, 1] * z[t - 1, 1] + noise[t, 0]
        z[t, 1] = a[1, 0] * z[t - 1, 0] + a[1, 1] * z[t - 1, 1] + noise[t, 1]
    x, y = z[1000:, 0], z[1000:, 1]
    design_full = np.column_stack([x[:-1], y[:-1], np.ones(x.shape[0] - 1)])
    beta = np.linalg.lstsq(design_full, x[1:], rcond=None)[0]
    var_full = float(np.var(x[1:] - design_full @ beta))
    lag = 24
    windows = np.lib.stride_tricks.sliding_window_view(x, lag + 1)
    design_res = np.column_stack([windows[:, :-1], np.ones(windows.shape[0])])
    beta_r = np.linalg.lstsq(design_res, windows[:, -1], rcond=None)[0]
    var_res = float(np.var(windows[:, -1] - design_res @ beta_r))
    simulated = math.log(var_res / var_full)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert abs(simulated - exact) / exact < 0.02
    _report(8, f"zero-coupling F < 1e-9; ln(1+b^2) ok; sim rel err {abs(simulated-exact)/exact:.3f} in {elapsed:.0f}s")


def test_criterion_09_corollary1_conditional_benefit():
    rng = np.random.default_rng(99)
    log3 = si.builtin_loss("log", 3)
    worst = 0.0
    for _ in range(200):
        j = random_joint3(rng, 3, 3, 3)
        diff = abs(si.conditional_benefit(log3, j) - si.conditional_mutual_information(j))
        worst = max(worst, diff)
        assert diff <= 1e-9
    _report(9, f"200 joints: worst |C_W - I(X;Y|W)| = {worst:.2e}")


def _run_cli(args, tmp_path) -> bytes:
    out = subprocess.run(
        [sys.executable, "-m", "sideinfo.cli", *args],
        capture_output=True,
        cwd=tmp_path,
        env=package_env(),
    )
    assert out.returncode in (0, 2, 3), f"{args}: {out.stderr.decode()}"
    return out.stdout


def test_criterion_10_cli_determinism(tmp_path, witness_joint):
    joint_path = tmp_path / "witness.json"
    si.write_model(witness_joint, joint_path)
    m = copy_process()
    model_path = tmp_path / "copy.json"
    si.write_model(m, model_path)

    goldens = [
        ["benefit", "--joint", "witness.json", "--builtin", "log"],
        ["benefit", "--joint", "witness.json", "--builtin", "zero-one"],
        ["audit-dpa", "--joint", "witness.json", "--builtin", "brier"],
        ["mi", "--joint", "witness.json"],
        ["directed-info", "--model", "copy.json", "--horizon", "3", "--conservation"],
        ["find-violation", "--builtin", "zero-one", "--n", "3", "--budget", "500", "--seed", "1"],
    ]
    for argv in goldens:
        first = _run_cli(argv, tmp_path)
        second = _run_cli(argv, tmp_path)
        assert first == second, f"run-to-run bytes differ for {argv}"
        assert first, f"no output for {argv}"
        json.loads(first.decode())

    workered = [
        ["audit-dpa", "--joint", "witness.json", "--builtin", "zero-one"],
        ["find-violation", "--builtin", "zero-one", "--n", "3", "--budget", "500", "--seed", "1"],
        ["find-violation", "--builtin", "log", "--n", "3", "--budget", "200", "--seed", "0"],
    ]
    for argv in workered:
        one = _run_cli(argv + ["--workers", "1"], tmp_path)
        four = _run_cli(argv + ["--workers", "4"], tmp_path)
        assert one == four, f"worker counts change bytes for {argv}"
    _report(10, f"{len(goldens)} goldens byte-stable across runs; {len(workered)} across 1-vs-4 workers")
