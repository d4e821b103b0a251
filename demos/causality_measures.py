#!/usr/bin/env python3
"""Causal influence between processes, measured four ways.

Directed information, its conservation law, transfer entropy, and
Geweke's linear-feedback measure all quantify "how much does Y's past
help predict X" in some costume.  On finite alphabets everything here is
computed exactly (by a forward recursion for Markov models); for Gaussian
VAR models, from exact autocovariances.
"""

import numpy as np

import sideinfo as si

LN2 = np.log(2)

print("=" * 68)
print("Three toy processes (all jointly Markov on bits)")
print("=" * 68)


def copy_process():
    # Y_i = X_i with X iid uniform: all dependence flows X -> Y instantly
    row = np.array([0.5, 0.0, 0.0, 0.5])
    return si.MarkovJointProcess(2, 2, row.copy(), np.tile(row, (4, 1)))


def x_from_y_process():
    # X_i = Y_{i-1} with Y iid uniform: one fresh bit flows Y -> X per step
    k = np.zeros((4, 4))
    for x in range(2):
        for y in range(2):
            for yp in range(2):
                k[x * 2 + y, y * 2 + yp] = 0.5
    return si.MarkovJointProcess(2, 2, np.full(4, 0.25), k)


def independent_process():
    return si.MarkovJointProcess(2, 2, np.full(4, 0.25), np.tile(np.full(4, 0.25), (4, 1)))


for name, m in (("copy", copy_process()), ("x = y lagged", x_from_y_process()),
                ("independent", independent_process())):
    n = 4
    rep = si.conservation_check(m, n)
    print(f"\n{name} (horizon {n}):")
    print(f"  I(X^n -> Y^n)      = {rep.forward: .6f}")
    print(f"  I(Y^(n-1) -> X^n)  = {rep.reverse_delayed: .6f}")
    print(f"  I(X^n ; Y^n)       = {rep.total_mi: .6f}")
    print(f"  conservation residual = {rep.residual:.2e} (forward + reverse = total)")
    print(f"  Y Granger-causes X?  {not si.granger_noncausal(m, n)}")

print("\n" + "=" * 68)
print("Transfer entropy and the directed information rate")
print("=" * 68)

m = x_from_y_process()
print("for the lagged process (X_i = Y_{i-1}):")
print("  transfer entropy Y->X =", si.transfer_entropy(m, "y->x"), " (= ln 2)")
r = si.di_rate(m, "y->x", max_n=10, tol=1e-9)
print(f"  DI rate Y->X = {r.rate:.9f} (converged={r.converged} at horizon {r.horizon})")
print("  transfer entropy X->Y =", si.transfer_entropy(m, "x->y"))

print("\nThe rate is also a prediction experiment: the per-step log-loss")
print("benefit of causal access to Y's past, on top of X's own past.")

print("\n" + "=" * 68)
print("Geweke's measure for Gaussian VAR models")
print("=" * 68)

# x_t = b * y_{t-1} + eps: the y->x feedback has the closed form ln(1 + b^2)
for b in (0.5, 1.0, 2.0):
    v = si.VarModel(coeffs=np.array([[[0.0, b], [0.0, 0.0]]]), sigma=np.eye(2))
    print(f"  b = {b}: F_(Y->X) = {si.geweke_F(v):.6f}   ln(1+b^2) = {np.log(1+b*b):.6f}")

v0 = si.VarModel(coeffs=np.array([[[0.7, 0.0], [0.4, 0.3]]]), sigma=np.array([[1.0, 0.3], [0.3, 1.0]]))
print("\n  no y->x coefficients (but correlated noise and x->y feedback):")
print("   F_(Y->X) =", si.geweke_F(v0), " -- instantaneous correlation is not causality")

v1 = si.VarModel(coeffs=np.array([[[0.5, 0.3], [0.2, 0.4]]]), sigma=np.array([[1.0, 0.2], [0.2, 0.8]]))
print("\n  coupled VAR(1): F_(Y->X) =", si.geweke_F(v1), ", F_(X->Y) =", si.geweke_F(v1, "x->y"))
print("\n(For jointly Gaussian processes, F is twice the nats-per-step")
print("directed information rate; the library keeps F in Geweke's original")
print("log-variance-ratio units.)")
