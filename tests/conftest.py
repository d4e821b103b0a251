import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import sideinfo as si

# One deterministic profile: the same examples on every run, no wall-clock deadline.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def package_env() -> dict:
    """os.environ with the absolute package root first on PYTHONPATH.

    Child processes run in a temporary directory, where a relative entry
    such as `src` resolves to nothing.
    """
    root = str(Path(si.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def witness_joint() -> si.Joint:
    """The 3x2 joint whose {x1, x2} merge raises C for zero-one and Brier losses."""
    return si.validate_joint([[0.0, 0.25], [0.0, 0.25], [0.5, 0.0]])


def random_joint(rng: np.random.Generator, n: int, m: int) -> si.Joint:
    return si.Joint(rng.dirichlet(np.ones(n * m)).reshape(n, m))


def random_joint3(rng: np.random.Generator, n: int, m: int, w: int) -> si.Joint:
    return si.Joint(rng.dirichlet(np.ones(n * m * w)).reshape(n, m, w))


def copy_process() -> si.MarkovJointProcess:
    """X iid uniform bits, Y_i = X_i."""
    row = np.array([0.5, 0.0, 0.0, 0.5])
    return si.MarkovJointProcess(2, 2, row.copy(), np.tile(row, (4, 1)))


def delayed_copy_process() -> si.MarkovJointProcess:
    """X iid uniform bits, Y_i = X_{i-1} (Y_1 independent uniform)."""
    k = np.zeros((4, 4))
    for x in range(2):
        for y in range(2):
            for xp in range(2):
                k[x * 2 + y, xp * 2 + x] = 0.5
    return si.MarkovJointProcess(2, 2, np.full(4, 0.25), k)


def x_from_y_process() -> si.MarkovJointProcess:
    """Y iid uniform bits, X_i = Y_{i-1} (X_1 independent uniform)."""
    k = np.zeros((4, 4))
    for x in range(2):
        for y in range(2):
            for yp in range(2):
                k[x * 2 + y, y * 2 + yp] = 0.5
    return si.MarkovJointProcess(2, 2, np.full(4, 0.25), k)


def independent_process() -> si.MarkovJointProcess:
    """X and Y independent iid uniform bits."""
    return si.MarkovJointProcess(2, 2, np.full(4, 0.25), np.tile(np.full(4, 0.25), (4, 1)))


def random_stationary_markov(
    seed: int, conc: float | None = None, nx: int = 2, ny: int = 2
) -> si.MarkovJointProcess:
    """A seeded random nx-by-ny joint Markov model started in its stationary law."""
    rng = np.random.default_rng(seed)
    alpha = conc if conc is not None else rng.uniform(0.5, 3.0)
    q = nx * ny
    kernel = rng.dirichlet(np.ones(q) * alpha, size=q)
    base = si.MarkovJointProcess(nx, ny, np.full(q, 1.0 / q), kernel)
    pi = base.stationary()
    return si.MarkovJointProcess(nx, ny, pi, kernel)


def unroll(m: si.MarkovJointProcess, n: int) -> si.ExplicitProcess:
    """The explicit sequence distribution of a Markov model at horizon n: the reference the forward recursion is checked against."""
    q = m.nx * m.ny
    dist = m.initial.copy()  # flat over pair states, shape (q,)*i flattened
    for _ in range(n - 1):
        dist = (dist[..., None] * m.kernel).reshape(dist.shape + (q,))
    return si.ExplicitProcess(nx=m.nx, ny=m.ny, table=dist.reshape((m.nx, m.ny) * n))


def linear_oracle(c) -> si.ConvexOracle:
    """G(P) = <c, P>; convex with zero Jensen gap."""
    cv = np.asarray(c, dtype=float)
    return si.ConvexOracle(
        value=lambda q: float(np.dot(cv, q)),
        subgradient=lambda q: cv.copy(),
        symmetric=bool(np.all(cv == cv[0])),
    )
