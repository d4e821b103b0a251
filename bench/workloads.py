"""Seeded inputs and job lists for the three benchmark workloads.

`generate` writes every input file of one workload into a directory and
returns the job list as plain data (`jobs.json` in the same directory).
Each job carries the closed-form answer it will be checked against, worked
out here with numpy alone, so the program under test sees only the
generated files and argument vectors.  Nothing here imports `sideinfo`.

Why each workload exists (see bench/README.md for the layer map):

* dpa-scan: many tiny exact Bayes-risk calls (column-min and
  proper-fixed-point tiers) under find-violation scans and audit-dpa;
  the causality layer stays idle.
* causal-horizon: the sequence-unroll plus marginal-entropy path of the
  Markov causality measures, and Levinson-Durbin under geweke; the loss
  and sufficiency layers stay idle.
* bayes-numeric: the numeric-search Bayes tier on improper scoring rules,
  a few heavy calls against dpa-scan's many light ones.

Job classes are sized so that the p50 and p90 ranks of per-job latency fall
inside one block of same-kind jobs, away from block boundaries: dpa-scan
puts p50 in the audit-dpa block and p90 in the full-budget scans,
causal-horizon puts p50 in the geweke block and p90 in the horizon-9
block, bayes-numeric puts p50 in the n = 3 audit_propriety block and p90
in the n = 3 numeric bayes_risk block.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("dpa-scan", "causal-horizon", "bayes-numeric")
# The refspeed loop whose speed each workload's times are scaled by: the one
# that resembles its hot path.  Scaled by the interpreter loop, causal-horizon
# passes spread more than raw wall times; by the array loop, a third as much.
REFERENCE = {"dpa-scan": "interp", "causal-horizon": "array", "bayes-numeric": "interp"}

SCHEMA_VERSION = 1
# Job argv entries that name an input file start with IN; the runner
# substitutes the input directory, so jobs.json is the same wherever it lands.
IN = "$IN/"
GEWEKE_GOLDENS = Path(__file__).resolve().parent / "geweke_goldens.json"

# (class sizes, |Y|) of the 5-symbol audit-dpa joints: at least one mergeable
# class and at least two classes, so the benefit is not identically zero.
# The shapes are fixed, not drawn, because they set each audit's cost.
_AUDIT_SHAPES = (((2, 2, 1), 2), ((3, 2), 3), ((2, 1, 1, 1), 2), ((4, 1), 3))
_BUILTINS = ("log", "zero-one", "brier", "spherical", "absolute-ordered")


def _enc(x: float) -> str:
    return repr(float(x))


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _bell(k: int) -> int:
    """Number of set partitions of a k-element set."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _mutual_information(table: np.ndarray) -> float:
    return _entropy(table.sum(axis=1)) + _entropy(table.sum(axis=0)) - _entropy(table.reshape(-1))


def joint_doc(table: np.ndarray) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "kind": "joint",
        "rows": int(table.shape[0]),
        "cols": int(table.shape[1]),
        "p": [[_enc(v) for v in row] for row in table],
    }


def markov_doc(nx: int, ny: int, initial: np.ndarray, kernel: np.ndarray) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "kind": "markov_process",
        "nx": nx,
        "ny": ny,
        "initial": [_enc(v) for v in initial],
        "kernel": [[_enc(v) for v in row] for row in kernel],
    }


# ---------------------------------------------------------------------------
# dpa-scan
# ---------------------------------------------------------------------------


def _audit_joint(rng: np.random.Generator, sizes: tuple[int, ...], ny: int) -> np.ndarray:
    """A 5-symbol joint whose conditional rows repeat within classes of the given sizes."""
    rows = rng.dirichlet(np.ones(ny), size=len(sizes))
    assignment = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(assignment)
    px = rng.dirichlet(np.ones(5))
    return px[:, None] * rows[assignment]


def _dpa_scan(rng: np.random.Generator, out: Path, toy: bool) -> list[dict]:
    jobs: list[dict] = []
    losses = ("log", "zero-one") if toy else _BUILTINS
    k = 0
    for ji, (sizes, ny) in enumerate(_AUDIT_SHAPES[:1] if toy else _AUDIT_SHAPES):
        table = _audit_joint(rng, sizes, ny)
        name = f"audit-joint-{ji}.json"
        (out / name).write_text(_dump(joint_doc(table)))
        mi = _mutual_information(table)
        jobs.append({
            "cls": "benefit-log",
            "op": "cli",
            "argv": ["benefit", "--joint", IN + name, "--builtin", "log"],
            "expect": {"check": "benefit_log", "mi": mi},
        })
        transforms = math.prod(_bell(s) for s in sizes) + math.factorial(5)
        for loss in losses:
            workers = 1 + k % 2
            k += 1
            jobs.append({
                "cls": "audit-dpa",
                "op": "cli",
                "argv": ["audit-dpa", "--joint", IN + name, "--builtin", loss,
                         "--seed", str(int(rng.integers(1 << 16))), "--workers", str(workers)],
                "expect": {"check": "audit", "loss": loss, "n": 5, "transforms": transforms, "mi": mi},
            })
    early = [("brier", 3), ("zero-one", 4)] if toy else [
        (loss, n) for loss in ("brier", "zero-one", "spherical") for n in (3, 4, 5)
    ]
    for i, (loss, n) in enumerate(early):
        jobs.append({
            "cls": "find-violation-hit",
            "op": "cli",
            "argv": ["find-violation", "--builtin", loss, "--n", str(n), "--budget", "10000",
                     "--seed", str(int(rng.integers(1 << 16))), "--workers", str(1 + i % 2)],
            "expect": {"check": "witness", "loss": loss, "n": n, "kind": "dpa_violation"},
        })
    # Budgets even out the per-scan cost, so the full-scan block is one latency cluster.
    full = [("log", 3, 30), ("zero-one", 2, 30)] if toy else [
        ("log", 3, 600), ("log", 4, 600), ("log", 5, 450), ("zero-one", 2, 700)
    ]
    for loss, n, budget in full:
        for workers in ((1,) if toy else (1, 2)):
            jobs.append({
                "cls": "find-violation-full",
                "op": "cli",
                "argv": ["find-violation", "--builtin", loss, "--n", str(n), "--budget", str(budget),
                         "--seed", str(int(rng.integers(1 << 16))), "--workers", str(workers)],
                "expect": {"check": "no_witness"},
            })
    return jobs


# ---------------------------------------------------------------------------
# causal-horizon
# ---------------------------------------------------------------------------


def markov_model(rng: np.random.Generator, nx: int, ny: int, autonomous: bool = False):
    """A stationary joint Markov pair model; `autonomous` makes X ignore Y's past."""
    q = nx * ny
    if autonomous:
        a = rng.dirichlet(np.ones(nx), size=nx)  # P(x' | x)
        b = rng.dirichlet(np.ones(ny), size=(nx, ny, nx))  # P(y' | x, y, x')
        kernel = (a[:, None, :, None] * b).reshape(q, q)
    else:
        kernel = rng.dirichlet(np.ones(q), size=q)
    pi = np.full(q, 1.0 / q)
    for _ in range(500):  # Dirichlet rows are positive, so the chain mixes fast
        pi = pi @ kernel
        pi /= pi.sum()
    return pi, kernel


def _transfer_entropy(nx: int, ny: int, initial: np.ndarray, kernel: np.ndarray, direction: str) -> float:
    """Closed form I(Y_0; X_1 | X_0) (or its mirror) from the two-step stationary joint."""
    two = (initial[:, None] * kernel).reshape(nx, ny, nx, ny)
    j = two.sum(axis=3) if direction == "y->x" else two.sum(axis=2).transpose(1, 0, 2)
    return (_entropy(j.sum(axis=2).reshape(-1)) + _entropy(j.sum(axis=1).reshape(-1))
            - _entropy(j.reshape(-1)) - _entropy(j.sum(axis=(1, 2))))


def _geweke_catalog() -> list[dict]:
    return json.loads(GEWEKE_GOLDENS.read_text())["models"]


def _causal_horizon(rng: np.random.Generator, out: Path, toy: bool) -> list[dict]:
    jobs: list[dict] = []
    catalog = _geweke_catalog()
    picks = rng.choice(len(catalog), size=2 if toy else 24, replace=False)
    for i in picks:
        entry = catalog[int(i)]
        name = f"var-{int(i)}.json"
        doc = {"version": SCHEMA_VERSION, "kind": "var_model", "order": entry["order"],
               "a": entry["a"], "sigma": entry["sigma"]}
        (out / name).write_text(_dump(doc))
        jobs.append({
            "cls": "geweke",
            "op": "cli",
            "argv": ["geweke", "--var", IN + name],
            "expect": {"check": "geweke", "f": float(entry["f"])},
        })

    def api_model(nx, ny, autonomous):
        initial, kernel = markov_model(rng, nx, ny, autonomous)
        return {"nx": nx, "ny": ny, "initial": initial.tolist(), "kernel": kernel.tolist()}

    te_cases = [(2, 2, False, "y->x"), (2, 2, True, "y->x")] if toy else [
        (2, 2, False, "y->x"), (2, 2, False, "x->y"), (2, 2, True, "y->x"),
        (3, 2, False, "y->x"), (3, 2, False, "x->y"), (3, 2, True, "y->x"),
    ]
    for nx, ny, autonomous, direction in te_cases:
        m = api_model(nx, ny, autonomous)
        # X that ignores Y's past has zero transfer entropy from Y
        te = 0.0 if autonomous else _transfer_entropy(
            nx, ny, np.array(m["initial"]), np.array(m["kernel"]), direction)
        jobs.append({
            "cls": "transfer-entropy",
            "op": "transfer_entropy",
            "model": m,
            "direction": direction,
            "expect": {"check": "transfer_entropy", "te": te},
        })
    rate_cases = [(2, 2, True)] if toy else [(2, 2, False), (2, 2, False), (2, 2, True), (3, 2, False)]
    for nx, ny, autonomous in rate_cases:
        jobs.append({
            "cls": "di-rate",
            "op": "di_rate",
            "model": api_model(nx, ny, autonomous),
            "max_n": 9,
            "expect": {"check": "di_rate", "autonomous": autonomous, "nx": nx},
        })
    horizons = [(2, 2, 4, 1), (3, 2, 3, 1)] if toy else [
        (2, 2, 8, 4), (3, 2, 7, 1), (2, 2, 9, 8), (2, 2, 10, 2), (2, 2, 11, 1)
    ]
    k = 0
    for nx, ny, horizon, count in horizons:
        for _ in range(count):
            initial, kernel = markov_model(rng, nx, ny)
            name = f"markov-{k}.json"
            k += 1
            (out / name).write_text(_dump(markov_doc(nx, ny, initial, kernel)))
            jobs.append({
                "cls": f"directed-info-{nx}x{ny}-h{horizon}",
                "op": "cli",
                "argv": ["directed-info", "--model", IN + name, "--horizon", str(horizon), "--conservation"],
                "expect": {"check": "conservation"},
            })
    return jobs


# ---------------------------------------------------------------------------
# bayes-numeric
# ---------------------------------------------------------------------------


def exact_risk(rule: str, p: np.ndarray) -> float:
    """Bayes risk of the benchmark's improper rules: linear -q_x and unflagged Brier."""
    return float(-p.max()) if rule == "linear" else float(1.0 - (p * p).sum())


def _bayes_numeric(rng: np.random.Generator, out: Path, toy: bool) -> list[dict]:
    jobs: list[dict] = []
    for _ in range(2 if toy else 12):
        n = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(n))
        x = int(rng.integers(n))
        jobs.append({
            "cls": "scoring-rule",
            "op": "cli",
            "argv": ["scoring-rule", "--g", "neg-entropy", "--eval", str(x + 1), ",".join(_enc(v) for v in q)],
            "expect": {"check": "log_score", "value": float(-np.log(q[x] / q.sum()))},
        })
    # Audits of the three proper rules at n = 3 cost about the same (27-30 ms
    # on the reference VM, whatever the seed) and hold the p50 rank (28th of
    # 55) near the middle of their block; the linear rule's audit stops at
    # its first violation and sits with the light jobs.
    proper = ("spherical-builtin", "brier-builtin", "brier")
    rules = ("brier-builtin", "linear") if toy else tuple(proper[k % 3] for k in range(31)) + ("linear",)
    for rule in rules:
        jobs.append({
            "cls": "audit-propriety",
            "op": "audit_propriety",
            "rule": rule,
            "n": 3,
            "trials": 5,
            "seed": int(rng.integers(1 << 16)),
            "expect": {"check": "propriety", "proper": rule != "linear"},
        })
    # Below the three c_value calls (three n = 2 or n = 3 searches each), the
    # p90 rank (6th of 55 from the top) falls in the middle of the six n = 3
    # bayes_risk calls.  The linear rule's search does the same work for
    # every p, so the block is mostly linear; Brier's work varies with p.
    risk_cases = [("linear", 2)] if toy else [
        ("linear", 2), ("brier", 2), ("linear", 3), ("linear", 3), ("linear", 3), ("linear", 3),
        ("linear", 3), ("brier", 3)
    ]
    for rule, n in risk_cases:
        p = rng.dirichlet(np.ones(n))
        jobs.append({
            "cls": f"bayes-risk-n{n}",
            "op": "bayes_risk",
            "rule": rule,
            "n": n,
            "p": p.tolist(),
            "seed": int(rng.integers(1 << 16)),
            "expect": {"check": "risk", "risk": exact_risk(rule, p)},
        })
    value_cases = [("brier", 2)] if toy else [("linear", 2), ("linear", 2), ("linear", 3)]
    for rule, n in value_cases:
        table = rng.dirichlet(np.ones(2 * n)).reshape(n, 2)
        px, py = table.sum(axis=1), table.sum(axis=0)
        c = exact_risk(rule, px) - sum(py[y] * exact_risk(rule, table[:, y] / py[y]) for y in range(2))
        jobs.append({
            "cls": f"c-value-n{n}",
            "op": "c_value",
            "rule": rule,
            "n": n,
            "table": table.tolist(),
            "seed": int(rng.integers(1 << 16)),
            "expect": {"check": "c_value", "c": float(c)},
        })
    return jobs


def probe_case(seed: int) -> dict:
    """The one-call n = 4 numeric-search probe of the traced bayes-numeric run."""
    rng = np.random.default_rng([seed, 404])
    p = rng.dirichlet(np.ones(4))
    return {"rule": "linear", "n": 4, "p": p.tolist(), "seed": int(rng.integers(1 << 16)),
            "risk": exact_risk("linear", p)}


def _interleave(jobs: list[dict]) -> list[dict]:
    """Spread each job class evenly through the pass.

    Same-class jobs then run at different moments of a pass, so a short slow
    spell of the host does not land on a whole latency block at once.
    """
    counts: dict[str, int] = {}
    for job in jobs:
        counts[job["cls"]] = counts.get(job["cls"], 0) + 1
    seen: dict[str, int] = {}
    keyed = []
    for i, job in enumerate(jobs):
        k = seen.get(job["cls"], 0)
        seen[job["cls"]] = k + 1
        keyed.append(((k + 0.5) / counts[job["cls"]], i, job))
    return [job for _, _, job in sorted(keyed, key=lambda t: t[:2])]


_GENERATORS = {"dpa-scan": _dpa_scan, "causal-horizon": _causal_horizon, "bayes-numeric": _bayes_numeric}


def generate(workload: str, seed: int, out_dir, toy: bool = False) -> list[dict]:
    """Write the inputs of one workload into out_dir and return its job list."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _interleave(_GENERATORS[workload](rng, out, toy))
    (out / "jobs.json").write_text(json.dumps(jobs, sort_keys=True, indent=1) + "\n")
    return jobs
