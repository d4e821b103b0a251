"""Sufficient transformations of X for Y and the data-processing audit.

A deterministic map T on the X-alphabet keeps all information about Y
exactly when, within each T-class, every positive-mass symbol shares the
same conditional P(Y|X=x).  Merging such symbols can never raise the
benefit of side information for a well-behaved loss; `audit_dpa` checks
that, and `find_violation` searches for counterexamples using the
two-class parametric family that witnesses failures for non-logarithmic
losses on alphabets of three or more symbols.

Every C here comes from the benefit kernel (`benefit._c_stack`), one stack
per table shape and image size.  A row's C is the same bits in any stack
as alone, so `c_value`, `verify_witness`, `audit_dpa` and the scan agree
exactly, and the scan decides every candidate from its chunk's stacks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .benefit import _c_stack, _finite, c_value
from .errors import AlphabetTooLarge, ParameterOutOfRange, WitnessVerificationFailed
from .losses import LossSpec, reinstantiate
from .prob import Joint, validate_joint


@dataclass(frozen=True)
class Transform:
    """A total map from X-symbols onto a contiguous T-alphabet (0-based)."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(v) for v in self.mapping)
        object.__setattr__(self, "mapping", m)
        labels = sorted(set(m))
        if labels != list(range(len(labels))):
            raise ParameterOutOfRange(f"labels must be contiguous from 0, got {labels}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    @property
    def image_size(self) -> int:
        return max(self.mapping) + 1

    @property
    def is_permutation(self) -> bool:
        return self.image_size == self.n

    @staticmethod
    def identity(n: int) -> "Transform":
        return Transform(tuple(range(n)))

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence[int]], n: int) -> "Transform":
        """Merge transform from a partition; blocks labeled by their smallest member."""
        mapping = [-1] * n
        for label, block in enumerate(sorted(blocks, key=min)):
            for x in block:
                mapping[x] = label
        if any(v < 0 for v in mapping):
            raise ParameterOutOfRange("blocks do not cover the alphabet")
        return Transform(tuple(mapping))


@dataclass(frozen=True)
class SufficiencyCert:
    """Verdict on whether a transform is statistically sufficient.

    max_class_tv is the largest total-variation distance between
    conditionals P(Y|X=x) merged into one class; zero-mass symbols are
    vacuously mergeable and listed separately.
    """

    is_sufficient: bool
    max_class_tv: float
    zero_mass_symbols: tuple[int, ...]


def check_sufficient(t: Transform, j: Joint, tol: float = 1e-9) -> SufficiencyCert:
    """Certify X - T(X) - Y (the T - X - Y chain is automatic for deterministic T)."""
    table = j.table
    px = table.sum(axis=1)
    zero = tuple(int(x) for x in np.nonzero(px <= 0.0)[0])
    rows = {x: table[x] / px[x] for x in range(j.nx) if px[x] > 0.0}
    worst = 0.0
    for label in range(t.image_size):
        members = [x for x in range(j.nx) if t.mapping[x] == label and px[x] > 0.0]
        for a, b in itertools.combinations(members, 2):
            tv = 0.5 * float(np.abs(rows[a] - rows[b]).sum())
            worst = max(worst, tv)
    return SufficiencyCert(is_sufficient=worst <= tol, max_class_tv=worst, zero_mass_symbols=zero)


def push_forward(j: Joint, t: Transform) -> Joint:
    """The joint of (T(X), Y) on the contiguous T-alphabet."""
    out = np.zeros((t.image_size, j.ny))
    np.add.at(out, np.array(t.mapping), j.table)
    return Joint(out)


def padded_push_forward(j: Joint, t: Transform) -> Joint:
    """The joint of (T(X), Y) kept on the original alphabet.

    Each class's mass lands on its smallest member, so a fixed-size loss on
    the original alphabet still applies after the merge.
    """
    reps = {}
    for x, label in enumerate(t.mapping):
        reps.setdefault(label, x)
    idx = np.array([reps[label] for label in t.mapping])
    out = np.zeros_like(j.table)
    np.add.at(out, idx, j.table)
    return Joint(out)


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _row_classes(j: Joint, tol: float) -> tuple[list[list[int]], list[int]]:
    """Group positive-mass symbols by equal conditional rows; pool zero-mass ones."""
    table = j.table
    px = table.sum(axis=1)
    classes: list[list[int]] = []
    reps: list[np.ndarray] = []
    zero: list[int] = []
    for x in range(j.nx):
        if px[x] <= 0.0:
            zero.append(x)
            continue
        row = table[x] / px[x]
        for cls, rep in zip(classes, reps):
            if 0.5 * float(np.abs(row - rep).sum()) <= tol:
                cls.append(x)
                break
        else:
            classes.append([x])
            reps.append(row)
    return classes, zero


@dataclass(frozen=True)
class SufficientSet:
    """Enumerated sufficient transforms: merge family plus permutations.

    All n! permutations are sufficient; they are materialized exhaustively
    for n <= 5 and as a seeded sample otherwise (permutations_exhaustive
    records which).
    """

    merges: tuple[Transform, ...]
    permutations: tuple[Transform, ...]
    permutations_exhaustive: bool


def enumerate_sufficient(
    j: Joint,
    tol: float = 1e-9,
    seed: int = 0,
    max_alphabet: int = 12,
    perm_samples: int = 24,
) -> SufficientSet:
    """All sufficient merge-transforms, from partitions refining the row classes.

    Zero-mass symbols form their own vacuous class.  Raises
    AlphabetTooLarge beyond the partition-enumeration bound.
    """
    n = j.nx
    if n > max_alphabet:
        raise AlphabetTooLarge(f"alphabet size {n} exceeds enumeration bound {max_alphabet}")
    groups, zero = _row_classes(j, tol)
    if zero:
        groups.append(zero)
    merge_list: list[Transform] = []
    per_group = [list(_set_partitions(g)) for g in groups]
    for combo in itertools.product(*per_group):
        blocks = [block for group_part in combo for block in group_part]
        merge_list.append(Transform.from_blocks(blocks, n))
    if n <= 5:
        perms = tuple(
            Transform(tuple(p)) for p in itertools.permutations(range(n))
        )
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        seen = {tuple(range(n))}
        for _ in range(perm_samples):
            seen.add(tuple(int(v) for v in rng.permutation(n)))
        perms = tuple(Transform(p) for p in sorted(seen))
        exhaustive = False
    return SufficientSet(merges=tuple(merge_list), permutations=perms, permutations_exhaustive=exhaustive)


@dataclass(frozen=True)
class ViolationWitness:
    """Evidence that a sufficient transform changed the benefit.

    kind is "dpa_violation" when a merge strictly raised C, "asymmetry"
    when a permutation changed C at all (permutations and their inverses
    are both sufficient, so equality is forced there).
    """

    joint: Joint
    transform: Transform
    c_before: float
    c_after: float
    kind: str


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterOutOfRange(f"tol must be finite and >= 0, got {tol}")


def _witness_kind(t: Transform, before: float, after: float, tol: float) -> Optional[str]:
    """The witness rule: which kind of evidence, if any, C before/after t is.

    A permutation that changes C is an "asymmetry", a merge that raises C
    is a "dpa_violation", and the identity is never a witness.
    """
    if t.is_permutation:
        if abs(after - before) > tol and t.mapping != tuple(range(t.n)):
            return "asymmetry"
        return None
    return "dpa_violation" if after > before + tol else None


def _after(l: LossSpec, nx: int, m: Optional[int]):
    """The loss and the push-forward that C after a sufficient transform onto m symbols is taken on.

    Named loss families are re-instantiated on the reduced alphabet; a
    fixed-size loss is evaluated on the padded push-forward instead, which
    keeps the merged variable on the original alphabet.  m = None stands for
    no transform: C of the joint itself.
    """
    if m is None:
        return l, lambda j, _: j
    if m == nx:
        return l, push_forward
    fam = reinstantiate(l, m)
    if fam is not None and (l.n is None or l.n == nx):
        return fam, push_forward
    return l, padded_push_forward


def _c_batch(l: LossSpec, pairs: list[tuple[Joint, Optional[Transform]]], seed: int = 0) -> np.ndarray:
    """C after each (joint, transform) pair, a None transform giving C of the joint itself.

    One kernel stack per table shape and image size, so `_after` re-instantiates
    a family once per image size.  Non-finite C is returned, not raised.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (j, t) in enumerate(pairs):
        groups.setdefault((j.table.shape, None if t is None else t.image_size), []).append(i)
    c = np.empty(len(pairs))
    for (shape, m), idx in groups.items():
        loss, push = _after(l, shape[0], m)
        c[idx] = _c_stack(loss, np.stack([push(*pairs[i]).table for i in idx]), seed)[0]
    return c


def _c_after(l: LossSpec, j: Joint, t: Transform, seed: int = 0) -> float:
    """Benefit after applying a sufficient transform, on the loss and joint `_after` picks."""
    loss, push = _after(l, j.nx, t.image_size)
    return c_value(loss, push(j, t), seed=seed)


def verify_witness(l: LossSpec, w: ViolationWitness, tol: float = 1e-9, value_tol: float = 1e-12) -> bool:
    """Recompute both benefits from the stored joint and transform.

    The witness holds only if both values reproduce within value_tol and
    its kind is the one the witness rule gives for its transform.
    """
    before = c_value(l, w.joint)
    after = _c_after(l, w.joint, w.transform)
    if abs(before - w.c_before) > value_tol or abs(after - w.c_after) > value_tol:
        return False
    return _witness_kind(w.transform, before, after, tol) == w.kind


@dataclass(frozen=True)
class AuditEntry:
    transform: Transform
    c_after: float


@dataclass(frozen=True)
class DpaAuditReport:
    """Benefit before/after every enumerated sufficient transform.

    `violations` holds the strict c_after > c_before + tol merges and any
    permutation asymmetries.  `equality_deviations` separately records
    merges where |c_after - c_before| > tol in either direction, for the
    stronger mutual-sufficiency reading of the axiom.
    """

    c_before: float
    entries: tuple[AuditEntry, ...]
    violations: tuple[ViolationWitness, ...]
    equality_deviations: tuple[AuditEntry, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_dpa(l: LossSpec, j: Joint, tol: float = 1e-9, seed: int = 0) -> DpaAuditReport:
    """Audit the data-processing requirement on every enumerated sufficient transform.

    Raises ParameterOutOfRange for a tol that is negative or not finite.
    """
    _check_tol(tol)
    before = c_value(l, j, seed=seed)
    suff = enumerate_sufficient(j, tol=tol, seed=seed)
    transforms = suff.merges + suff.permutations
    after = _finite(_c_batch(l, [(j, t) for t in transforms], seed=seed))
    entries: list[AuditEntry] = []
    violations: list[ViolationWitness] = []
    deviations: list[AuditEntry] = []
    for t, c in zip(transforms, after):
        entry = AuditEntry(transform=t, c_after=float(c))
        entries.append(entry)
        kind = _witness_kind(t, before, entry.c_after, tol)
        if kind is not None:
            violations.append(ViolationWitness(j, t, before, entry.c_after, kind))
        if not t.is_permutation and abs(entry.c_after - before) > tol:
            deviations.append(entry)
    return DpaAuditReport(
        c_before=before,
        entries=tuple(entries),
        violations=tuple(violations),
        equality_deviations=tuple(deviations),
    )


def proof_family(
    n: int,
    t: float,
    lambda1: float,
    lambda2: float,
    alpha: float,
    tail: Sequence[float] = (),
) -> Joint:
    """The two-conditional family whose {x1, x2} merge is sufficient by construction.

    P_lambda = (lambda*t, lambda*(1-t), r-lambda, tail...), r = 1 - sum(tail),
    with P(X|Y=1) at lambda1, P(X|Y=2) at lambda2, and P(Y=1) = alpha.  Both
    conditionals put x1 and x2 in ratio t : (1-t), so P(Y|x1) = P(Y|x2).
    """
    if n < 3:
        raise ParameterOutOfRange("proof family needs an alphabet of size >= 3")
    tail = tuple(float(v) for v in tail)
    if len(tail) != n - 3:
        raise ParameterOutOfRange(f"tail must have {n - 3} entries, got {len(tail)}")
    if any(v < 0 for v in tail) or sum(tail) >= 1.0:
        raise ParameterOutOfRange("tail entries must be >= 0 and sum to < 1")
    r = 1.0 - sum(tail)
    if not (0.0 <= t <= 1.0):
        raise ParameterOutOfRange(f"t must be in [0, 1], got {t}")
    if not (0.0 <= alpha <= 1.0):
        raise ParameterOutOfRange(f"alpha must be in [0, 1], got {alpha}")
    if not (0.0 <= lambda1 < lambda2 <= r + 1e-15):
        raise ParameterOutOfRange(
            f"need 0 <= lambda1 < lambda2 <= r = {r}, got {lambda1}, {lambda2}"
        )

    def member(lam: float) -> np.ndarray:
        return np.array([lam * t, lam * (1.0 - t), r - lam, *tail])

    col1 = alpha * member(lambda1)
    col2 = (1.0 - alpha) * member(lambda2)
    return validate_joint(np.stack([col1, col2], axis=1))


def _center_out(values: np.ndarray) -> np.ndarray:
    order = np.argsort(np.abs(values - 0.5), kind="stable")
    return values[order]


_GRID_POINTS = 20
_T_GRID = _center_out(np.linspace(0.0, 1.0, _GRID_POINTS))
_ALPHA_GRID = _center_out(np.linspace(0.0, 1.0, _GRID_POINTS))
_S_GRID = np.linspace(0.0, 1.0, _GRID_POINTS)
_LAMBDA_PAIRS = [
    (_S_GRID[i], _S_GRID[j])
    for i in range(_GRID_POINTS)
    for j in range(_GRID_POINTS - 1, i, -1)
]


def _grid_candidate(n: int, k: int, seed: int) -> Optional[tuple[Joint, Transform]]:
    total = len(_T_GRID) * len(_ALPHA_GRID) * len(_LAMBDA_PAIRS)
    if k >= total:
        return None
    per_t = len(_ALPHA_GRID) * len(_LAMBDA_PAIRS)
    t = float(_T_GRID[k // per_t])
    rem = k % per_t
    alpha = float(_ALPHA_GRID[rem // len(_LAMBDA_PAIRS)])
    s1, s2 = _LAMBDA_PAIRS[rem % len(_LAMBDA_PAIRS)]
    if n == 3:
        tail: tuple[float, ...] = ()
        r = 1.0
    else:
        rng = np.random.default_rng([seed, 101, k])
        mass = float(rng.uniform(0.05, 0.6))
        tail = tuple(mass * rng.dirichlet(np.ones(n - 3)))
        r = 1.0 - mass
    lam1, lam2 = s1 * r, s2 * r
    if not lam1 < lam2:
        return None
    joint = proof_family(n, t, lam1, lam2, alpha, tail)
    merge = Transform(tuple([0, 0] + list(range(1, n - 1))))
    return joint, merge


def _merge_candidate(n: int, k: int, seed: int) -> Optional[tuple[Joint, Transform]]:
    rng = np.random.default_rng([seed, 202, k])
    m = int(rng.integers(2, 4))
    n_classes = int(rng.integers(1, n))
    rows = rng.dirichlet(np.ones(m), size=n_classes)
    assignment = np.concatenate(
        [np.arange(n_classes), rng.integers(0, n_classes, size=n - n_classes)]
    )
    rng.shuffle(assignment)
    px = rng.dirichlet(np.ones(n))
    table = px[:, None] * rows[assignment]
    counts = np.bincount(assignment, minlength=n_classes)
    mergeable = [c for c in range(n_classes) if counts[c] >= 2]
    if not mergeable:
        return None
    cls = mergeable[int(rng.integers(0, len(mergeable)))]
    members = [int(x) for x in np.nonzero(assignment == cls)[0]]
    blocks = [members] + [[x] for x in range(n) if x not in members]
    return validate_joint(table), Transform.from_blocks(blocks, n)


def _perm_candidate(n: int, k: int, seed: int) -> Optional[tuple[Joint, Transform]]:
    rng = np.random.default_rng([seed, 303, k])
    m = int(rng.integers(2, 4))
    table = rng.dirichlet(np.ones(n * m)).reshape(n, m)
    perm = rng.permutation(n)
    if np.array_equal(perm, np.arange(n)):
        perm = np.roll(perm, 1)
    return validate_joint(table), Transform(tuple(int(v) for v in perm))


def _candidate(n: int, idx: int, seed: int) -> Optional[tuple[Joint, Transform]]:
    """Scan candidate idx: the three streams interleave round-robin."""
    phase, k = idx % 3, idx // 3
    if phase == 0:
        return _grid_candidate(n, k, seed) if n >= 3 else None
    if phase == 1:
        return _merge_candidate(n, k, seed)
    return _perm_candidate(n, k, seed)


_MAX_CHUNK = 256


def find_violation(
    l: LossSpec,
    n: int,
    budget: int = 10_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> Optional[ViolationWitness]:
    """Deterministic scan for a data-processing violation; None if budget is spent.

    Candidates interleave three streams round-robin so every family is
    covered within any budget: (a) the parametric two-conditional grid with
    its built-in sufficient merge, (b) seeded random joints with duplicated
    conditional rows plus a random sufficient merge, (c) seeded random
    joints with random permutations.

    The scan runs in chunks of 1, 2, 4, ... up to 256 candidates, so a scan
    that hits early stays cheap.  C before and after every candidate of a
    chunk comes from the benefit kernel, one stack per table shape and image
    size (`_c_batch` follows `_c_after`'s choice of loss and push-forward);
    each is the same bits as `c_value` and `_c_after` give that candidate
    alone.  The chunk is then walked in scan order: a candidate with a
    non-finite C raises UnboundedBelow, as `c_value` would, and the first
    witness (`_witness_kind`) is re-verified with `verify_witness` and
    returned.  Numeric-tier rules solve their rows one at a time inside
    the kernel, with the same seed.

    Raises ParameterOutOfRange for n < 2, a negative budget, a tol that is
    negative or not finite, and a loss declared for another alphabet size.
    """
    if n < 2:
        raise ParameterOutOfRange("alphabet size must be >= 2")
    if budget < 0:
        raise ParameterOutOfRange(f"budget must be >= 0, got {budget}")
    _check_tol(tol)
    if l.n is not None and l.n != n:
        raise ParameterOutOfRange(f"loss expects {l.n} symbols but the scan is over {n}")
    start, size = 0, 1
    while start < budget:
        stop = min(start + size, budget)
        made = [c for c in (_candidate(n, idx, seed) for idx in range(start, stop)) if c is not None]
        c = _c_batch(l, [(j, None) for j, _ in made] + made)
        for (joint, transform), before, after in zip(made, c, c[len(made):]):
            _finite(np.array([before, after]))
            kind = _witness_kind(transform, before, after, tol)
            if kind is not None:
                hit = ViolationWitness(joint, transform, float(before), float(after), kind)
                if not verify_witness(l, hit, tol=tol):
                    raise WitnessVerificationFailed("witness failed re-verification; numeric instability")
                return hit
        start, size = stop, min(2 * size, _MAX_CHUNK)
    return None
