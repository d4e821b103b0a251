"""Sufficient transformations of X for Y and the data-processing audit.

A deterministic map T on the X-alphabet keeps all information about Y
exactly when, within each T-class, every positive-mass symbol shares the
same conditional P(Y|X=x).  Merging such symbols can never raise the
benefit of side information for a well-behaved loss; `audit_dpa` checks
that, and `find_violation` searches for counterexamples using the
two-class parametric family that witnesses failures for non-logarithmic
losses on alphabets of three or more symbols.

Every C here comes from the benefit kernel (`benefit._c_stack`).  One
decision (`_decide`) serves the scan, `audit_dpa` and `verify_witness`: it
pushes a stack of tables through their mappings in one batch (`_push`, of
which `push_forward` is the one-table case), takes one kernel stack for C
after on the loss itself, and applies the witness rule.  The push keeps
the original n-symbol alphabet: T(X) = k lands on symbol k, and symbols
past the image get zero rows, so C before and C after compare the same
loss on the same alphabet.  A row's C is the same bits in any stack as
alone, so all three agree exactly with `c_value` on the pushed-forward
joint.  A hit within 1e-12 of the rule's threshold is then re-decided
beyond float rounding (`_certify`), so a tol of 0 finds no witness in
rounding noise; a hit of the built-in log loss is none by the
data-processing inequality, which no sufficient map can break for it.

The scan works on arrays.  Each chunk of candidates is one stack of tables
padded to |Y| = 3 with zero columns, and mappings (`_chunk`), decided as
one stack; only the first witness, cut back to its own |Y|, becomes
`Joint`, `Transform` and `ViolationWitness` objects.  Every random draw
here, the scan's and `enumerate_sufficient`'s, reads one counter-based
stream (`_words`): a word is a pure function of (seed, stream, candidate
k, word index), so a chunk draws each stream's candidates as one array,
and candidate k is the same in any chunk.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .benefit import _c_stack, _finite, c_value
from .errors import AlphabetTooLarge, ParameterOutOfRange, WitnessVerificationFailed, _check_count
from .losses import ActionMatrixLoss, LossSpec, _builtin_name
from .prob import Joint, _simplex, validate_joint

_MAX_ALPHABET = 12  # the largest X-alphabet whose merges are enumerated
_PERM_SAMPLES = 24  # permutations sampled beyond n = 5
_VALUE_TOL = 1e-12  # how closely a witness's stored C must reproduce
SUFFICIENT_TOL = 1e-9  # how far apart, in total variation, two conditionals P(Y|X=x) of one class may be


@dataclass(frozen=True)
class Transform:
    """A total map from one or more X-symbols onto a contiguous T-alphabet (0-based)."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(v) for v in self.mapping)
        object.__setattr__(self, "mapping", m)
        if not m:
            raise ParameterOutOfRange("a transform maps at least one symbol")
        labels = sorted(set(m))
        if labels != list(range(len(labels))):
            raise ParameterOutOfRange(f"labels must be contiguous from 0, got {labels}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    @property
    def image_size(self) -> int:
        return max(self.mapping) + 1

    @staticmethod
    def identity(n: int) -> "Transform":
        return Transform(tuple(range(n)))

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence[int]], n: int) -> "Transform":
        """Merge transform from a partition of 0..n-1 (else ParameterOutOfRange); blocks labeled by their smallest member."""
        if any(len(b) == 0 for b in blocks) or sorted(x for b in blocks for x in b) != list(range(n)):
            raise ParameterOutOfRange(f"blocks must partition 0..{n - 1}")
        mapping = [0] * n
        for label, block in enumerate(sorted(blocks, key=min)):
            for x in block:
                mapping[x] = label
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


def _conditional_tv(j: Joint) -> tuple[np.ndarray, np.ndarray]:
    """The positive-mass symbols of j (a mask over X) and the pairwise total variation of their P(Y|X=x)."""
    px = j.table.sum(axis=1)
    live = px > 0.0
    rows = j.table[live] / px[live, None]
    return live, 0.5 * np.abs(rows[:, None] - rows[None]).sum(axis=2)


def check_sufficient(t: Transform, j: Joint) -> SufficiencyCert:
    """Certify X - T(X) - Y (the T - X - Y chain is automatic for deterministic T).

    Every pair of positive-mass symbols that t merges must be within
    SUFFICIENT_TOL in total variation (`_conditional_tv`, the rule
    `enumerate_sufficient` shares).  A merge it lists always passes; near
    SUFFICIENT_TOL, one that passes may go unlisted.  Raises
    ParameterOutOfRange when t maps another number of symbols than j has.
    """
    _same_alphabet(t.n, j.nx)
    live, tv = _conditional_tv(j)
    labels = np.array(t.mapping)[live]
    worst = float(tv[labels[:, None] == labels[None]].max(initial=0.0))
    zero = tuple(np.flatnonzero(~live).tolist())
    return SufficiencyCert(is_sufficient=worst <= SUFFICIENT_TOL, max_class_tv=worst, zero_mass_symbols=zero)


def _same_alphabet(n: int, nx: int) -> None:
    if n != nx:
        raise ParameterOutOfRange(f"transform maps {n} symbols but the joint has {nx}")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterOutOfRange(f"tol must be finite and >= 0, got {tol}")


def _push(tables: np.ndarray, maps: np.ndarray, m: int) -> np.ndarray:
    """Each table of a (K, n, ...) stack pushed forward through its row of `maps` (K, n) onto symbols 0..m-1.

    One np.add.at over (k, label): every output cell sums its x in ascending
    order from 0, as a table pushed alone does.  Label k lands on symbol k,
    and a symbol that no x maps to gets a zero row.  A map of another length
    than the tables' X axis raises ParameterOutOfRange.
    """
    k, n = maps.shape
    _same_alphabet(n, tables.shape[1])
    out = np.zeros((k, m) + tables.shape[2:])
    np.add.at(out, (np.arange(k)[:, None], maps), tables)
    return out


def push_forward(j: Joint, t: Transform) -> Joint:
    """The joint of (T(X), Y) on the contiguous T-alphabet."""
    return Joint(_push(j.table[None], np.array([t.mapping]), t.image_size)[0])


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _row_classes(j: Joint) -> tuple[list[list[int]], list[int]]:
    """Put each positive-mass symbol in the first class whose every row is within SUFFICIENT_TOL of its own; pool zero-mass ones."""
    live, tv = _conditional_tv(j)
    classes: list[list[int]] = []
    for i in range(len(tv)):
        for cls in classes:
            if (tv[i, cls] <= SUFFICIENT_TOL).all():
                cls.append(i)
                break
        else:
            classes.append([i])
    symbols = np.flatnonzero(live)
    return [symbols[c].tolist() for c in classes], np.flatnonzero(~live).tolist()


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


def enumerate_sufficient(j: Joint, seed: int = 0) -> SufficientSet:
    """Sufficient merge-transforms, from partitions refining the row classes.

    The rows of a class are pairwise within SUFFICIENT_TOL, so every listed
    merge passes `check_sufficient`; near SUFFICIENT_TOL, a sufficient merge
    may go unlisted.  Zero-mass symbols form their own vacuous class.  Raises
    AlphabetTooLarge beyond the partition-enumeration bound, and
    ParameterOutOfRange for a seed that is negative or not an integer.
    """
    _check_count("seed", seed)
    n = j.nx
    if n > _MAX_ALPHABET:
        raise AlphabetTooLarge(f"alphabet size {n} exceeds enumeration bound {_MAX_ALPHABET}")
    groups, zero = _row_classes(j)
    if zero:
        groups.append(zero)
    combos = itertools.product(*(_set_partitions(g) for g in groups))
    merges = tuple(Transform.from_blocks([block for part in combo for block in part], n) for combo in combos)
    exhaustive = n <= 5
    if exhaustive:
        perms = itertools.permutations(range(n))
    else:  # each sample is the stable argsort of n stream words
        drawn = np.argsort(_words(seed, _PERM_SAMPLE, np.arange(_PERM_SAMPLES), n), axis=1, kind="stable")
        perms = sorted({tuple(range(n)), *map(tuple, drawn.tolist())})
    return SufficientSet(merges, tuple(Transform(p) for p in perms), exhaustive)


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


def _witness_kinds(maps: np.ndarray, before, after: np.ndarray, tol: float) -> np.ndarray:
    """The witness rule, row by row over mappings (K, n) and their C before/after.

    A permutation other than the identity that changes C is an "asymmetry",
    a merge that raises C is a "dpa_violation"; any other row gets "".
    """
    n = maps.shape[1]
    perm = maps.max(axis=1) == n - 1
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which moves nothing
        moved = (np.abs(after - before) > tol) & (maps != np.arange(n)).any(axis=1)
    return np.where(perm, np.where(moved, "asymmetry", ""), np.where(after > before + tol, "dpa_violation", ""))


_CERTIFY_MARGIN = 1e-12  # a hit whose float margin over the witness threshold is at most this is re-decided
_CERTIFIED_ZERO = "1e-40"  # a 50-digit decimal |delta C| at most this counts as zero


def _scaled_risk(l: LossSpec, name: Optional[str], v: list):
    """rho(v) = s R(v / s), s = sum(v), for the masses v of one column of a table, in `_certify`'s arithmetic.

    R is homogeneous this way, so C of a table of total mass S is
    (rho(P_X) - sum_y rho(P(., y))) / S with no division per column.  A
    finite action matrix gives a minimum over actions (in Fractions); a
    rule is read from its built-in `name` (`losses._builtin_name`): Brier
    s - |v|^2 / s (in Fractions) and spherical -|v| (in Decimals).
    """
    if isinstance(l, ActionMatrixLoss):
        from fractions import Fraction

        return min(sum(x * Fraction(c) for x, c in zip(v, col)) for col in l.matrix.T.tolist())
    s = sum(v)
    if not s:
        return s
    if name == "brier":
        return s - sum(x * x for x in v) / s
    return -sum(x * x for x in v).sqrt()


def _certify(l: LossSpec, tables: np.ndarray, maps: np.ndarray, before, after: np.ndarray, kinds: np.ndarray, tol: float) -> np.ndarray:
    """`kinds` with the hits that float rounding may have made re-decided beyond it; a hit that fails is "".

    Every hit of the built-in log loss fails, with no arithmetic.  Its C is
    I(X;Y), which by the data-processing inequality (Cover & Thomas, 2nd
    ed., Thm 2.8.1) no map T(X) raises and no relabelling of X changes, so
    exact delta C = C after - C before is <= 0, and 0 for a permutation: at
    any tol >= 0 neither a "dpa_violation" (delta C > tol) nor an
    "asymmetry" (|delta C| > tol).  A log hit farther than 1e-12 from the
    threshold would need a float error in C above 1e-12, against about
    1e-15 measured, so none occurs; the rule clears it all the same.

    For the other rules, a hit whose float margin over the threshold is <=
    `_CERTIFY_MARGIN` has its delta C recomputed on `l` from its table
    (taken as exact), pushed forward in the same arithmetic onto the same n
    symbols as `_decide` pushes it.  Rational losses (action matrices with
    finite entries, and Brier) get delta C exactly, in `fractions.Fraction`.
    Spherical gets it in `decimal` at 50 digits, where |delta C| <= 1e-40
    counts as zero: certified to 1e-40, not exact.  A rule counts as
    built-in only if it is that built-in (`losses._builtin_name`), never by
    its name alone.  Every other rule (a matrix with an infinite entry, any
    other `vector_fn` or Savage rule, the numeric tier) is decided on float
    C only.  Hits farther from the threshold, and rows that are no hit, keep
    their float decision.
    """
    if isinstance(l, ActionMatrixLoss):  # a matrix is read as itself, whatever its name
        name, route = None, "fraction" if np.isfinite(l.matrix).all() else None
    else:
        name = _builtin_name(l)
        if name == "log":
            return np.full_like(kinds, "")
        route = {"brier": "fraction", "spherical": "decimal"}.get(name)
    with np.errstate(invalid="ignore"):
        near = (kinds != "") & (np.abs(after - before) - tol <= _CERTIFY_MARGIN)
    if route is None or not near.any():
        return kinds
    from decimal import Decimal, localcontext
    from fractions import Fraction

    kinds = kinds.copy()
    with localcontext() as ctx:
        ctx.prec = 50
        num = Fraction if route == "fraction" else Decimal
        for i in np.flatnonzero(near).tolist():
            rows = [[num(v) for v in row] for row in tables[i].tolist()]
            classes: dict = {}  # T(X) = k: the rows of class k summed in ascending x
            for to, row in zip(maps[i].tolist(), rows):
                classes[to] = [a + b for a, b in zip(classes[to], row)] if to in classes else row
            pushed = [classes.get(x, [num(0)] * len(rows[0])) for x in range(len(rows))]
            before_s, after_s = (
                _scaled_risk(l, name, [sum(r) for r in t]) - sum(_scaled_risk(l, name, list(col)) for col in zip(*t))
                for t in (rows, pushed)
            )
            delta = (after_s - before_s) / sum(sum(r) for r in rows)
            if route == "decimal" and abs(delta) <= Decimal(_CERTIFIED_ZERO):
                delta = 0
            if not (delta if kinds[i] == "dpa_violation" else abs(delta)) > num(tol):
                kinds[i] = ""
    return kinds


def _decide(l: LossSpec, tables: np.ndarray, maps: np.ndarray, before, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """C after each table of a (K, n, b) stack is pushed through its row of `maps` (K, n), and each row's witness kind.

    The one place a witness is decided, for the scan, `audit_dpa` and
    `verify_witness` alike: the witness rule on float C, then `_certify`
    on the hits near its threshold.  The whole stack takes one push-forward
    onto its own n symbols (`_push`) and one kernel stack on `l`; a row's C
    is the same bits as `c_value` of its pushed joint.  `before` is C
    before, per row or one for all.  Non-finite C is returned, not raised.
    """
    after = _c_stack(l, _push(tables, maps, tables.shape[1]))[0]
    return after, _certify(l, tables, maps, before, after, _witness_kinds(maps, before, after, tol), tol)


def verify_witness(l: LossSpec, w: ViolationWitness, tol: float = 1e-9) -> bool:
    """Recompute both benefits from the stored joint and transform.

    The witness holds only if its transform is sufficient for its joint
    (`check_sufficient`), both values reproduce within `_VALUE_TOL` (C after
    is l's, on the joint pushed onto its own n symbols, as `_decide` takes
    it), and its kind is the one `_decide` gives for its transform, which is
    never "".  So a witness within 1e-12 of the threshold tol must also hold
    beyond rounding (`_certify`): exactly for finite action matrices and the
    built-in Brier, to 1e-40 for the built-in spherical, and on float C
    alone for other rules; the built-in log loss has none, by the
    data-processing inequality.  A non-finite C raises UnboundedBelow,
    and a tol that is negative or not finite ParameterOutOfRange.
    """
    _check_tol(tol)
    if not check_sufficient(w.transform, w.joint).is_sufficient:
        return False
    before = c_value(l, w.joint)
    after, kinds = _decide(l, w.joint.table[None], np.array([w.transform.mapping]), before, tol)
    after = float(_finite(after)[0])
    if abs(before - w.c_before) > _VALUE_TOL or abs(after - w.c_after) > _VALUE_TOL:
        return False
    return kinds[0] != "" and kinds[0] == w.kind


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

    `tol` compares C only.  Which transforms are sufficient is decided by
    `enumerate_sufficient` at SUFFICIENT_TOL, whatever `tol` is, so a loose
    `tol` never admits a merge of rows that differ.  Raises
    ParameterOutOfRange for a tol that is negative or not finite and a seed
    that is negative or not an integer.  The seed picks the permutation
    sample of `enumerate_sufficient` above n = 5; no Bayes tier uses it.
    """
    _check_tol(tol)
    _check_count("seed", seed)
    before = c_value(l, j, seed=seed)
    suff = enumerate_sufficient(j, seed=seed)
    transforms = suff.merges + suff.permutations
    maps = np.array([t.mapping for t in transforms])
    after, kinds = _decide(l, np.broadcast_to(j.table, (len(maps),) + j.table.shape), maps, before, tol)
    _finite(after)
    moved = (maps.max(axis=1) + 1 < j.nx) & (np.abs(after - before) > tol)
    entries = tuple(AuditEntry(transform=t, c_after=float(c)) for t, c in zip(transforms, after))
    return DpaAuditReport(
        c_before=before,
        entries=entries,
        violations=tuple(ViolationWitness(j, e.transform, before, e.c_after, str(k)) for e, k in zip(entries, kinds) if k),
        equality_deviations=tuple(e for e, dev in zip(entries, moved) if dev),
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
    tail = np.array([[float(v) for v in tail]])
    params = (np.array([float(v)]) for v in (t, lambda1, lambda2, alpha))
    return validate_joint(_proof_tables(n, *params, tail)[0])


def _proof_tables(
    n: int, t: np.ndarray, lambda1: np.ndarray, lambda2: np.ndarray, alpha: np.ndarray, tail: np.ndarray
) -> np.ndarray:
    """Raw `proof_family` tables (K, n, 2), one per row of the parameters (K,) and tail (K, n - 3).

    The range checks run once over the stack and raise as `proof_family`
    would for the first row that fails.  r = 1 - sum(tail) is Python's
    left fold over the tail, so each table is the same bits as alone.
    """
    if n < 3:
        raise ParameterOutOfRange("proof family needs an alphabet of size >= 3")
    if tail.shape[1] != n - 3:
        raise ParameterOutOfRange(f"tail must have {n - 3} entries, got {tail.shape[1]}")
    mass = np.zeros(len(tail))
    for col in tail.T:
        mass = mass + col
    if ((tail < 0).any(axis=1) | (mass >= 1.0)).any():
        raise ParameterOutOfRange("tail entries must be >= 0 and sum to < 1")
    r = 1.0 - mass
    for name, v in (("t", t), ("alpha", alpha)):
        out = ~((0.0 <= v) & (v <= 1.0))
        if out.any():
            raise ParameterOutOfRange(f"{name} must be in [0, 1], got {float(v[out.argmax()])}")
    out = ~((0.0 <= lambda1) & (lambda1 < lambda2) & (lambda2 <= r + 1e-15))
    if out.any():
        i = out.argmax()
        raise ParameterOutOfRange(
            f"need 0 <= lambda1 < lambda2 <= r = {float(r[i])}, got {float(lambda1[i])}, {float(lambda2[i])}"
        )

    def member(lam: np.ndarray) -> np.ndarray:
        return np.column_stack([lam * t, lam * (1.0 - t), r - lam, tail])

    return np.stack([alpha[:, None] * member(lambda1), (1.0 - alpha)[:, None] * member(lambda2)], axis=2)


def _center_out(values: np.ndarray) -> np.ndarray:
    order = np.argsort(np.abs(values - 0.5), kind="stable")
    return values[order]


_GRID_POINTS = 20
_T_GRID = _center_out(np.linspace(0.0, 1.0, _GRID_POINTS))
_ALPHA_GRID = _center_out(np.linspace(0.0, 1.0, _GRID_POINTS))
_S_GRID = np.linspace(0.0, 1.0, _GRID_POINTS)
# the (lambda1, lambda2) grid pairs s_i < s_j: i ascending, then j descending
_S1, _S2 = _S_GRID[
    np.array([(i, j) for i in range(_GRID_POINTS) for j in range(_GRID_POINTS - 1, i, -1)]).T
]
_PER_T = len(_ALPHA_GRID) * len(_S1)
_GRID_SIZE = len(_T_GRID) * _PER_T

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): its state advances by the
# golden gamma and each output is the state through this finalizer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_GRID, _MERGE, _PERM, _PERM_SAMPLE = 101, 202, 303, 404  # stream ids


def _splitmix(states: np.ndarray, d: int) -> np.ndarray:
    """The first d outputs of SplitMix64 from each of the states (K,), as (K, d) uint64; words wrap mod 2**64."""
    z = states[:, None] + _GAMMA * np.arange(1, d + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


@functools.lru_cache(maxsize=64)
def _key(seed: int, stream: int) -> np.uint64:
    """The key of (seed, stream) before any k is folded in; see `_words`."""
    key = np.zeros(1, dtype=np.uint64)
    for v in [seed >> i & 2**64 - 1 for i in range(0, max(seed.bit_length(), 1), 64)] + [stream]:
        key = _splitmix(key ^ np.uint64(v), 1)[:, 0]
    return key[0]


def _words(seed: int, stream: int, ks, d: int) -> np.ndarray:
    """d random words (K, d) uint64 for each candidate k of ks on a stream, a pure function of (seed, stream, k, word).

    The key folds in the seed 64 bits at a time (little end first, so any
    seed >= 0 is valid), then the stream, then k: each step xors the next
    value into the key and takes SplitMix64's first output from it (the
    (seed, stream) part once, in `_key`).  The words are SplitMix64's first
    d outputs from the key.
    """
    return _splitmix(_splitmix(_key(int(seed), stream) ^ np.asarray(ks, dtype=np.uint64), 1)[:, 0], d)


def _uniforms(w: np.ndarray) -> np.ndarray:
    """The top 53 bits of each word over 2**53: a uniform double in [0, 1)."""
    return (w >> np.uint64(11)) * 2.0**-53


def _ints(w: np.ndarray, r) -> np.ndarray:
    """An integer in [0, r) from each word by multiply-shift: its top 32 bits times r, over 2**32, for 1 <= r <= 2**32.

    No draw is rejected, so one value may be up to r / 2**32 more likely
    than another.  `r` broadcasts with w.
    """
    return ((w >> np.uint64(32)) * np.asarray(r, dtype=np.uint64) >> np.uint64(32)).astype(np.int64)


def _dirichlet(u: np.ndarray) -> np.ndarray:
    """A Dirichlet(1, ..., 1) row of width d + 1 from each row of uniforms (..., d): the spacings of the sorted cuts on [0, 1].

    Sorting and subtraction are exact in any order, so a row is the same
    bits on every CPU and in any stack as alone; a cut at 1 ends it in a 0.
    """
    cuts = np.sort(u, axis=-1)
    edge = np.zeros(cuts.shape[:-1] + (1,))
    cuts = np.concatenate([edge, cuts, edge + 1.0], axis=-1)
    return cuts[..., 1:] - cuts[..., :-1]


def _grid_stream(n: int, ks: np.ndarray, seed: int) -> np.ndarray:
    """Raw tables (K, n, 2) of grid-stream candidates ks, all inside the grid; each merges x1 with x2.

    (t, alpha, lambda pair) come from index arithmetic on k.  For n >= 4
    candidate k reads n - 3 words: a tail mass uniform on [0.05, 0.6) and
    its split over the n - 3 tail symbols, one Dirichlet row.
    lambda1 < lambda2 always holds: s1 < s2 on the grid and r >= 0.4.
    """
    t, rem = _T_GRID[ks // _PER_T], ks % _PER_T
    alpha, pair = _ALPHA_GRID[rem // len(_S1)], rem % len(_S1)
    tail, r = np.zeros((len(ks), 0)), 1.0
    if n > 3:
        u = _uniforms(_words(seed, _GRID, ks, n - 3))
        mass = 0.05 + (0.6 - 0.05) * u[:, 0]
        tail, r = mass[:, None] * _dirichlet(u[:, 1:]), 1.0 - mass
    return _proof_tables(n, t, _S1[pair] * r, _S2[pair] * r, alpha, tail)


def _merge_stream(n: int, ks: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge-stream candidates ks as (raw tables (K, n, 3), mappings (K, n), |Y| (K,)); a |Y| = 2 table's third column is 0.

    A random joint whose conditional rows repeat within classes, and the
    sufficient merge of one class with two or more members (one exists, as
    there are fewer classes than symbols).  Candidate k reads 5n words:
    |Y|; the class count c in [1, n - 1]; which mergeable class to merge; a
    class per symbol (symbol i < c takes class i, so each is used); n sort
    keys that shuffle the classes over the symbols; P_X, a Dirichlet row
    from n - 1 words; and two words per class row, whose first |Y| - 1 make
    its conditional.  Labels number the classes by first appearance.
    """
    w, x = _words(seed, _MERGE, ks, 5 * n), np.arange(n)
    classes = 1 + _ints(w[:, 1], n - 1)[:, None]
    drawn = np.where(x < classes, x, _ints(w[:, 3 : 3 + n], classes))
    assignment = np.take_along_axis(drawn, np.argsort(w[:, 3 + n : 3 + 2 * n], axis=1, kind="stable"), axis=1)
    mergeable = (assignment[:, :, None] == x[: n - 1]).sum(axis=1) >= 2
    pick = _ints(w[:, 2], mergeable.sum(axis=1))[:, None]
    merged = assignment == (mergeable & (np.cumsum(mergeable, axis=1) == pick + 1)).argmax(axis=1)[:, None]
    rep = np.where(merged, merged.argmax(axis=1)[:, None], x)  # each symbol's class representative
    maps = np.take_along_axis(np.cumsum(rep == x, axis=1) - 1, rep, axis=1)
    px = _dirichlet(_uniforms(w[:, 3 + 2 * n : 2 + 3 * n]))[:, :, None]
    ys, cuts = 2 + _ints(w[:, 0], 2), _uniforms(w[:, 2 + 3 * n :].reshape(len(ks), n - 1, 2))
    cuts[ys == 2, :, 1] = 1.0  # so a |Y| = 2 row's third cell is 0
    return px * np.take_along_axis(_dirichlet(cuts), assignment[:, :, None], axis=1), maps, ys


def _perm_stream(n: int, ks: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Permutation-stream candidates ks as (raw tables (K, n, 3), mappings (K, n), |Y| (K,)); a |Y| = 2 table's third column is 0.

    Candidate k reads 4n words: |Y|; n sort keys, whose stable argsort is
    the permutation (the identity becomes the cycle (n-1, 0, 1, ...)); and
    the joint, one Dirichlet row over its n |Y| cells from the first
    n |Y| - 1 of the last 3n - 1 words.
    """
    w, x = _words(seed, _PERM, ks, 4 * n), np.arange(n)
    maps = np.argsort(w[:, 1 : 1 + n], axis=1, kind="stable")
    maps[(maps == x).all(axis=1)] = np.roll(x, 1)
    ys, tables = 2 + _ints(w[:, 0], 2), np.zeros((len(ks), n, 3))
    for b in (2, 3):
        sel = ys == b
        tables[sel, :, :b] = _dirichlet(_uniforms(w[sel, 1 + n : n * (b + 1)])).reshape(-1, n, b)
    return tables, maps, ys


def _chunk(n: int, start: int, stop: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scan candidates start..stop-1 as (positions, tables (K, n, 3), mappings (K, n), |Y| (K,)), in scan order.

    Scan index idx is candidate idx // 3 of stream idx % 3 (grid, merge,
    permutation); its position is idx - start.  Grid candidates are skipped
    for n = 2 and past the end of the grid, and appear nowhere.  Each stream
    is one `_words` call.  The tables are validated as `validate_joint`
    would, one pass per |Y| over their own |Y| columns, so each sum groups
    its terms as the table's alone does; the other columns are 0.  Every
    mapping is a contiguous labelling by construction.
    """
    tables, maps, ys = np.zeros((stop - start, n, 3)), np.zeros((stop - start, n), dtype=int), np.zeros(stop - start, dtype=int)
    for stream, first in ((_merge_stream, 1), (_perm_stream, 2)):
        idx = np.arange(start + (first - start) % 3, stop, 3)
        if len(idx):  # a chunk of one or two scan indices leaves a stream out
            tables[idx - start], maps[idx - start], ys[idx - start] = stream(n, idx // 3, seed)
    if n >= 3:
        ks = np.arange(-(-start // 3), min(-(-stop // 3), _GRID_SIZE))
        pos = 3 * ks - start
        tables[pos, :, :2], maps[pos], ys[pos] = _grid_stream(n, ks, seed), [0, 0, *range(1, n - 1)], 2
    for b in (2, 3):
        sel = ys == b
        raw, s = _simplex(tables[sel, :, :b], 2)
        tables[sel, :, :b] = raw / s[:, None, None]
    pos = np.flatnonzero(ys)  # |Y| 0: a skipped scan index
    return pos, tables[pos], maps[pos], ys[pos]


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

    The scan runs in chunks of 1, 4, 16, ... up to 256 candidates, so a
    scan that hits early stays cheap.  The seed keys the random streams:
    candidate k of a random stream, and the n >= 4 tail of grid candidate
    k, is decoded from the `_words` of (seed, stream, k); the grid's own
    parameters come from k alone.  A chunk is one stack of tables padded to
    |Y| = 3 (`_chunk`): C before is one kernel stack, and C after and each
    witness kind come from `_decide`, which `audit_dpa` and `verify_witness`
    share; a chunk with no candidate (at n = 2, the first, a grid slot) takes
    neither.  A zero column adds nothing to C, so each C is the same bits as
    the candidate's alone.  The chunk is decided in scan order: a non-finite
    C first raises UnboundedBelow, as `c_value` would; a witness first
    becomes a `ViolationWitness` on its own |Y|, is re-verified with
    `verify_witness` and returned.  Numeric-tier rules solve each stack's
    rows as one `losses._solve` stack, its lattice scored once for all.
    `_certify` clears every hit of the built-in log loss by the
    data-processing inequality, so its scan returns None at any tol, at the
    cost of the float C alone.

    Raises ParameterOutOfRange, before any work, for n < 2, a budget or
    seed that is negative or not an integer, a tol that is negative or not
    finite, and a loss declared for another alphabet size.
    """
    if n < 2:
        raise ParameterOutOfRange("alphabet size must be >= 2")
    _check_count("budget", budget)
    _check_count("seed", seed)
    _check_tol(tol)
    if l.n is not None and l.n != n:
        raise ParameterOutOfRange(f"loss expects {l.n} symbols but the scan is over {n}")
    start, size = 0, 1
    while start < budget:
        stop = min(start + size, budget)
        _, tables, maps, ys = _chunk(n, start, stop, seed)
        start, size = stop, min(4 * size, _MAX_CHUNK)
        if not len(maps):
            continue
        before = _c_stack(l, tables)[0]
        after, kinds = _decide(l, tables, maps, before, tol)
        first = np.flatnonzero((kinds != "") | ~np.isfinite(before) | ~np.isfinite(after))
        if first.size:
            i = first[0]
            _finite(np.array([before[i], after[i]]))
            joint, transform = Joint(tables[i, :, : ys[i]].copy()), Transform(tuple(maps[i].tolist()))
            w = ViolationWitness(joint, transform, float(before[i]), float(after[i]), str(kinds[i]))
            if not verify_witness(l, w, tol=tol):
                raise WitnessVerificationFailed("witness failed re-verification; numeric instability")
            return w
    return None
