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
takes a stack of tables and mappings, gives each image size one batched
push-forward (`_push`, of which `push_forward` and `padded_push_forward`
are the one-table case) and one kernel stack for C after, and applies the
witness rule.  A row's C is the same bits in any stack as alone, so all
three agree exactly with `c_value` on the pushed-forward joint.

The scan works on arrays.  Each chunk of candidates is built as raw tables
and mappings per |Y| (`_chunk`), validated, and decided one |Y| at a time;
only the first witness becomes `Joint`, `Transform` and `ViolationWitness`
objects.  Candidate k of a random stream is exactly what
`default_rng([seed, stream, k])` draws, which pins it whatever chunk it
falls in, but no candidate builds that generator: a chunk hashes every
seed it needs in one pass (`_seed_states`, numpy's SeedSequence and PCG64
seeding on arrays) and sets the scan's one generator to each candidate's
state in turn.  A candidate calls numpy only for its raw words
(`random_raw`) and its standard exponentials; its integer, shuffle and
uniform draws are decoded from the raw words as numpy computes them
(`_Words`), and the chunk scales all its exponentials into Dirichlet rows
one array pass per row width (`_scale`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .benefit import _c_stack, _finite, c_value
from .errors import AlphabetTooLarge, ParameterOutOfRange, WitnessVerificationFailed, _check_count
from .losses import LossSpec, reinstantiate
from .prob import Joint, _simplex, validate_joint

_MAX_ALPHABET = 12  # the largest X-alphabet whose merges are enumerated
_PERM_SAMPLES = 24  # permutations sampled beyond n = 5
_VALUE_TOL = 1e-12  # how closely a witness's stored C must reproduce


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


def check_sufficient(t: Transform, j: Joint, tol: float = 1e-9) -> SufficiencyCert:
    """Certify X - T(X) - Y (the T - X - Y chain is automatic for deterministic T).

    Every pair of positive-mass symbols that t merges must be within tol in
    total variation (`_conditional_tv`, the rule `enumerate_sufficient`
    shares).  A merge it lists at tol always passes; near tol, one that
    passes may go unlisted.  Raises ParameterOutOfRange when t maps another
    number of symbols than j has, and for a tol that is negative or not finite.
    """
    _check_tol(tol)
    _same_alphabet(t.n, j.nx)
    live, tv = _conditional_tv(j)
    labels = np.array(t.mapping)[live]
    worst = float(tv[labels[:, None] == labels[None]].max(initial=0.0))
    zero = tuple(np.flatnonzero(~live).tolist())
    return SufficiencyCert(is_sufficient=worst <= tol, max_class_tv=worst, zero_mass_symbols=zero)


def _same_alphabet(n: int, nx: int) -> None:
    if n != nx:
        raise ParameterOutOfRange(f"transform maps {n} symbols but the joint has {nx}")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterOutOfRange(f"tol must be finite and >= 0, got {tol}")


def _push(tables: np.ndarray, maps: np.ndarray, m: int, padded: bool = False) -> np.ndarray:
    """Each table of a (K, n, ...) stack pushed forward through its row of `maps` (K, n) onto m labels.

    One np.add.at over (k, label): every output cell sums its x in ascending
    order from 0, as a table pushed alone does.  `padded` keeps the n-symbol
    alphabet and puts each class's mass on its smallest member.  A map of
    another length than the tables' X axis raises ParameterOutOfRange.
    """
    k, n = maps.shape
    _same_alphabet(n, tables.shape[1])
    if padded:
        maps, m = (maps[:, :, None] == maps[:, None, :]).argmax(axis=2), n  # the first x in x's class
    out = np.zeros((k, m) + tables.shape[2:])
    np.add.at(out, (np.arange(k)[:, None], maps), tables)
    return out


def push_forward(j: Joint, t: Transform) -> Joint:
    """The joint of (T(X), Y) on the contiguous T-alphabet."""
    return Joint(_push(j.table[None], np.array([t.mapping]), t.image_size)[0])


def padded_push_forward(j: Joint, t: Transform) -> Joint:
    """The joint of (T(X), Y) kept on the original alphabet.

    Each class's mass lands on its smallest member, so a fixed-size loss on
    the original alphabet still applies after the merge.
    """
    return Joint(_push(j.table[None], np.array([t.mapping]), t.image_size, padded=True)[0])


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
    """Put each positive-mass symbol in the first class whose every row is within tol of its own; pool zero-mass ones."""
    live, tv = _conditional_tv(j)
    classes: list[list[int]] = []
    for i in range(len(tv)):
        for cls in classes:
            if (tv[i, cls] <= tol).all():
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


def enumerate_sufficient(j: Joint, tol: float = 1e-9, seed: int = 0) -> SufficientSet:
    """Sufficient merge-transforms, from partitions refining the row classes.

    The rows of a class are pairwise within tol, so every listed merge
    passes `check_sufficient` at tol; near tol, a sufficient merge may go
    unlisted.  Zero-mass symbols form their own vacuous class.  Raises
    AlphabetTooLarge beyond the partition-enumeration bound, and
    ParameterOutOfRange for a tol that is negative or not finite and a seed
    that is negative or not an integer.
    """
    _check_tol(tol)
    _check_count("seed", seed)
    n = j.nx
    if n > _MAX_ALPHABET:
        raise AlphabetTooLarge(f"alphabet size {n} exceeds enumeration bound {_MAX_ALPHABET}")
    groups, zero = _row_classes(j, tol)
    if zero:
        groups.append(zero)
    combos = itertools.product(*(_set_partitions(g) for g in groups))
    merges = tuple(Transform.from_blocks([block for part in combo for block in part], n) for combo in combos)
    if n <= 5:
        perms = tuple(Transform(p) for p in itertools.permutations(range(n)))
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        seen = {tuple(range(n))}
        for _ in range(_PERM_SAMPLES):
            seen.add(tuple(int(v) for v in rng.permutation(n)))
        perms = tuple(Transform(p) for p in sorted(seen))
        exhaustive = False
    return SufficientSet(merges=merges, permutations=perms, permutations_exhaustive=exhaustive)


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
    moved = (np.abs(after - before) > tol) & (maps != np.arange(n)).any(axis=1)
    return np.where(perm, np.where(moved, "asymmetry", ""), np.where(after > before + tol, "dpa_violation", ""))


def _after(l: LossSpec, nx: int, m: int) -> tuple[LossSpec, bool]:
    """The loss that C after a sufficient transform onto m symbols is taken on, and whether the push-forward is padded.

    Named loss families are re-instantiated on the reduced alphabet; a
    fixed-size loss is evaluated on the padded push-forward instead, which
    keeps the merged variable on the original alphabet.
    """
    if m == nx:
        return l, False
    fam = reinstantiate(l, m)
    if fam is not None and (l.n is None or l.n == nx):
        return fam, False
    return l, True


def _decide(l: LossSpec, tables: np.ndarray, maps: np.ndarray, before, tol: float, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """C after each table of a (K, n, b) stack is pushed through its row of `maps` (K, n), and each row's witness kind.

    The one place a witness is decided, for the scan, `audit_dpa` and
    `verify_witness` alike, so an exact check of a witness belongs here.
    Each image size gets one push-forward and one kernel stack on the loss
    `_after` picks; a row's C is the same bits as `c_value` of its pushed
    joint.  `before` is C before, per row or one for all.  Non-finite C is
    returned, not raised.
    """
    sizes = maps.max(axis=1) + 1
    after = np.empty(len(maps))
    for m in np.unique(sizes).tolist():
        idx = np.flatnonzero(sizes == m)
        loss, padded = _after(l, tables.shape[1], m)
        after[idx] = _c_stack(loss, _push(tables[idx], maps[idx], m, padded), seed)[0]
    return after, _witness_kinds(maps, before, after, tol)


def verify_witness(l: LossSpec, w: ViolationWitness, tol: float = 1e-9) -> bool:
    """Recompute both benefits from the stored joint and transform.

    The witness holds only if its transform is sufficient for its joint
    (`check_sufficient` at its default tolerance), both values reproduce
    within `_VALUE_TOL`, and its kind is the one the witness rule gives for
    its transform, which is never "".  A non-finite C raises UnboundedBelow,
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
    `enumerate_sufficient` at its own default tolerance, whatever `tol` is,
    so a loose `tol` never admits a merge of rows that differ.  Raises
    ParameterOutOfRange for a tol that is negative or not finite and a seed
    that is negative or not an integer.
    """
    _check_tol(tol)
    _check_count("seed", seed)
    before = c_value(l, j, seed=seed)
    suff = enumerate_sufficient(j, seed=seed)
    transforms = suff.merges + suff.permutations
    maps = np.array([t.mapping for t in transforms])
    after, kinds = _decide(l, np.broadcast_to(j.table, (len(maps),) + j.table.shape), maps, before, tol, seed)
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

# numpy's SeedSequence hash (NEP 19 keeps it stable): hashmix and mix on
# uint32 words, and PCG64's 128-bit LCG multiplier for its seeding step
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_MULT_A = 0x931E8875
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i = 0..count, as a (count + 1, 1) uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


_HASH_A = _hash_consts(0x43B0D7E5, _MULT_A, 16)  # the pool's 4 fill and 12 mixing hashmix calls
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # generate_state's 8 output words
_OTHERS = [np.array([d for d in range(4) if d != src]) for src in range(4)]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix of each row of values with consecutive constants: row i xors consts[i] and multiplies by consts[i + 1]."""
    v = values ^ consts[:-1]
    v *= consts[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _seed_states(seed: int, streams, ks) -> list[dict]:
    """`PCG64(SeedSequence([seed, stream, k])).state["state"]` for every row of streams and ks at once.

    seed is an integer >= 0, streams are below 2**32 and ks are >= 0.
    Each entropy word is 32 bits, little end first; a pool of four words
    is filled and mixed as SeedSequence does, where for one source word the
    three updates of the other words are independent, so each is one
    (3, K) step.  Words past the pool (a seed of 2**64 or more, or a k of
    2**32 or more) take the extra mixing loop, row by row as present.  Eight
    output words then seed PCG64: inc = (initseq << 1) | 1 and state =
    ((inc + initstate) * M + inc) mod 2**128.
    """
    ks, seed = np.asarray(ks, dtype=np.uint64), int(seed)
    words = []
    while True:
        words.append(np.full(len(ks), seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    hi = (ks >> np.uint64(32)).astype(np.uint32)
    words += [np.asarray(streams, dtype=np.uint32), ks.astype(np.uint32), hi]
    present = len(words) - 1 + (hi > 0)  # words per row: a k below 2**32 is one word
    pool = np.zeros((4, len(ks)), dtype=np.uint32)
    pool[: min(4, len(words))] = words[:4]  # a short entropy hashes zeros into the rest
    pool = _hashmix(pool, _HASH_A[:5])
    for src in range(4):
        pool[_OTHERS[src]] = _mix(pool[_OTHERS[src]], _hashmix(pool[src], _HASH_A[4 + 3 * src : 8 + 3 * src]))
    const = int(_HASH_A[-1, 0])
    for i in range(4, len(words)):
        consts = _hash_consts(const, _MULT_A, 4)
        const = int(consts[-1, 0])
        pool = np.where(i < present, _mix(pool, _hashmix(words[i], consts)), pool)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).astype(np.uint64)
    states = []
    for s_hi, s_lo, q_hi, q_lo in (out[0::2] | out[1::2] << np.uint64(32)).T.tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        states.append({"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc})
    return states


def _reseed(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """rng with its PCG64 set to `state`, a row of `_seed_states`, as a generator freshly seeded with it would be."""
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    return rng


def _scale(e: np.ndarray) -> np.ndarray:
    """Standard exponentials (..., k) as Dirichlet(1, ..., 1) rows, every row in one pass.

    Each row is scaled by 1.0 / acc, acc its left fold from 0.0 (the last
    entry of np.add.accumulate, a sequential sum): with every alpha 1,
    `Generator.dirichlet` draws standard exponentials as its gammas and
    scales them so.  A row is the same bits in any stack as alone.
    """
    return e * (1.0 / np.add.accumulate(e, axis=-1)[..., -1:])


def _dirichlet(rng: np.random.Generator, k: int, size: Optional[int] = None) -> np.ndarray:
    """`rng.dirichlet(np.ones(k), size)`, the same bits and draws: `_scale` of its standard exponentials."""
    return _scale(rng.standard_exponential((k,) if size is None else (size, k)))


class _Words:
    """numpy's integer, shuffle and uniform draws on one PCG64, decoded from its raw 64-bit words.

    A 32-bit draw (`next_uint32`) takes the low half of a fresh
    `random_raw` word and keeps the high half for the next 32-bit draw; a
    `standard_exponential` call in between reads whole words and leaves
    that half where it is.  Start one per candidate, right after `_reseed`,
    when nothing is buffered.  Tests pin each decoder against `Generator`.
    """

    __slots__ = ("raw", "half")

    def __init__(self, rng: np.random.Generator):
        self.raw, self.half = rng.bit_generator.random_raw, None

    def u32(self) -> int:
        if self.half is None:
            w = self.raw()
            self.half = w >> 32
            return w & _MASK32
        h, self.half = self.half, None
        return h

    def integers(self, lo: int, hi: int) -> int:
        """`Generator.integers(lo, hi)` for hi - lo <= 2**32; `size=k` is k of these in turn.

        Lemire's bounded draw with r = hi - lo - 1: a 32-bit draw times
        r + 1, redrawn while its low word is below (2**32 - 1 - r) % (r + 1).
        r = 0 draws nothing.
        """
        r = hi - lo - 1
        if not r:
            return lo
        floor = (_MASK32 - r) % (r + 1)
        m = self.u32() * (r + 1)
        while m & _MASK32 < floor:
            m = self.u32() * (r + 1)
        return lo + (m >> 32)

    def shuffle(self, x: list) -> list:
        """`Generator.shuffle(x)` of a list, in place, and so `permutation(len(x))` when x is its range.

        For i = n-1 .. 1, x[i] swaps with x[random_interval(i)]: a 32-bit
        draw masked to the bits of i, redrawn until it is <= i.
        """
        for i in range(len(x) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.u32() & mask
            while j > i:
                j = self.u32() & mask
            x[i], x[j] = x[j], x[i]
        return x

    def uniform(self, lo: float, hi: float) -> float:
        """`Generator.uniform(lo, hi)`: lo + (hi - lo) times the top 53 bits of one whole word over 2**53."""
        return lo + (hi - lo) * ((self.raw() >> 11) * 2.0**-53)


def _grid_stream(n: int, ks: np.ndarray, rng: np.random.Generator, states: list) -> np.ndarray:
    """Raw tables (K, n, 2) of grid-stream candidates ks, all inside the grid; each merges x1 with x2.

    (t, alpha, lambda pair) come from index arithmetic on k.  For n >= 4 each
    k also draws a tail mass and its split from `rng` set to its row of
    `states`, the `_seed_states` of (seed, 101, k): the mass is decoded
    from one raw word (`_Words.uniform`) and the split is n - 3 standard
    exponentials, all scaled in one `_scale`.  lambda1 < lambda2 always
    holds: s1 < s2 on the grid and r >= 0.4.
    """
    t, rem = _T_GRID[ks // _PER_T], ks % _PER_T
    alpha, pair = _ALPHA_GRID[rem // len(_S1)], rem % len(_S1)
    tail, r = np.zeros((len(ks), 0)), 1.0
    if n > 3:
        mass, split = [], []
        for state in states:
            mass.append(_Words(_reseed(rng, state)).uniform(0.05, 0.6))
            split.append(rng.standard_exponential(n - 3))
        mass = np.array(mass)
        tail, r = mass[:, None] * _scale(np.array(split).reshape(len(ks), n - 3)), 1.0 - mass
    return _proof_tables(n, t, _S1[pair] * r, _S2[pair] * r, alpha, tail)


def _merge_draw(n: int, rng: np.random.Generator) -> tuple[np.ndarray, list[int], np.ndarray, list[int]]:
    """A merge-stream candidate from a freshly seeded `rng`: (class-row exponentials (classes, |Y|), assignment, P_X exponentials (n,), mapping).

    A random joint whose conditional rows repeat within classes, and the
    sufficient merge of one class with two or more members; there are fewer
    classes than symbols, so such a class always exists.  The joint is
    px[:, None] * rows[assignment] once `_scale` makes the exponentials
    Dirichlet rows.  Only the exponentials are `Generator` calls; the
    integer and shuffle draws are decoded from raw words (`_Words`).
    """
    w = _Words(rng)
    m = w.integers(2, 4)
    n_classes = w.integers(1, n)
    rows = rng.standard_exponential((n_classes, m))
    assignment = w.shuffle(list(range(n_classes)) + [w.integers(0, n_classes) for _ in range(n - n_classes)])
    px = rng.standard_exponential(n)
    mergeable = [c for c in range(n_classes) if assignment.count(c) >= 2]
    cls = mergeable[w.integers(0, len(mergeable))]
    first, labels = assignment.index(cls), {}
    mapping = [labels.setdefault(first if a == cls else x, len(labels)) for x, a in enumerate(assignment)]
    return rows, assignment, px, mapping


def _perm_draw(n: int, rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """A permutation-stream candidate from a freshly seeded `rng`: (exponentials (n * |Y|,), permutation other than the identity).

    The joint is the `_scale` of the exponentials as an (n, |Y|) table; the
    |Y| draw and the permutation are decoded from raw words (`_Words`).
    """
    w = _Words(rng)
    m = w.integers(2, 4)
    e = rng.standard_exponential(n * m)
    perm = w.shuffle(list(range(n)))
    if perm == list(range(n)):
        perm = perm[-1:] + perm[:-1]
    return e, perm


def _check_labels(maps: np.ndarray) -> None:
    """`Transform`'s contiguous-label check on a stack of mappings (K, n), one pass."""
    s = np.sort(maps, axis=1)
    bad = (s[:, 0] != 0) | (np.diff(s, axis=1) > 1).any(axis=1)
    if bad.any():
        raise ParameterOutOfRange(f"labels must be contiguous from 0, got {sorted(set(s[bad.argmax()].tolist()))}")


def _chunk(
    n: int, start: int, stop: int, seed: int, rng: Optional[np.random.Generator] = None
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Scan candidates start..stop-1 as {|Y|: (positions, tables (K, n, |Y|), mappings (K, n))}.

    Scan index idx is candidate idx // 3 of stream idx % 3 (grid, merge,
    permutation); its position is idx - start, and each group lists its rows
    in scan order.  Grid candidates are skipped for n = 2 and past the end of
    the grid, and appear nowhere.  Every seeded draw of the chunk (merge
    candidate k on stream 202, permutation candidate k on 303, the n >= 4
    tail of grid candidate k on 101) is what `default_rng([seed, stream,
    k])` draws: one `_seed_states` call gives each its PCG64 state, and
    `rng` (one is built when None) is set to each state in turn.  A
    candidate's only `Generator` calls are `standard_exponential`; its
    integer, shuffle and uniform draws are decoded from raw words
    (`_Words`).  The exponentials become Dirichlet rows in one `_scale`
    per row width of each stream and |Y|, each merge joint is one gather of
    its class rows, the tables are validated as `validate_joint` would and
    the mappings checked as `Transform` would, one pass per group.
    """
    merges = range(start + (1 - start) % 3, stop, 3)
    perms = range(start + (2 - start) % 3, stop, 3)
    ks = np.arange(-(-start // 3), -(-stop // 3)) if n >= 3 else np.arange(0)
    ks = ks[ks < _GRID_SIZE]
    tails = ks if n > 3 else ks[:0]
    states = []
    if len(merges) or len(perms) or len(tails):
        streams = np.repeat([202, 303, 101], [len(merges), len(perms), len(tails)])
        states = _seed_states(seed, streams, np.concatenate([np.array(merges) // 3, np.array(perms) // 3, tails]))
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(0))  # every draw follows a `_reseed`
    merged: dict[int, list] = {}  # |Y| -> (position, mapping, class rows, assignment, P_X) per candidate
    for idx, state in zip(merges, states):
        rows, assignment, px, mapping = _merge_draw(n, _reseed(rng, state))
        merged.setdefault(rows.shape[1], []).append((idx - start, mapping, rows, assignment, px))
    permuted: dict[int, list] = {}  # |Y| -> (position, permutation, exponentials) per candidate
    for idx, state in zip(perms, states[len(merges):]):
        e, perm = _perm_draw(n, _reseed(rng, state))
        permuted.setdefault(len(e) // n, []).append((idx - start, perm, e))
    parts: dict[int, list] = {}  # |Y| -> (positions, tables, mappings) per stream
    for b, found in merged.items():
        pos, maps, rows, assignments, px = zip(*found)
        counts = [len(r) for r in rows]
        at = np.cumsum(counts) - counts  # each candidate's first class row in the stack
        tables = _scale(np.array(px))[:, :, None] * _scale(np.concatenate(rows))[at[:, None] + np.array(assignments)]
        parts.setdefault(b, []).append((pos, tables, maps))
    for b, found in permuted.items():
        pos, maps, e = zip(*found)
        parts.setdefault(b, []).append((pos, _scale(np.array(e)).reshape(len(pos), n, b), maps))
    if n >= 3:
        tables = _grid_stream(n, ks, rng, states[len(merges) + len(perms):])
        parts.setdefault(2, []).append((3 * ks - start, tables, np.tile([0, 0, *range(1, n - 1)], (len(ks), 1))))
    out = {}
    for b, groups in parts.items():
        pos, tables, maps = (np.concatenate(part) for part in zip(*groups))
        if len(pos):
            order = np.argsort(pos, kind="stable")
            _check_labels(maps)
            tables, s = _simplex(tables[order], 2)
            out[b] = pos[order], tables / s[:, None, None], maps[order]
    return out


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
    that hits early stays cheap.  Each chunk is arrays (`_chunk`): raw
    tables and mappings per |Y|, validated in one pass per |Y|.  Candidate
    k of a random stream, and the n >= 4 tail of grid candidate k, is what
    `default_rng([seed, stream, k])` draws, which pins it whatever the
    chunking; a chunk hashes all its seeds in one pass and draws from the
    scan's one generator, set to each candidate's state.  Only the standard
    exponentials are `Generator` calls: the integer, shuffle and uniform
    draws are decoded from raw words, and each chunk scales its
    exponentials into Dirichlet rows as whole arrays.
    Per |Y|, C before is one kernel stack, and C after and each witness
    kind come from `_decide`, which `audit_dpa` and `verify_witness` share;
    each C is the same bits as the candidate's alone.  The chunk is decided
    in scan order: a non-finite C first raises UnboundedBelow, as `c_value`
    would; a witness first becomes a `ViolationWitness`, is re-verified
    with `verify_witness` and returned.  Numeric-tier rules solve each
    stack's rows in one lockstep search (`losses._solve`), with the same
    seed.

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
    rng = np.random.Generator(np.random.PCG64(0))  # reused by every chunk; each draw follows a `_reseed`
    while start < budget:
        stop = min(start + size, budget)
        groups = _chunk(n, start, stop, seed, rng)
        before, after = np.zeros(stop - start), np.zeros(stop - start)  # 0 and 0 at a skipped position: no witness
        kinds = np.full(stop - start, "", dtype=object)  # "" at a skipped position
        for pos, tables, maps in groups.values():
            before[pos] = _c_stack(l, tables)[0]
            after[pos], kinds[pos] = _decide(l, tables, maps, before[pos], tol)
        first = np.flatnonzero((kinds != "") | ~np.isfinite(before) | ~np.isfinite(after))
        if first.size:
            i = first[0]
            _finite(np.array([before[i], after[i]]))
            pos, tables, maps = next(g for g in groups.values() if i in g[0])
            r = int(np.searchsorted(pos, i))
            joint, transform = Joint(tables[r].copy()), Transform(tuple(maps[r].tolist()))
            w = ViolationWitness(joint, transform, float(before[i]), float(after[i]), str(kinds[i]))
            if not verify_witness(l, w, tol=tol):
                raise WitnessVerificationFailed("witness failed re-verification; numeric instability")
            return w
        start, size = stop, min(2 * size, _MAX_CHUNK)
    return None
