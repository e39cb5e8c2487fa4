"""Joint distributions embodied as labeled disk sectors, sampled by a
uniform pointer angle.

A joint disk partitions the circle [0, 2*pi) into sectors, each labeled
with an outcome pair; drawing one uniform angle and reading the containing
sector samples the joint distribution exactly. The same statistics survive
splitting the disk into one per-side copy as long as both sides index their
copies with the *same* draw. With independent draws per side only the
product of the marginals is realized, and when each side has to lay out its
own sectors from a guess about the remote analyzer setting, the target
joint is generally lost as well. The constructions here make each of those
regimes runnable and measurable.

A pointer reads the first sector whose half-open arc holds it. On a static
disk the lookup is compiled once and total: a pointer in a gap of a few
ulps, where rounded arc ends miss each other, reads the sector that begins
next, and one outside [0, 2*pi) is first reduced as wrap_angle reduces one.
Per-trial disks keep the per-arc test and send only a gap pointer to the
compiled table of its trial's arcs, so every lookup is total.

Disks are immutable after construction; sampling takes an explicit seed and
is pure given (inputs, seed).
"""

from __future__ import annotations

import enum
import functools
import math
import struct
from dataclasses import astuple, dataclass

import numpy as np

from .domain import (
    TWO_PI,
    CountTable,
    JointPmf,
    SingletKind,
    _blocks,
    _cells,
    qm_joint_prediction,
    wrap_angle,
)
from .intervals import arc_overlaps

#: Tolerance for sector lengths covering the full circle.
PARTITION_TOL = 1e-9

_OUTCOMES = (-1, 1)
#: Outcome pairs in JointPmf's field order, which the singlet sectors follow.
_CELLS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_SINGLET_A, _SINGLET_B = zip(*_CELLS)


def _check_outcome(value: int, name: str) -> None:
    if value not in _OUTCOMES:
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")


def _check_arc(start: float, length: float) -> None:
    # The compiled lookup needs starts in [0, 2*pi]: see _compile_lookup.
    for name, value in (("start", start), ("length", length)):
        if not 0.0 <= value <= TWO_PI:
            raise ValueError(f"sector {name} {value!r} outside [0, 2*pi]")


@dataclass(frozen=True)
class Sector:
    """One labeled arc of a joint disk: [start, start + length) -> (a, b)."""

    start: float
    length: float
    outcome_a: int
    outcome_b: int

    def __post_init__(self) -> None:
        _check_outcome(self.outcome_a, "outcome_a")
        _check_outcome(self.outcome_b, "outcome_b")
        _check_arc(self.start, self.length)


@dataclass(frozen=True)
class SplitSector:
    """One labeled arc of a per-side disk: [start, start + length) -> outcome."""

    start: float
    length: float
    outcome: int

    def __post_init__(self) -> None:
        _check_outcome(self.outcome, "outcome")
        _check_arc(self.start, self.length)


def _check_partition(lengths: list[float]) -> None:
    total = math.fsum(lengths)
    if abs(total - TWO_PI) > PARTITION_TOL:
        raise ValueError(f"sector lengths sum to {total!r}, not 2*pi")


@dataclass(frozen=True)
class DiskPreparation:
    """An ordered set of sectors that partitions the circle exactly once."""

    sectors: tuple[Sector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sectors", tuple(self.sectors))
        _check_partition([s.length for s in self.sectors])

    def implied_pmf(self) -> JointPmf:
        """The joint distribution the sector areas encode (arc / 2*pi)."""
        acc = dict.fromkeys(_CELLS, 0.0)
        for s in self.sectors:
            acc[(s.outcome_a, s.outcome_b)] += s.length
        return JointPmf(*(acc[cell] / TWO_PI for cell in _CELLS))


@dataclass(frozen=True)
class SplitDisk:
    """One side's disk: same partition contract, one outcome per sector."""

    sectors: tuple[SplitSector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sectors", tuple(self.sectors))
        _check_partition([s.length for s in self.sectors])

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The compiled lookup, built on first use (see _compile_lookup)."""
        return _compile_lookup([(s.start, s.length, s.outcome) for s in self.sectors])


class SamplingMode(enum.Enum):
    """One shared pointer draw per trial, or an independent draw per side."""

    SHARED_LAMBDA = "shared-lambda"
    INDEPENDENT_LAMBDAS = "independent-lambdas"


def _singlet_arcs(theta, kind: SingletKind):
    """Starts and lengths of the four singlet sectors at relative angle theta.

    theta is a float or an array of per-trial angles; both go through the
    same float operations, so an array entry equals the float result.
    """
    same = TWO_PI * qm_joint_prediction(theta, kind)   # (+,+) and (-,-)
    diff = math.pi - same                              # (+,-) and (-,+)
    starts = (0.0, same, same + diff, same + diff + diff)
    return starts, (same, diff, diff, same)


def build_singlet_disk(theta: float, kind: SingletKind) -> DiskPreparation:
    """Four-sector disk whose implied joint matches the closed-form target.

    Sector order is fixed package-wide: (+,+), (+,-), (-,+), (-,-),
    contiguous counterclockwise from 0. Each arc is 2*pi times its target
    cell probability, so for anticorrelated pairs the lengths are
    (pi sin^2, pi cos^2, pi cos^2, pi sin^2) and for correlated pairs the
    sin/cos roles swap.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    arcs = zip(*_singlet_arcs(theta, kind), _SINGLET_A, _SINGLET_B)
    return DiskPreparation(tuple(Sector(*arc) for arc in arcs))


def _holds(lams, start, length):
    """Whether the arc [start, start + length) holds lams (an array or a float).

    The one arc test: (lam - start) % 2*pi < length. Arcs are half-open, the
    boundary belongs to the arc that starts there, and a zero-length arc
    holds nothing. For lams in [0, 2*pi) and a start in [0, 2*pi], as every
    caller passes, % only adds 2*pi to a negative d = lam - start, so adding
    it here gives the same doubles without np.remainder. Unlike wrap_angle it
    does not fold: folding d + 2*pi to 0 would make an arc hold pointers a
    few ulps below its start, which changes the compiled tables.
    """
    d = lams - start
    return d + TWO_PI * (d < 0) < length


def _sector_lookup(lams, arcs) -> np.ndarray:
    """Outcome (int8) of the first arc holding each pointer angle, 0 if none.

    arcs yields (start, length, outcome) in sector order; start and length
    are floats or arrays shaped like lams.
    """
    lams = np.asarray(lams, dtype=float)
    out = np.zeros(lams.shape, dtype=np.int8)
    for start, length, outcome in reversed(list(arcs)):  # earlier arcs win
        out[_holds(lams, start, length)] = outcome
    return out


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


#: The doubles in [0, 2*pi), in order, are _double(0) .. _double(_TWO_PI_BITS - 1).
_TWO_PI_BITS = _bits(TWO_PI)


def _first_unheld(lo: int, hi: int, start: float, length: float) -> int:
    """Bits of the first double in bits [lo, hi) the arc does not hold, or hi.

    Bisection; the arc must hold a prefix of the range. On one Python float,
    _holds rounds each step as numpy does elementwise.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        if _holds(_double(mid), start, length):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _compile_lookup(arcs) -> tuple[np.ndarray, np.ndarray]:
    """Sorted boundaries and outcomes that equal _sector_lookup on [0, 2*pi).

    For a start in [0, 2*pi], lam - start rounds monotonically in lam, and so
    does the 2*pi that _holds adds to it below the start. So an arc holds a prefix
    of [0, start) and a prefix of [start, 2*pi), and bisection finds where
    each prefix ends, exactly. The cuts are 0 and, per arc, its start and
    those two ends; every arc's test is constant from one cut to the next,
    so _sector_lookup at a segment's first double gives the whole segment.
    A segment no arc holds (a gap of a few ulps at a rounded arc end) takes
    the outcome of the segment after it, that of the arc beginning there,
    which makes the table total. Adjacent equal segments merge.
    """
    cuts = {0}
    for start, length, _ in arcs:
        s = _bits(start + 0.0)  # -0.0 -> +0.0, whose bits are 0
        ends = _first_unheld(0, s, start, length), _first_unheld(s, _TWO_PI_BITS, start, length)
        cuts |= {s, *ends}
    bounds = np.array([_double(c) for c in sorted(cuts - {_TWO_PI_BITS})])
    codes = _sector_lookup(bounds, arcs)
    held = np.flatnonzero(codes)
    codes = codes[held[np.searchsorted(held, np.arange(len(codes))) % len(held)]]
    keep = np.concatenate([[True], codes[1:] != codes[:-1]])
    return bounds[keep], codes[keep]


def _per_trial_lookup(lams: np.ndarray, theta, kind: SingletKind, outcomes) -> np.ndarray:
    """Outcomes (int8) at lams on singlet disks laid out per trial at theta.

    theta is a float or an array shaped like lams. Each row reads the first
    of its own arcs that holds its pointer; a pointer no arc holds (a gap of
    a few ulps) reads what the compiled table of its row's arcs reads, the
    sector that begins next, so this lookup is total like the static one.
    """
    out = _sector_lookup(lams, zip(*_singlet_arcs(theta, kind), outcomes))
    for i in np.flatnonzero(out == 0).tolist():
        row_theta = float(np.broadcast_to(theta, lams.shape)[i])
        bounds, codes = _compile_lookup(list(zip(*_singlet_arcs(row_theta, kind), outcomes)))
        out[i] = codes[np.searchsorted(bounds, lams[i], side="right") - 1]
    return out


def _segment(lams: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Index j of the segment [bounds[j], bounds[j + 1]) holding each pointer
    in [0, 2*pi): the number of bounds[1:] at or below it, one comparison
    pass per boundary, which on a split disk's few boundaries beats a search."""
    index = np.zeros(lams.shape, dtype=np.min_scalar_type(len(bounds) - 1))
    for b in bounds[1:].tolist():
        index += lams >= b
    return index


def sample_split_many(disk: SplitDisk, lams: np.ndarray) -> np.ndarray:
    """One side's outcomes (int8) at an array of pointer angles.

    The lookup is total. On [0, 2*pi) a pointer reads the first sector whose
    half-open arc holds it; a pointer in a gap no arc holds (a few ulps where
    rounded arc ends miss each other) reads the sector that begins next.
    Pointers outside [0, 2*pi) are first reduced as wrap_angle reduces one;
    a non-finite pointer raises ValueError. The disk is compiled once, on
    first use, into sorted boundaries, and each pointer reads the outcome of
    the segment _segment finds for it by comparison with those boundaries.
    """
    lams = np.asarray(lams, dtype=float)
    # In-range pointers skip np.remainder, which costs more than the lookup.
    if lams.size and not (lams.min() >= 0.0 and lams.max() < TWO_PI):
        lams = wrap_angle(lams)
    bounds, outcomes = disk._table
    return outcomes.take(_segment(lams, bounds))


def split_disk(disk: DiskPreparation) -> tuple[SplitDisk, SplitDisk]:
    """Project a joint disk into its two per-side disks.

    Every pointer angle keeps exactly the per-side label the joint disk
    assigns; zero-length sectors are dropped. Adjacent same-outcome arcs are
    kept separate so each split arc reuses the joint sector's floats and the
    projection is exact angle by angle, not just in measure.
    """

    def project(side_a: bool) -> SplitDisk:
        arcs = [
            SplitSector(s.start, s.length, s.outcome_a if side_a else s.outcome_b)
            for s in disk.sectors
            if s.length > 0.0
        ]
        return SplitDisk(tuple(arcs))

    return project(True), project(False)


def _sample_separated_rng(
    disk_a: SplitDisk,
    disk_b: SplitDisk,
    mode: SamplingMode,
    n: int,
    rng: np.random.Generator,
) -> CountTable:
    # Pointers are drawn in row blocks (domain._blocks), the order of one
    # (n,) draw. Independent pointers take one pass per side, A's blocks
    # before B's, and tally the two sides' codes. A shared pointer needs no
    # codes: both sides are constant on each segment of the union of their
    # tables' boundaries, reading what _segment gives at its first double, so
    # the pointers below each cut count every segment's trials into its cell.
    # The count skips sample_split_many's range check: it relies on uniform
    # never returning 2*pi, since TWO_PI * (1 - 2**-53) rounds below TWO_PI.
    if mode is SamplingMode.INDEPENDENT_LAMBDAS:
        codes = []
        for disk in (disk_a, disk_b):
            codes.append(np.empty(n, dtype=np.int8))
            for rows in _blocks(n):
                lams = rng.uniform(0.0, TWO_PI, rows.stop - rows.start)
                codes[-1][rows] = sample_split_many(disk, lams)
        return CountTable.from_codes(*codes)
    bounds = np.sort(np.concatenate([disk_a._table[0], disk_b._table[0]]))
    bounds = bounds[np.concatenate([[True], bounds[1:] != bounds[:-1]])]  # np.union1d loads np.ma
    below = np.zeros(len(bounds) - 1, dtype=np.int64)
    for rows in _blocks(n):
        lams = rng.uniform(0.0, TWO_PI, rows.stop - rows.start)
        for j, b in enumerate(bounds[1:].tolist()):
            below[j] += np.count_nonzero(lams < b)
    side_a, side_b = (d._table[1].take(_segment(bounds, d._table[0])) for d in (disk_a, disk_b))
    cells = np.zeros(16, dtype=np.int64)
    np.add.at(cells, _cells(side_a, side_b), np.diff(below, prepend=0, append=n))
    return CountTable.from_cells(cells)


def sample_separated(
    disk_a: SplitDisk,
    disk_b: SplitDisk,
    mode: SamplingMode,
    n: int,
    seed: int,
) -> CountTable:
    """Sample n trials from two per-side disks.

    SHARED_LAMBDA draws one uniform pointer per trial used by both sides;
    INDEPENDENT_LAMBDAS draws one per side (A's array first). Every trial is
    a single on both sides, so the CountTable has no doubles or misses.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n!r}")
    return _sample_separated_rng(disk_a, disk_b, mode, n, np.random.default_rng(seed))


# --- parameter-knowledge policies -------------------------------------------

@dataclass(frozen=True)
class BothKnown:
    """Build with the true remote setting."""


@dataclass(frozen=True)
class AssumeFixed:
    """Use a fixed guess for the remote setting."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"assumed remote setting must be finite, got {self.value!r}")


@dataclass(frozen=True)
class AssumeRandom:
    """Draw a fresh uniform guess on [0, 2*pi) for every trial."""


KnowledgePolicy = BothKnown | AssumeFixed | AssumeRandom


def policy_is_per_trial(policy: KnowledgePolicy) -> bool:
    return isinstance(policy, AssumeRandom)


def _assumed_remote(policy: KnowledgePolicy, true_value: float) -> float:
    if isinstance(policy, BothKnown):
        return true_value
    if isinstance(policy, AssumeFixed):
        return policy.value
    raise ValueError(
        f"{type(policy).__name__} guesses anew every trial, so it has no single apparatus"
    )


def build_param_disks(
    alpha: float,
    beta: float,
    policy_a: KnowledgePolicy,
    policy_b: KnowledgePolicy,
    kind: SingletKind,
) -> tuple[SplitDisk, SplitDisk]:
    """Build the per-side disks each station lays out from what it knows.

    Side A knows alpha and fills in beta from policy_a; side B knows beta
    and fills in alpha from policy_b. Each side builds the standard disk at
    its own estimate of the relative angle (local setting minus assumed
    remote) and keeps its own projection. Under BothKnown/BothKnown both
    estimates equal alpha - beta, the two disks are projections of one
    joint disk, and shared-pointer sampling reproduces the target exactly.

    The per-trial policy AssumeRandom lays out new disks every trial, so it
    raises ValueError here; sample_param_setup runs it.
    """
    disk_for_a = build_singlet_disk(alpha - _assumed_remote(policy_a, beta), kind)
    disk_for_b = build_singlet_disk(_assumed_remote(policy_b, alpha) - beta, kind)
    return split_disk(disk_for_a)[0], split_disk(disk_for_b)[1]


def sample_param_setup(
    alpha: float,
    beta: float,
    policy_a: KnowledgePolicy,
    policy_b: KnowledgePolicy,
    kind: SingletKind,
    n: int,
    seed: int,
    mode: SamplingMode = SamplingMode.SHARED_LAMBDA,
) -> CountTable:
    """Run n trials of the policy-built apparatus and tabulate outcomes.

    With only static policies the disks are built once and sampled as in
    sample_separated. A per-trial policy lays out its side's sectors from a
    fresh guess every trial: one uniform block of shape (n, k) holds, per
    trial and in this order, A's guess, B's guess (each only if that side is
    per-trial) and the pointer angle(s), which is the order of n * k scalar
    draws. The block is drawn and looked up in row blocks (domain._blocks);
    successive (m, k) draws equal one (n, k) draw, so the blocking never
    changes the result.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n!r}")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"settings must be finite, got alpha={alpha!r}, beta={beta!r}")
    rng = np.random.default_rng(seed)
    guess_a, guess_b = policy_is_per_trial(policy_a), policy_is_per_trial(policy_b)
    if not (guess_a or guess_b):
        da, db = build_param_disks(alpha, beta, policy_a, policy_b, kind)
        return _sample_separated_rng(da, db, mode, n, rng)

    shared = mode is SamplingMode.SHARED_LAMBDA
    k = guess_a + guess_b + (1 if shared else 2)
    side_a = np.empty(n, dtype=np.int8)
    side_b = np.empty(n, dtype=np.int8)
    for rows in _blocks(n):
        columns = iter(rng.uniform(0.0, TWO_PI, (rows.stop - rows.start, k)).T)
        beta_hat = next(columns) if guess_a else _assumed_remote(policy_a, beta)
        alpha_hat = next(columns) if guess_b else _assumed_remote(policy_b, alpha)
        lam_a = next(columns)
        lam_b = lam_a if shared else next(columns)
        side_a[rows] = _per_trial_lookup(lam_a, alpha - beta_hat, kind, _SINGLET_A)
        side_b[rows] = _per_trial_lookup(lam_b, alpha_hat - beta, kind, _SINGLET_B)
    return CountTable.from_codes(side_a, side_b)


def build_bell_special(alpha: float) -> tuple[SplitDisk, SplitDisk]:
    """The fixed-remote-setting construction that recovers the harmonic joint.

    Side B's setting is pinned to 0 by construction: B is + on [0, pi).
    Side A offsets its + half-circle to start at pi*cos^2(alpha). Shared
    pointer sampling then reproduces the anticorrelated joint at relative
    angle alpha, i.e. p_pp = sin^2(alpha)/2, for every alpha; the harmonic
    dependence comes entirely from the nonlinear offset.
    """
    offset = math.pi * math.cos(alpha) ** 2
    side_a = SplitDisk(
        (
            SplitSector(offset, math.pi, 1),
            SplitSector(wrap_angle(offset + math.pi), math.pi, -1),
        )
    )
    side_b = SplitDisk(
        (
            SplitSector(0.0, math.pi, 1),
            SplitSector(math.pi, math.pi, -1),
        )
    )
    return side_a, side_b


def joint_pmf_from_splits(disk_a: SplitDisk, disk_b: SplitDisk) -> JointPmf:
    """Exact joint table of shared-pointer sampling, by arc-overlap integration.

    The shared pointer lands in two arcs with probability overlap/2*pi, so
    arc_overlaps over the two disks' sectors integrates the sampled joint
    exactly (to float rounding), with no Monte Carlo error.
    """
    acc = arc_overlaps(*([astuple(s) for s in d.sectors] for d in (disk_a, disk_b)), TWO_PI)
    return JointPmf(*(acc.get(cell, 0.0) / TWO_PI for cell in _CELLS))
