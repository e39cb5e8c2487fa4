"""Shared domain types and closed-form predictions for two-station
polarization-correlation experiments.

Angles are plain floats in radians with canonical range [0, 2*pi); where
polarization symmetry applies, quantities reduce mod pi instead. Every
module reduces an angle, or an array of them, through wrap_angle. Outcomes
are encoded +1/-1 package-wide, and a station's trial as one of four
outcome codes. The closed-form prediction here is the joint coincidence
probability for a correlated or anticorrelated pair; everything else is
counting statistics over those outcomes, including the one tally of two
stations' code arrays into a CountTable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: Tolerance for a probability table summing to one.
PMF_TOL = 1e-12

#: Largest analyzer or source-basis angle magnitude accepted, rad. Past 2**43
#: one ulp of a double exceeds 1e-3 rad, so the value no longer names a
#: setting (and past ~9e307 the Malus split's cos(2 * delta) is NaN).
MAX_ANGLE = 2.0**43

#: Standard CHSH analyzer angles (a, a', b, b').
STANDARD_CHSH_ANGLES = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)

#: Outcome codes of one station's trial, as stored in int8 code arrays.
MISS_CODE = 0
PLUS_CODE = 1
MINUS_CODE = -1
DOUBLE_CODE = 2

#: Rows per block of every blocked pass (_blocks): the tally, optics' kernel
#: and count driver, the disk draws, and eventio's draws, writer, reader and
#: matcher. Any value gives the same output bytes; 2**14 rows keep a block's
#: arrays in cache and on the heap, where a freed block's pages serve the next.
_BLOCK_ROWS = 1 << 14


class NoCoincidencesError(ValueError):
    """A statistic needed coincidence counts and the table has none."""


def wrap_angle(x, period: float = TWO_PI):
    """Reduce an angle, or an array of them elementwise, into [0, period).

    ``x % period`` can round up to exactly period for tiny negative x; that
    folds to 0, so the result is in range, idempotent and the same double for
    a float and an array entry. A non-finite input raises ValueError.
    """
    if not np.isfinite(x).all():
        raise ValueError("angles must be finite")
    r = x % period
    if isinstance(x, np.ndarray):
        return np.where(r >= period, 0.0, r)
    return 0.0 if r >= period else r


def check_angle(name: str, x: float) -> None:
    """Raise ValueError naming name unless x is finite with |x| <= MAX_ANGLE."""
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    if abs(x) > MAX_ANGLE:
        raise ValueError(f"{name} {x!r} exceeds 2**43 rad in magnitude")


def _cell(x) -> str:
    """One value as every CSV and summary writes it: an int or a name as itself,
    a float as its repr, None as nan, and a tuple as its cells joined by commas."""
    if x is None:
        return "nan"
    if isinstance(x, tuple):
        return ",".join(map(_cell, x))
    return repr(float(x)) if isinstance(x, float) else str(x)


def _table(header: str, rows) -> str:
    """A CSV: the header line, then one line of cells per row tuple."""
    return "".join(f"{line}\n" for line in (header, *map(_cell, rows)))


def _summary(**values) -> str:
    """A summary.txt: one key = value line per entry, in order."""
    return "".join(f"{key} = {_cell(value)}\n" for key, value in values.items())


class SingletKind(enum.Enum):
    """Pair preparation: coincident outcomes favored, or opposite ones."""

    CORRELATED = "correlated"
    ANTICORRELATED = "anticorrelated"


def qm_joint_prediction(theta, kind: SingletKind):
    """Joint (+,+) probability at relative analyzer angle theta.

    cos^2(theta)/2 for correlated pairs, sin^2(theta)/2 for anticorrelated
    ones. Periodic in pi; no normalization of theta is required. theta may
    be a float (float result) or an array (elementwise); float_power squares
    through libm pow, as float ** 2 does, so both give the same doubles.
    """
    c = np.float_power(np.cos(theta), 2)
    p = 0.5 * c if kind is SingletKind.CORRELATED else 0.5 * (1.0 - c)
    return float(p) if np.ndim(p) == 0 else p


@dataclass(frozen=True)
class JointPmf:
    """Joint distribution over the outcome pairs (+,+), (+,-), (-,+), (-,-)."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self) -> None:
        probs = self.as_tuple()
        if any(p < 0.0 or not math.isfinite(p) for p in probs):
            raise ValueError(f"invalid probability in {probs}")
        total = math.fsum(probs)
        if abs(total - 1.0) > PMF_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)

    def tv_distance(self, other: "JointPmf") -> float:
        """Total-variation distance 0.5 * sum |p - q|, in [0, 1]."""
        return 0.5 * math.fsum(
            abs(p - q) for p, q in zip(self.as_tuple(), other.as_tuple())
        )


@dataclass(frozen=True)
class CountTable:
    """Outcome counts for a batch of emitted pairs.

    The four coincidence cells count trials where both stations produced a
    single detection. singles/doubles/misses partition each side's n_pairs
    emissions when the whole experiment is visible; tables rebuilt from
    event files do not know n_pairs and leave it at 0, which skips the
    per-side partition check.
    """

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    singles_a: int
    singles_b: int
    doubles_a: int = 0
    doubles_b: int = 0
    misses_a: int = 0
    misses_b: int = 0
    n_pairs: int = 0

    def __post_init__(self) -> None:
        for name in (
            "n_pp", "n_pm", "n_mp", "n_mm",
            "singles_a", "singles_b", "doubles_a", "doubles_b",
            "misses_a", "misses_b", "n_pairs",
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative int, got {v!r}")
        if self.coincidences > min(self.singles_a, self.singles_b):
            raise ValueError("coincidences exceed one side's singles count")
        if self.n_pairs:
            for side in "ab":
                parts = (
                    getattr(self, f"singles_{side}")
                    + getattr(self, f"doubles_{side}")
                    + getattr(self, f"misses_{side}")
                )
                if parts != self.n_pairs:
                    raise ValueError(
                        f"side {side}: singles+doubles+misses = {parts} != n_pairs = {self.n_pairs}"
                    )

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> "CountTable":
        """The table of the 16 (code_a, code_b) cell counts, indexed as _cells does."""
        m = cells.reshape(4, 4)
        miss, plus, minus, double = (c & 3 for c in (MISS_CODE, PLUS_CODE, MINUS_CODE, DOUBLE_CODE))
        single = [plus, minus]
        return cls(
            n_pp=int(m[plus, plus]),
            n_pm=int(m[plus, minus]),
            n_mp=int(m[minus, plus]),
            n_mm=int(m[minus, minus]),
            singles_a=int(m[single].sum()),
            singles_b=int(m[:, single].sum()),
            doubles_a=int(m[double].sum()),
            doubles_b=int(m[:, double].sum()),
            misses_a=int(m[miss].sum()),
            misses_b=int(m[:, miss].sum()),
            n_pairs=int(m.sum()),
        )

    @classmethod
    def from_codes(cls, codes_a: np.ndarray, codes_b: np.ndarray) -> "CountTable":
        """The table of two stations' outcome-code arrays, trial by trial.

        Coincidence cells count trials where both stations produced a single;
        doubles and misses are excluded from the cells but reported per side.
        """
        return cls.from_cells(_tally(codes_a, codes_b))

    @property
    def coincidences(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def to_pmf(self) -> JointPmf:
        """Empirical distribution over the four coincidence cells."""
        total = self.coincidences
        if total == 0:
            raise NoCoincidencesError("no coincidences to normalize")
        return JointPmf(
            self.n_pp / total, self.n_pm / total, self.n_mp / total, self.n_mm / total
        )


def _cells(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """The (code_a, code_b) cell of each trial: 4 * (code_a & 3) + (code_b & 3)."""
    return ((codes_a & 3) << 2) | (codes_b & 3)


def _blocks(n: int) -> list[slice]:
    """The slices of n rows, _BLOCK_ROWS at a time, as read at this call."""
    return [slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS)]


def _tally(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """Counts of the 16 cells of two code arrays, one block of trials at a time."""
    counts = np.zeros(16, dtype=np.int64)
    for rows in _blocks(codes_a.shape[0]):
        counts += np.bincount(_cells(codes_a[rows], codes_b[rows]), minlength=16)
    return counts


def correlation(counts: CountTable) -> float:
    """Correlation E = (n_pp + n_mm - n_pm - n_mp) / coincidences, in [-1, 1].

    Raises NoCoincidencesError on an empty table instead of returning NaN.
    """
    total = counts.coincidences
    if total == 0:
        raise NoCoincidencesError("no coincidences to correlate")
    return (counts.n_pp + counts.n_mm - counts.n_pm - counts.n_mp) / total


def match_probability(counts: CountTable) -> float:
    """P(A == B) among coincidences; equals (1 + E) / 2."""
    total = counts.coincidences
    if total == 0:
        raise NoCoincidencesError("no coincidences to correlate")
    return (counts.n_pp + counts.n_mm) / total


def correlation_stderr(counts: CountTable) -> float:
    """Multinomial standard error sqrt((1 - E^2) / coincidences) of E."""
    e = correlation(counts)
    return math.sqrt(max(0.0, 1.0 - e * e) / counts.coincidences)


def chsh(
    e_ab: float,
    e_ab_prime: float,
    e_a_prime_b: float,
    e_a_prime_b_prime: float,
) -> float:
    """Signed CHSH combination S = E(a,b) - E(a,b') + E(a',b) + E(a',b').

    |S| is the reported statistic: at most 2 for any fair local model,
    2*sqrt(2) for the joint prediction at optimal settings, 4 algebraically.
    Inputs must each lie in [-1, 1].
    """
    for e in (e_ab, e_ab_prime, e_a_prime_b, e_a_prime_b_prime):
        if not -1.0 <= e <= 1.0:
            raise ValueError(f"correlation {e!r} outside [-1, 1]")
    return e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime
