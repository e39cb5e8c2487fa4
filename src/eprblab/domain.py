"""Shared domain types and closed-form predictions for two-station
polarization-correlation experiments.

Angles are plain floats in radians with canonical range [0, 2*pi); where
polarization symmetry applies, quantities reduce mod pi instead. Outcomes
are encoded +1/-1 package-wide. The closed-form prediction here is the
joint coincidence probability for a correlated or anticorrelated pair;
everything else is counting statistics over those outcomes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: Tolerance for a probability table summing to one.
PMF_TOL = 1e-12


class NoCoincidencesError(ValueError):
    """A statistic needed coincidence counts and the table has none."""


def wrap_angle(x: float) -> float:
    """Reduce an angle into [0, 2*pi). Idempotent, including at float edges.

    Plain ``x % TWO_PI`` can round up to exactly 2*pi for tiny negative x,
    which would break both the range contract and idempotence, so that case
    is folded back to 0.
    """
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    r = x % TWO_PI
    if r >= TWO_PI:
        r = 0.0
    return r


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

    def marginal_a_plus(self) -> float:
        return self.p_pp + self.p_pm

    def marginal_b_plus(self) -> float:
        return self.p_pp + self.p_mp

    def product_of_marginals(self) -> "JointPmf":
        """The independent table with this table's one-sided marginals."""
        a = self.marginal_a_plus()
        b = self.marginal_b_plus()
        return JointPmf(a * b, a * (1.0 - b), (1.0 - a) * b, (1.0 - a) * (1.0 - b))


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
