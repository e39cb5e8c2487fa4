"""Semiclassical station physics: pair emission, Malus splitting, and
threshold detection.

A source emits pulse pairs with exactly orthogonal polarizations. Each
station splits its unit-energy pulse into two channels carrying the Malus
fractions cos^2 / sin^2 of the angle between polarization and analyzer,
then compares each channel (plus optional additive Gaussian channel noise)
against a detection threshold; finally the whole-station result is thinned
by a Bernoulli efficiency draw. Zero channels over threshold is a miss, one
is a single, two is a double.

The threshold comparison is inclusive (>=), so the exact-tie case where
both channels carry 0.5 registers as a double. The Malus fractions are
computed through the half-angle identity, which makes i_plus + i_minus
exactly 1.0 and lands the bisecting geometry on exactly (0.5, 0.5), keeping
that tie observable rather than hidden by rounding.

All kernels are stateless and draw from an explicit random generator, so
trials may run in parallel if each batch derives its stream from its own
seed material.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import TWO_PI

#: Outcome codes used by the vectorized kernels (int8 arrays).
MISS_CODE = 0
PLUS_CODE = 1
MINUS_CODE = -1
DOUBLE_CODE = 2


@dataclass(frozen=True)
class IsotropicSource:
    """Pairs oriented uniformly over [0, 2*pi)."""


@dataclass(frozen=True)
class FixedBasisSource:
    """Pairs confined to one orthogonal basis: phi in {basis, basis + pi/2}."""

    basis: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.basis):
            raise ValueError(f"basis must be finite, got {self.basis!r}")


SourceModel = IsotropicSource | FixedBasisSource


@dataclass(frozen=True)
class StationConfig:
    """One station's analyzer angle and detection calibration.

    threshold is a fraction of the normalized pulse energy; noise_sigma is
    the per-channel additive Gaussian width in the same units; efficiency
    is the probability of keeping a trial's outcome rather than recording
    a miss.
    """

    angle: float
    threshold: float = 0.5
    noise_sigma: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold!r} outside [0, 1]")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma {self.noise_sigma!r} must be finite and >= 0")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency {self.efficiency!r} outside (0, 1]")


def emit_phis(model: SourceModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized pair polarizations for n emissions."""
    if isinstance(model, IsotropicSource):
        return rng.uniform(0.0, TWO_PI, n)
    bits = rng.integers(0, 2, n)
    return (model.basis + 0.5 * math.pi * bits) % TWO_PI


def malus_intensities(phi, analyzer):
    """Channel energy fractions (cos^2, sin^2) of phi - analyzer.

    Accepts scalars or arrays elementwise. Uses cos^2 x = (1 + cos 2x)/2 and
    i_minus = 1 - i_plus so the two fractions sum to exactly 1.0 and the
    bisecting case yields exactly (0.5, 0.5).
    """
    delta = np.asarray(phi, dtype=float) - np.asarray(analyzer, dtype=float)
    i_plus = 0.5 * (1.0 + np.cos(2.0 * delta))
    i_minus = 1.0 - i_plus
    if np.ndim(i_plus) == 0:
        return float(i_plus), float(i_minus)
    return i_plus, i_minus


def detect_many(
    i_plus: np.ndarray,
    i_minus: np.ndarray,
    cfg: StationConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Station outcome codes for arrays of channel intensities.

    A channel fires when intensity (+ Gaussian channel noise, independent
    per channel) is >= the threshold; the station outcome is then thinned to
    a miss with probability 1 - efficiency. Draw order: one normal block of
    shape (n, 2) when noise_sigma > 0, then one uniform block of shape (n,)
    when efficiency < 1; both are skipped entirely otherwise.
    """
    i_plus = np.asarray(i_plus, dtype=float)
    i_minus = np.asarray(i_minus, dtype=float)
    n = i_plus.shape[0]
    if cfg.noise_sigma > 0.0:
        noise = rng.normal(0.0, cfg.noise_sigma, (n, 2))
        fired_plus = i_plus + noise[:, 0] >= cfg.threshold
        fired_minus = i_minus + noise[:, 1] >= cfg.threshold
    else:
        fired_plus = i_plus >= cfg.threshold
        fired_minus = i_minus >= cfg.threshold
    codes = np.where(
        fired_plus & fired_minus,
        DOUBLE_CODE,
        np.where(fired_plus, PLUS_CODE, np.where(fired_minus, MINUS_CODE, MISS_CODE)),
    ).astype(np.int8)
    if cfg.efficiency < 1.0:
        dropped = rng.random(n) >= cfg.efficiency
        codes[dropped] = MISS_CODE
    return codes


def measure_many(
    phis: np.ndarray,
    cfg_a: StationConfig,
    cfg_b: StationConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Both stations' outcome codes for an array of pair polarizations.

    Station A's pulses carry phis, station B's phis + pi/2. A's random
    draws (noise, thinning) complete before B's begin.
    """
    ia_plus, ia_minus = malus_intensities(phis, cfg_a.angle)
    codes_a = detect_many(ia_plus, ia_minus, cfg_a, rng)
    ib_plus, ib_minus = malus_intensities(phis + 0.5 * math.pi, cfg_b.angle)
    codes_b = detect_many(ib_plus, ib_minus, cfg_b, rng)
    return codes_a, codes_b


def detection_windows(threshold: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Noise-free per-channel acceptance windows on the period-pi circle.

    Returns ((start, length), (start, length)) arcs for the plus and minus
    channels. A channel fires when its Malus fraction reaches the threshold,
    which for thresholds in [0.5, 1] happens on disjoint arcs of width
    2*acos(sqrt(T)) centered on 0 (plus) and pi/2 (minus). Below 0.5 the
    windows would overlap (doubles acquire positive measure), so such
    thresholds are rejected.
    """
    if not 0.5 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} outside [0.5, 1]")
    w = math.acos(math.sqrt(threshold))
    return (math.pi - w, 2.0 * w), (0.5 * math.pi - w, 2.0 * w)


def singles_probability(threshold: float) -> float:
    """Noise-free single-detection probability over a uniform pair angle.

    Equals 4*acos(sqrt(T))/pi for thresholds in [0.5, 1]: the combined
    width of the two disjoint channel windows divided by the period.
    """
    if not 0.5 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} outside [0.5, 1]")
    return 4.0 * math.acos(math.sqrt(threshold)) / math.pi
