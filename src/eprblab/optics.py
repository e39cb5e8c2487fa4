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

measure_many draws every random number in the documented order, and then
evaluates the Malus split and the threshold in fixed blocks of _BLOCK_ROWS
pairs, one after another on the calling thread. Each block reads and writes
only its own slices, so the block size never changes an output byte.

_count_zero_noise counts isotropic pairs at two stations with zero noise
and full efficiency without a cosine per pair. There the pair angle is the
only draw, and Generator.uniform(0, 2*pi) builds it from one raw PCG64
uint64, so pairs can be grouped by the top bits of that draw. Per bucket,
the Malus split at one point and a bound on its slope prove each station's
code for every angle the bucket holds; the few pairs of unproven buckets
run through _malus and _fire as above. The counts therefore equal those of
emit_phis and measure_many on the same generator, as long as numpy builds
uniform doubles from raw draws as it does today: the same construction
every seeded output already rests on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    DOUBLE_CODE,
    MINUS_CODE,
    MISS_CODE,
    PLUS_CODE,
    TWO_PI,
    _cells,
    _tally,
    check_angle,
)

#: Rows per block of the array kernels. Any value gives the same output
#: bytes; 2**15 pairs keep a block's float64 temporaries in cache.
_BLOCK_ROWS = 1 << 15

#: Pairs per raw draw of _count_zero_noise. Any value gives the same counts;
#: 2**14 rows keep each block's arrays on the heap, where a freed block's
#: pages serve the next (2**16-row blocks took ~200 page faults per 1e5 pairs).
_TABLE_ROWS = 1 << 14

#: _count_zero_noise groups pairs by this many top bits of their raw draw.
_BUCKET_BITS = 12
_BUCKET_SHIFT = 64 - _BUCKET_BITS

#: Station code indexed by fired_plus + 2 * fired_minus.
_CODE_OF_FIRED = np.array([MISS_CODE, PLUS_CODE, MINUS_CODE, DOUBLE_CODE], dtype=np.int8)


@dataclass(frozen=True)
class IsotropicSource:
    """Pairs oriented uniformly over [0, 2*pi)."""


@dataclass(frozen=True)
class FixedBasisSource:
    """Pairs confined to one orthogonal basis: phi in {basis, basis + pi/2}.

    basis is in radians, at most MAX_ANGLE (2**43) in magnitude.
    """

    basis: float = 0.0

    def __post_init__(self) -> None:
        check_angle("basis", self.basis)


SourceModel = IsotropicSource | FixedBasisSource


@dataclass(frozen=True)
class StationConfig:
    """One station's analyzer angle and detection calibration.

    angle is in radians, at most MAX_ANGLE (2**43) in magnitude, where one
    ulp of a double still stays under 1e-3 rad. threshold is a fraction of
    the normalized pulse energy; noise_sigma is the per-channel additive
    Gaussian width in the same units; efficiency is the probability of
    keeping a trial's outcome rather than recording a miss.
    """

    angle: float
    threshold: float = 0.5
    noise_sigma: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        check_angle("angle", self.angle)
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


def _malus(delta):
    i_plus = 0.5 * (1.0 + np.cos(2.0 * delta))
    return i_plus, 1.0 - i_plus


def _station_draws(cfg: StationConfig, n: int, rng: np.random.Generator):
    """One station's random draws for n trials: (noise, thinning uniforms).

    A normal block of shape (n, 2) when noise_sigma > 0, then a uniform
    block of shape (n,) when efficiency < 1; each is None when skipped.
    """
    noise = rng.normal(0.0, cfg.noise_sigma, (n, 2)) if cfg.noise_sigma > 0.0 else None
    thin = rng.random(n) if cfg.efficiency < 1.0 else None
    return noise, thin


def _fire(i_plus, i_minus, noise, thin, cfg: StationConfig, out: np.ndarray) -> None:
    """Threshold-to-code step: write the station codes of these trials to out.

    A channel fires when its intensity plus its noise is >= the threshold
    (so the exact (0.5, 0.5) tie at threshold 0.5 is a double); a trial whose
    thinning uniform is >= efficiency is a miss.
    """
    if noise is not None:
        i_plus = i_plus + noise[:, 0]
        i_minus = i_minus + noise[:, 1]
    fired_plus = i_plus >= cfg.threshold
    fired_minus = i_minus >= cfg.threshold
    if thin is not None:
        kept = thin < cfg.efficiency
        fired_plus &= kept
        fired_minus &= kept
    index = fired_minus.view(np.int8) << 1
    index |= fired_plus.view(np.int8)
    np.take(_CODE_OF_FIRED, index, out=out, mode="clip")


def _station_block(phi, shift, angle, noise, thin, cfg: StationConfig, out: np.ndarray) -> None:
    """Codes of one block of one station: Malus split of phi + shift, then _fire."""
    _fire(*_malus((phi + shift) - angle), noise, thin, cfg, out)


def _measure(phis, angle_a, angle_b, cfg_a: StationConfig, cfg_b: StationConfig, rng):
    """Both stations' codes; angle_a/angle_b are floats or per-pair arrays.

    Station A's pulses carry phis, station B's phis + pi/2. All draws happen
    here, A's (noise, thinning) before B's; the blocks then only compute.
    """
    phis = np.asarray(phis, dtype=float)
    n = phis.shape[0]
    draws_a = _station_draws(cfg_a, n, rng)
    draws_b = _station_draws(cfg_b, n, rng)
    codes_a = np.empty(n, dtype=np.int8)
    codes_b = np.empty(n, dtype=np.int8)
    stations = (
        (0.0, angle_a, draws_a, cfg_a, codes_a),
        (0.5 * math.pi, angle_b, draws_b, cfg_b, codes_b),
    )
    for shift, angle, draws, cfg, out in stations:
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            per_pair = [x[rows] if isinstance(x, np.ndarray) else x for x in (angle, *draws)]
            _station_block(phis[rows], shift, *per_pair, cfg, out[rows])
    return codes_a, codes_b


def _phis_of_raw(raw: np.ndarray) -> np.ndarray:
    """The pair angles Generator.uniform(0, 2*pi) makes of PCG64's raw uint64
    draws: low + (high - low) * u with u = (raw >> 11) * 2**-53, where adding
    low = 0.0 changes no double."""
    return TWO_PI * ((raw >> np.uint64(11)) * 2.0**-53)


@functools.cache
def _bucket_phis() -> np.ndarray:
    """Rows of the smallest and the largest angle of each bucket of raw draws
    (read-only: every caller shares them)."""
    first = np.arange(1 << _BUCKET_BITS, dtype=np.uint64) << np.uint64(_BUCKET_SHIFT)
    last = first | np.uint64((1 << _BUCKET_SHIFT) - 1)
    bounds = np.stack([_phis_of_raw(first), _phis_of_raw(last)])
    bounds.flags.writeable = False
    return bounds


def _bucket_codes(shift: float, cfg: StationConfig) -> tuple[np.ndarray, np.ndarray]:
    """One station's code per bucket, and whether every angle of the bucket
    is proven to give it.

    Rounding is monotone, so every angle of a bucket lands at a delta
    (phi + shift) - angle in [lo, hi]. |d(cos^2)/d delta| <= 1, so no channel
    of the bucket crosses the threshold when its intensity at a point of
    [lo, hi] clears it by the distance to either end; 1e-9 more covers the
    rounding of _malus, which is below 1e-15.
    """
    phi_lo, phi_hi = _bucket_phis()
    lo = (phi_lo + shift) - cfg.angle
    hi = (phi_hi + shift) - cfg.angle
    mid = 0.5 * (lo + hi)
    # Both differences are exact (Sterbenz) or far below the 1e-9 slack.
    margin = np.maximum(hi - mid, mid - lo) + 1e-9
    i_plus, i_minus = _malus(mid)
    codes = np.empty(mid.shape[0], dtype=np.int8)
    _fire(i_plus, i_minus, None, None, cfg, codes)
    proven = (np.abs(i_plus - cfg.threshold) > margin) & (np.abs(i_minus - cfg.threshold) > margin)
    return codes, proven


def _count_zero_noise(n: int, cfg_a: StationConfig, cfg_b: StationConfig, rng) -> np.ndarray:
    """Counts of the 16 (code_a, code_b) cells, indexed as _cells does, for n
    isotropic pairs when both stations have noise_sigma 0 and efficiency 1.

    phi is then the only draw, so the counts equal those of emit_phis,
    measure_many and a tally of their codes on the same rng, which this
    leaves in the same state. Pairs are grouped by the top _BUCKET_BITS bits
    of their raw draw; a bucket where _bucket_codes proves both stations'
    codes is counted from its size, and only the pairs of the other buckets
    (under 1 % at most thresholds) go through _malus and _fire, in batches
    of at least _TABLE_ROWS pairs or at the end. Raw draws come _TABLE_ROWS
    at a time, so memory does not grow with n.
    """
    code_a, proven_a = _bucket_codes(0.0, cfg_a)
    code_b, proven_b = _bucket_codes(0.5 * math.pi, cfg_b)
    proven = proven_a & proven_b
    unproven = ~proven
    per_bucket = np.zeros(1 << _BUCKET_BITS, dtype=np.int64)
    counts = np.zeros(16, dtype=np.int64)
    pending: list[np.ndarray] = []
    n_pending = 0
    for start in range(0, n, _TABLE_ROWS):
        raw = rng.bit_generator.random_raw(min(_TABLE_ROWS, n - start))
        # bincount takes signed indices; the shifted words are below 2**_BUCKET_BITS.
        bucket = (raw >> np.uint64(_BUCKET_SHIFT)).view(np.int64)
        per_bucket += np.bincount(bucket, minlength=per_bucket.shape[0])
        pending.append(raw[unproven[bucket]])
        n_pending += pending[-1].shape[0]
        if n_pending >= _TABLE_ROWS or start + _TABLE_ROWS >= n:
            phis = _phis_of_raw(np.concatenate(pending))
            codes = np.empty((2, phis.shape[0]), dtype=np.int8)
            _station_block(phis, 0.0, cfg_a.angle, None, None, cfg_a, codes[0])
            _station_block(phis, 0.5 * math.pi, cfg_b.angle, None, None, cfg_b, codes[1])
            counts += _tally(*codes)
            pending, n_pending = [], 0
    np.add.at(counts, _cells(code_a, code_b)[proven], per_bucket[proven])
    return counts


def measure_many(
    phis: np.ndarray,
    cfg_a: StationConfig,
    cfg_b: StationConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Both stations' outcome codes for an array of pair polarizations.

    Station A's pulses carry phis, station B's phis + pi/2. Draw order: A's
    normal block of shape (n, 2) when its noise_sigma > 0, then A's uniform
    block of shape (n,) when its efficiency < 1, then B's likewise.
    """
    return _measure(phis, cfg_a.angle, cfg_b.angle, cfg_a, cfg_b, rng)

