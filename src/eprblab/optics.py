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

measure_many draws every random number on the calling thread, in the
documented order, and then evaluates the Malus split and the threshold in
fixed blocks of _BLOCK_ROWS pairs, spread over one worker thread per
available core. Each block reads and writes only its own slices, so the
block size, the number of cores and the scheduling of blocks never change
an output byte.

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
import os
import threading
from dataclasses import dataclass

import numpy as np

from .domain import TWO_PI

#: Outcome codes used by the vectorized kernels (int8 arrays).
MISS_CODE = 0
PLUS_CODE = 1
MINUS_CODE = -1
DOUBLE_CODE = 2

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


def _malus(delta):
    i_plus = 0.5 * (1.0 + np.cos(2.0 * delta))
    return i_plus, 1.0 - i_plus


def malus_intensities(phi, analyzer):
    """Channel energy fractions (cos^2, sin^2) of phi - analyzer.

    Accepts scalars or arrays elementwise. Uses cos^2 x = (1 + cos 2x)/2 and
    i_minus = 1 - i_plus so the two fractions sum to exactly 1.0 and the
    bisecting case yields exactly (0.5, 0.5).
    """
    i_plus, i_minus = _malus(np.asarray(phi, dtype=float) - np.asarray(analyzer, dtype=float))
    if np.ndim(i_plus) == 0:
        return float(i_plus), float(i_minus)
    return i_plus, i_minus


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
    codes = np.empty(i_plus.shape[0], dtype=np.int8)
    _fire(i_plus, i_minus, *_station_draws(cfg, len(codes), rng), cfg, codes)
    return codes


def _station_block(phi, shift, angle, noise, thin, cfg: StationConfig, out: np.ndarray) -> None:
    """Codes of one block of one station: Malus split of phi + shift, then _fire."""
    _fire(*_malus((phi + shift) - angle), noise, thin, cfg, out)


_pool = None  # the block executor, made on first use
_pool_lock = threading.Lock()


def _forget_pool_in_child() -> None:
    """A forked child inherits the executor but none of its threads, and
    maybe a lock held by a parent thread: start both afresh."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _workers() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_pool():
    """The process's block executor, one thread per available core."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here: a module-level import costs every CLI start-up.
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_workers(), thread_name_prefix="eprblab-block")
        return _pool


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
    pool = _block_pool()
    futures = []
    stations = (
        (0.0, angle_a, draws_a, cfg_a, codes_a),
        (0.5 * math.pi, angle_b, draws_b, cfg_b, codes_b),
    )
    for shift, angle, draws, cfg, out in stations:
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            per_pair = [x[rows] if isinstance(x, np.ndarray) else x for x in (angle, *draws)]
            task = (phis[rows], shift, *per_pair, cfg, out[rows])
            futures.append(pool.submit(_station_block, *task))
    for future in futures:
        future.result()
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


def _cells(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """The (code_a, code_b) cell of each trial: 4 * (code_a & 3) + (code_b & 3)."""
    return ((codes_a & 3) << 2) | (codes_b & 3)


def _tally(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """Counts of the 16 cells of two code arrays, _TABLE_ROWS trials at a time."""
    counts = np.zeros(16, dtype=np.int64)
    for start in range(0, codes_a.shape[0], _TABLE_ROWS):
        rows = slice(start, start + _TABLE_ROWS)
        counts += np.bincount(_cells(codes_a[rows], codes_b[rows]), minlength=16)
    return counts


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

    Station A's pulses carry phis, station B's phis + pi/2. A's random
    draws (noise, thinning) complete before B's begin. The result equals
    detect_many over malus_intensities for each station in turn, byte for
    byte, whatever the number of cores.
    """
    return _measure(phis, cfg_a.angle, cfg_b.angle, cfg_a, cfg_b, rng)


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
