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

_count_pairs counts a scan step or CHSH sub-run with the counts of emit_phis,
measure_many and a tally on the same generator, in bounded memory. It reads
the stream's segments in their draw order, _TABLE_ROWS pairs at a time: the
pair-angle words, A's normals, A's thinning uniforms, B's normals, B's
thinning uniforms. Generator.uniform(0, 2*pi) builds each isotropic angle
from one raw PCG64 uint64, so pairs are keyed by the top bits of that word
(a bucket); a fixed-hv pair is keyed by its basis bit, one of two exact
angles. Per key, the Malus split at one point and a bound on its slope bound
a station's channel intensities (_key_bounds), and a channel whose bounds
do not straddle the threshold is decided without a cosine. Each station
takes one of three paths:

- bucket (isotropic source, zero noise): a code per bucket, proven for every
  angle the bucket holds; only the pairs of unproven buckets run through
  _malus and _fire.
- bit (fixed-hv source, zero noise): a code per basis bit.
- full (noise): the block's angle words are drawn again from a copy of the
  generator taken before them, and the bounds plus each pair's normals
  decide its code; only the pairs the bounds leave open (well under 1 % at
  the noise widths the scans use) run through _malus and _fire.

Each station keeps one int8 code per pair, 2 bytes per pair in all. Its
thinning pass reads its uniforms where its normals end and turns the
dropped trials into misses. When neither station has noise or losses, the
angle words are the only draw, and pairs are counted per key with no
per-pair code. This rests on numpy building uniform doubles from raw draws
as it does today, and on block-wise normal, random and integers draws
equalling one whole draw: the same construction every seeded output
already rests on.
"""

from __future__ import annotations

import copy
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

#: Pairs per block of _count_pairs. Any value gives the same counts;
#: 2**14 rows keep each block's arrays on the heap, where a freed block's
#: pages serve the next (2**16-row blocks took ~200 page faults per 1e5 pairs).
_TABLE_ROWS = 1 << 14

#: The bucket path groups pairs by this many top bits of their raw draw.
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
    return _phis_of_words(model, rng.integers(0, 2, n))


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


def _code_of(plus: np.ndarray, minus: np.ndarray, out: np.ndarray) -> None:
    """Write the codes of these fired-channel flags to out."""
    index = minus.view(np.int8) << 1
    index |= plus.view(np.int8)
    np.take(_CODE_OF_FIRED, index, out=out, mode="clip")


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
    _code_of(fired_plus, fired_minus, out)


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


def _key_bounds(source: SourceModel, shift: float, cfg: StationConfig):
    """Per key of the angle words (_draw_words), bounds on the intensities
    _malus gives a pair angle with that key here: (plus_lo, plus_hi,
    minus_lo, minus_hi).

    An isotropic key is a bucket. Rounding is monotone, so every angle of a
    bucket lands at a delta (phi + shift) - angle in [lo, hi], and
    |d(cos^2)/d delta| <= 1, so the plus intensity stays within the distance
    to either end of its value at a point of [lo, hi]; 1e-9 more covers the
    rounding of _malus, which is below 1e-15. A fixed-hv key is one exact
    angle, whose intensity is exact. The minus intensity is 1 - plus, rounded
    as _malus rounds it, so 1 - plus_hi and 1 - plus_lo bound it.
    """
    if isinstance(source, FixedBasisSource):
        plus_lo = plus_hi = _malus((_phis_of_words(source, np.arange(2)) + shift) - cfg.angle)[0]
    else:
        phi_lo, phi_hi = _bucket_phis()
        lo = (phi_lo + shift) - cfg.angle
        hi = (phi_hi + shift) - cfg.angle
        mid = 0.5 * (lo + hi)
        # Both differences are exact (Sterbenz) or far below the 1e-9 slack.
        margin = np.maximum(hi - mid, mid - lo) + 1e-9
        i_plus = _malus(mid)[0]
        plus_lo, plus_hi = i_plus - margin, i_plus + margin
    return plus_lo, plus_hi, 1.0 - plus_hi, 1.0 - plus_lo


def _station_table(source: SourceModel, shift: float, cfg: StationConfig):
    """A zero-noise station's code per key of the angle words, and whether the
    key leaves it unproven: a channel's bounds straddle the threshold."""
    bounds = _key_bounds(source, shift, cfg)
    plus_lo, plus_hi, minus_lo, minus_hi = (bound >= cfg.threshold for bound in bounds)
    codes = np.empty(plus_lo.shape[0], dtype=np.int8)
    _code_of(plus_lo, minus_lo, codes)
    return codes, (plus_lo != plus_hi) | (minus_lo != minus_hi)


def _draw_words(source: SourceModel, m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The next m pairs' angle words, drawn as emit_phis draws them, and their
    keys: the top _BUCKET_BITS bits of a raw PCG64 word, or the fixed-hv bit."""
    if isinstance(source, IsotropicSource):
        raw = rng.bit_generator.random_raw(m)
        # bincount and take read signed indices; the shifted words are below 2**_BUCKET_BITS.
        return raw, (raw >> np.uint64(_BUCKET_SHIFT)).view(np.int64)
    bits = rng.integers(0, 2, m)
    return bits, bits


def _phis_of_words(source: SourceModel, words: np.ndarray) -> np.ndarray:
    """The pair angles emit_phis makes of these angle words."""
    if isinstance(source, IsotropicSource):
        return _phis_of_raw(words)
    return (source.basis + 0.5 * math.pi * words) % TWO_PI


def _codes(phis, shift, cfg: StationConfig, noise=None) -> np.ndarray:
    """A station's codes of these pair angles, before thinning."""
    codes = np.empty(phis.shape[0], dtype=np.int8)
    _station_block(phis, shift, cfg.angle, noise, None, cfg, codes)
    return codes


def _count_keys(source, n: int, stations, tables, rng) -> np.ndarray:
    """Cell counts of _count_pairs when the angle words are the only draw.

    A key whose code both tables prove is counted from its size; the pairs of
    the other keys go through _malus and _fire in batches of at least
    _TABLE_ROWS pairs, or at the end. No per-pair code is kept.
    """
    (code_a, unproven_a), (code_b, unproven_b) = tables
    unproven = unproven_a | unproven_b
    per_key = np.zeros(unproven.shape[0], dtype=np.int64)
    counts = np.zeros(16, dtype=np.int64)
    pending: list[np.ndarray] = []
    n_pending = 0
    for start in range(0, n, _TABLE_ROWS):
        words, key = _draw_words(source, min(_TABLE_ROWS, n - start), rng)
        per_key += np.bincount(key, minlength=per_key.shape[0])
        pending.append(words[unproven[key]])
        n_pending += pending[-1].shape[0]
        # Free the block before the next draw, which then reuses its heap
        # pages; freed at the top of the heap, they would be trimmed and
        # faulted in again.
        del words, key
        if n_pending >= _TABLE_ROWS or start + _TABLE_ROWS >= n:
            phis = _phis_of_words(source, np.concatenate(pending))
            counts += _tally(*(_codes(phis, shift, cfg) for shift, cfg in stations))
            pending, n_pending = [], 0
    proven = ~unproven
    np.add.at(counts, _cells(code_a, code_b)[proven], per_key[proven])
    return counts


def _noisy_codes(source, shift, cfg: StationConfig, again, rng, blocks, out: np.ndarray) -> None:
    """A noisy station's codes before thinning, block by block: the full path.

    Each block's angle words are drawn again from again, a copy of the
    generator taken before them, and its normals from rng. A channel fires
    when its intensity plus its noise is >= the threshold, and rounding the
    sum is monotone, so the channel's _key_bounds decide it unless they
    straddle the threshold; only such pairs go through _malus and _fire.
    """
    bounds = _key_bounds(source, shift, cfg)
    # One work array for the whole pass: block-sized temporaries made and
    # freed in every block sit at the top of the heap, which is trimmed and
    # faulted in again each time (~90 page faults a block).
    work = np.empty(_TABLE_ROWS)
    fired = np.empty((4, _TABLE_ROWS), dtype=bool)
    for rows in blocks:
        m = rows.stop - rows.start
        words, key = _draw_words(source, m, again)
        noise = rng.normal(0.0, cfg.noise_sigma, (m, 2))
        for row, bound in enumerate(bounds):
            np.take(bound, key, out=work[:m])
            work[:m] += noise[:, row // 2]
            np.greater_equal(work[:m], cfg.threshold, out=fired[row, :m])
        plus_lo, plus_hi, minus_lo, minus_hi = fired[:, :m]
        _code_of(plus_lo, minus_lo, out[rows])
        unsure = (plus_lo != plus_hi) | (minus_lo != minus_hi)
        if unsure.any():
            phis = _phis_of_words(source, words[unsure])
            out[rows][unsure] = _codes(phis, shift, cfg, noise[unsure])


def _count_pairs(
    source: SourceModel, cfg_a: StationConfig, cfg_b: StationConfig, n: int, rng
) -> np.ndarray:
    """Counts of the 16 (code_a, code_b) cells, indexed as _cells does, of n
    pairs from source measured at the two stations: those of emit_phis,
    measure_many and a tally on the same rng, which this leaves in the same
    state. The module docstring gives the station paths and the draw order.
    """
    stations = ((0.0, cfg_a), (0.5 * math.pi, cfg_b))
    tables = [None if cfg.noise_sigma > 0.0 else _station_table(source, shift, cfg)
              for shift, cfg in stations]
    if None not in tables and cfg_a.efficiency == cfg_b.efficiency == 1.0:
        return _count_keys(source, n, stations, tables, rng)
    before_words = copy.deepcopy(rng.bit_generator)
    codes = np.empty((2, n), dtype=np.int8)
    blocks = [slice(start, min(start + _TABLE_ROWS, n)) for start in range(0, n, _TABLE_ROWS)]
    for rows in blocks:
        words, key = _draw_words(source, rows.stop - rows.start, rng)
        for (shift, cfg), table, out in zip(stations, tables, codes[:, rows]):
            if table is not None:
                np.take(table[0], key, out=out, mode="clip")
                unsure = table[1][key]
                if unsure.any():
                    out[unsure] = _codes(_phis_of_words(source, words[unsure]), shift, cfg)
        del words, key  # as in _count_keys
    for (shift, cfg), table, out in zip(stations, tables, codes):
        if table is None:
            again = np.random.Generator(copy.deepcopy(before_words))
            _noisy_codes(source, shift, cfg, again, rng, blocks, out)
        if cfg.efficiency < 1.0:
            for rows in blocks:
                # MISS_CODE is 0: a dropped trial's code times False is a miss.
                out[rows] *= rng.random(rows.stop - rows.start) < cfg.efficiency
    return _tally(*codes)


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

