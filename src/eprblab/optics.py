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

measure_pairs gives both stations' codes for the next n pairs of a stream,
and _count_pairs counts them for a scan step or CHSH sub-run. Both read the
stream's segments in their draw order, one block (domain._blocks) at a
time, and decide most pairs' codes from per-key intensity bounds
(_key_bounds) with no cosine; the README's "Count driver" section derives
the method and its three station paths (bucket, bit and full). This rests
on numpy building uniform doubles from raw draws as it does today, and on
block-wise normal, random and integers draws equalling one whole draw: the
same construction every seeded output already rests on.
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
    CountTable,
    _blocks,
    _cells,
    _tally,
    check_angle,
    wrap_angle,
)

#: The bucket path groups pairs by this many top bits of their raw draw.
_BUCKET_BITS = 12
_BUCKET_SHIFT = 64 - _BUCKET_BITS

#: Station code indexed by fired_plus + 2 * fired_minus.
_CODE_OF_FIRED = np.array([MISS_CODE, PLUS_CODE, MINUS_CODE, DOUBLE_CODE], dtype=np.int8)

#: Pulse shift of each station: A's pulse carries the pair angle, B's the
#: angle + pi/2.
_SHIFTS = (0.0, 0.5 * math.pi)


@dataclass(frozen=True)
class IsotropicSource:
    """Pairs oriented uniformly over [0, 2*pi)."""


@dataclass(frozen=True)
class FixedBasisSource:
    """Pairs confined to one orthogonal basis: phi in {basis, basis + pi/2},
    reduced as wrap_angle reduces one; |basis| <= MAX_ANGLE (2**43) rad.
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


def _malus(delta):
    i_plus = 0.5 * (1.0 + np.cos(2.0 * delta))
    return i_plus, 1.0 - i_plus


def _code_of(plus: np.ndarray, minus: np.ndarray, out: np.ndarray) -> None:
    """Write the codes of these fired-channel flags to out."""
    index = minus.view(np.int8) << 1
    index |= plus.view(np.int8)
    np.take(_CODE_OF_FIRED, index, out=out, mode="clip")


def _exact_codes(phis, shift, angle, threshold: float, noise=None) -> np.ndarray:
    """A station's codes of these pair angles before thinning, from the Malus
    split of (phi + shift) - angle. A channel fires when its intensity plus
    its noise is >= the threshold, so the exact (0.5, 0.5) tie at threshold
    0.5 is a double."""
    i_plus, i_minus = _malus((phis + shift) - angle)
    if noise is not None:
        i_plus = i_plus + noise[:, 0]
        i_minus = i_minus + noise[:, 1]
    codes = np.empty(phis.shape[0], dtype=np.int8)
    _code_of(i_plus >= threshold, i_minus >= threshold, codes)
    return codes


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


def _key_bounds(source: SourceModel, shift: float, angles: np.ndarray):
    """Per key of the angle words (_draw_words) and analyzer angle, bounds
    on the intensities _malus gives a pair angle with that key here:
    (plus_lo, plus_hi, minus_lo, minus_hi), each indexed by key + K * setting
    for K keys and angles[setting].

    An isotropic key is a bucket. Rounding is monotone, so every angle of a
    bucket lands at a delta (phi + shift) - angle in [lo, hi], and
    |d(cos^2)/d delta| <= 1, so the plus intensity stays within the distance
    to either end of its value at a point of [lo, hi]; 1e-9 more covers the
    rounding of _malus, which is below 1e-15. A fixed-hv key is one exact
    angle, whose intensity is exact. The minus intensity is 1 - plus, rounded
    as _malus rounds it, so 1 - plus_hi and 1 - plus_lo bound it.
    """
    column = angles[:, None]
    if isinstance(source, FixedBasisSource):
        phis = _phis_of_words(source, np.arange(2))
        plus_lo = plus_hi = _malus((phis + shift) - column)[0].ravel()
    else:
        phi_lo, phi_hi = _bucket_phis()
        lo = ((phi_lo + shift) - column).ravel()
        hi = ((phi_hi + shift) - column).ravel()
        mid = 0.5 * (lo + hi)
        # Both differences are exact (Sterbenz) or far below the 1e-9 slack.
        margin = np.maximum(hi - mid, mid - lo) + 1e-9
        i_plus = _malus(mid)[0]
        plus_lo, plus_hi = i_plus - margin, i_plus + margin
    return plus_lo, plus_hi, 1.0 - plus_hi, 1.0 - plus_lo


def _draw_words(source: SourceModel, m: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The next m pairs' angle words, drawn as uniform(0, 2*pi, m) or
    integers(0, 2, m) draws them, and their keys: the top _BUCKET_BITS bits
    of a raw PCG64 word, or the fixed-hv bit."""
    if isinstance(source, IsotropicSource):
        raw = rng.bit_generator.random_raw(m)
        # bincount and take read signed indices; the shifted words are below 2**_BUCKET_BITS.
        return raw, (raw >> np.uint64(_BUCKET_SHIFT)).view(np.int64)
    bits = rng.integers(0, 2, m)
    return bits, bits


def _phis_of_words(source: SourceModel, words: np.ndarray) -> np.ndarray:
    """The pair angles of these angle words, in [0, 2*pi): a fixed-hv word's
    angle is basis + pi/2 * word, reduced as wrap_angle reduces one."""
    if isinstance(source, IsotropicSource):
        return _phis_of_raw(words)
    return wrap_angle(source.basis + 0.5 * math.pi * words)


def _bounded_codes(key, noise, out: np.ndarray, threshold: float, bounds):
    """Write to out the codes the bounds (_key_bounds) of these keys give,
    plus each pair's noise when given, and return where a channel's bounds
    straddle the threshold. Rounding the sum is monotone, so elsewhere the
    code holds for every angle of the key. key None reads every key in order,
    with no noise."""
    fired = []
    for row, bound in enumerate(bounds):
        if key is not None:
            bound = np.take(bound, key, mode="clip")
            if noise is not None:
                bound += noise[:, row // 2]
        fired.append(bound >= threshold)
    plus_lo, plus_hi, minus_lo, minus_hi = fired
    _code_of(plus_lo, minus_lo, out)
    return (plus_lo != plus_hi) | (minus_lo != minus_hi)


class _Station:
    """One station of a stream: its pulse shift, calibration and analyzer
    angles, and what decides its codes per key.

    setting, when given, is (angles, index): a menu of analyzer angles and
    each pair's index into it, in place of cfg.angle. A zero-noise station
    keeps a table (the bucket path of an isotropic source, the bit path of a
    fixed-hv one): its code per key, and the keys whose bounds leave that code
    unproven. A noisy one takes the full path (full_codes).
    """

    def __init__(self, source: SourceModel, shift: float, cfg: StationConfig, setting=None):
        angles, index = setting if setting is not None else ((cfg.angle,), None)
        self.source, self.shift, self.cfg = source, shift, cfg
        self.index = None if index is None else np.asarray(index)
        self.angles = np.asarray(angles, dtype=float)
        self.keys_per_angle = 1 << _BUCKET_BITS if isinstance(source, IsotropicSource) else 2
        self.table = None
        if cfg.noise_sigma == 0.0:
            codes = np.empty(self.keys_per_angle * self.angles.shape[0], dtype=np.int8)
            bounds = _key_bounds(source, shift, self.angles)
            self.table = codes, _bounded_codes(None, None, codes, cfg.threshold, bounds)

    def codes(self, words, key, out: np.ndarray, rows: slice, noise=None, bounds=None) -> None:
        """Write to out the codes, before thinning, of the pairs at rows of
        the stream: from the table at zero noise, else, on the full path, from
        the block's normals and the station's bounds (_key_bounds). Only the
        pairs these leave unsure go through _exact_codes."""
        if self.index is not None:
            key = key + self.keys_per_angle * self.index[rows].astype(np.int64)  # int8 overflows
        if self.table is None:
            unsure = _bounded_codes(key, noise, out, self.cfg.threshold, bounds)
        else:
            np.take(self.table[0], key, out=out, mode="clip")
            unsure = self.table[1][key]
        if unsure.any():
            phis = _phis_of_words(self.source, words[unsure])
            angle = self.cfg.angle if self.index is None else self.angles[self.index[rows][unsure]]
            noise = None if noise is None else noise[unsure]
            out[unsure] = _exact_codes(phis, self.shift, angle, self.cfg.threshold, noise)

    def full_codes(self, again, rng, out: np.ndarray) -> None:
        """The full path: write to out the codes, before thinning, of its rows,
        one block at a time, their angle words drawn again from again, a copy
        of the generator taken before them, and their normals from rng."""
        bounds = _key_bounds(self.source, self.shift, self.angles)
        for rows in _blocks(len(out)):
            m = rows.stop - rows.start
            words, key = _draw_words(self.source, m, again)
            noise = rng.normal(0.0, self.cfg.noise_sigma, (m, 2))
            self.codes(words, key, out[rows], rows, noise, bounds)


def measure_pairs(
    source: SourceModel,
    cfg_a: StationConfig,
    cfg_b: StationConfig,
    n: int,
    rng: np.random.Generator,
    settings=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Both stations' int8 outcome codes for the next n pairs source emits
    on rng. Station A's pulses carry each pair's angle, B's the angle + pi/2.

    Draw order: the n pair angles, as uniform(0, 2*pi, n) or, for a fixed
    basis, integers(0, 2, n) draws them; A's normal block of shape (n, 2)
    when its noise_sigma > 0, then A's n thinning uniforms when its
    efficiency < 1; then B's likewise. settings, when given, is
    ((angles_a, index_a), (angles_b, index_b)): each station's menu of
    analyzer angles and each pair's index into it, used in place of the
    stations' angle fields. _Station gives the station paths.
    """
    for angles, index in settings or ():
        for angle in angles:
            check_angle("settings angle", angle)
        index = np.asarray(index)
        if not (index.shape == (n,) and index.dtype.kind in "iu"
                and ((0 <= index) & (index < len(angles))).all()):
            raise ValueError(f"settings need n = {n} integer indices into each menu of angles")
    stations = [_Station(source, shift, cfg, setting)
                for shift, cfg, setting in zip(_SHIFTS, (cfg_a, cfg_b), settings or (None, None))]
    codes = np.empty((2, n), dtype=np.int8)
    before_words = copy.deepcopy(rng.bit_generator)
    for rows in _blocks(n):
        words, key = _draw_words(source, rows.stop - rows.start, rng)
        for station, out in zip(stations, codes[:, rows]):
            if station.table is not None:
                station.codes(words, key, out, rows)
        del words, key  # as in _count_keys
    for station, out in zip(stations, codes):
        if station.table is None:
            station.full_codes(np.random.Generator(copy.deepcopy(before_words)), rng, out)
        if station.cfg.efficiency < 1.0:
            for rows in _blocks(n):
                # MISS_CODE is 0: a dropped trial's code times False is a miss.
                out[rows] *= rng.random(rows.stop - rows.start) < station.cfg.efficiency
    return codes[0], codes[1]


def _count_keys(source: SourceModel, n: int, stations, rng) -> np.ndarray:
    """Cell counts of _count_pairs when the angle words are the only draw.

    A key whose code both stations' tables prove is counted from its size;
    the pairs of the other keys go through _exact_codes in batches of at
    least one block's pairs, or at the end. No per-pair code is kept.
    """
    (code_a, unproven_a), (code_b, unproven_b) = (station.table for station in stations)
    unproven = unproven_a | unproven_b
    per_key = np.zeros(unproven.shape[0], dtype=np.int64)
    counts = np.zeros(16, dtype=np.int64)
    pending: list[np.ndarray] = []
    n_pending = 0
    for rows in _blocks(n):
        m = rows.stop - rows.start
        words, key = _draw_words(source, m, rng)
        per_key += np.bincount(key, minlength=per_key.shape[0])
        pending.append(words[unproven[key]])
        n_pending += pending[-1].shape[0]
        del words, key  # the pass holds one block of angle words, not two
        if n_pending >= m or rows.stop == n:
            phis = _phis_of_words(source, np.concatenate(pending))
            counts += _tally(*(_exact_codes(phis, st.shift, st.cfg.angle, st.cfg.threshold)
                               for st in stations))
            pending, n_pending = [], 0
    proven = ~unproven
    np.add.at(counts, _cells(code_a, code_b)[proven], per_key[proven])
    return counts


def _count_pairs(
    source: SourceModel, cfg_a: StationConfig, cfg_b: StationConfig, n: int, rng
) -> CountTable:
    """The CountTable of the next n pairs: CountTable.from_codes of
    measure_pairs on the same rng, which this leaves in the same state.
    Lossless noiseless stations are counted per key, with no per-pair code."""
    noiseless = cfg_a.noise_sigma == cfg_b.noise_sigma == 0.0
    if noiseless and cfg_a.efficiency == cfg_b.efficiency == 1.0:
        stations = [_Station(source, shift, cfg) for shift, cfg in zip(_SHIFTS, (cfg_a, cfg_b))]
        return CountTable.from_cells(_count_keys(source, n, stations, rng))
    return CountTable.from_codes(*measure_pairs(source, cfg_a, cfg_b, n, rng))
