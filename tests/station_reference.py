"""The whole-array station chain that optics.measure_pairs replaced, kept
verbatim as the reference its codes and draw order are checked against:
emit_phis draws every pair's angle, then _measure draws each station's
normals and thinning uniforms (_station_draws) and computes the codes in
blocks of _BLOCK_ROWS pairs (_station_block, _fire). measure_many measures at
the stations' own angles.
"""

import math

import numpy as np

from eprblab.domain import TWO_PI
from eprblab.optics import (
    IsotropicSource,
    SourceModel,
    StationConfig,
    _code_of,
    _malus,
    _phis_of_words,
)

_BLOCK_ROWS = 1 << 15


def emit_phis(model: SourceModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized pair polarizations for n emissions."""
    if isinstance(model, IsotropicSource):
        return rng.uniform(0.0, TWO_PI, n)
    return _phis_of_words(model, rng.integers(0, 2, n))


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


def measure_many(phis, cfg_a: StationConfig, cfg_b: StationConfig, rng):
    """Both stations' codes for an array of pair angles, at their own angles."""
    return _measure(phis, cfg_a.angle, cfg_b.angle, cfg_a, cfg_b, rng)
