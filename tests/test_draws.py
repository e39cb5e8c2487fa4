"""Canaries for the numpy draws that the output bytes rest on.

Every golden digest (tests/test_golden.py) is pinned on one numpy version.
NEP 19 keeps the bit generators' raw streams stable across numpy releases
but lets Generator distribution methods change, so on another numpy the
golden tests fail together. A failure here names the draw that moved.

The blocked passes draw each block's share of a stream in turn, so they
rest on one identity: a sequence of draws of m_1, m_2, ... values gives the
values, and leaves the generator in the state, of one draw of their sum.
"""

import copy
import hashlib
import math

import numpy as np
import pytest

from eprblab import domain

#: Block sizes: single rows, odd sizes that split PCG64's buffered 32-bit
#: half-words, and the default.
BLOCK_ROWS = [1, 3, 64, domain._BLOCK_ROWS]

DRAWS = {
    # Setting indices (eventio) and fixed-hv basis bits (optics).
    "integers-0-2": lambda rng, m: rng.integers(0, 2, m),
    # Latency jitter (eventio) and channel noise (optics).
    "normal": lambda rng, m: rng.normal(0.0, 10e-9, m),
    # Emission gaps (eventio), drawn in chunks until they pass the duration.
    "exponential": lambda rng, m: rng.exponential(1e-6, m),
}


@pytest.mark.parametrize("seed", [12, 2**40 + 7])
@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@pytest.mark.parametrize("name", sorted(DRAWS))
def test_blocked_draws_equal_one_whole_draw(monkeypatch, name, block_rows, seed):
    draw, n = DRAWS[name], 3 * block_rows + 5  # more than three blocks
    whole_rng = np.random.default_rng(seed)
    whole = draw(whole_rng, n)
    monkeypatch.setattr(domain, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(seed)
    blocked = np.concatenate([draw(rng, rows.stop - rows.start) for rows in domain._blocks(n)])
    assert np.array_equal(blocked, whole)
    assert rng.bit_generator.state == whole_rng.bit_generator.state


#: sha256 of the first 16 raw PCG64 words, little-endian, of default_rng(key):
#: a whole-run seed and the [seed, step] key of one scan step or CHSH setting.
SEEDED_RAW_SHA256 = {
    12: "4e964b163adcaf8519cdb0866fa87fdd12baa2a71e05b7469fda142a863cd3c0",
    (12, 3): "37ef920710d9754dd0c0ca08d225816102a9a1b7671645418056b46a0de5e346",
    2**40 + 7: "7e631ad6e0cb5dba7c06a80edc0429701f0963eebbad995672783e021236816a",
    (2**40 + 7, 3): "1027cbb188e873edc56e05d824dc895423aebed1f484f14f416223f83f28296e",
}


@pytest.mark.parametrize("key", list(SEEDED_RAW_SHA256), ids=str)
def test_seeding_gives_the_pinned_raw_words(key):
    rng = np.random.default_rng(list(key) if isinstance(key, tuple) else key)
    raw = rng.bit_generator.random_raw(16)
    assert hashlib.sha256(raw.astype("<u8").tobytes()).hexdigest() == SEEDED_RAW_SHA256[key]


UNIT_DRAWS = {
    # Disk pointers and the isotropic source's pair angles.
    "uniform-0-2pi": (lambda rng, m: rng.uniform(0, 2 * math.pi, m), 2 * math.pi),
    # Efficiency thinning.
    "random": (lambda rng, m: rng.random(m), 1.0),
}


@pytest.mark.parametrize("seed", [12, 2**40 + 7])
@pytest.mark.parametrize("name", sorted(UNIT_DRAWS))
def test_unit_draws_are_the_top_53_bits_of_raw_words(name, seed):
    # Each double is scale * (raw >> 11) * 2**-53 of one raw word, read here
    # from a copy of the generator's bit generator.
    draw, scale = UNIT_DRAWS[name]
    rng = np.random.default_rng(seed)
    raw = copy.deepcopy(rng.bit_generator).random_raw(1000)
    expected = (raw >> np.uint64(11)) * 2.0**-53
    assert np.array_equal(draw(rng, 1000), scale * expected)  # times 1.0 is exact
