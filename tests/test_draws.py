"""Canaries for the numpy draws that the output bytes rest on.

Every golden digest (tests/test_golden.py) is pinned on one numpy version.
NEP 19 keeps the bit generators' raw streams stable across numpy releases
but lets Generator distribution methods change, so on another numpy the
golden tests fail together. A failure here names the draw that moved.

The blocked passes draw each block's share of a stream in turn, so they
rest on one identity: a sequence of draws of m_1, m_2, ... values gives the
values, and leaves the generator in the state, of one draw of their sum.
"""

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
