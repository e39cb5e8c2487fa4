"""A fixed reference task, timed beside every pass to track the machine's speed.

    python3 bench/reference.py

It starts an interpreter, imports numpy and does a fixed mix of the kinds of
work the CLI does: numpy array arithmetic, Python object churn and CSV-style
text formatting and parsing. It never imports eprblab, so no change under
src/ moves its time; only the machine does. On a shared machine whose speed
drifts, a pass's wall time over this task's wall time stays steadier than
either alone.
"""

import numpy as np


def main() -> None:
    rng = np.random.default_rng(12345)
    x = rng.uniform(0.0, 2.0 * np.pi, 600_000)
    fired = 0
    for threshold in (0.5, 0.75, 0.92):
        i_plus = 0.5 * (1.0 + np.cos(2.0 * x))
        fired += int(np.count_nonzero((i_plus >= threshold) | (1.0 - i_plus >= threshold)))
    rows = [(i * 37, i & 1, 1 - 2 * ((i >> 1) & 1)) for i in range(60_000)]
    text = "\n".join(f"{t},{s},{c}" for t, s, c in rows)
    parsed = [tuple(int(f) for f in line.split(",")) for line in text.splitlines()]
    if parsed != rows or fired == 0:
        raise SystemExit("reference task computed a wrong result")


if __name__ == "__main__":
    main()
