"""Time-tagged event-file pipeline.

Real two-station experiments record each side as a stream of (timestamp,
active setting, fired channel) rows and rebuild coincidences offline by
pairing records whose timestamps fall within a window. This module drives
the station model through that same path: generate per-side CSV streams
with exponential pair spacing, per-event setting choice (each pair measured
by optics.measure_pairs, the station kernel the scans count with) and
per-side latency jitter, persist them, and re-derive per-setting count
tables with a greedy nearest-neighbor window matcher. Only generate_events
runs the station kernel; reading, writing and matching streams need only
domain.

Each stream is an EventStream of three numpy columns validated once, as
arrays; no stage of the pipeline builds a per-record object.

File format: text CSV, header ``t_ns,setting,channel``, one record per
line, rows sorted by t_ns ascending. Files are written with LF line ends;
the reader also takes CRLF line ends and a missing final line end, and each
field must be -?digits within int64. The writer, the reader and the matcher
work one domain._blocks block of rows at a time. Timestamps are integer
nanoseconds, setting is the index (0 or 1) of the analyzer angle active for
that event, channel is +1 or -1. Misses and doubles produce no record (a
record carries exactly one fired channel), which keeps file-derived
coincidences aligned with the in-memory both-single rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .domain import MINUS_CODE, PLUS_CODE, CountTable, _blocks, _cells, check_angle

if TYPE_CHECKING:
    from .optics import SourceModel, StationConfig

EVENTS_CSV_HEADER = "t_ns,setting,channel"
_INT64_MAX = 2**63 - 1
#: Most expected pairs generate_events draws: at ~50 B a pair, about 0.8 GiB.
_MAX_EXPECTED_PAIRS = 2**24
#: Jitter widths generate_events allows past duration before 2**63 ns. numpy's
#: ziggurat draws no standard normal past 14 in magnitude.
_JITTER_SIGMAS = 40


class UnsortedEventsError(ValueError):
    """Event records were not sorted by timestamp."""


def _columns_equal(self, other) -> bool:
    """Field-wise equality for the dataclasses here that hold numpy arrays."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


def _check_records(t_ns, setting, channel, where: str, first_row: int, before=0) -> None:
    """Raise for the first invalid record, named as where + its row; before is the prior t_ns."""
    bad = (t_ns < 0) | ((setting != 0) & (setting != 1)) | ((channel != 1) & (channel != -1))
    bad[1:] |= t_ns[1:] < t_ns[:-1]
    bad[:1] |= t_ns[:1] < before
    if not bad.any():
        return
    k = int(np.argmax(bad))
    at = f"{where}{k + first_row}"
    if t_ns[k] < 0:
        raise ValueError(f"{at}: t_ns must be nonnegative, got {t_ns[k]}")
    if setting[k] not in (0, 1):
        raise ValueError(f"{at}: setting must be 0 or 1, got {setting[k]}")
    if channel[k] not in (1, -1):
        raise ValueError(f"{at}: channel must be +1 or -1, got {channel[k]}")
    raise UnsortedEventsError(f"{at}: t_ns {t_ns[k]} follows {np.r_[before, t_ns][k]}, not sorted")


_COLUMNS = {"t_ns": np.int64, "setting": np.int8, "channel": np.int8}


@dataclass(frozen=True, eq=False)
class EventStream:
    """One station's records as read-only columns sorted by t_ns: t_ns
    (int64 nanoseconds), setting (int8, 0 or 1), channel (int8, +1 or -1).

    Takes equal-length 1-D integer array-likes and validates them once, as
    arrays: a bad record raises ValueError (UnsortedEventsError if out of
    order) naming its row. A column that already has its dtype is kept, not
    copied, and made read-only.
    """

    t_ns: np.ndarray
    setting: np.ndarray
    channel: np.ndarray

    __eq__ = _columns_equal

    def __post_init__(self) -> None:
        cols = [np.asarray(getattr(self, name)) for name in _COLUMNS]
        integer_1d = all(c.ndim == 1 and (c.dtype.kind in "iu" or not c.size) for c in cols)
        if not (integer_1d and len({len(c) for c in cols}) == 1):
            raise ValueError("t_ns, setting and channel must be 1-D integer columns of one length")
        # Any other dtype is checked in int64, so no out-of-range value wraps into range.
        cols = [c if c.dtype == d else c.astype(np.int64) for c, d in zip(cols, _COLUMNS.values())]
        _check_records(*cols, "row ", 0)
        for (name, dtype), col in zip(_COLUMNS.items(), cols):
            col = col.astype(dtype, copy=False)
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.t_ns)


@dataclass(frozen=True)
class GeneratorConfig:
    """Source, stations, per-side setting menus, pair rate and time jitter.

    Each station's angle field is unused here; the active angle comes from
    that event's uniformly chosen setting index into settings_a/settings_b.
    jitter_sigma is the per-side detection latency scale in seconds; the
    latency itself is |Normal(0, jitter_sigma)| so it is never negative.
    """

    source: SourceModel
    station_a: StationConfig
    station_b: StationConfig
    settings_a: tuple[float, float]
    settings_b: tuple[float, float]
    mean_rate: float
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_rate) and self.mean_rate > 0.0):
            raise ValueError(f"mean_rate must be positive and finite, got {self.mean_rate!r}")
        if not (math.isfinite(self.jitter_sigma) and self.jitter_sigma >= 0.0):
            raise ValueError(f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma!r}")
        for name in ("settings_a", "settings_b"):
            if len(menu := getattr(self, name)) != 2:
                raise ValueError(f"{name} must hold exactly 2 angles, got {len(menu)}")
        for angle in (*self.settings_a, *self.settings_b):
            check_angle("settings angle", angle)


@dataclass(frozen=True, eq=False)
class GeneratedStreams:
    """Both record streams plus the ground-truth pairing.

    truth is an (n, 2) int64 array of (row in events_a, row in events_b)
    for every emitted pair that produced a single on both sides.
    """

    events_a: EventStream
    events_b: EventStream
    truth: np.ndarray
    n_pairs: int

    __eq__ = _columns_equal


def _emission_times(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    block = int(rate * duration * 1.25) + 64
    gaps = rng.exponential(1.0 / rate, block)
    with np.errstate(over="ignore"):  # a sum that overflows is past any duration
        while gaps.sum() <= duration:
            gaps = np.concatenate([gaps, rng.exponential(1.0 / rate, block)])
        times = np.cumsum(gaps)
    return times[times <= duration]


def _side_stream(times: np.ndarray, settings: np.ndarray, codes: np.ndarray, sigma: float,
                 rng: np.random.Generator) -> tuple[EventStream, np.ndarray]:
    # Each block of pairs draws its jitter as one whole draw would and stamps its
    # singles, the only records; rows sort by timestamp (stable, so equal stamps
    # keep emission order), and each pair maps to its row, or -1. The row maps
    # are int32: _MAX_EXPECTED_PAIRS keeps every pair index below 2**31.
    detected = np.flatnonzero((codes == PLUS_CODE) | (codes == MINUS_CODE)).astype(np.int32)
    t_ns = np.empty(len(detected), dtype=np.int64)
    for rows in _blocks(len(times)):
        edges = np.array((rows.start, rows.stop), dtype=np.int32)  # int64 keys would cast a copy
        at, m = slice(*np.searchsorted(detected, edges)), rows.stop - rows.start
        jitter = np.abs(rng.normal(0.0, sigma, m)) if sigma > 0.0 else np.zeros(m)
        with np.errstate(over="ignore"):
            t = np.rint((times[detected[at]] + jitter[detected[at] - rows.start]) * 1e9)
        if not (t < 2.0**63).all():
            raise ValueError("an event time is past 2**63 ns: duration or jitter_sigma too large")
        t_ns[at] = t
    order = np.argsort(t_ns, kind="stable")
    t_ns.sort(kind="stable")  # in place, t_ns[order] without a copy; fast on near-sorted runs
    pair_of_row = detected[order]
    del order, detected
    row_of_pair = np.full(len(codes), -1, dtype=np.int32)
    row_of_pair[pair_of_row] = np.arange(len(pair_of_row), dtype=np.int32)
    return EventStream(t_ns, settings[pair_of_row], codes[pair_of_row]), row_of_pair


def generate_events(cfg: GeneratorConfig, duration: float, seed: int) -> GeneratedStreams:
    """Simulate duration seconds of emissions and build both record streams.

    Pair emission times are exponentially spaced at mean_rate. Draw order on
    the single stream: emission gaps, A setting indices, B setting indices,
    pair polarizations, A detection draws, B detection draws, then (if
    jitter_sigma > 0) A and B latency jitter. More than _MAX_EXPECTED_PAIRS
    expected pairs, or a duration plus _JITTER_SIGMAS jitter widths that
    reaches 2**63 ns, are refused before any draw.
    """
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    if not (expected := cfg.mean_rate * duration) <= _MAX_EXPECTED_PAIRS:
        raise ValueError(f"rate * duration = {expected:g} expected pairs > {_MAX_EXPECTED_PAIRS}")
    if not (latest := duration + _JITTER_SIGMAS * cfg.jitter_sigma) * 1e9 < 2.0**63:
        raise ValueError(f"event times could pass 2**63 ns: duration + {_JITTER_SIGMAS} * "
                         f"jitter_sigma = {latest:g} s")
    from .optics import measure_pairs

    rng = np.random.default_rng(seed)
    times = _emission_times(cfg.mean_rate, duration, rng)
    n = len(times)
    set_a, set_b = index = np.empty((2, n), dtype=np.int8)
    for rows in _blocks(2 * n):  # as integers(0, 2, n) for A, then for B, draws them
        index.reshape(-1)[rows] = rng.integers(0, 2, rows.stop - rows.start)
    settings = ((cfg.settings_a, set_a), (cfg.settings_b, set_b))
    codes_a, codes_b = measure_pairs(cfg.source, cfg.station_a, cfg.station_b, n, rng, settings)
    events_a, rows_a = _side_stream(times, set_a, codes_a, cfg.jitter_sigma, rng)
    events_b, rows_b = _side_stream(times, set_b, codes_b, cfg.jitter_sigma, rng)
    del times, index, set_a, set_b, settings, codes_a, codes_b  # the truth needs only the row maps
    both = rows_a >= 0
    both &= rows_b >= 0
    truth = np.empty((int(np.count_nonzero(both)), 2), dtype=np.int64)
    truth[:, 0] = rows_a[both]
    truth[:, 1] = rows_b[both]
    return GeneratedStreams(events_a=events_a, events_b=events_b, truth=truth, n_pairs=n)


#: ASCII tens and units digits of 0..99.
_TENS = np.repeat(np.arange(48, 58, dtype=np.uint8), 10)
_UNITS = np.tile(np.arange(48, 58, dtype=np.uint8), 10)
#: Digits of the longest int64 magnitude, 2**63.
_MAX_DIGITS = 19


def _format_rows(columns) -> bytes:
    """One "%d,...,%d\n" row per index of equal-length integer columns.

    Each field gets fixed cells in a (width, rows) uint8 matrix: a sign cell
    if any value is negative, then its digits right-aligned, two per // 100
    step through the digit tables. A plus sign or a leading zero leaves its
    cell 0, and dropping every 0 byte of the row-major matrix leaves the text.
    """
    rows = len(columns[0])
    planes: list[tuple[int, object]] = []
    width = 0
    for j, col in enumerate(columns):
        values = col.astype(np.int64, copy=False)
        neg = values < 0
        mag = values.view(np.uint64)
        if neg.any():
            mag = np.where(neg, 0 - mag, mag)  # two's complement, so INT64_MIN too
            planes.append((width, neg * np.uint8(45)))
            width += 1
        digits = len(str(int(mag.max())))
        width += digits
        q = mag
        for i in range(0, digits, 2):  # i counts digits from the right
            q100 = q // 100
            r = q - q100 * 100
            planes.append((width - 1 - i, _UNITS[r] if i == 0 else _UNITS[r] * (q > 0)))
            if i + 1 < digits:
                planes.append((width - 2 - i, _TENS[r] * (q >= 10)))
            q = q100
        planes.append((width, np.uint8(10 if j == len(columns) - 1 else 44)))
        width += 1
    cells = np.empty((width, rows), dtype=np.uint8)
    for k, plane in planes:
        cells[k] = plane
    return cells.T.tobytes().translate(None, b"\0")


def _write_csv(path: Path | str, header: str, columns) -> None:
    """Write header, then one integer row per index of columns, in row blocks."""
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii"))
        for rows in _blocks(len(columns[0])):
            fh.write(_format_rows([col[rows] for col in columns]))


def write_events(path: Path | str, events: EventStream) -> None:
    _write_csv(path, EVENTS_CSV_HEADER, (events.t_ns, events.setting, events.channel))


def _parse_fields(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """Values of the fields buf[starts:stops] and whether each is -?digits in int64.

    A field holds 1 to 19 digits after an optional '-'. Digits are gathered
    right-aligned from each stop, one plane per digit place; every stop lies
    past the 20-byte header, so no gather reaches below byte 0.
    """
    neg = buf[starts] == 45
    lengths = stops - starts - neg
    ok = (lengths >= 1) & (lengths <= _MAX_DIGITS)
    lengths *= ok
    at = stops - _MAX_DIGITS  # buf[stops - 1 - k] is buf[_MAX_DIGITS - 1 - k:][at]
    always = lengths.min(initial=_MAX_DIGITS)  # digit places every field holds
    places = int(lengths.max(initial=0))
    mag = np.zeros(len(starts), dtype=np.uint64)
    worst = np.zeros(len(starts), dtype=np.uint8)  # largest byte - '0' seen
    for k in range(places):
        digit = buf[_MAX_DIGITS - 1 - k :][at] - 48
        if k >= always:
            digit *= lengths > k
        np.maximum(worst, digit, out=worst)
        mag += digit * np.uint64(10**k)
    ok &= worst < 10
    if places == _MAX_DIGITS:  # fewer digits always fit int64
        ok &= mag <= np.uint64(_INT64_MAX) + neg
    if neg.any():
        mag = np.where(neg, 0 - mag, mag)
    return mag.view(np.int64), ok


def read_events(path: Path | str, data: bytes | None = None) -> EventStream:
    """Parse one stream file; a bad record raises ValueError naming path:line,
    numbering lines from 1 at the header.

    data, when given, is the file's content, already read: it is parsed in
    place of reading path, which then only names the file in messages.

    Accepted: the header line, then rows of three -?digits fields in int64,
    with LF or CRLF line ends; the final line end may be missing. Lines are
    parsed into the columns one _blocks block at a time, each check one array
    pass over the block's bytes, separators or fields. A bad record anywhere
    is reported before a value out of range or out of order.
    """
    if data is None:
        data = Path(path).read_bytes()
    data = data if data.endswith(b"\n") else data + b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.max(initial=0) >= 0x80:
        k = int(np.argmax(buf >= 0x80))
        line_no = data.count(b"\n", 0, k) + 1
        raise ValueError(f"{path}:{line_no}: non-ASCII byte {data[k : k + 1]!r}")
    pos = data.index(b"\n")  # the LF before the next block of lines: the header's, first
    if data[:pos].removesuffix(b"\r") != EVENTS_CSV_HEADER.encode():
        raise ValueError(f"{path}: missing '{EVENTS_CSV_HEADER}' header")
    n = data.count(b"\n", pos + 1)
    columns = [np.empty(n, dtype) for dtype in _COLUMNS.values()]
    span = error = None
    for rows in _blocks(n):
        lo, m = rows.start, rows.stop - rows.start
        # Commas and LFs cut the lines into fields; seps[0] is pos. Line i is
        # good while seps[3i + 1 : 3i + 4] are ',' ',' LF, so the first line to
        # break that pattern is bad; any other byte (a CR before an LF ends its
        # line) is left in the fields, whose digit check finds it. The window is
        # the last block's bytes and a quarter, else 64 a line, the longest good.
        for size in ((span or (len(buf) - pos) * m // n) * 5 // 4, (3 * _MAX_DIGITS + 7) * m):
            window = buf[pos : pos + size + 1]
            if len(seps := np.flatnonzero((window == 44) | (window == 10)) + pos) > 3 * m:
                break
        k = min(m, (len(seps) - 1) // 3)
        wrong = (buf[seps[1 : 3 * k + 1]].reshape(-1, 3) != (44, 44, 10)).any(axis=1)
        first = int(np.argmax(wrong)) if wrong.any() else k
        cuts = seps[: 3 * first + 1]
        lf = cuts[3::3]
        bounds = ((cuts[:-1:3] + 1, cuts[1::3]), (cuts[1::3] + 1, cuts[2::3]),
                  (cuts[2::3] + 1, lf - (buf[lf - 1] == 13)))
        values, oks = zip(*(_parse_fields(buf, *field) for field in bounds))
        bad = ~(oks[0] & oks[1] & oks[2])
        first = int(np.argmax(bad)) if bad.any() else first
        if first < m:
            start = seps[3 * first] + 1
            line = data[start : data.index(b"\n", start)].removesuffix(b"\r").decode("ascii")
            raise ValueError(f"{path}:{lo + first + 2}: bad record {line!r}")
        for col, v in zip(columns, values):
            col[rows] = v
        try:  # in int64: a setting or channel out of range may wrap in its int8 column
            error = error or _check_records(*values, f"{path}:", lo + 2, columns[0][max(lo - 1, 0)])
        except ValueError as exc:
            error = exc
        span, pos = seps[3 * m] - pos, seps[3 * m]
    if error:
        raise error
    return EventStream(*columns)


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Matched pairs and the per-setting-pair count tables.

    pairs is an (n, 2) int64 array of (row in events_a, row in events_b).
    tables maps (setting_a, setting_b) to a CountTable whose cells count
    matched coincidences; singles_a/singles_b carry each side's total
    record count at that setting, and n_pairs stays 0 because the emission
    count is not observable from the files.
    """

    tables: dict[tuple[int, int], CountTable]
    pairs: np.ndarray

    __eq__ = _columns_equal

    @property
    def n_matched(self) -> int:
        return len(self.pairs)


def match_coincidences(events_a: EventStream, events_b: EventStream, window_ns: int) -> MatchResult:
    """Greedy nearest-neighbor matching within +/- window_ns, one linear pass.

    Walking both streams in time order, each A record takes the nearest
    available B record inside the window (earlier record on an exact
    distance tie); matched records are consumed, and records that fall
    behind the moving window are dropped. First-come greedy can hand a B
    record to an earlier A record when two emissions land within the window
    of each other, so recovery against a known pairing is exact only while
    the pair rate keeps emissions sparse at the window scale.

    The walk's only state is the next free B row, and an A record starts
    from it or from the first B row of its own window, whichever is later.
    An A record whose window holds exactly one B row that no neighbour's
    window reaches therefore takes that row; those are settled in bulk, and
    the walk visits only the other A records that have a candidate, with the
    B stamps of their windows. A records are taken one _blocks block at a
    time, with one more row on either side for the neighbour test, and each
    block's pairs are written and tallied as it is settled.
    """
    if window_ns < 0:
        raise ValueError(f"window_ns must be >= 0, got {window_ns!r}")
    # No two int64 timestamps are further apart than this, so a wider window
    # matches exactly the same records, as does t_a + w cut at int64's end.
    w = min(int(window_ns), _INT64_MAX)
    t_a, t_b = events_a.t_ns, events_b.t_ns
    pairs = np.empty((min(len(t_a), len(t_b)), 2), dtype=np.int64)  # each row matches once
    cells = np.zeros(64, dtype=np.int64)
    filled = j = 0
    for rows in _blocks(len(t_a)):
        near = slice(max(rows.start - 1, 0), min(rows.stop + 1, len(t_a)))
        lo = np.searchsorted(t_b, t_a[near] - w, "left")  # first B row with t_b >= t_a - w
        hi = np.searchsorted(t_b, np.minimum(t_a[near], _INT64_MAX - w) + w, "right")  # > t_a + w
        apart = hi[:-1] <= lo[1:]  # no B row lies in both of two neighbours' windows
        alone = hi - lo == 1
        alone[1:] &= apart
        alone[:-1] &= apart
        inner = slice(rows.start - near.start, rows.stop - near.start)
        lo, hi, alone = lo[inner], hi[inner], alone[inner]
        match_b = np.where(alone, lo, -1)

        walk = np.flatnonzero((hi > lo) & ~alone)
        lo_s, hi_s = lo[walk], hi[walk]
        # The stamps of these records' windows, by B row: windows only move
        # forward, so each adds the rows past the one before it.
        starts = np.maximum(lo_s, np.r_[0, hi_s[:-1]])
        lens = hi_s - starts
        union = np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)
        stamps = dict(zip(union.tolist(), t_b[union].tolist()))
        for i, t, lo_i, hi_i in zip(walk.tolist(), t_a[rows][walk].tolist(), lo_s.tolist(),
                                    hi_s.tolist()):
            j = max(j, lo_i)
            if j < hi_i:
                while j + 1 < hi_i and abs(stamps[j + 1] - t) < abs(stamps[j] - t):
                    j += 1
                match_b[i] = j
                j += 1

        got = np.flatnonzero(match_b >= 0)
        rows_b = match_b[got]
        pairs[filled : filled + len(got), 0] = got + rows.start
        pairs[filled : filled + len(got), 1] = rows_b
        filled += len(got)
        # Channels are outcome codes: domain's 16 cells at 16 * (2 * setting_a + setting_b).
        cell = _cells(events_a.channel[rows][got], events_b.channel[rows_b])
        cell += 16 * (2 * events_a.setting[rows][got] + events_b.setting[rows_b])
        cells += np.bincount(cell, minlength=64)
    pairs.resize((filled, 2), refcheck=False)  # pairs is the one reference: this shrinks in place

    cells = cells.reshape(4, 16)
    singles_a, singles_b = ([len(e) - (k := int(np.count_nonzero(e.setting))), k]
                            for e in (events_a, events_b))  # a bincount would copy to intp
    tables = {
        (sa, sb): replace(CountTable.from_cells(cells[2 * sa + sb]), singles_a=singles_a[sa],
                          singles_b=singles_b[sb], n_pairs=0)
        for sa in (0, 1)
        for sb in (0, 1)
    }
    return MatchResult(tables=tables, pairs=pairs)
