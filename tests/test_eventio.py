import math
import re
import tempfile
import tracemalloc
from dataclasses import replace
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprblab import domain, eventio
from eprblab import (
    CountTable,
    EventStream,
    GeneratorConfig,
    IsotropicSource,
    STANDARD_CHSH_ANGLES,
    StationConfig,
    UnsortedEventsError,
    chsh_report_from_tables,
    default_chsh_configs,
    generate_events,
    match_coincidences,
    read_events,
    run_chsh,
    write_events,
)
from eprblab.cli import main

A0, A1, B0, B1 = STANDARD_CHSH_ANGLES
HEADER = "t_ns,setting,channel\n"
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _config(t_a=0.5, t_b=0.75, rate=1_000.0, jitter=0.0):
    return GeneratorConfig(
        source=IsotropicSource(),
        station_a=StationConfig(angle=0.0, threshold=t_a),
        station_b=StationConfig(angle=0.0, threshold=t_b),
        settings_a=(A0, A1),
        settings_b=(B0, B1),
        mean_rate=rate,
        jitter_sigma=jitter,
    )


def _stream(t_ns, setting=None, channel=None):
    n = len(t_ns)
    return EventStream(
        t_ns=t_ns,
        setting=[0] * n if setting is None else setting,
        channel=[1] * n if channel is None else channel,
    )


def _pair_set(pairs) -> set[tuple[int, int]]:
    return set(map(tuple, np.asarray(pairs).tolist()))


def test_record_validation():
    with pytest.raises(ValueError, match="t_ns must be nonnegative"):
        _stream([-1])
    with pytest.raises(ValueError, match="setting must be 0 or 1"):
        _stream([0], setting=[2])
    with pytest.raises(ValueError, match="channel must be"):
        _stream([0], channel=[0])
    # The failing row is named, and later valid rows do not hide it.
    with pytest.raises(ValueError, match="row 1: setting"):
        _stream([0, 1, 2], setting=[0, -1, 0])


def test_stream_column_contract():
    s = _stream([5, 5, 9], setting=[1, 0, 1], channel=[-1, 1, 1])
    assert len(s) == 3
    assert (s.t_ns.dtype, s.setting.dtype, s.channel.dtype) == (np.int64, np.int8, np.int8)
    with pytest.raises(ValueError):
        s.t_ns[0] = 1  # columns are read-only
    assert s == _stream(np.array([5, 5, 9]), setting=[1, 0, 1], channel=[-1, 1, 1])
    assert s != _stream([5, 5, 9], setting=[1, 0, 1], channel=[-1, 1, -1])
    assert s != (s.t_ns, s.setting, s.channel)  # not a stream, so never equal
    assert len(_stream([])) == 0
    t_ns = np.array([5, 9])  # already int64: kept, not copied, and made read-only
    assert _stream(t_ns).t_ns is t_ns and not t_ns.flags.writeable
    with pytest.raises(ValueError, match="of one length"):
        EventStream(t_ns=[1, 2], setting=[0], channel=[1, 1])
    with pytest.raises(ValueError, match="integer columns"):
        _stream([1.5])
    with pytest.raises(ValueError, match="integer columns"):
        EventStream(t_ns=5, setting=0, channel=1)
    # Out-of-range values are rejected before the narrowing cast, not wrapped.
    with pytest.raises(ValueError, match="setting"):
        _stream([0], setting=[256])
    with pytest.raises(ValueError, match="t_ns"):
        _stream(np.array([2**63], dtype=np.uint64))


def test_generator_config_validation():
    with pytest.raises(ValueError):
        _config(rate=0.0)
    with pytest.raises(ValueError):
        _config(jitter=-1e-9)
    # A menu of any length but two is refused by name, before any draw.
    for name, menu in (("settings_a", (A0,)), ("settings_b", (B0, B1, 0.3))):
        with pytest.raises(ValueError, match=f"^{name} must hold exactly 2 angles, got "):
            replace(_config(), **{name: menu})


@pytest.mark.parametrize("field", ["rate", "jitter"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_generator_config_rejects_non_finite(field, value):
    name = {"rate": "mean_rate", "jitter": "jitter_sigma"}[field]
    with pytest.raises(ValueError, match=name):
        _config(**{field: value})


def test_generator_config_rejects_non_finite_settings():
    with pytest.raises(ValueError, match="settings"):
        GeneratorConfig(
            source=IsotropicSource(),
            station_a=StationConfig(angle=0.0, threshold=0.5),
            station_b=StationConfig(angle=0.0, threshold=0.5),
            settings_a=(math.nan, A1),
            settings_b=(B0, B1),
            mean_rate=1_000.0,
        )


@pytest.mark.parametrize(
    "settings_a, settings_b", [((A0, A1), (B0, -1e308)), ((2.0**44, A1), (B0, B1))]
)
def test_generator_config_rejects_settings_past_two_to_the_43(settings_a, settings_b):
    with pytest.raises(ValueError, match="settings angle .* exceeds 2\\*\\*43"):
        GeneratorConfig(
            source=IsotropicSource(),
            station_a=StationConfig(angle=0.0, threshold=0.5),
            station_b=StationConfig(angle=0.0, threshold=0.5),
            settings_a=settings_a,
            settings_b=settings_b,
            mean_rate=1_000.0,
        )


@pytest.mark.parametrize("duration", [math.nan, math.inf, 0.0, -1.0])
def test_generate_events_rejects_bad_duration(duration):
    with pytest.raises(ValueError, match="duration"):
        generate_events(_config(), duration=duration, seed=1)


@pytest.mark.parametrize("rate, duration", [(1e9, 1e9), (1e200, 1e200)], ids=["1e18", "inf"])
def test_generate_events_refuses_too_many_expected_pairs(rate, duration):
    # Refused before any draw; a guard that let these through would fail
    # at allocation instead.
    with pytest.raises(ValueError, match="expected pairs > 16777216"):
        generate_events(_config(rate=rate), duration=duration, seed=1)


@pytest.mark.parametrize("rate", [2.2250738585072014e-308, 5e-324])
def test_tiny_rate_gives_an_empty_run_without_overflow_warnings(rate):
    # Gaps near 1e308 s overflow their running sum to inf, which is past the
    # duration; RuntimeWarning is an error here, so a warning fails the test.
    assert generate_events(_config(rate=rate), duration=0.0625, seed=1).n_pairs == 0


def test_event_times_past_int64_ns_are_refused(monkeypatch):
    with pytest.raises(ValueError, match=r"could pass 2\*\*63 ns: duration \+ 40 \* jitter_sigma"):
        generate_events(_config(jitter=1e308), duration=0.01, seed=1)
    # The check of every rounded time stays as a backstop behind the bound.
    monkeypatch.setattr(eventio, "_JITTER_SIGMAS", 0)
    with pytest.raises(ValueError, match="an event time is past 2\\*\\*63 ns"):
        generate_events(_config(jitter=1e10), duration=0.01, seed=1)


@pytest.mark.parametrize("duration, jitter", [(1e10, 0.0), (0.01, 1e10), (9.2e9, 1e6)])
def test_event_times_past_int64_ns_are_refused_before_any_draw(monkeypatch, duration, jitter):
    def no_draws(*args):
        raise AssertionError("drew emission times")

    monkeypatch.setattr(eventio, "_emission_times", no_draws)
    with pytest.raises(ValueError, match="could pass 2\\*\\*63 ns"):
        generate_events(_config(rate=1e-9, jitter=jitter), duration=duration, seed=1)


def test_emission_times_extend_a_short_first_block():
    # The first block of gaps ends before the duration, so _emission_times
    # draws another; the times are the running sum of every gap drawn.
    class ShortFirstBlock:
        def __init__(self):
            self.rng, self.blocks = np.random.default_rng(3), []

        def exponential(self, scale, size):
            gaps = self.rng.exponential(scale, size) * (0.01 if not self.blocks else 1.0)
            self.blocks.append(gaps)
            return gaps

    gen = ShortFirstBlock()
    times = eventio._emission_times(1_000.0, 0.1, gen)
    assert len(gen.blocks) == 2 and gen.blocks[0].sum() <= 0.1
    want = np.cumsum(np.concatenate(gen.blocks))
    assert np.array_equal(times, want[want <= 0.1])


def test_expected_pairs_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(eventio, "_MAX_EXPECTED_PAIRS", 100)
    assert generate_events(_config(), duration=0.1, seed=1).n_pairs > 0
    with pytest.raises(ValueError, match="= 100.1 expected pairs > 100"):
        generate_events(_config(), duration=0.1001, seed=1)


def test_generation_counts_track_detection_probabilities():
    streams = generate_events(_config(rate=10_000.0), duration=1.0, seed=4)
    n = streams.n_pairs
    assert n == pytest.approx(10_000, abs=4 * math.sqrt(10_000))
    # A at threshold 0.5 records every pair; B records ~2/3 of them.
    assert len(streams.events_a) == n
    assert len(streams.events_b) == pytest.approx(n * 2 / 3, abs=4 * math.sqrt(n * 2 / 9))
    assert len(streams.truth) == len(streams.events_b)  # misses only on B's side


def test_zero_jitter_gives_equal_timestamps():
    streams = generate_events(_config(), duration=1.0, seed=5)
    assert len(streams.truth) > 0
    ia, ib = streams.truth.T
    assert np.array_equal(streams.events_a.t_ns[ia], streams.events_b.t_ns[ib])


def test_streams_are_sorted():
    streams = generate_events(_config(rate=20_000.0, jitter=50e-9), duration=0.5, seed=6)
    for events in (streams.events_a, streams.events_b):
        ts = events.t_ns.tolist()
        assert ts == sorted(ts)


def test_truth_rows_are_unique_and_in_range():
    streams = generate_events(_config(rate=20_000.0, jitter=50e-9), duration=0.5, seed=6)
    assert streams.truth.dtype == np.int64 and streams.truth.shape[1] == 2
    for col, events in zip(streams.truth.T, (streams.events_a, streams.events_b)):
        assert len(np.unique(col)) == len(col)
        assert col.min() >= 0 and col.max() < len(events)


def test_generation_is_deterministic():
    s1 = generate_events(_config(jitter=10e-9), duration=0.5, seed=7)
    s2 = generate_events(_config(jitter=10e-9), duration=0.5, seed=7)
    assert s1 == s2
    assert s1 != generate_events(_config(jitter=10e-9), duration=0.5, seed=8)


def test_file_round_trip_is_byte_identical(tmp_path):
    streams = generate_events(_config(jitter=10e-9), duration=0.2, seed=8)
    p1 = tmp_path / "a.csv"
    write_events(p1, streams.events_a)
    first = p1.read_bytes()
    assert b"\r" not in first and first.startswith(HEADER.encode())
    records = read_events(p1)
    assert records == streams.events_a
    p2 = tmp_path / "a2.csv"
    write_events(p2, records)
    assert p2.read_bytes() == first


def test_read_events_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nope\n")
    with pytest.raises(ValueError):
        read_events(p)
    p.write_text(HEADER + "1,0,x\n")
    with pytest.raises(ValueError):
        read_events(p)


# --- parser contract ------------------------------------------------------------

def test_header_only_and_empty_streams(tmp_path):
    p = tmp_path / "empty.csv"
    write_events(p, _stream([]))
    assert p.read_bytes() == HEADER.encode()
    assert len(read_events(p)) == 0
    p.write_text(HEADER.rstrip("\n"))  # no final newline
    assert read_events(p) == _stream([])


def test_given_bytes_are_parsed_in_place_of_the_file(tmp_path):
    p = tmp_path / "gone.csv"  # never written: the path only names the bytes
    data = (HEADER + "5,0,1\n7,1,-1\n").encode()
    assert read_events(p, data) == _stream([5, 7], setting=[0, 1], channel=[1, -1])
    with pytest.raises(ValueError, match=f"{re.escape(str(p))}:3: bad record"):
        read_events(p, (HEADER + "5,0,1\n7,2\n").encode())


def test_crlf_files_are_accepted(tmp_path):
    p = tmp_path / "crlf.csv"
    p.write_bytes(b"t_ns,setting,channel\r\n5,0,1\r\n7,1,-1\r\n")
    assert read_events(p) == _stream([5, 7], setting=[0, 1], channel=[1, -1])


def test_last_line_without_newline_is_read(tmp_path):
    p = tmp_path / "tail.csv"
    expected = _stream([5, 7], setting=[0, 1], channel=[1, -1])
    for tail in ("", "\r"):  # no line end, or a CRLF cut after its CR
        p.write_text(HEADER + "5,0,1\n7,1,-1" + tail, newline="")
        assert read_events(p) == expected


@pytest.mark.parametrize(
    "body, line, error",
    [
        ("1,0,1\n\n2,0,1\n", 3, ValueError),  # blank line
        ("1,0,1\n\n", 3, ValueError),  # trailing blank line
        ("\n", 2, ValueError),
        ("1,0,1\n2,0\n", 3, ValueError),  # missing field
        ("1,0\n2,0\n", 2, ValueError),  # every line short
        ("1,0,1,4\n", 2, ValueError),  # extra field
        ("1,0,x\n", 2, ValueError),  # non-integer field
        ("1,0,1\n2.5,0,1\n", 3, ValueError),
        ("99999999999999999999,0,1\n", 2, ValueError),  # beyond int64
        ("1,0,1\n2,2,1\n", 3, ValueError),  # setting 2
        ("1,0,1\n2,1,0\n", 3, ValueError),  # channel 0
        ("-1,0,1\n", 2, ValueError),  # negative t_ns
        ("5,0,1\n3,0,1\n", 3, UnsortedEventsError),
        ("1,0,1\n2,0,\u00e9\n", 3, ValueError),  # non-ASCII byte
    ],
)
def test_bad_records_name_path_and_line(tmp_path, body, line, error):
    p = tmp_path / "bad.csv"
    p.write_text(HEADER + body, encoding="utf-8")
    with pytest.raises(error, match=re.escape(f"{p}:{line}:")):
        read_events(p)


@pytest.mark.parametrize(
    "body, line, text",
    [
        ("9223372036854775808,0,1\n", 2, "9223372036854775808,0,1"),  # INT64_MAX + 1
        ("-9223372036854775809,0,1\n", 2, "-9223372036854775809,0,1"),
        ("00000000000000000001,0,1\n", 2, "00000000000000000001,0,1"),  # 20 digits
        ("5,0,1\r7,1,-1\n", 2, "5,0,1\r7,1,-1"),  # lone CR line end
        ("5, 0,1\n", 2, "5, 0,1"),  # space before a field
        ("5,0 ,1\n", 2, "5,0 ,1"),  # space after a field
        ("+5,0,1\n", 2, "+5,0,1"),
        ("5,0,1\v7,1,-1\n", 2, "5,0,1\v7,1,-1"),
        ("5,0,1\f7,1,-1\n", 2, "5,0,1\f7,1,-1"),
        ("5,-,1\n", 2, "5,-,1"),
        ("5,0,--1\n", 2, "5,0,--1"),
        ("5,0,1-\n", 2, "5,0,1-"),
        ("5,0,1\r\r\n", 2, "5,0,1\r"),
        ("5,0,1\n6,0,1,\n7,0,x\n", 3, "6,0,1,"),  # the first bad line is named
        ("5,0,1\n6,0,x\n7,0\n", 3, "6,0,x"),
    ],
)
def test_refused_records_are_bad_records(tmp_path, body, line, text):
    p = tmp_path / "bad.csv"
    p.write_bytes((HEADER + body).encode("ascii"))
    with pytest.raises(ValueError, match=re.escape(f"{p}:{line}: bad record {text!r}")):
        read_events(p)


# --- the codec against the %-format writer and loadtxt reader it replaced -------

def reference_write_events(path, events):
    """The writer the chunked codec replaced, kept verbatim as its reference."""
    columns = np.column_stack((events.t_ns, events.setting, events.channel))
    body = ("%d,%d,%d\n" * len(events)) % tuple(columns.ravel().tolist())
    Path(path).write_text(f"{eventio.EVENTS_CSV_HEADER}\n{body}", encoding="ascii")


def reference_read_events(path):
    """The reader the vectorized parser replaced, kept verbatim as its reference."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # Count lines as str.splitlines does, through the failing line.
        line_no = len((data[: exc.start] + b"x").decode("ascii").splitlines())
        byte = data[exc.start : exc.start + 1]
        raise ValueError(f"{path}:{line_no}: non-ASCII byte {byte!r}") from None
    header, *lines = text.splitlines() or [""]
    if header != eventio.EVENTS_CSV_HEADER:
        raise ValueError(f"{path}: missing '{eventio.EVENTS_CSV_HEADER}' header")
    if not lines:
        return EventStream([], [], [])
    try:
        if "" in lines:  # loadtxt would skip it silently
            raise ValueError("blank line")
        rows = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
        if rows.shape != (len(lines), 3):
            raise ValueError("not three fields per line")
    except ValueError as exc:
        # Only a bad file pays for this scan, which names its first bad line.
        for line_no, line in enumerate(lines, start=2):
            try:
                if len([np.int64(f) for f in line.split(",")]) == 3:
                    continue
            except (ValueError, OverflowError):
                pass
            raise ValueError(f"{path}:{line_no}: bad record {line!r}") from None
        raise ValueError(f"{path}: {exc}") from None
    try:
        return EventStream(*rows.T)
    except ValueError:
        eventio._check_records(*rows.T, f"{path}:", 2)
        raise


#: 0, +-1, every power of ten with its neighbours, and the int64 ends.
EDGE_INTS = sorted(
    {0, 1, -1, INT64_MAX, INT64_MIN}
    | {s * (10**k + d) for k in range(19) for d in (-1, 0, 1) for s in (1, -1)}
)
int64s = st.one_of(st.sampled_from(EDGE_INTS), st.integers(INT64_MIN, INT64_MAX))


def reference_csv(header: str, columns) -> bytes:
    rows = ",".join(["%d"] * len(columns)) + "\n"
    values = [int(v) for row in zip(*columns) for v in row]
    return (f"{header}\n" + rows * len(columns[0]) % tuple(values)).encode("ascii")


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.integers(0, 40).flatmap(
            lambda n: st.lists(st.lists(int64s, min_size=n, max_size=n), min_size=k, max_size=k)
        )
    ),
    st.sampled_from([1, 2, 3, 7, domain._BLOCK_ROWS]),
)
@example([[]], domain._BLOCK_ROWS)  # an empty column
@example([EDGE_INTS, EDGE_INTS[::-1]], 5)
def test_writer_equals_percent_format(tmp_path_factory, columns, chunk):
    path = tmp_path_factory.getbasetemp() / "writer.csv"
    arrays = [np.array(col, dtype=np.int64) for col in columns]
    with mock.patch.object(domain, "_BLOCK_ROWS", chunk):
        eventio._write_csv(path, "h", arrays)
    assert path.read_bytes() == reference_csv("h", columns)


@pytest.mark.parametrize("offset", [-1, 0, 1, domain._BLOCK_ROWS + 1])
def test_writer_at_the_chunk_edge(tmp_path, offset):
    n = domain._BLOCK_ROWS + offset
    rng = np.random.default_rng(offset + 2)
    columns = [
        rng.integers(INT64_MIN, INT64_MAX, n, dtype=np.int64, endpoint=True),
        rng.integers(-3, 4, n).astype(np.int8),
        np.sort(rng.integers(0, 10**12, n)),
    ]
    eventio._write_csv(tmp_path / "edge.csv", "h", columns)
    assert (tmp_path / "edge.csv").read_bytes() == reference_csv("h", columns)


@st.composite
def valid_streams(draw):
    n = draw(st.integers(0, 30))
    t_ns = sorted(draw(st.lists(st.one_of(st.sampled_from([0, 1, INT64_MAX]),
                                          st.integers(0, INT64_MAX)), min_size=n, max_size=n)))
    return EventStream(
        t_ns=np.array(t_ns, dtype=np.int64),
        setting=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        channel=draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
    )


@settings(max_examples=200, deadline=None)
@given(valid_streams(), st.sampled_from([1, 2, 3, domain._BLOCK_ROWS]))
@example(_stream([INT64_MAX]), domain._BLOCK_ROWS)
def test_round_trip_and_reference_bytes(tmp_path_factory, events, chunk):
    path = tmp_path_factory.getbasetemp() / "round.csv"
    ref = tmp_path_factory.getbasetemp() / "round_ref.csv"
    with mock.patch.object(domain, "_BLOCK_ROWS", chunk):
        write_events(path, events)
    reference_write_events(ref, events)
    assert path.read_bytes() == ref.read_bytes()
    assert read_events(path) == events
    assert reference_read_events(path) == events


def accepted_lines(body: str):
    """The parser's accept set, as a regex: the first line it refuses, or None."""
    if body and not body.endswith("\n"):
        body += "\n"
    for line_no, line in enumerate(body.split("\n")[:-1], start=2):
        line = line.removesuffix("\r")
        fields = line.split(",")
        if not (len(fields) == 3 and all(re.fullmatch(r"-?[0-9]{1,19}", f) for f in fields)
                and all(INT64_MIN <= int(f) <= INT64_MAX for f in fields)):
            return line_no, line
    return None


field_texts = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["9223372036854775807", "9223372036854775808", "-9223372036854775808",
                     "", "-", "+1", " 1", "1 ", "0x1", "1.0", "--1", "\r1", "1\v", "007"]),
)
line_texts = st.lists(field_texts, min_size=1, max_size=4).map(",".join)
bodies = st.tuples(
    st.lists(st.tuples(line_texts, st.sampled_from(["\n", "\n", "\r\n", "\r"])), max_size=6),
    st.booleans(),
).map(lambda x: "".join(a + b for a, b in x[0]).removesuffix("\n" if x[1] else "\0"))


@settings(max_examples=400, deadline=None)
@given(bodies)
@example("5,0,1\n3,0,1")
@example("1,0,1\r\n2,1,-1")
# At 2-row blocks: a CRLF line ending block 1 and no final LF in block 2; a row
# out of order across a block edge; setting 300 in block 1 and a bad record in
# block 3, which is reported; 257, which would wrap to a good 1 in int8; block
# 2's lines four times block 1's; and a line past the longest good one.
@example("1,0,1\r\n2,1,-1\r\n3,0,1")
@example("1,0,1\n5,0,1\n3,0,1\n")
@example("1,300,1\n2,0,1\n3,0,1\n4,0,1\n5,0,x\n")
@example("1,0,1\n2,0,1\n3,257,1\n")
@example("1,0,1\n2,0,1\n999999999999999998,0,-1\n999999999999999999,1,-1\n")
@example("1,0,1\n" + "1" * 80 + ",0,1\n2,0,1\n")
def test_parser_accept_set(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "accept.csv"
    path.write_bytes((HEADER + body).encode("ascii"))
    refused = accepted_lines(body)
    expected = error = None
    if refused is None:
        # What the parser accepts, the reference accepted too, with the same
        # stream or the same semantic error.
        try:
            expected = reference_read_events(path)
        except ValueError as exc:
            error = exc
    for block_rows in (domain._BLOCK_ROWS, 2):  # the second puts block edges inside the body
        with mock.patch.object(domain, "_BLOCK_ROWS", block_rows):
            if refused is not None:
                line_no, line = refused
                text = f"{path}:{line_no}: bad record {line!r}"
                with pytest.raises(ValueError, match=re.escape(text)):
                    read_events(path)
            elif error is not None:
                with pytest.raises(type(error), match=re.escape(str(error))):
                    read_events(path)
            else:
                assert read_events(path) == expected


# --- memory: each stage holds its columns plus one block ------------------------

BLOCK_ROWS = domain._BLOCK_ROWS


def _peak(run):
    """run()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_events_memory_per_pair():
    # Per pair: its emission time, two setting indices, two codes, two row maps
    # and the records built from them, ~69 B a pair at these thresholds.
    streams, peak = _peak(lambda: generate_events(_config(rate=1e6, jitter=10e-9), 0.25, 3))
    assert streams.n_pairs >= 15 * BLOCK_ROWS
    assert peak <= 80 * streams.n_pairs, peak / streams.n_pairs


def test_read_events_holds_its_file_its_columns_and_one_block(tmp_path):
    n = 16 * BLOCK_ROWS
    rng = np.random.default_rng(5)
    events = EventStream(np.sort(rng.integers(0, 10**15, n)), rng.integers(0, 2, n),
                         rng.choice([-1, 1], n))
    path = tmp_path / "long.csv"
    write_events(path, events)
    read, peak = _peak(lambda: read_events(path))
    assert read == events
    # The file's bytes, 10 B a record of columns and one block's temporaries,
    # ~160 B a block row.
    assert peak <= path.stat().st_size + 10 * n + 200 * BLOCK_ROWS


def test_matcher_memory_does_not_grow_with_the_b_stream():
    # A sparse A stream over a long B stream: each A window holds three B
    # records, so every A record is walked, with the B stream between them.
    n_a, n_b = 2**10, 2**21
    t_b = np.arange(n_b) * 10
    a = _stream(t_b[:: n_b // n_a] + 3)
    b = _stream(t_b)
    result, peak = _peak(lambda: match_coincidences(a, b, 15))
    assert result.pairs.tolist() == [[i, i * (n_b // n_a)] for i in range(n_a)]
    assert peak < n_b  # under a byte per B record: nothing spans the B stream
    assert result.tables[0, 0].singles_b == n_b


# --- matching -----------------------------------------------------------------

def test_match_rejects_unsorted(tmp_path):
    with pytest.raises(UnsortedEventsError, match="row 1"):
        _stream([10, 5])
    # An unsorted file never reaches the matcher either.
    p = tmp_path / "unsorted.csv"
    p.write_text(HEADER + "10,0,1\n5,0,1\n")
    with pytest.raises(UnsortedEventsError):
        read_events(p)
    with pytest.raises(ValueError, match="window_ns"):
        match_coincidences(_stream([1]), _stream([1]), -1)


def test_match_zero_window_zero_jitter_recovers_truth():
    streams = generate_events(_config(), duration=1.0, seed=9)
    result = match_coincidences(streams.events_a, streams.events_b, 0)
    assert _pair_set(result.pairs) == _pair_set(streams.truth)


def test_match_recovers_truth_at_operating_point():
    cfg = _config(rate=1_000.0, jitter=10e-9)
    streams = generate_events(cfg, duration=1.0, seed=10)
    result = match_coincidences(streams.events_a, streams.events_b, 100)
    assert _pair_set(result.pairs) == _pair_set(streams.truth)


def test_match_tables_have_sane_margins():
    streams = generate_events(_config(), duration=1.0, seed=11)
    result = match_coincidences(streams.events_a, streams.events_b, 100)
    assert sum(t.coincidences for t in result.tables.values()) == result.n_matched
    for s in (0, 1):
        expected_a = sum(1 for v in streams.events_a.setting.tolist() if v == s)
        assert result.tables[(s, 0)].singles_a == expected_a
        assert result.tables[(s, 1)].singles_a == expected_a


def test_match_is_symmetric_under_role_swap():
    streams = generate_events(_config(jitter=10e-9), duration=1.0, seed=12)
    fwd = match_coincidences(streams.events_a, streams.events_b, 100)
    rev = match_coincidences(streams.events_b, streams.events_a, 100)
    assert sorted((b, a) for a, b in rev.pairs.tolist()) == sorted(map(tuple, fwd.pairs.tolist()))
    for (sa, sb), t in fwd.tables.items():
        r = rev.tables[(sb, sa)]
        assert (r.n_pp, r.n_pm, r.n_mp, r.n_mm) == (t.n_pp, t.n_mp, t.n_pm, t.n_mm)
        assert (r.singles_a, r.singles_b) == (t.singles_b, t.singles_a)


def test_accidental_fraction_grows_with_window():
    cfg = _config(rate=20_000.0, jitter=10e-9)
    streams = generate_events(cfg, duration=0.5, seed=13)
    truth = _pair_set(streams.truth)
    fractions = []
    for window in (100, 1_000, 10_000, 100_000, 1_000_000):
        result = match_coincidences(streams.events_a, streams.events_b, window)
        accidental = len(_pair_set(result.pairs) - truth)
        fractions.append(accidental / max(1, result.n_matched))
    assert fractions == sorted(fractions)
    assert fractions[0] < 0.01 < fractions[-1]


def match_files(path_a, path_b, window_ns):
    return match_coincidences(read_events(path_a), read_events(path_b), window_ns)


def test_match_files_equals_match_coincidences(tmp_path):
    cfg = _config(jitter=10e-9)
    streams = generate_events(cfg, 0.5, 14)
    write_events(tmp_path / "a.csv", streams.events_a)
    write_events(tmp_path / "b.csv", streams.events_b)
    from_files = match_files(tmp_path / "a.csv", tmp_path / "b.csv", 100)
    in_memory = match_coincidences(streams.events_a, streams.events_b, 100)
    assert from_files == in_memory


def test_pipeline_chsh_matches_in_memory():
    cfg = _config(t_a=0.5, t_b=0.75, rate=10_000.0, jitter=10e-9)
    streams = generate_events(cfg, duration=1.0, seed=15)
    result = match_coincidences(streams.events_a, streams.events_b, 100)
    piped = chsh_report_from_tables(result.tables, (A0, A1), (B0, B1))

    pair_a, pair_b = default_chsh_configs(t_a=0.5, t_b=0.75)
    direct = run_chsh(IsotropicSource(), pair_a, pair_b, 100_000, seed=16)
    tol = 3.0 * math.sqrt(piped.se_s**2 + direct.se_s**2)
    assert abs(piped.s - direct.s) < tol


# --- the matcher against the record-by-record reference --------------------------

def reference_match(events_a: EventStream, events_b: EventStream, window_ns: int):
    """The greedy record-by-record matcher and dict tabulation the columnar
    match_coincidences replaced, kept verbatim as its reference."""
    recs_a = list(zip(events_a.t_ns.tolist(), events_a.setting.tolist(), events_a.channel.tolist()))
    recs_b = list(zip(events_b.t_ns.tolist(), events_b.setting.tolist(), events_b.channel.tolist()))
    t_a = [r[0] for r in recs_a]
    t_b = [r[0] for r in recs_b]
    matches: list[tuple[int, int]] = []
    i = j = 0
    while i < len(t_a) and j < len(t_b):
        dt = int(t_b[j]) - int(t_a[i])
        if dt < -window_ns:
            j += 1
            continue
        if dt > window_ns:
            i += 1
            continue
        while j + 1 < len(t_b) and abs(int(t_b[j + 1]) - int(t_a[i])) < abs(
            int(t_b[j]) - int(t_a[i])
        ):
            j += 1
        matches.append((i, j))
        i += 1
        j += 1

    singles_a = {s: sum(1 for r in recs_a if r[1] == s) for s in (0, 1)}
    singles_b = {s: sum(1 for r in recs_b if r[1] == s) for s in (0, 1)}
    cells = {
        (sa, sb): {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
        for sa in (0, 1)
        for sb in (0, 1)
    }
    for ia, ib in matches:
        ra, rb = recs_a[ia], recs_b[ib]
        cells[(ra[1], rb[1])][(ra[2], rb[2])] += 1
    tables = {
        (sa, sb): CountTable(
            n_pp=c[(1, 1)],
            n_pm=c[(1, -1)],
            n_mp=c[(-1, 1)],
            n_mm=c[(-1, -1)],
            singles_a=singles_a[sa],
            singles_b=singles_b[sb],
        )
        for (sa, sb), c in cells.items()
    }
    return matches, tables


@st.composite
def event_streams(draw, base, spread):
    n = draw(st.integers(0, 30))
    gaps = draw(st.lists(st.integers(0, spread), min_size=n, max_size=n))
    return EventStream(
        t_ns=list(accumulate(gaps, initial=base))[1:],
        setting=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        channel=draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
    )


@st.composite
def match_inputs(draw):
    # The window is drawn on the scale of the record spacing, so isolated
    # records, crowded clusters, equal timestamps and exact distance ties
    # between an earlier and a later candidate all occur. A base near the
    # top of int64 checks that the window arithmetic cannot overflow.
    base = draw(st.sampled_from([0, 50, 2**63 - 2**40]))
    spread = draw(st.sampled_from([0, 1, 3, 20, 300, 5_000, 30_000]))
    window = draw(st.one_of(st.just(0), st.integers(1, 10_000), st.integers(1, 2 * spread + 1)))
    return draw(event_streams(base, spread)), draw(event_streams(base, spread)), window


@settings(max_examples=300, deadline=None)
@given(match_inputs())
# A lone A record with two B records in its window takes the later, closer
# one; on an exact tie the earlier; and the walk stops at the first of
# equal stamps even when a closer record follows them.
@example((_stream([10]), _stream([0, 9]), 10))
@example((_stream([10]), _stream([5, 15]), 5))
@example((_stream([10]), _stream([8, 8, 10]), 5))
def test_matcher_equals_reference(inputs):
    events_a, events_b, window = inputs
    pairs, tables = reference_match(events_a, events_b, window)
    result = match_coincidences(events_a, events_b, window)
    assert result.pairs.dtype == np.int64 and result.pairs.shape == (len(pairs), 2)
    assert [tuple(p) for p in result.pairs.tolist()] == pairs
    assert result.tables == tables


@settings(max_examples=50, deadline=None)
@given(a=event_streams(0, 100), b=event_streams(0, 100), window=st.integers(0, 200))
@example(a=_stream([0, 1]), b=_stream([0, 1]), window=0)  # only (0, 0) has coincidences
def test_events_match_s_is_the_chsh_report_s(a, b, window):
    # events match takes S as chsh of its matched.csv E column, so the rows
    # must run in chsh's argument order: (0,0), (0,1), (1,0), (1,1).
    try:
        tables = match_coincidences(a, b, window).tables
        expected = domain._cell(chsh_report_from_tables(tables, (A0, A1), (B0, B1)).s)
    except domain.NoCoincidencesError:
        expected = "nan"
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, "a.csv"), Path(tmp, "b.csv")]
        write_events(paths[0], a)
        write_events(paths[1], b)
        argv = ["events", "match", "--a", str(paths[0]), "--b", str(paths[1]),
                "--window", str(window), "--out", str(Path(tmp, "out"))]
        assert main(argv) == 0
        summary = Path(tmp, "out", "summary.txt").read_text().splitlines()
    assert f"s = {expected}" in summary


def test_matcher_equals_reference_on_generated_streams():
    # Dense enough (20 pairs per window at the widest) that the bulk path and
    # the greedy clusters both carry most of the records at some window.
    streams = generate_events(_config(rate=200_000.0, jitter=50e-9), duration=0.05, seed=17)
    for window in (0, 10, 100, 1_000, 100_000):
        pairs, tables = reference_match(streams.events_a, streams.events_b, window)
        result = match_coincidences(streams.events_a, streams.events_b, window)
        assert [tuple(p) for p in result.pairs.tolist()] == pairs
        assert result.tables == tables


def test_huge_window_matches_like_unbounded():
    a = _stream([0, 2**62, 2**63 - 1])
    b = _stream([1, 2**63 - 2])
    for window in (2**63 - 1, 2**64, 10**30):
        result = match_coincidences(a, b, window)
        pairs, _ = reference_match(a, b, window)
        assert [tuple(p) for p in result.pairs.tolist()] == pairs
