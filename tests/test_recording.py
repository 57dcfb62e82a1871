import io
import json
import math
import struct
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim import (
    LastEvent,
    RecordWriteError,
    Records,
    Regime,
    TimeSeriesRecord,
    parse_config,
    preset,
    read_records,
    run,
    to_document,
    write_records,
)
from collapsim import engine, recording
from collapsim.recording import CHUNK_ROWS, CSV_HEADER
from reference import reference_write


def column_bits(records: Records) -> list[bytes]:
    """A store's columns as bytes: equal only if every value is bit-equal."""
    return [column.tobytes() for column in records.columns()]


def random_records(n: int, seed: int = 0) -> list[TimeSeriesRecord]:
    gen = np.random.default_rng(seed)
    records = []
    t = 0.0
    collisions = collapses = 0
    for _ in range(n):
        t += float(gen.exponential(1e-6))
        event = gen.integers(0, 3)
        if event:
            collisions += 1
        if event == 2:
            collapses += 1
        records.append(
            TimeSeriesRecord(
                t=t,
                sigma=tuple(10.0 ** gen.uniform(-12, -3, 3)),
                n_collisions=collisions,
                n_collapses=collapses,
                regime=Regime.CM_PHASE if gen.random() < 0.5 else Regime.CLUSTER_PHASE,
                last_event=(LastEvent.NONE, LastEvent.COLLISION_NO_COLLAPSE, LastEvent.COLLAPSE)[
                    event
                ],
            )
        )
    return records


class TestCsv:
    def test_empty_sequence_gives_header_only(self):
        sink = io.StringIO()
        write_records([], "csv", sink)
        assert sink.getvalue() == CSV_HEADER + "\n"

    def test_one_record_gives_two_lines(self):
        sink = io.StringIO()
        write_records(random_records(1), "csv", sink)
        lines = sink.getvalue().split("\n")
        assert len(lines) == 3 and lines[2] == ""  # header, row, trailing newline

    def test_seventeen_significant_digits(self):
        record = TimeSeriesRecord(
            t=1.0 / 3.0,
            sigma=(1e-9, 2e-9, 3e-9),
            n_collisions=0,
            n_collapses=0,
            regime=Regime.CM_PHASE,
            last_event=LastEvent.NONE,
        )
        sink = io.StringIO()
        write_records([record], "csv", sink)
        row = sink.getvalue().split("\n")[1]
        assert row.startswith("3.3333333333333331e-01,")

    def test_round_trip_bit_identical(self):
        records = random_records(1000, seed=3)
        sink = io.StringIO()
        write_records(records, "csv", sink)
        parsed = read_records(io.StringIO(sink.getvalue()), "csv")
        assert parsed == records

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_records(io.StringIO("nope\n"), "csv")

    def test_malformed_row_rejected(self):
        text = CSV_HEADER + "\n1.0,2.0\n"
        with pytest.raises(ValueError):
            read_records(io.StringIO(text), "csv")


class TestJson:
    def test_empty_sequence_gives_empty_array(self):
        sink = io.StringIO()
        write_records([], "json", sink)
        assert sink.getvalue().strip() == "[]"

    def test_round_trip_bit_identical(self):
        records = random_records(1000, seed=4)
        sink = io.StringIO()
        write_records(records, "json", sink)
        parsed = read_records(io.StringIO(sink.getvalue()), "json")
        assert parsed == records


class TestErrors:
    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_records([], "xml", io.StringIO())

    def test_sink_failure_reports_partial_output(self):
        class FailingSink:
            def __init__(self):
                self.rows = 0

            def write(self, text):
                self.rows += 1
                if self.rows > 1:
                    raise OSError("disk full")

        with pytest.raises(RecordWriteError, match="partial"):
            write_records(random_records(5), "csv", FailingSink())


# Values whose formatting differs most between writers: signed zeros, the
# smallest subnormal, the largest decades, and the non-finite values.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, math.inf, -math.inf, math.nan)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
counts = st.integers(0, 2**63 - 1)
rows = st.builds(
    TimeSeriesRecord,
    t=floats,
    sigma=st.tuples(floats, floats, floats),
    n_collisions=counts,
    n_collapses=counts,
    regime=st.sampled_from(Regime),
    last_event=st.sampled_from(LastEvent),
)


@st.composite
def record_lists(draw):
    """Up to 12 rows, drawn from a small pool so that widths and whole rows
    repeat."""
    pool = draw(st.lists(rows, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


def edge_rows(n):
    """``n`` rows whose floats cycle through the edge values."""
    e, k = EDGE_FLOATS, len(EDGE_FLOATS)
    return [
        TimeSeriesRecord(
            e[i % k], (e[(i + 1) % k], e[(i + 3) % k], e[(i + 7) % k]),
            i, i // 3, tuple(Regime)[i % 2], tuple(LastEvent)[i % 3],
        )
        for i in range(n)
    ]


def written(write, records, fmt) -> str:
    sink = io.StringIO()
    write(records, fmt, sink)
    return sink.getvalue()


def written_with_slots(records, fmt):
    """What ``write_records`` writes, and the float slots it used: per chunk,
    per float column, ``%s`` for a column formatted once per run or sharing
    the texts of a bit-equal column, and the format's number (``%.16e`` or
    ``%r``) for a column formatted row by row for itself alone.

    Each chunk must format one text per run of each column that is not
    bit-equal to an earlier one, and no other.
    """
    layout = recording._layout(fmt)
    chunks = []  # per chunk: its rows, first equal columns, runs and formatted texts

    def first_equal(bits, first_equal=recording._first_equal):
        first = first_equal(bits)
        chunks.append({"rows": len(bits[0]), "first": first, "runs": [], "texts": 0})
        return first

    def run_starts(bits, run_starts=recording._run_starts):
        starts = run_starts(bits)
        chunks[-1]["runs"].append(len(bits) if starts is None else len(starts))
        return starts

    def floats(bits, floats=layout.floats):
        chunks[-1]["texts"] += len(bits)
        return floats(bits)

    def number(x, number=layout.number):
        chunks[-1]["texts"] += 1
        return number(x)

    with (
        mock.patch.object(recording, "_first_equal", first_equal),
        mock.patch.object(recording, "_run_starts", run_starts),
        mock.patch.object(layout, "floats", floats),
        mock.patch.object(layout, "number", number),
    ):
        text = written(write_records, records, fmt)
    spec = "%.16e" if fmt == "csv" else "%r"
    slots = set()
    for chunk in chunks:
        first, formatted = chunk["first"], sorted(set(chunk["first"]))
        runs = dict(zip(formatted, chunk["runs"]))
        assert chunk["texts"] == sum(runs.values())
        slots.add(tuple(
            "%s" if first.count(j) > 1 or runs[j] < chunk["rows"] else spec for j in first
        ))
    return text, slots


def run_rows(lengths, values):
    """Rows whose widths come in runs of the given lengths, each run taking
    the next of ``values``, and whose times never repeat."""
    widths = [values[k % len(values)] for k, n in enumerate(lengths) for _ in range(n)]
    return [
        TimeSeriesRecord(
            1e-6 * (i + 1), (w, w, w), i, i // 3, tuple(Regime)[i % 2], tuple(LastEvent)[i % 3]
        )
        for i, w in enumerate(widths)
    ]


class TestMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(records=record_lists(), fmt=st.sampled_from(("csv", "json")),
           chunk=st.sampled_from((1, 2, 3, 5, CHUNK_ROWS)))
    def test_bytes_equal_reference_writer(self, records, fmt, chunk):
        # Small chunks put 0, 1, chunk - 1, chunk and chunk + 1 rows within
        # reach of short lists.
        expected = written(reference_write, records, fmt)
        with mock.patch.object(recording, "CHUNK_ROWS", chunk):
            assert written(write_records, records, fmt) == expected
            assert written(write_records, Records.from_rows(records), fmt) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_chunk_boundaries_equal_reference_writer(self, fmt, n):
        records = edge_rows(n)
        expected = written(reference_write, records, fmt)
        assert written(write_records, records, fmt) == expected
        assert written(write_records, Records.from_rows(records), fmt) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_run_store_equals_reference_writer(self, fmt):
        _, records = run(replace(preset("tpp"), seed=2, duration=3e-3))
        assert len(records) > 2 * CHUNK_ROWS
        assert written(write_records, records, fmt) == written(reference_write, records, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grain_run_equals_reference_writer(self, fmt):
        # A heavy object's widths are bit-constant between collapses.
        _, records = run(replace(preset("sugar_grain"), seed=2, duration=3e-3))
        assert len(records) > 2 * CHUNK_ROWS
        text, slots = written_with_slots(records, fmt)
        assert text == written(reference_write, records, fmt)
        assert all(s[1:] == ("%s",) * 3 for s in slots)

    def test_generic_document_equals_reference_writer(self):
        doc = to_document(preset("sugar_grain"))
        doc.update(
            initial_sigma_m=5e-11, initial_alpha_rad="random", env_sigma_jitter=0.5,
            impact_spread_m=5e-11, redraw_alpha_after_collapse=True, seed=2, duration_s=3e-3,
        )
        _, records = run(parse_config(json.dumps(doc)))
        assert len(records) > 2 * CHUNK_ROWS
        text, slots = written_with_slots(records, "json")
        assert text == written(reference_write, records, "json")
        assert ("%s",) * 3 in {s[1:] for s in slots}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_runs_across_chunks_equal_reference_writer(self, fmt, chunk):
        records = run_rows([1, 2, 3, 4, 5, 1, 7, 2, 3], EDGE_FLOATS)
        expected = written(reference_write, records, fmt)
        with mock.patch.object(recording, "CHUNK_ROWS", chunk):
            for store in (records, Records.from_rows(records)):
                text, slots = written_with_slots(store, fmt)
                assert text == expected
                assert any("%s" in s for s in slots)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_signed_zero_runs_keep_their_sign(self, fmt):
        records = run_rows([3, 4, 2, 5, 1, 3], (0.0, -0.0))
        text, slots = written_with_slots(records, fmt)
        assert text == written(reference_write, records, fmt)
        assert {s[1:] for s in slots} == {("%s",) * 3}
        assert column_bits(read_records(io.StringIO(text), fmt)) == column_bits(
            Records.from_rows(records)
        )

    def test_non_finite_runs_in_json(self):
        records = run_rows([4, 1, 3, 2, 5, 1], (math.nan, math.inf, -math.inf, 1.5))
        text, slots = written_with_slots(records, "json")
        assert text == written(reference_write, records, "json")
        # The times never repeat; the widths are shared and come in runs.
        assert slots == {("%r", "%s", "%s", "%s")}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mixed_slots_in_one_chunk(self, fmt):
        # t and sigma_y never repeat; sigma_x and sigma_z come in runs of 8.
        records = [
            TimeSeriesRecord(
                1e-6 * (i + 1), (1e-9 * (1 + i // 8), 2e-9 + 1e-12 * i, -3e-9 * (1 + i // 8)),
                i, i // 8, tuple(Regime)[i % 2], tuple(LastEvent)[i % 3],
            )
            for i in range(100)
        ]
        text, slots = written_with_slots(records, fmt)
        assert text == written(reference_write, records, fmt)
        number = "%.16e" if fmt == "csv" else "%r"
        assert slots == {(number, "%s", number, "%s")}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 1])
    def test_one_write_per_chunk(self, fmt, n):
        class CountingSink(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        sink = CountingSink()
        write_records(random_records(n), fmt, sink)
        # CSV: the header, then the chunks.  JSON: the chunks, then the
        # closing bracket (or the whole empty array).
        assert sink.writes == 1 + math.ceil(n / CHUNK_ROWS)


def width_rows(n, widths):
    """``n`` rows whose times never repeat and whose widths are
    ``widths(i)`` at row ``i``."""
    return [
        TimeSeriesRecord(
            1e-6 * (i + 1), widths(i), i, i // 3, tuple(Regime)[i % 2], tuple(LastEvent)[i % 3]
        )
        for i in range(n)
    ]


def nan_with_payload(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def distinct(i):
    return 1e-9 * (1 + 1e-3 * i)


def y_equals_x_in_some_chunks(i):
    # Equal in whole 1,024-row chunks 0 and 2, and in blocks of 5 rows.
    x = distinct(i)
    return x, x if (i // CHUNK_ROWS) % 2 == 0 or (i // 5) % 2 == 0 else 2 * x, 3 * x


def z_equals_x(i):
    x = distinct(i)
    return x, -x, x


def signed_zeros(i):
    # sigma_x and sigma_y are equal as values on every row, but not as bits.
    x = distinct(i) if i % 3 else 0.0
    return x, x if i % 3 else -0.0, x


def nan_payloads(i):
    # sigma_x and sigma_z share a NaN payload; sigma_y's differs.
    if i % 4:
        return distinct(i), distinct(i), distinct(i)
    return nan_with_payload(1), nan_with_payload(2), nan_with_payload(1)


class TestSharedWidthColumns:
    """A width column whose chunk is bit-equal to an earlier column's shares
    that column's texts; the bytes are the reference writer's."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, CHUNK_ROWS])
    @pytest.mark.parametrize(
        "widths", [y_equals_x_in_some_chunks, z_equals_x, signed_zeros, nan_payloads]
    )
    def test_bytes_equal_reference_writer(self, widths, chunk, fmt):
        records = width_rows(2 * CHUNK_ROWS + 52, widths)
        expected = written(reference_write, records, fmt)
        with mock.patch.object(recording, "CHUNK_ROWS", chunk):
            for store in (records, Records.from_rows(records)):
                assert written(write_records, store, fmt) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, CHUNK_ROWS])
    def test_equal_widths_in_runs(self, fmt, chunk):
        records = run_rows([1, 2, 3, 4, 5, 1, 7, 2, 3] * 40, (1e-9, 2e-9, 1e-9 / 3, 0.0, -0.0))
        expected = written(reference_write, records, fmt)
        with mock.patch.object(recording, "CHUNK_ROWS", chunk):
            text, slots = written_with_slots(records, fmt)
        assert text == expected
        assert {s[1:] for s in slots} == {("%s",) * 3}

    @pytest.mark.parametrize(
        "widths, slots",
        [
            (y_equals_x_in_some_chunks, {("N", "%s", "%s", "N"), ("N",) * 4}),
            (z_equals_x, {("N", "%s", "N", "%s")}),
            (signed_zeros, {("N", "%s", "N", "%s")}),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_only_bit_equal_columns_share(self, fmt, widths, slots):
        number = "%.16e" if fmt == "csv" else "%r"
        records = width_rows(3 * CHUNK_ROWS, widths)
        assert written_with_slots(records, fmt)[1] == {
            tuple(number if s == "N" else s for s in row) for row in slots
        }

    @pytest.mark.parametrize("fmt, number", [("csv", "%.16e"), ("json", "%r")])
    def test_tpp_widths_formatted_once_per_row(self, fmt, number):
        # An isotropic packet meeting isotropic packets stays isotropic bit
        # for bit, and a light object's widths change on every row.
        _, records = run(replace(preset("tpp"), seed=2, duration=3e-3))
        assert written_with_slots(records, fmt)[1] == {(number, "%s", "%s", "%s")}


def float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def kernel_texts(bits) -> list[str]:
    """The CSV float kernel's text of each float64 with these bits."""
    rows = recording._sci(np.array(bits, np.uint64))
    return [row[row != 0].tobytes().decode("ascii") for row in rows]


def printf_texts(bits) -> list[str]:
    return ["%.16e" % x for x in np.array(bits, np.uint64).view(np.float64).tolist()]


def power_of_ten_bits() -> list[int]:
    """The double nearest 10**k and its two neighbours, for every decade k of
    the kernel's domain, 1e-16 <= x < 1e16, and one beyond each edge."""
    powers = [float(f"1e{k}") for k in range(-17, 18)]
    neighbours = [(math.nextafter(p, 0), p, math.nextafter(p, 2 * p)) for p in powers]
    return [float_bits(y) for trio in neighbours for y in trio]


def tie_bits() -> list[int]:
    """Per decade k of the domain, doubles x for which x 10**(16 - k) lies
    exactly halfway between two integers of 17 digits.

    x = a / 2**(s + 1) with s = 16 - k and a odd, so x 10**s is
    a 5**s / 2; a 53-bit a is exact.
    """
    out = []
    for s in range(1, 33):
        lo, hi = -(-2 * 10**16 // 5**s), min(2 * 10**17 // 5**s, 2**53)
        for a in (lo, (lo + hi) // 2, hi - 2):
            x = math.ldexp(a | 1, -(s + 1))
            assert (Fraction(x) * 10**s).denominator == 2
            out.append(float_bits(x))
    return out


# Bit patterns the kernel leaves to ``%``: signed zeros, the smallest and
# largest subnormals, the smallest normal, infinities, NaNs with payloads
# of either sign, and the largest finite value.
EDGE_BITS = [
    0, 2**63, 1, 2**52 - 1, 2**52, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000002, 0x7FEFFFFFFFFFFFFF,
]
any_bits = st.one_of(
    st.floats(1e-16, 1e16).map(float_bits),  # the kernel's domain
    st.integers(0, 2**64 - 1),
    st.sampled_from(EDGE_BITS),
)


class TestCsvKernel:
    """The CSV writer's float and count texts equal ``%``'s, value by
    value."""

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(any_bits, max_size=CHUNK_ROWS))
    def test_floats_equal_printf_on_any_bits(self, bits):
        assert kernel_texts(bits) == printf_texts(bits)

    def test_floats_equal_printf_at_powers_of_ten_and_ties(self):
        bits = power_of_ten_bits() + tie_bits()
        assert kernel_texts(bits) == printf_texts(bits)

    def test_floats_equal_printf_across_the_domain(self):
        # Random mantissas in every decade: rounding that reads only part of
        # the product fails here.
        x = 10.0 ** np.random.default_rng(17).uniform(-16, 16, 100_000)
        bits = x.view(np.uint64).tolist()
        assert kernel_texts(bits) == printf_texts(bits)

    def test_quotient_chooses_the_decade(self):
        # The double nearest 1e-07 lies below 10**-7.
        assert kernel_texts([float_bits(1e-07)]) == ["9.9999999999999995e-08"]

    def test_carry_bumps_the_exponent(self):
        # The double nearest 1e-14 lies below 10**-14 but rounds up to it.
        assert Fraction(1e-14) < Fraction(1, 10**14)
        assert kernel_texts([float_bits(1e-14)]) == ["1.0000000000000000e-14"]

    def test_counts_equal_printf(self):
        counts = [0, 1, -1, 9, -10, 9999, 10_000, -10_001, 10**8, 2**63 - 1, -(2**63)]
        counts += [sign * (10**k + d) for k in range(1, 19) for d in (-1, 0) for sign in (1, -1)]
        rows = recording._integers(np.array(counts, np.int64))
        assert [row[row != 0].tobytes().decode("ascii") for row in rows] == [
            "%d" % n for n in counts
        ]

    def test_csv_write_memory_is_bounded(self):
        # Per chunk, a byte matrix of CHUNK_ROWS rows and the kernel's
        # arrays; the tables are built once, at import.
        class Discard:
            def write(self, text):
                pass

        _, records = run(replace(preset("tpp"), seed=1))
        assert len(records) > 40_000
        tracemalloc.start()
        try:
            write_records(records, "csv", Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("field", ["n_collisions", "n_collapses"])
    def test_count_outside_int64_refused(self, field):
        row = random_records(1)[0]
        for count in (2**63, -(2**63) - 1):
            with pytest.raises(ValueError, match=f"malformed record field {field!r}: {count}"):
                write_records([replace(row, **{field: count})], "csv", io.StringIO())
        for count in (2**63 - 1, -(2**63)):
            rows = [replace(row, **{field: count})]
            assert written(write_records, rows, "csv") == written(reference_write, rows, "csv")


def shortest_texts(bits) -> list[str]:
    """The JSON float kernel's text of each float64 with these bits."""
    rows = recording._shortest(np.array(bits, np.uint64))
    return [row[row != 0].tobytes().decode("ascii") for row in rows]


def json_texts(bits) -> list[str]:
    return [json.dumps(x) for x in np.array(bits, np.uint64).view(np.float64).tolist()]


def neighbour_bits(values) -> list[int]:
    """Each value and the doubles on either side of it."""
    return [
        float_bits(y) for x in values
        for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
    ]


json_bits = st.one_of(
    st.floats(1e-15, 1e16).map(float_bits),  # the kernel's domain
    st.integers(0, 2**64 - 1),
    st.sampled_from(EDGE_BITS),
)


class TestJsonKernel:
    """The JSON writer's float texts equal ``json.dumps``'s, that is
    ``repr``'s for a finite value, value by value."""

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(json_bits, max_size=CHUNK_ROWS))
    def test_floats_equal_repr_on_any_bits(self, bits):
        assert shortest_texts(bits) == json_texts(bits)

    def test_floats_equal_repr_across_the_domain(self):
        # Random mantissas in every decade, mostly of 16 or 17 digits, and
        # decimals of 1 to 17 digits, whose texts are shorter.
        gen = np.random.default_rng(18)
        x = 10.0 ** gen.uniform(-15, 16, 100_000)
        digits = gen.integers(1, 18, 50_000)
        mantissas = gen.integers(10 ** (digits - 1), 10**digits, dtype=np.int64)
        exponents = gen.integers(-15, 16, 50_000) - digits + 1
        decimals = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
        bits = x.view(np.uint64).tolist() + [float_bits(d) for d in decimals]
        assert shortest_texts(bits) == json_texts(bits)

    def test_floats_equal_repr_at_edges(self):
        powers_of_ten = [float(f"1e{k}") for k in range(-20, 21)]
        powers_of_two = [2.0**k for k in range(-60, 60)]
        # Where the notation switches, and the edges of the domain.
        switches = [1e-4, 1e16, 1e-15]
        bits = neighbour_bits(powers_of_ten + powers_of_two + switches) + EDGE_BITS + [
            float_bits(x) for x in (1234.0, 0.1 + 0.2, 5e-324, -5e-324, -1.5, math.nan)
        ]
        assert shortest_texts(bits) == json_texts(bits)

    @pytest.mark.parametrize(
        "x, text",
        [
            (864880213240886.25, "864880213240886.2"),  # a tie at the last digit: even
            (695072117572482.75, "695072117572482.8"),
            (1234.0, "1234.0"),
            (1e15, "1000000000000000.0"),
            (0.1 + 0.2, "0.30000000000000004"),
            (0.0009938450935434026, "0.0009938450935434026"),
            (1e-4, "0.0001"),
            (math.nextafter(1e-4, 0), "9.999999999999999e-05"),
            (1e-05, "1e-05"),
            (1.5e-11, "1.5e-11"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (math.inf, "Infinity"),
            (-math.inf, "-Infinity"),
            (nan_with_payload(3), "NaN"),
        ],
    )
    def test_known_texts(self, x, text):
        assert shortest_texts([float_bits(x)]) == [text]

    def test_json_write_memory_is_bounded(self):
        # Per chunk, a byte matrix of CHUNK_ROWS rows, the kernel's arrays
        # and the chunk's text.
        class Discard:
            def write(self, text):
                pass

        _, records = run(replace(preset("tpp"), seed=1))
        assert len(records) > 40_000
        write_records(records[:1], "json", Discard())  # builds the tables
        tracemalloc.start()
        try:
            write_records(records, "json", Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_250_000


class TestStoreRefusals:
    """Rows given to ``write_records`` as a plain sequence or any iterable are
    read once into a store, and refused, by field, where a field cannot be
    stored."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_from_a_generator(self, fmt):
        rows = random_records(50)
        expected, written = io.StringIO(), io.StringIO()
        write_records(rows, fmt, expected)
        write_records((r for r in rows), fmt, written)
        assert written.getvalue() == expected.getvalue()
        assert len(expected.getvalue().splitlines()) > 50

    def test_field_refused_by_name_from_a_generator(self):
        rows = random_records(3)
        rows[2] = replace(rows[2], n_collapses=2**63)
        with pytest.raises(ValueError, match=f"malformed record field 'n_collapses': {2**63} is outside"):
            write_records(iter(rows), "csv", io.StringIO())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "fields, name, problem",
        [
            ({"t": 10**400}, "t_s", "int too large to convert to float"),
            ({"sigma": (1.0, 10**400, 1.0)}, "sigma_y_m", "int too large to convert to float"),
            ({"sigma": (1.0, 2.0)}, "sigma", r"\(1.0, 2.0\) is not three widths"),
            ({"sigma": (1.0, 2.0, 3.0, 4.0)}, "sigma", r"\(1.0, 2.0, 3.0, 4.0\) is not three"),
            ({"sigma": 1.0}, "sigma", "1.0 is not three widths"),
            ({"n_collisions": 2.5}, "n_collisions", "'float' object cannot be interpreted"),
            ({"n_collisions": True}, "n_collisions", "True is not an integer"),
            ({"n_collapses": False}, "n_collapses", "False is not an integer"),
            ({"regime": "CM_PHASE"}, "regime", "'CM_PHASE' is not one of"),
            ({"last_event": None}, "last_event", "None is not one of"),
        ],
        ids=["huge_time", "huge_width", "two_widths", "four_widths", "one_number", "float_count",
             "true_count", "false_count", "string_regime", "no_event"],
    )
    def test_field_refused_by_name(self, fields, name, problem, fmt):
        rows = random_records(3)
        rows[1] = replace(rows[1], **fields)
        with pytest.raises(ValueError, match=f"malformed record field {name!r}: {problem}"):
            write_records(rows, fmt, io.StringIO())


    @pytest.mark.parametrize(
        "fields, name, problem",
        [
            ({"t": 10**400}, "t_s", "int too large to convert to float"),
            ({"t": "0.5"}, "t_s", "must be real number, not str"),
            ({"sigma": (1.0, 10**400, 1.0)}, "sigma_y_m", "int too large to convert to float"),
            ({"sigma": (1.0, 2.0)}, "sigma", r"\(1.0, 2.0\) is not three widths"),
            ({"sigma": (1.0, 2.0, 3.0, 4.0)}, "sigma", r"\(1.0, 2.0, 3.0, 4.0\) is not three"),
            ({"sigma": 1.0}, "sigma", "1.0 is not three widths"),
            ({"n_collisions": 2.5}, "n_collisions", "'float' object cannot be interpreted"),
            ({"n_collisions": True}, "n_collisions", "True is not an integer"),
            ({"n_collapses": False}, "n_collapses", "False is not an integer"),
            ({"n_collapses": 2**63}, "n_collapses", f"{2**63} is outside the 64-bit integers"),
            ({"regime": "CM_PHASE"}, "regime", "'CM_PHASE' is not one of"),
            ({"last_event": None}, "last_event", "None is not one of"),
        ],
        ids=["huge_time", "string_time", "huge_width", "two_widths", "four_widths",
             "one_number", "float_count", "true_count", "false_count", "huge_count",
             "string_regime", "no_event"],
    )
    def test_from_rows_refuses_as_the_writer_does(self, fields, name, problem):
        rows = random_records(3)
        rows[1] = replace(rows[1], **fields)
        message = f"malformed record field {name!r}: {problem}"
        with pytest.raises(ValueError, match=message):
            Records.from_rows(rows)
        with pytest.raises(ValueError, match=message):
            write_records(rows, "csv", io.StringIO())


class TestStoreChunksInWriter:
    """The writers format a store's chunks; where the writer's chunk differs
    from the store's, its rows span store chunks."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "store_rows, writer_rows", [(1, 5), (2, 3), (3, 2), (5, 1), (5, 3), (3, CHUNK_ROWS)]
    )
    def test_bytes_equal_reference_writer(self, store_rows, writer_rows, fmt):
        # A store reads its chunk size from engine.CHUNK_ROWS: it is read
        # under the size it was filled under.
        with mock.patch.object(engine, "CHUNK_ROWS", store_rows):
            _, records = run(replace(preset("tpp"), seed=2, duration=1e-3))
            stored = Records.from_rows(run_rows([1, 2, 3, 4, 5, 1, 7, 2, 3], EDGE_FLOATS))
            for store in (records, stored):
                assert len(store._chunks) == -(-len(store) // store_rows)
                expected = written(reference_write, store, fmt)
                with mock.patch.object(recording, "CHUNK_ROWS", writer_rows):
                    assert written(write_records, store, fmt) == expected


def fitted_rows(case: str) -> list[TimeSeriesRecord]:
    """Rows whose texts make a chunk's spans differ in width from row to row
    or from chunk to chunk."""
    regimes, events = tuple(Regime), tuple(LastEvent)
    if case.startswith("crossing"):  # a count gains a digit, and a 4-digit group
        top = 10**4 if case == "crossing_4" else 10**8
        counts = [(top - 5 + i, 3) for i in range(10)]
    elif case == "constant":
        counts = [(7 + i, 12) for i in range(10)]
    elif case == "signs":
        counts = [(0, 5), (-1, 5), (5, -12345), (-12345, 0), (0, 3), (3, -1), (7, 7)]
    elif case == "extremes":
        counts = [(2**63 - 1, -(2**63)), (-(2**63), 0), (0, 2**63 - 1), (1, -(2**63) + 1), (-9, 9)]
    elif case == "one_name":
        return [TimeSeriesRecord(1e-6 * (i + 1), (2e-11,) * 3, i, 0, regimes[0], events[1])
                for i in range(7)]
    elif case == "all_names":
        counts = [(i, i // 3) for i in range(7)]
    else:  # "floats": out of the kernels' domains next to inside them
        outside = [-1.5e-3, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
                   1e16, 1e-300, 0.0, -0.0]
        inside = [1e-6, 0.0009938450935434026, 2.5e-11, 1234.0]
        values = [x for pair in zip(outside, inside * 3) for x in pair]
        return [TimeSeriesRecord(x, (values[-i], x, 3e-11), i, 0, regimes[i % 2], events[i % 3])
                for i, x in enumerate(values)]
    return [
        TimeSeriesRecord(
            1e-6 * (i + 1), (1e-11, 2e-11, 1e-11), a, b, regimes[i // 2 % 2], events[i % 3]
        )
        for i, (a, b) in enumerate(counts)
    ]


class TestFittedLayout:
    """A chunk's spans are only as wide as its widest texts, so the bytes must
    not depend on which rows share a chunk."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, CHUNK_ROWS])
    @pytest.mark.parametrize(
        "case",
        ["crossing_4", "crossing_8", "constant", "signs", "extremes", "one_name", "all_names",
         "floats"],
    )
    def test_bytes_equal_reference_writer(self, case, chunk, fmt):
        rows = fitted_rows(case)
        expected = written(reference_write, rows, fmt)
        with mock.patch.object(recording, "CHUNK_ROWS", chunk):
            assert written(write_records, rows, fmt) == expected
            assert written(write_records, Records.from_rows(rows), fmt) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matrix_is_mostly_text(self, fmt):
        # At 21 bytes per count and 24 per float or name, about 27% of the
        # tpp CSV matrix and 16% of the generic JSON one were NULs.
        if fmt == "csv":
            config = replace(preset("tpp"), seed=1)
        else:
            doc = to_document(preset("sugar_grain"))
            doc.update(
                initial_sigma_m=5e-11, initial_alpha_rad="random", env_sigma_jitter=0.5,
                impact_spread_m=5e-11, redraw_alpha_after_collapse=True, seed=1,
            )
            config = parse_config(json.dumps(doc))
        _, records = run(config)
        assert len(records) > 40_000
        sizes = []

        def text(m, text=recording._text):
            sizes.append((m.size, m.size - np.count_nonzero(m)))
            return text(m)

        with mock.patch.object(recording, "_text", text):
            written(write_records, records, fmt)
        total, nuls = map(sum, zip(*sizes))
        assert nuls <= 0.05 * total


class TestFromRowsChecksBatches:
    """``Records.from_rows`` checks each row, then stores a batch of rows at
    once, whatever storable types they hold."""

    def test_other_rows_are_stored_as_before(self):
        # Not plain, yet storable: numpy scalars, a list of widths, an int time.
        rows = random_records(5)
        rows[1] = replace(rows[1], t=np.float64(0.5), n_collisions=np.int64(3))
        rows[2] = replace(rows[2], sigma=[1.0, 2.0, 3.0])
        rows[3] = replace(rows[3], t=2, n_collapses=-(2**63))
        assert Records.from_rows(rows) == [replace(r, sigma=tuple(r.sigma)) for r in rows]


def json_row(**fields) -> str:
    """A one-row JSON record array, ``fields`` replacing a valid row's."""
    row = {
        "t_s": 0.0, "sigma_x_m": 1.0, "sigma_y_m": 1.0, "sigma_z_m": 1.0,
        "n_collisions": 0, "n_collapses": 0, "regime": "CM_PHASE", "last_event": "NONE",
    }
    return json.dumps([{**row, **fields}])


class TestReadIntoStore:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reads_columns_of_a_store(self, fmt):
        # 2,500 rows: more than two chunks of the reader.
        records = random_records(2500, seed=5)
        sink = io.StringIO()
        write_records(records, fmt, sink)
        parsed = read_records(io.StringIO(sink.getvalue()), fmt)
        assert isinstance(parsed, Records)
        assert column_bits(parsed) == column_bits(Records.from_rows(records))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("field, name", [("regime", "MIDDLE"), ("last_event", "BOUNCE")])
    def test_unknown_name_rejected(self, fmt, field, name):
        records = random_records(3, seed=6)
        sink = io.StringIO()
        write_records(records, fmt, sink)
        known = getattr(records[1], field).value
        text = sink.getvalue().replace(known, name)
        with pytest.raises(ValueError, match=f"malformed record field {field!r}: .*{name}"):
            read_records(io.StringIO(text), fmt)

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('[{"t_s": 0.0}]', "missing the field 'sigma_x_m'"),
            ('{"a": 1}', "expected a JSON array of record objects"),
            ("[1]", "expected a JSON array of record objects"),
            ('[{"t_s": null, "sigma_x_m": 1.0, "sigma_y_m": 1.0, "sigma_z_m": 1.0, '
             '"n_collisions": 0, "n_collapses": 0, "regime": "CM_PHASE", "last_event": "NONE"}]',
             "malformed record field"),
            (json_row(t_s=True), "malformed record field 't_s': true is not a number"),
            (json_row(sigma_y_m="1e-3"), """'sigma_y_m': "1e-3" is not a number"""),
            (json_row(n_collisions=2.7), "'n_collisions': 2.7 is not an integer"),
            (json_row(n_collapses=False), "'n_collapses': false is not an integer"),
            (json_row(regime=0), "'regime': 0 is not a string"),
            (json_row(last_event=None), "'last_event': null is not a string"),
        ],
        ids=["missing_field", "object", "non_object_element", "null_field", "bool_float",
             "string_float", "float_count", "bool_count", "number_regime", "null_event"],
    )
    def test_malformed_json_rejected(self, text, problem):
        with pytest.raises(ValueError, match=problem):
            read_records(io.StringIO(text), "json")

    @pytest.mark.parametrize(
        "fmt, text, field",
        [
            ("csv", f"{CSV_HEADER}\n0.0,1.0,1.0,1.0,{2**63},0,CM_PHASE,NONE\n", "n_collisions"),
            ("json", json_row(n_collapses=2**63), "n_collapses"),
            ("json", json_row(t_s=10**400), "t_s"),
            ("csv", f"{CSV_HEADER}\n0.0,abc,1.0,1.0,0,0,CM_PHASE,NONE\n", "sigma_x_m"),
            ("csv", f"{CSV_HEADER}\n0.0,1.0,1.0,1.0,0,True,CM_PHASE,NONE\n", "n_collapses"),
            ("csv", f"{CSV_HEADER}\n0.0,1.0,1.0,1.0,0,0,CM_PHASE,NONE \n", "last_event"),
            ("json", json_row(regime="cm_phase"), "regime"),
        ],
        ids=["csv_count", "json_count", "json_float", "csv_float_text", "csv_count_text",
             "csv_padded_event", "json_lower_case_regime"],
    )
    def test_overflowing_field_rejected(self, fmt, text, field):
        # A value its column cannot hold or parse is refused by name.
        with pytest.raises(ValueError, match=f"malformed record field {field!r}"):
            read_records(io.StringIO(text), fmt)

    def test_json_int_is_a_float(self):
        (record,) = read_records(io.StringIO(json_row(t_s=2, sigma_x_m=-1)), "json")
        assert record.t == 2.0 and record.sigma[0] == -1.0
        assert type(record.t) is float and type(record.sigma[0]) is float
