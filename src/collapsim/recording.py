"""Time-series serialization: CSV and JSON, lossless round trip.

CSV columns: ``t_s,sigma_x_m,sigma_y_m,sigma_z_m,n_collisions,n_collapses,
regime,last_event``.  Floats are written as ``'%.16e' % x`` writes them, 17
significant digits, which round-trips every binary64 value exactly, so a
written file parses back to bit-identical records.  JSON is an array of
objects with the same keys, as ``json.dump(..., indent=1)`` writes it.

Both writers take a :class:`~collapsim.engine.Records` store ``CHUNK_ROWS``
rows at a time and make one ``sink.write`` per chunk; neither builds an
object per row.

The CSV writer lays a chunk out as one NUL-padded byte matrix, a row per
record and a fixed span of bytes per field, and drops the NULs to get the
chunk's text.  The separators are constant columns, the regime and the
event are rows of code-indexed name tables, and a count is its decimal
digits with the leading zeros blanked.  A float is formatted by an exact
integer kernel (Steele & White 1990): for x = M 2**E in [1e-16, 1e16) and
its decade k, the 17 digits are round-half-even(M 5**s 2**(s+E)) with
s = 16 - k, the product held in two 64-bit limbs.  This is the correctly
rounded conversion that ``%.16e`` makes (Gay 1990).  Every other value
(zero, a negative, a subnormal, an infinity, a NaN, or one out of that
range) is formatted by ``'%.16e' % x``, for that value alone.  Within a
chunk, a width column that is bit-equal to an earlier float column copies
that column's bytes.

The JSON writer formats floats with ``%r``, which the kernel does not
write, through one ``%`` template per chunk.  Between contractions a heavy
object's widths do not spread, so its float columns come in long runs of
one bit pattern.  Within a chunk, a float column in which fewer than half
the values differ from the one before them is formatted once per run, and
the run's text fills a ``%s`` slot of the template; any other column keeps
its numeric slot.  A packet that is isotropic stays isotropic bit for bit
when the environment's packets are, so the three widths are often equal.
Within a chunk, a width column that is bit-equal to an earlier float column
shares that column's texts, formatted once per run or, where the run rule
does not apply, once per row, and every column that shares them takes a
``%s`` slot.  Runs and shared columns are of bit patterns, not of values,
so that ``0.0`` and ``-0.0`` keep their own text; both slots write the same
bytes.

The reader fills a :class:`~collapsim.engine.Records` store column by
column.  A JSON field must have its column's type: a number (an int or a
float, never a boolean) for a time or a width, an int for a count, and a
string for the regime and the last event.  A refusal of a field's value
names the field.
"""

from __future__ import annotations

import json
import math
from array import array
from functools import cache
from itertools import chain, islice, repeat, tee
from operator import sub
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .config import OUTPUT_FORMATS
from .engine import LastEvent, Records, Regime, TimeSeriesRecord

CSV_HEADER = "t_s,sigma_x_m,sigma_y_m,sigma_z_m,n_collisions,n_collapses,regime,last_event"

FIELD_NAMES = tuple(CSV_HEADER.split(","))

# Rows formatted per ``sink.write``.
CHUNK_ROWS = 1024

_REGIME_NAMES = [regime.value for regime in Records.REGIMES]
_EVENT_NAMES = [event.value for event in Records.EVENTS]


# Per column, a text or JSON field to its column item.  ``Regime(name)`` and
# ``LastEvent(name)`` refuse an unknown name; a known one is looked up once.
_PARSERS = (float,) * 4 + (int,) * 2 + (
    cache(lambda name: Records.REGIMES.index(Regime(name))),
    cache(lambda name: Records.EVENTS.index(LastEvent(name))),
)

# Per column, the types of a JSON field and their name in a refusal.  A
# ``bool`` is an ``int`` to Python but not a number in a record.
_JSON_TYPES = (({int, float}, "a number"),) * 4 + (({int}, "an integer"),) * 2 + (
    ({str}, "a string"),
) * 2


class RecordWriteError(IOError):
    """Writing records failed; the sink may hold partial output."""


def _first_equal(bits: Sequence[np.ndarray]) -> list[int]:
    """Per float column of a chunk, given as its bits, the first column
    bit-equal to it: itself if none before it is."""
    return [
        next(j for j in range(i + 1) if np.array_equal(bits[j], b)) for i, b in enumerate(bits)
    ]


# The CSV kernel.  Integer arrays stay uint64, with uint64 scalars: numpy
# 1.x promotes uint64 with int64 to float64.
_U64 = np.uint64
_LOW32 = _U64(2**32 - 1)
_TEN4 = _U64(10_000)
_TEN16, _TEN17 = _U64(10**16), _U64(10**17)

# 5**s for s = 0 .. 32, shifted left by c to 75 bits.  Its product P with
# a 53-bit mantissa M tops out in bit 126 or 127 of two 64-bit limbs, and
# x 10**s = M 2**E 10**s = P 2**(s + E - c): twice that, with the bit that
# decides the rounding, is the high limb shifted right by _POW5_SHIFT[s] - E.
_POW5 = [5**s << (75 - (5**s).bit_length()) for s in range(33)]
_POW5_LO = np.array([p % 2**64 for p in _POW5], np.uint64)
_POW5_HI = np.array([p >> 64 for p in _POW5], np.uint64)
_POW5_SHIFT = np.array([75 - (5**s).bit_length() - s - 65 for s in range(33)], np.int64)

# Four ASCII digits per ``uint32``: rows 0 .. 9999 zero-padded, rows
# 10000 .. 19999 the same with their leading zeros as NULs (all four for 0),
# and a last row for the last four digits of a zero.  The exponent texts of
# the decades -16 .. 16.
_QUADS = np.zeros((20_001, 4), np.uint8)
_QUADS[:10_000] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
_QUADS[10_000:20_000] = np.where(
    np.logical_and.accumulate(_QUADS[:10_000] == ord("0"), axis=1), 0, _QUADS[:10_000]
)
_QUADS[-1, -1] = ord("0")
_QUADS = _QUADS.view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-16, 17)), np.uint32)


def _digits(u: np.ndarray, blank: bool = False) -> np.ndarray:
    """The 20 ASCII digits of each ``uint64`` in ``u``, one row each:
    zero-padded, or with ``blank`` its leading zeros as NULs."""
    out = np.empty((len(u), 5), np.uint32)
    zero = (u == 0) * _TEN4 if blank else _U64(0)  # a zero keeps its last digit
    for i in range(4, -1, -1):
        q = u // _TEN4
        index = u - q * _TEN4
        if blank:
            index += (q == 0) * _TEN4 + zero
            zero = _U64(0)
        out[:, i] = _QUADS[index]
        u = q
    return out.view(np.uint8)


def _decimal(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For x = m 2**e and a decade k, floor(x 10**(16 - k)) and that
    quotient rounded half to even, for x in the kernel's domain and k within
    one of x's decade."""
    s = 16 - k
    b_lo, b_hi = _POW5_LO[s], _POW5_HI[s]
    # m b, 53 by 75 bits, in 32-bit pieces: m b_lo, then m b_hi into the high limb.
    m0, m1, b0, b1 = m & _LOW32, m >> _U64(32), b_lo & _LOW32, b_lo >> _U64(32)
    p00, p01, p10 = m0 * b0, m0 * b1, m1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (p00 & _LOW32) | (mid << _U64(32))
    hi = m1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32)) + m * b_hi
    shift = (_POW5_SHIFT[s] - e).astype(np.uint64)  # 1 .. 14
    twice = hi >> shift  # the quotient and the bit below it
    sticky = ((hi << (_U64(64) - shift)) | lo) != 0  # any bit below that one
    quotient = twice >> _U64(1)
    return quotient, quotient + (twice & (sticky | quotient) & _U64(1))


def _sci(bits: np.ndarray) -> np.ndarray:
    """``'%.16e' % x`` for the float64 values with these ``uint64`` bits, one
    row of 24 NUL-padded bytes each."""
    x = bits.view(np.float64)
    exact = (x > 1e-16) & (x < 1e16)  # as doubles, x > 1e-16 is x >= 10**-16
    y = np.where(exact, x, 1.0)
    m = (y.view(np.uint64) & _U64(2**52 - 1)) | _U64(2**52)
    e = (y.view(np.uint64) >> _U64(52)).astype(np.int64) - 1075
    # log10 is within one of the decade; the truncated quotient settles it.
    # Choosing by the rounded one would print 1e-07 as 1.0e-07 in place of
    # 9.9999999999999995e-08.
    k = np.minimum(np.maximum(np.floor(np.log10(y)).astype(np.int64), -16), 15)
    quotient, d = _decimal(m, e, k)
    off = np.flatnonzero((quotient < _TEN16) | (quotient >= _TEN17))
    if off.size:
        k[off] += np.where(quotient[off] < _TEN16, -1, 1)
        _, d[off] = _decimal(m[off], e[off], k[off])
    carry = d == _TEN17  # rounded up to the next decade
    d[carry] = _TEN16
    k += carry
    g = _digits(d)
    out = np.zeros((len(x), 24), np.uint8)
    out[:, 0] = g[:, 3]
    out[:, 1] = ord(".")
    out[:, 2:18] = g[:, 4:]
    out[:, 18:22] = _EXPONENTS[k + 16].view(np.uint8).reshape(-1, 4)
    for i in np.flatnonzero(~exact):
        text = b"%.16e" % float(x[i])
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def _integers(n: np.ndarray) -> np.ndarray:
    """``'%d' % i`` for each ``int64`` in ``n``, one row of a sign byte and 20
    digits each, NUL where a row has no sign or a leading zero."""
    negative = n < 0
    u = n.view(np.uint64)
    out = np.empty((len(n), 21), np.uint8)
    out[:, 0] = negative * np.uint8(ord("-"))
    out[:, 1:] = _digits(np.where(negative, _U64(0) - u, u), blank=True)
    return out


def _name_table(names: Sequence[str]) -> np.ndarray:
    """Per code, its name in NUL-padded bytes."""
    width = max(map(len, names))
    return np.array([list(name.encode("ascii").ljust(width, b"\0")) for name in names], np.uint8)


_NAME_TABLES = _name_table(_REGIME_NAMES), _name_table(_EVENT_NAMES)

# A CSV row of the matrix: each field's span, then a comma or the newline.
_WIDTHS = (24,) * 4 + (21,) * 2 + tuple(table.shape[1] for table in _NAME_TABLES)
_STARTS = np.cumsum((0,) + tuple(w + 1 for w in _WIDTHS))
_SPANS = [slice(a, a + w) for a, w in zip(_STARTS.tolist(), _WIDTHS)]
_CSV_ROW = np.zeros(_STARTS[-1], np.uint8)
_CSV_ROW[_STARTS[1:] - 1] = ord(",")
_CSV_ROW[-1] = ord("\n")


def _csv_chunk(part: list[np.ndarray]) -> str:
    """The CSV rows of one chunk, given as its eight column arrays."""
    n = len(part[0])
    first = _first_equal(part[:4])
    formatted = sorted(set(first))
    floats = _sci(np.concatenate([part[i] for i in formatted])).reshape(-1, n, 24)
    m = np.empty((n, _CSV_ROW.size), np.uint8)
    m[:] = _CSV_ROW
    for i, j in enumerate(first):
        m[:, _SPANS[i]] = floats[formatted.index(j)]
    m[:, _SPANS[4]], m[:, _SPANS[5]] = _integers(np.concatenate(part[4:6])).reshape(2, n, 21)
    for i, table in zip((6, 7), _NAME_TABLES):
        m[:, _SPANS[i]] = np.take(table, part[i], axis=0)
    return m[m != 0].tobytes().decode("ascii")


def _csv_parts(records: Records) -> Iterator[list[np.ndarray]]:
    """The eight columns of ``records`` as arrays, ``CHUNK_ROWS`` rows at a
    time."""
    dtypes = (np.uint64,) * 4 + (np.int64,) * 2 + (np.int8,) * 2
    columns = [np.frombuffer(c, dtype) for c, dtype in zip(records.columns(), dtypes)]
    for lo in range(0, len(records), CHUNK_ROWS):
        yield [c[lo : lo + CHUNK_ROWS] for c in columns]


def _json_number(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return repr(x)


@cache
def _row(slots: tuple[str, ...]) -> str:
    """The JSON row template with the four float ``slots``: one element of
    ``json.dump(rows, sink, indent=1)``, led by the separator from the
    element before it."""
    specs = slots + ("%d",) * 2 + ('"%s"',) * 2
    return ",\n {\n%s\n }" % ",\n".join(
        f'  "{name}": {spec}' for name, spec in zip(FIELD_NAMES, specs)
    )


def _float_items(
    values: array, slot: Optional[str], number: Callable[[float], str]
) -> tuple[str, Iterable]:
    """One chunk of a float column: its slot in the row template and the
    items for that slot.

    Runs of equal bit patterns, not of equal values, so that ``0.0`` and
    ``-0.0`` and NaNs of different payloads each keep their own text.  A
    column where at least half the values differ from the one before them
    keeps ``slot``, or, without one, is formatted value by value by
    ``number`` through a ``%s`` slot; otherwise each run is formatted once,
    and its text is repeated through a ``%s`` slot.
    """
    bits = np.frombuffer(values, np.uint64)
    starts = bits[1:] != bits[:-1]  # row i + 1 starts a run
    if 2 * np.count_nonzero(starts) >= len(values):
        return (slot, values) if slot else ("%s", map(number, values))
    edges = [0, *(np.flatnonzero(starts) + 1).tolist(), len(values)]
    texts = map(number, map(values.__getitem__, edges[:-1]))
    return "%s", chain.from_iterable(map(repeat, texts, map(sub, edges[1:], edges[:-1])))


def _json_chunks(
    records: Records, slot: Optional[str], number: Callable[[float], str]
) -> Iterator[str]:
    """The JSON rows of ``records``, joined ``CHUNK_ROWS`` at a time; each
    float takes ``slot``, or the text ``number`` gives its run.

    Float columns whose chunks are bit-equal share the texts of the first
    of them through ``%s`` slots; ``tee`` hands each its copy, so that no
    more than a row's texts are held at once.
    """
    t, sx, sy, sz, n_collisions, n_collapses, regime, event = records.columns()
    for lo in range(0, len(records), CHUNK_ROWS):
        part = slice(lo, lo + CHUNK_ROWS)
        columns = [c[part] for c in (t, sx, sy, sz)]
        first = _first_equal([np.frombuffer(c, np.uint64) for c in columns])
        items = {}
        for i in set(first):
            n = first.count(i)
            column_slot, texts = _float_items(columns[i], None if n > 1 else slot, number)
            copies = tee(texts, n) if n > 1 else (texts,)
            items[i] = [(column_slot, copy) for copy in copies]
        slots, floats = zip(*(items[i].pop() for i in first))
        yield "".join(map(_row(slots).__mod__, zip(
            *floats, n_collisions[part], n_collapses[part],
            map(_REGIME_NAMES.__getitem__, regime[part]),
            map(_EVENT_NAMES.__getitem__, event[part]),
        )))


def _store(rows: Sequence[TimeSeriesRecord]) -> Records:
    """``rows`` as a store.  A count outside int64, the domain of the store
    and of the CSV kernel, is refused by name."""
    try:
        return Records.from_rows(rows)
    except OverflowError:
        for r in rows:
            for name, n in zip(FIELD_NAMES[4:6], (r.n_collisions, r.n_collapses)):
                if not -(2**63) <= n < 2**63:
                    raise ValueError(
                        f"malformed record field {name!r}: {n} is outside the 64-bit integers"
                    ) from None
        raise


def write_records(records: Sequence[TimeSeriesRecord], format: str, sink: IO[str]) -> None:
    """Serialize time-ordered records to an open text sink.

    ``records`` is a :class:`Records` store, or any sequence of records,
    which is converted once; a count must be a 64-bit integer.  Rows are
    formatted from the columns in chunks of ``CHUNK_ROWS``, one
    ``sink.write`` each.  CSV floats are written as ``%.16e`` writes them;
    JSON is byte for byte what ``json.dump(rows, sink, indent=1)`` writes
    for the rows as objects, followed by a newline.
    """
    if format not in OUTPUT_FORMATS:
        raise ValueError(f"unknown record format {format!r}")
    if not isinstance(records, Records):
        records = _store(records)
    try:
        if format == "csv":
            sink.write(CSV_HEADER + "\n")
            for part in _csv_parts(records):
                sink.write(_csv_chunk(part))
            return
        # ``%r`` writes a finite float as ``json`` does.  A finite sum means
        # finite terms; a sum that overflows only takes the path for non-finite
        # floats, whose ``_json_number`` has no slot and so formats every float
        # per run, and writes finite floats the same way.
        if all(math.isfinite(sum(column)) for column in records.columns()[:4]):
            chunks = _json_chunks(records, "%r", repr)
        else:
            chunks = _json_chunks(records, None, _json_number)
        for i, text in enumerate(chunks):
            # The first element takes the opening bracket for its separator.
            sink.write(text if i else "[" + text[1:])
        sink.write("\n]\n" if records else "[]\n")
    except OSError as exc:
        raise RecordWriteError(
            f"failed while writing records ({exc}); output may be partial"
        ) from exc


def read_records(source: IO[str], format: str) -> Records:
    """Parse records previously produced by :func:`write_records` into a
    :class:`Records` store, appending each row's fields to the columns."""
    if format == "csv":
        lines: Iterable[str] = (line.rstrip("\n") for line in source)
        header = next(iter(lines), None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        rows: Iterable = (line.split(",") for line in lines if line)
    elif format == "json":
        doc = json.load(source)
        if not (isinstance(doc, list) and all(isinstance(obj, dict) for obj in doc)):
            raise ValueError("expected a JSON array of record objects")
        rows = ([obj[name] for name in FIELD_NAMES] for obj in doc)
    else:
        raise ValueError(f"unknown record format {format!r}")
    records = Records()
    try:
        for chunk in iter(lambda: list(islice(rows, CHUNK_ROWS)), []):
            for row in chunk:
                if len(row) != 8:
                    raise ValueError(f"malformed CSV row: {','.join(row)!r}")
            fields = list(zip(*chunk))
            if format == "json":
                _check_json_types(fields)
            for name, column, values, parse in zip(FIELD_NAMES, records.columns(), fields, _PARSERS):
                try:
                    column.extend(map(parse, values))
                # A text that is no number or no known name, a count past
                # int64, or an int past a float.
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"malformed record field {name!r}: {exc}") from None
    except KeyError as exc:  # only a JSON object without a field raises it
        raise ValueError(f"record object is missing the field {exc.args[0]!r}") from None
    return records


def _check_json_types(fields: list[tuple]) -> None:
    """Refuse a chunk of JSON fields, given column by column, that holds a
    value of a type its column does not take."""
    for name, values, (types, kind) in zip(FIELD_NAMES, fields, _JSON_TYPES):
        if not set(map(type, values)) <= types:
            bad = next(v for v in values if type(v) not in types)
            raise ValueError(f"malformed record field {name!r}: {json.dumps(bad)} is not {kind}")
