"""Time-series serialization: CSV and JSON, lossless round trip.

CSV columns: ``t_s,sigma_x_m,sigma_y_m,sigma_z_m,n_collisions,n_collapses,
regime,last_event``.  Floats are written in scientific notation with 17
significant digits, which round-trips every binary64 value exactly, so a
written file parses back to bit-identical records.  JSON is an array of
objects with the same keys, as ``json.dump(..., indent=1)`` writes it.

The writer formats the columns of a :class:`~collapsim.engine.Records` store
``CHUNK_ROWS`` rows at a time with one ``%`` template per chunk and makes
one ``sink.write`` per chunk; it builds no object per row.  Between
contractions a heavy object's widths do not spread, so its float columns
come in long runs of one bit pattern.  Within a chunk, a float column in
which fewer than half the values differ from the one before them is
formatted once per run, and the run's text fills a ``%s`` slot of the
template; any other column keeps its numeric slot.  A packet that is
isotropic stays isotropic bit for bit when the environment's packets are, so
the three widths are often equal.  Within a chunk, a width column that is
bit-equal to an earlier float column shares that column's texts, formatted
once per run or, where the run rule does not apply, once per row, and every
column that shares them takes a ``%s`` slot.  Runs and shared columns are of
bit patterns, not of values, so that ``0.0`` and ``-0.0`` keep their own
text; both slots write the same bytes.

The reader fills a :class:`~collapsim.engine.Records` store column by
column.  A JSON field must have its column's type: a number (an int or a
float, never a boolean) for a time or a width, an int for a count, and a
string for the regime and the last event.
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


def _json_number(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return repr(x)


@cache
def _row(format: str, slots: tuple[str, ...]) -> str:
    """The row template of ``format`` with the four float ``slots``.

    A JSON row is one element of ``json.dump(rows, sink, indent=1)``, led by
    the separator from the element before it.
    """
    if format == "csv":
        return ",".join(slots) + ",%d,%d,%s,%s\n"
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


def _chunks(
    records: Records, format: str, slot: Optional[str], number: Callable[[float], str]
) -> Iterator[str]:
    """The rows of ``records`` in ``format``, joined ``CHUNK_ROWS`` at a
    time; each float takes ``slot``, or the text ``number`` gives its run.

    Float columns whose chunks are bit-equal share the texts of the first
    of them through ``%s`` slots; ``tee`` hands each its copy, so that no
    more than a row's texts are held at once.
    """
    t, sx, sy, sz, n_collisions, n_collapses, regime, event = records.columns()
    for lo in range(0, len(records), CHUNK_ROWS):
        part = slice(lo, lo + CHUNK_ROWS)
        columns = [c[part] for c in (t, sx, sy, sz)]
        bits = [np.frombuffer(c, np.uint64) for c in columns]
        # Per column, the first column bit-equal to it: itself if none before it is.
        first = [
            next(j for j in range(i + 1) if np.array_equal(bits[j], b)) for i, b in enumerate(bits)
        ]
        items = {}
        for i in set(first):
            n = first.count(i)
            column_slot, texts = _float_items(columns[i], None if n > 1 else slot, number)
            copies = tee(texts, n) if n > 1 else (texts,)
            items[i] = [(column_slot, copy) for copy in copies]
        slots, floats = zip(*(items[i].pop() for i in first))
        yield "".join(map(_row(format, slots).__mod__, zip(
            *floats, n_collisions[part], n_collapses[part],
            map(_REGIME_NAMES.__getitem__, regime[part]),
            map(_EVENT_NAMES.__getitem__, event[part]),
        )))


def write_records(records: Sequence[TimeSeriesRecord], format: str, sink: IO[str]) -> None:
    """Serialize time-ordered records to an open text sink.

    ``records`` is a :class:`Records` store, or any sequence of records,
    which is converted once.  Rows are formatted from the columns in chunks
    of ``CHUNK_ROWS``, one ``sink.write`` each.  CSV floats take
    ``%.16e``; JSON is byte for byte what ``json.dump(rows, sink, indent=1)``
    writes for the rows as objects, followed by a newline.
    """
    if format not in OUTPUT_FORMATS:
        raise ValueError(f"unknown record format {format!r}")
    if not isinstance(records, Records):
        records = Records.from_rows(records)
    try:
        if format == "csv":
            sink.write(CSV_HEADER + "\n")
            for text in _chunks(records, format, "%.16e", "%.16e".__mod__):
                sink.write(text)
            return
        # ``%r`` writes a finite float as ``json`` does.  A finite sum means
        # finite terms; a sum that overflows only takes the path for non-finite
        # floats, whose ``_json_number`` has no slot and so formats every float
        # per run, and writes finite floats the same way.
        if all(math.isfinite(sum(column)) for column in records.columns()[:4]):
            chunks = _chunks(records, format, "%r", repr)
        else:
            chunks = _chunks(records, format, None, _json_number)
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
                except OverflowError as exc:  # a count past int64, or an int past a float
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
