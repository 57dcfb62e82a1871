"""Time-series serialization: CSV and JSON, lossless round trip.

CSV columns: ``t_s,sigma_x_m,sigma_y_m,sigma_z_m,n_collisions,n_collapses,
regime,last_event``.  Floats are written in scientific notation with 17
significant digits, which round-trips every binary64 value exactly, so a
written file parses back to bit-identical records.  JSON is an array of
objects with the same keys, as ``json.dump(..., indent=1)`` writes it.

The writer formats the columns of a :class:`~collapsim.engine.Records` store
``CHUNK_ROWS`` rows at a time with one ``%`` template per format and makes
one ``sink.write`` per chunk; it builds no object per row.  The reader
fills a :class:`~collapsim.engine.Records` store column by column.
"""

from __future__ import annotations

import json
import math
from functools import cache
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence

from .engine import _EVENT_CODES, _REGIME_CODES, LastEvent, Records, Regime, TimeSeriesRecord

CSV_HEADER = "t_s,sigma_x_m,sigma_y_m,sigma_z_m,n_collisions,n_collapses,regime,last_event"

FIELD_NAMES = tuple(CSV_HEADER.split(","))

# Rows formatted per ``sink.write``.
CHUNK_ROWS = 1024

_CSV_ROW = "%.16e,%.16e,%.16e,%.16e,%d,%d,%s,%s\n"

# One element of ``json.dump(rows, sink, indent=1)``, led by the separator
# from the element before it.  ``%r`` writes a finite float as ``json`` does;
# a store with a non-finite float is written with ``_JSON_ROW_TEXT``, its
# floats first turned into ``json``'s tokens by ``_json_number``.
_JSON_ROW = ",\n {\n%s\n }" % ",\n".join(
    f'  "{name}": {spec}'
    for name, spec in zip(FIELD_NAMES, ("%r",) * 4 + ("%d",) * 2 + ('"%s"',) * 2)
)
_JSON_ROW_TEXT = _JSON_ROW.replace("%r", "%s")

_REGIME_NAMES = [regime.value for regime in Records.REGIMES]
_EVENT_NAMES = [event.value for event in Records.EVENTS]


# Per column, a text or JSON field to its column item.  ``Regime(name)`` and
# ``LastEvent(name)`` refuse an unknown name; a known one is looked up once.
_PARSERS = (float,) * 4 + (int,) * 2 + (
    cache(lambda name: _REGIME_CODES[Regime(name)]),
    cache(lambda name: _EVENT_CODES[LastEvent(name)]),
)


class RecordWriteError(IOError):
    """Writing records failed; the sink may hold partial output."""


def _json_number(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return repr(x)


def _chunks(
    records: Records, row: str, number: Optional[Callable[[float], str]] = None
) -> Iterator[str]:
    """The rows of ``records`` formatted with the template ``row``, joined
    ``CHUNK_ROWS`` at a time; ``number`` maps each float first."""
    t, sx, sy, sz, n_collisions, n_collapses, regime, event = records.columns()
    for lo in range(0, len(records), CHUNK_ROWS):
        part = slice(lo, lo + CHUNK_ROWS)
        floats = [column[part] for column in (t, sx, sy, sz)]
        if number is not None:
            floats = [map(number, column) for column in floats]
        yield "".join(map(row.__mod__, zip(
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
    if format not in ("csv", "json"):
        raise ValueError(f"unknown record format {format!r}")
    if not isinstance(records, Records):
        records = Records.from_rows(records)
    try:
        if format == "csv":
            sink.write(CSV_HEADER + "\n")
            for text in _chunks(records, _CSV_ROW):
                sink.write(text)
            return
        # A finite sum means finite terms; a sum that overflows only takes the
        # slower path, which writes finite floats the same way.
        if all(math.isfinite(sum(column)) for column in records.columns()[:4]):
            chunks = _chunks(records, _JSON_ROW)
        else:
            chunks = _chunks(records, _JSON_ROW_TEXT, _json_number)
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
            for column, values, parse in zip(records.columns(), zip(*chunk), _PARSERS):
                column.extend(map(parse, values))
    except KeyError as exc:  # only a JSON object without a field raises it
        raise ValueError(f"record object is missing the field {exc.args[0]!r}") from None
    except TypeError as exc:  # a JSON field that is neither a number nor a string
        raise ValueError(f"malformed record field: {exc}") from None
    return records
