"""Time-series serialization: CSV and JSON, lossless round trip.

CSV columns: ``t_s,sigma_x_m,sigma_y_m,sigma_z_m,n_collisions,n_collapses,
regime,last_event``.  Floats are written as ``'%.16e' % x`` writes them, 17
significant digits, which round-trips every binary64 value exactly, so a
written file parses back to bit-identical records.  JSON is an array of
objects with the same keys, as ``json.dump(..., indent=1)`` writes it: a
float as ``repr`` writes it, the shortest text that reads back as it.

Both writers format the chunks of a :class:`~collapsim.engine.Records`
store as views, ``CHUNK_ROWS`` rows per ``sink.write``, and build no object
per row.  Both lay a chunk out as a NUL-padded byte matrix, a row per record
and a span per field only as wide as the chunk's widest text of it,
``_TEXT_ROWS`` rows at a time, and drop the NULs to get the text, one by
one where they are sparse and else by a mask.  A format's layout gives the
constant bytes of a row (CSV's separators, JSON's keys and punctuation),
the name tables and the float kernel.  The regime and the event are rows
of code-indexed name tables, quoted in JSON.  A count is its decimal
digits with the leading zeros blanked, as many as the chunk's largest
magnitude has, after a sign byte only if one count is negative; a count
constant over the chunk is formatted once.  A float is formatted by an
exact integer kernel on its bits x = M 2**E, for x of the decade k, with
s = 16 - k and the products held in two 64-bit limbs (Steele & White 1990):

- CSV, for 1e-16 <= x < 1e16: the 17 digits are round-half-even(M 5**s
  2**(s+E)), the correctly rounded conversion that ``%.16e`` makes (Gay
  1990).
- JSON, for 1e-15 <= x < 1e16 with M not a power of two: x's rounding
  interval, x -+ 1/2 ulp scaled by 10**s and closed when M is even, holds
  a multiple of 10**j for a largest j; x rounded to 10**j, half to even,
  has the digits of ``repr`` (Adams 2018).  They are laid out as ``repr``
  lays them out, in fixed notation from 1e-4 up and in scientific notation
  below, from one row per decade.

Every other value (zero, a negative, a subnormal, an infinity, a NaN, one
out of range, and for JSON a power of two, whose interval is not
symmetric) is formatted by ``'%.16e' % x``, or as ``json.dump`` writes it,
for that value alone.  The kernels' tables are built on the first write.

Between contractions a heavy object's widths do not spread, so its float
columns come in long runs of one bit pattern, and a packet that is
isotropic stays isotropic bit for bit when the environment's packets are,
so the three widths are often equal.  Within a chunk, a width column that
is bit-equal to an earlier float column copies that column's rows, and a
float column is formatted once per run: by the kernel, in one call for all
columns with many runs, or else one run at a time.  Runs and shared
columns are of bit patterns, not of values, so that ``0.0`` and ``-0.0``
keep their own text.

The reader parses ``CHUNK_ROWS`` rows at a time into a chunk of a
:class:`~collapsim.engine.Records` store.  A JSON field must have its
column's type: a number (an int or a float, never a boolean) for a time or
a width, an int for a count, and a string for the regime and the last
event.  A refusal of a field's value names the field, in either direction.

An ensemble's summary, which ``collapsim run --replicas`` writes, is one
JSON object (:func:`write_ensemble`).
"""

from __future__ import annotations

import json
import math
from functools import cache, lru_cache
from itertools import islice
from types import SimpleNamespace
from typing import IO, Callable, Iterable, Optional, Sequence

import numpy as np

from .config import OUTPUT_FORMATS
from .engine import CHUNK_ROWS, EnsembleSummary, LastEvent, Records, Regime, TimeSeriesRecord

CSV_HEADER = ",".join(Records.FIELDS)

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
        next((j for j in range(i) if bits[j][0] == b[0] and (bits[j] == b).all()), i)
        for i, b in enumerate(bits)
    ]


# The kernels.  Integer arrays stay uint64, with uint64 scalars: numpy 1.x
# promotes uint64 with int64 to float64.
_U64 = np.uint64
_LOW32 = _U64(2**32 - 1)
_MANTISSA = _U64(2**52 - 1)
_TEN4 = _U64(10_000)
_TEN16, _TEN17 = _U64(10**16), _U64(10**17)

# 5**s for s = 0 .. 32, shifted left by c to 75 bits.  Its product P with
# a 53-bit mantissa M tops out in bit 126 or 127 of two 64-bit limbs, and
# x 10**s = M 2**E 10**s = P 2**(s + E - c): twice that, with the bit that
# decides the rounding, is the high limb shifted right by shift = c - s -
# 65 - E.  For s <= 31, c >= 3, and (M +- 1/2) 5**s 2**c, the ends of x's
# rounding interval, are the integers P +- 5**s 2**(c - 1).
_POW5 = [5**s << (75 - (5**s).bit_length()) for s in range(33)]


@cache
def _tables() -> SimpleNamespace:
    """The kernels' tables, built on first use."""
    t = SimpleNamespace()
    t.pow5_lo = np.array([p % 2**64 for p in _POW5], np.uint64)
    t.pow5_hi = np.array([p >> 64 for p in _POW5], np.uint64)
    t.half_lo = np.array([(p >> 1) % 2**64 for p in _POW5], np.uint64)
    t.half_hi = np.array([p >> 65 for p in _POW5], np.uint64)
    t.shift = np.array([75 - (5**s).bit_length() - s - 65 for s in range(33)], np.int64)
    t.pow10 = np.array([10**j for j in range(18)], np.uint64)
    # Four ASCII digits per ``uint32``: rows 0 .. 9999 zero-padded, rows
    # 10000 .. 19999 the same with their leading zeros as NULs (all four
    # for 0), and a last row for the last four digits of a zero.
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    quads = np.zeros((20_001, 4), np.uint8)
    padded = quads[:10_000].reshape(100, 100, 4)  # row 100 a + b: a's digits, then b's
    padded[:, :, :2] = pairs[:, None]
    padded[:, :, 2:] = pairs
    quads[10_000:20_000] = quads[:10_000]
    for place, below in enumerate((1000, 100, 10, 1)):  # the numbers with this leading zero
        quads[10_000 : 10_000 + below, place] = 0
    quads[-1, -1] = ord("0")
    t.quads = quads.view(np.uint32).ravel()
    # ``%.16e``'s exponent texts of the decades -16 .. 16.
    t.exponents = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-16, 17)), np.uint32)
    # Per count L, the 20 digits of ``_digits`` as quads, with the bytes from
    # the L-th on cleared.
    masks = b"".join(b"\xff" * n + b"\0" * (20 - n) for n in range(21))
    t.keep_masks = np.frombuffer(masks, np.uint32).reshape(21, 5)
    return t


@cache
def _repr_layout(decade: int) -> tuple[np.ndarray, list[tuple[slice, slice]]]:
    """``repr``'s row for a decade, at most 24 bytes: its constant bytes, and
    per run of digit places, the slices of the places and of the 17 digits."""
    if -4 <= decade < 0:  # 0.000ddd...: the digits after a constant prefix
        text = "0." + "0" * (-decade - 1)
        copies = [(slice(len(text), len(text) + 17), slice(0, 17))]
    else:  # ddd.ddd, or d.ddde-05: the digits around a point
        point = decade + 1 if decade >= 0 else 1
        text = "\0" * point + "." + "\0" * (17 - point) + ("e-%02d" % -decade if decade < 0 else "")
        copies = [(slice(0, point), slice(0, point)), (slice(point + 1, 18), slice(point, 17))]
    return np.frombuffer(text.ljust(24, "\0").encode("ascii"), np.uint8), copies


@cache
def _layout(format: str) -> SimpleNamespace:
    """The row layout of a record format, built on first use: the constant
    bytes before each field and after the last, the name tables as rows of
    24 NUL-padded bytes, the float kernel and the text of one float, both as
    the format writes them, and the first row's first byte, if it differs
    from the others'."""
    names = [_REGIME_NAMES, _EVENT_NAMES]
    if format == "csv":
        texts, floats, number, opening = ("",) + (",",) * 7 + ("\n",), _sci, "%.16e".__mod__, ""
    else:
        keys = [f'\n  "{name}": ' for name in Records.FIELDS]
        texts = (",\n {" + keys[0],) + tuple("," + key for key in keys[1:]) + ("\n }",)
        names = [[f'"{name}"' for name in n] for n in names]
        floats, number, opening = _shortest, _json_number, "["
    names = [_text_rows(n) for n in names]
    return SimpleNamespace(texts=texts, names=names, floats=floats, number=number, opening=opening)


def _digits(u: np.ndarray, groups: int = 5, blank: bool = False) -> np.ndarray:
    """The last ``4 groups`` ASCII digits of each ``uint64`` in ``u``, one
    row each: zero-padded, or with ``blank`` its leading zeros as NULs."""
    quads = _tables().quads
    out = np.empty((len(u), groups), np.uint32)
    zero = (u == 0) * _TEN4 if blank else _U64(0)  # a zero keeps its last digit
    for i in range(groups - 1, -1, -1):
        q = u // _TEN4
        index = u - q * _TEN4
        if blank:
            index += (q == 0) * _TEN4 + zero
            zero = _U64(0)
        out[:, i] = quads[index.view(np.intp)]  # an intp index gathers fastest
        u = q
    return out.view(np.uint8)


def _product(m: np.ndarray, e: np.ndarray, k: np.ndarray):
    """For x = m 2**e and a decade k, x 10**(16 - k) as the two limbs of
    P (see ``_POW5``) and the shift that takes twice it from the high limb."""
    t = _tables()
    s = 16 - k
    b_lo, b_hi = t.pow5_lo[s], t.pow5_hi[s]
    # m b, 53 by 75 bits, in 32-bit pieces: m b_lo, then m b_hi into the high limb.
    m0, m1, b0, b1 = m & _LOW32, m >> _U64(32), b_lo & _LOW32, b_lo >> _U64(32)
    p00, p01, p10 = m0 * b0, m0 * b1, m1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (p00 & _LOW32) | (mid << _U64(32))
    hi = m1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32)) + m * b_hi
    return hi, lo, (t.shift[s] - e).astype(np.uint64)  # shift: 1 .. 14


def _decade(y: np.ndarray, lowest: int):
    """For positive normal doubles ``y`` of the decades ``lowest`` .. 15:
    their decades k, and y 10**(16 - k) as ``_product`` gives it."""
    bits = y.view(np.uint64)
    m = (bits & _MANTISSA) | _U64(2**52)
    e = (bits >> _U64(52)).astype(np.int64) - 1075
    # log10 is within one of the decade; the truncated quotient settles it.
    # Choosing by the rounded one would print 1e-07 as 1.0e-07 in place of
    # 9.9999999999999995e-08.
    k = np.minimum(np.maximum(np.floor(np.log10(y)).astype(np.int64), lowest), 15)
    hi, lo, shift = _product(m, e, k)
    quotient = hi >> (shift + _U64(1))
    off = np.flatnonzero((quotient < _TEN16) | (quotient >= _TEN17))
    if off.size:
        k[off] += np.where(quotient[off] < _TEN16, -1, 1)
        hi[off], lo[off], shift[off] = _product(m[off], e[off], k[off])
    return k, hi, lo, shift


def _text_rows(texts: Iterable[str]) -> np.ndarray:
    """Texts of at most 24 ASCII bytes, one NUL-padded row each."""
    data = "".join(text.ljust(24, "\0") for text in texts).encode("ascii")
    return np.frombuffer(data, np.uint8).reshape(-1, 24)


def _sci(bits: np.ndarray) -> np.ndarray:
    """``'%.16e' % x`` for the float64 values with these ``uint64`` bits, one
    row of 24 NUL-padded bytes each."""
    x = bits.view(np.float64)
    exact = (x > 1e-16) & (x < 1e16)  # as doubles, x > 1e-16 is x >= 10**-16
    k, hi, lo, shift = _decade(np.where(exact, x, 1.0), -16)
    twice = hi >> shift  # the quotient and the bit below it
    sticky = ((hi << (_U64(64) - shift)) | lo) != 0  # any bit below that one
    quotient = twice >> _U64(1)
    d = quotient + (twice & (sticky | quotient) & _U64(1))  # rounded half to even
    carry = d == _TEN17  # rounded up to the next decade
    d[carry] = _TEN16
    k += carry
    g = _digits(d)
    out = np.zeros((len(x), 24), np.uint8)
    out[:, 0] = g[:, 3]
    out[:, 1] = ord(".")
    out[:, 2:18] = g[:, 4:]
    out[:, 18:22] = _tables().exponents[k + 16].view(np.uint8).reshape(-1, 4)
    return _fill(out, x, ~exact, "%.16e".__mod__)


def _shortest(bits: np.ndarray) -> np.ndarray:
    """``repr(x)`` for the float64 values with these ``uint64`` bits, one row
    of 24 NUL-padded bytes each; a non-finite value as ``_json_number``
    writes it."""
    t = _tables()
    x = bits.view(np.float64)
    # A mantissa of zero bits has a rounding interval twice as wide above
    # as below; as doubles, x >= 1e-15 is x >= 10**-15.
    exact = (x >= 1e-15) & (x < 1e16) & ((bits & _MANTISSA) != 0)
    k, hi, lo, shift = _decade(np.where(exact, x, 1.5), -15)
    # The shortest text rounds x 10**s to the multiple of 10**j nearest it,
    # of two the one with an even quotient.  The interval is symmetric, so
    # the nearest multiple lies in it when any does.
    j = _shortest_power(k, hi, lo, shift)
    power = t.pow10[j]
    twice = hi >> shift
    sticky = ((hi << (_U64(64) - shift)) | lo) != 0
    q = twice // (power + power)
    rest = twice - q * (power + power)  # floor(2 (x 10**s mod 10**j))
    q += (rest > power) | ((rest == power) & (sticky | (q & _U64(1)).astype(bool)))
    d = q * power
    carry = d == _TEN17  # rounded up to the next decade
    d[carry] = _TEN16
    k += carry
    # q has no trailing zero, or a multiple of 10**(j + 1) would be in the
    # interval: the 17 digits have 17 - j significant ones (one after a
    # carry).  The zeros after them are NULs, but for those of an integral
    # part and the first after the point.
    kept = np.maximum(17 - j + carry, np.where(k >= 0, k + 2, 1))
    quads = _digits(d).view(np.uint32)
    quads &= np.take(t.keep_masks, 3 + kept, axis=0)
    g = quads.view(np.uint8)[:, 3:]
    out = np.empty((len(x), 24), np.uint8)
    low, high = (int(k.min()), int(k.max())) if len(k) else (0, -1)
    for decade in range(low, high + 1):
        rows = np.flatnonzero(k == decade) if low < high else slice(None)
        row, copies = _repr_layout(decade)
        out[rows] = row
        for place, digits in copies:
            out[rows, place] = g[rows, digits]
        if decade < -4:  # a single digit takes no point: 1e-05
            out[rows, 1] = np.where(g[rows, 1], ord("."), 0)
    return _fill(out, x, ~exact, _json_number)


def _shortest_power(k: np.ndarray, hi: np.ndarray, lo: np.ndarray, shift: np.ndarray):
    """For x of the decade k, with x 10**s as ``_decade`` gives it, the
    largest j such that a multiple of 10**j lies in x's rounding interval,
    x 10**s -+ 5**s 2**(c - 1) over 2**F with F = 65 + shift.

    An end of the interval, (2M -+ 1) 5**s 2**(s + E - 1), is an integer
    only if s + E >= 1.  In the JSON kernel's domain that holds only from
    2**52 up, where s = 1: an end is an odd multiple of 5, or from 2**53 up
    10 times an odd number, while x itself is then a multiple of 10.  So an
    end is never the only multiple of 10**j, j >= 1, in the interval, and
    whether the ends are open or closed (closed when M is even) changes no
    text.
    """
    t = _tables()
    s = 16 - k
    half_lo, half_hi = t.half_lo[s], t.half_hi[s]
    point = shift + _U64(1)
    # The largest integers at or below the ends.
    top = (hi + half_hi + (lo + half_lo < lo)) >> point
    width = top - ((hi - half_hi - (lo < half_lo)) >> point)
    # A multiple of 10**j lies in the interval when top mod 10**j < width.
    j = np.zeros(len(k), np.int64)
    for power in t.pow10[1:]:
        more = top - top // power * power < width
        if not more.any():
            break
        j += more
    return j


def _fill(out: np.ndarray, x: np.ndarray, other: np.ndarray, number: Callable[[float], str]):
    """``out`` with the rows where ``other`` is true written by ``number``."""
    rows = np.flatnonzero(other)
    if rows.size:
        out[rows] = _text_rows(map(number, x[rows].tolist()))
    return out


def _integers(n: np.ndarray) -> np.ndarray:
    """``'%d' % i`` for each ``int64`` in ``n``, one row each: a sign byte if
    one is negative, and as many digits as the largest magnitude has, NUL
    where a row has no sign or a leading zero.  A constant is formatted once."""
    low, high = int(n.min()), int(n.max())
    if low == high:
        row = np.frombuffer(b"%d" % low, np.uint8)
        return np.broadcast_to(row, (len(n), row.size))
    width = len(str(max(high, -low)))
    groups, u = -(-width // 4), n.view(np.uint64)
    if low >= 0:  # no leading zero to blank when every text is as wide
        return _digits(u, groups, blank=len(str(low)) < width)[:, -width:]
    negative = n < 0
    out = np.empty((len(n), width + 1), np.uint8)
    out[:, 0] = negative * np.uint8(ord("-"))
    out[:, 1:] = _digits(np.where(negative, _U64(0) - u, u), groups, blank=True)[:, -width:]
    return out


def _width(rows: np.ndarray) -> int:
    """The widest of texts given as rows of 24 NUL-padded bytes."""
    words = rows.view("<u8")  # byte b of a row is in bits 8 (b mod 8) up of word b // 8
    for i in (2, 1, 0):
        top = int(words[:, i].max())
        if top:
            return 8 * i + (top.bit_length() + 7) // 8
    return 0


def _json_number(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return repr(x)


@lru_cache(maxsize=256)
def _geometry(texts: tuple[str, ...], widths: tuple[int, ...]) -> tuple[np.ndarray, list[slice]]:
    """A byte matrix row for fields of these widths between these texts:
    the texts' bytes with NUL in each field's span, and the spans."""
    starts = np.cumsum([len(texts[0])] + [w + len(s) for w, s in zip(widths, texts[1:])])
    spans = [slice(a, a + w) for a, w in zip(starts.tolist(), widths)]
    row = np.zeros(starts[-1], np.uint8)
    for text, end in zip(texts, [0] + [span.stop for span in spans]):
        row[end : end + len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
    return row, spans


# A float column of a chunk with fewer run starts than this is formatted
# one start at a time: below it, a kernel call costs more than the starts.
_FEW_STARTS = 64


def _run_starts(bits: np.ndarray) -> Optional[np.ndarray]:
    """The rows of a float column, given as its bits, that start a run of
    one bit pattern, or None if every row does."""
    new = bits[1:] != bits[:-1]
    return None if new.all() else np.flatnonzero(np.concatenate(([True], new)))


def _float_rows(columns: Sequence[np.ndarray], layout: SimpleNamespace) -> list[np.ndarray]:
    """Per float column of a chunk, given as its bits, its texts as rows of
    24 NUL-padded bytes.

    Runs and shared columns are of bit patterns, not of values, so that
    ``0.0`` and ``-0.0`` and NaNs of different payloads each keep their own
    text.  A column bit-equal to an earlier one takes that column's rows.
    A column is formatted once per run: by the kernel, in one call for all
    columns with at least ``_FEW_STARTS`` runs, or else run by run.
    """
    first = _first_equal(columns)
    formatted = sorted(set(first))
    starts = [_run_starts(columns[i]) for i in formatted]
    heads = [columns[i] if s is None else columns[i][s] for i, s in zip(formatted, starts)]
    many = [h for h in heads if len(h) >= _FEW_STARTS]
    texts = layout.floats(np.concatenate(many)) if many else None
    rows, used = {}, 0
    for i, h, s in zip(formatted, heads, starts):
        if len(h) >= _FEW_STARTS:
            r, used = texts[used : used + len(h)], used + len(h)
        else:
            r = _text_rows(map(layout.number, h.view(np.float64).tolist()))
        rows[i] = r if s is None else np.repeat(r, np.diff(s, append=len(columns[i])), axis=0)
    return [rows[j] for j in first]


# Rows of the byte matrix laid out at a time.  A chunk's fields are
# formatted at once, but a matrix and its NUL mask for the whole chunk take
# more memory than the chunk's text, and drop their NULs more slowly.
_TEXT_ROWS = 512


def _chunk(layout: SimpleNamespace, part: Sequence[np.ndarray], first: bool) -> str:
    """The text of a chunk's rows, given as its float, count and code arrays;
    the first chunk opens with ``layout.opening`` in place of its first byte.
    Each field's span is as wide as the chunk's widest text of it."""
    floats, counts, codes = part
    n = floats.shape[1]
    padded = _float_rows(list(floats.view(np.uint64)), layout) + [
        np.take(table, row.astype(np.intp), axis=0) for table, row in zip(layout.names, codes)
    ]
    fields = [rows[:, : _width(rows)] for rows in padded]
    fields[4:4] = map(_integers, counts)
    row, spans = _geometry(layout.texts, tuple(rows.shape[1] for rows in fields))
    m = np.empty((min(n, _TEXT_ROWS), row.size), np.uint8)
    texts = []
    for lo in range(0, n, _TEXT_ROWS):
        block = m[: n - lo]
        block[:] = row
        for span, rows in zip(spans, fields):
            block[:, span] = rows[lo : lo + _TEXT_ROWS]
        if first and lo == 0 and layout.opening:
            block[0, 0] = ord(layout.opening)
        texts.append(_text(block))
    del padded, fields, m, block  # before the texts are joined
    return "".join(texts)


# A matrix with at most one NUL in this many bytes drops them one by one, at
# a cost that follows their count; a denser one by a mask, at a cost that
# follows its size.
_SPARSE = 32


def _text(m: np.ndarray) -> str:
    """A byte matrix's text: its bytes without the NULs."""
    if (m.size - np.count_nonzero(m)) * _SPARSE <= m.size:
        return str(m.tobytes().replace(b"\0", b""), "ascii")
    return str(m[m != 0].data, "ascii")


def write_records(records: Iterable[TimeSeriesRecord], format: str, sink: IO[str]) -> None:
    """Serialize time-ordered records to an open text sink.

    ``records`` is a :class:`Records` store, or any iterable of records,
    which :meth:`Records.from_rows` reads once into a store (a
    ``ValueError`` names a field it cannot hold).  Rows are formatted from the
    store's chunks, ``CHUNK_ROWS`` rows per ``sink.write``.  CSV floats are
    written as ``%.16e`` writes them; JSON is byte for byte what
    ``json.dump(rows, sink, indent=1)`` writes for the rows as objects,
    followed by a newline.
    """
    if format not in OUTPUT_FORMATS:
        raise ValueError(f"unknown record format {format!r}")
    if not isinstance(records, Records):
        records = Records.from_rows(records)
    layout = _layout(format)
    try:
        if format == "csv":
            sink.write(CSV_HEADER + "\n")
        for i, part in enumerate(records.chunks()):
            # Held until the next chunk is formatted, so that the allocator
            # reuses the memory below it, not trims it and faults it in again.
            text = _chunk(layout, part, i == 0)
            sink.write(text)
        if format == "json":
            sink.write("\n]\n" if records else "[]\n")
    except OSError as exc:
        raise RecordWriteError(
            f"failed while writing records ({exc}); output may be partial"
        ) from exc


def write_ensemble(ensemble: EnsembleSummary, sink: IO[str]) -> None:
    """Write an ensemble's summary to an open text sink as JSON, with one
    object per succeeded replica, followed by a newline."""
    replicas = [
        {
            "seed": summary.seed,
            "duration_s": summary.duration,
            "n_collisions": summary.n_collisions,
            "n_collapses": summary.n_collapses,
            "final_sigma_m": list(summary.final_sigma),
            "final_min_sigma_m": summary.final_min_sigma,
            "min_sigma_m": summary.min_sigma,
            "mean_recovery_ratio": summary.mean_recovery_ratio,
            "mean_respread_between_collapses": summary.mean_respread_between_collapses,
            "localized": summary.localized,
            "final_regime": summary.final_regime.value,
        }
        for summary in ensemble.replicas
    ]
    obj = {
        "n_replicas": ensemble.n_replicas,
        "base_seed": ensemble.base_seed,
        "total_collisions": ensemble.total_collisions,
        "total_collapses": ensemble.total_collapses,
        "firing_fraction": ensemble.firing_fraction,
        "mean_recovery_ratio": ensemble.mean_recovery_ratio,
        "final_min_sigma_mean_m": ensemble.final_min_sigma_mean,
        "localized_fraction": ensemble.localized_fraction,
        "failures": [list(f) for f in ensemble.failures],
        "replicas": replicas,
    }
    json.dump(obj, sink, indent=1)
    sink.write("\n")


def read_records(source: IO[str], format: str) -> Records:
    """Parse records previously produced by :func:`write_records` into a
    :class:`Records` store, ``CHUNK_ROWS`` rows at a time."""
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
        rows = ([obj[name] for name in Records.FIELDS] for obj in doc)
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
            columns = []
            for name, values, parse, dtype in zip(Records.FIELDS, fields, _PARSERS, Records.DTYPES):
                try:
                    columns.append(np.array(list(map(parse, values)), dtype))
                # A text that is no number or no known name, a count past
                # int64, or an int past a float.
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"malformed record field {name!r}: {exc}") from None
            records.add_columns(columns)
    except KeyError as exc:  # only a JSON object without a field raises it
        raise ValueError(f"record object is missing the field {exc.args[0]!r}") from None
    return records


def _check_json_types(fields: list[tuple]) -> None:
    """Refuse a chunk of JSON fields, given column by column, that holds a
    value of a type its column does not take."""
    for name, values, (types, kind) in zip(Records.FIELDS, fields, _JSON_TYPES):
        if not set(map(type, values)) <= types:
            bad = next(v for v in values if type(v) not in types)
            raise ValueError(f"malformed record field {name!r}: {json.dumps(bad)} is not {kind}")
