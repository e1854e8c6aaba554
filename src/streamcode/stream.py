"""Single-pass streams, in-order output tapes, and memory accounting.

SymbolStream wraps a word in a read-once interface: the cursor only moves
forward, and runs of symbols are handed out as array views.  OutputTape only
accepts writes with strictly increasing indices.  Together they enforce the
access discipline of a streaming decoder; decoders never touch the underlying
arrays directly.

MemoryLedger tracks the persistent state a decoder keeps between reads.
Decoders report their state size in bits at natural boundaries: dec_repeat
serializes its whole state through state_size_bits (serialize_state, the
canonical encoding defined here) at every copy boundary.  Exceeding the
budget is recorded as a violation, not raised — a run report should show
the breach.

Stream files: magic "SCS1", kind byte (0 bits / 1 symbols), field-degree
byte (0 for bits, a key of MODULI for symbols), little-endian u32 length,
then exactly the payload — bits packed LSB-first with zero padding,
symbols as fixed-width little-endian integers with q encoding an erasure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .gf import ERASE, MODULI

MAGIC = b"SCS1"


class StreamExhausted(Exception):
    """The stream ended while a decoder still needed input."""


class OutOfOrderWrite(Exception):
    """An output index at or before the previous write."""


class SymbolStream:
    """Read-once view of a word; the cursor never moves backwards."""

    def __init__(self, data):
        self._data = np.asarray(data)
        self.cursor = 0
        self.total_read = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def remaining(self) -> int:
        return len(self._data) - self.cursor

    def read_next(self) -> int:
        if self.cursor >= len(self._data):
            raise StreamExhausted(f"read past end ({len(self._data)} symbols)")
        v = int(self._data[self.cursor])
        self.cursor += 1
        self.total_read += 1
        return v

    def read_run(self, count: int) -> np.ndarray:
        """The next `count` symbols as a view; counts as reading all of them."""
        if count < 0:
            raise ValueError("negative run length")
        if self.cursor + count > len(self._data):
            raise StreamExhausted(
                f"run of {count} at {self.cursor} exceeds {len(self._data)}")
        out = self._data[self.cursor:self.cursor + count]
        self.cursor += count
        self.total_read += count
        return out

    def skip(self, count: int):
        """Advance without buffering (skipped symbols are never seen)."""
        if count < 0:
            raise ValueError("negative skip")
        if self.cursor + count > len(self._data):
            raise StreamExhausted(
                f"skip of {count} at {self.cursor} exceeds {len(self._data)}")
        self.cursor += count


class OutputTape:
    """Write-only tape; indices must be strictly increasing."""

    def __init__(self):
        self.entries: list = []
        self._last = -1

    def write(self, index: int, value: int):
        if index <= self._last:
            raise OutOfOrderWrite(f"index {index} after {self._last}")
        self._last = index
        self.entries.append((int(index), int(value)))

    def __len__(self) -> int:
        return len(self.entries)

    def as_array(self, n: int, fill: int = 0) -> np.ndarray:
        out = np.full(n, fill, dtype=np.int32)
        for i, v in self.entries:
            out[i] = v
        return out

    def written_indices(self) -> list:
        return [i for i, _ in self.entries]


@dataclass
class MemoryLedger:
    """Peak persistent-state accounting against a bit budget."""

    budget_bits: int
    peak_bits: int = 0
    checkpoints: int = 0
    violations: list = dc_field(default_factory=list)

    def checkpoint(self, state_bits: int, label: str = ""):
        self.checkpoints += 1
        if state_bits > self.peak_bits:
            self.peak_bits = int(state_bits)
        if state_bits > self.budget_bits:
            self.violations.append(
                {"kind": "budget_exceeded", "label": label,
                 "state_bits": int(state_bits), "budget_bits": self.budget_bits})

    @property
    def exceeded(self) -> bool:
        return any(v["kind"] == "budget_exceeded" for v in self.violations)


# ---------------------------------------------------------------------------
# canonical state serialization (the measuring stick for the ledger)

def serialize_state(obj) -> bytes:
    """Deterministic byte encoding of decoder state built from ints,
    Fractions, numpy arrays, and containers.  Arrays of 0/1 pack eight per
    byte; other arrays use the smallest of 1/2/4/8 bytes per element."""
    out = bytearray()
    _ser(obj, out)
    return bytes(out)


def state_size_bits(obj) -> int:
    return 8 * len(serialize_state(obj))


def _ser(obj, out: bytearray):
    if obj is None:
        out += b"N"
    elif isinstance(obj, bool):
        out += b"B" + bytes([obj])
    elif isinstance(obj, (int, np.integer)):
        out += b"I" + struct.pack(">q", int(obj))
    elif isinstance(obj, Fraction):
        out += b"F" + struct.pack(">qq", obj.numerator, obj.denominator)
    elif isinstance(obj, str):
        raw = obj.encode()
        out += b"S" + struct.pack(">I", len(raw)) + raw
    elif isinstance(obj, np.ndarray):
        flat = obj.reshape(-1)
        out += b"A" + struct.pack(">I", flat.size)
        if flat.size == 0:
            out += b"0"
        elif flat.min() >= 0 and flat.max() <= 1:
            out += b"b" + np.packbits(flat.astype(np.uint8)).tobytes()
        else:
            lo, hi = int(flat.min()), int(flat.max())
            width = next(w for w in (1, 2, 4, 8)
                         if -(1 << (8 * w - 1)) <= lo and hi < (1 << (8 * w - 1)))
            out += bytes([width]) + flat.astype(f"<i{width}").tobytes()
    elif isinstance(obj, (list, tuple)):
        out += b"L" + struct.pack(">I", len(obj))
        for item in obj:
            _ser(item, out)
    elif isinstance(obj, dict):
        out += b"D" + struct.pack(">I", len(obj))
        for key in sorted(obj, key=str):
            _ser(str(key), out)
            _ser(obj[key], out)
    else:
        raise TypeError(f"cannot serialize state component of type {type(obj)!r}")


# ---------------------------------------------------------------------------
# stream files

def write_stream_file(path, word, field_k: int = 0):
    """field_k == 0 writes a bit stream; otherwise symbols over GF(2^k),
    erasures allowed (stored as the out-of-range value q).  A field_k with no
    pinned modulus, or values outside the alphabet, raise ValueError before
    anything is written."""
    word = np.asarray(word)
    if field_k != 0 and field_k not in MODULI:
        raise ValueError(f"no modulus pinned for field_k={field_k}")
    if field_k == 0:
        if ((word < 0) | (word > 1)).any():
            raise ValueError("bit stream values must be 0/1")
        payload = np.packbits(word.astype(np.uint8), bitorder="little").tobytes()
    else:
        q = 1 << field_k
        if ((word != ERASE) & ((word < 0) | (word >= q))).any():
            raise ValueError(f"symbol out of range for GF(2^{field_k})")
        width = (field_k + 8) // 8  # room for the erasure sentinel
        payload = np.where(word == ERASE, q, word).astype(f"<u{width}").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC + bytes([0 if field_k == 0 else 1, field_k]))
        fh.write(struct.pack("<I", len(word)) + payload)


def read_stream_file(path):
    """-> (word, field_k); bits give field_k == 0.  A short header, a kind or
    field byte write_stream_file never writes, a payload of any size but the
    declared length's, or a set padding bit in a bit stream's last byte
    raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 10 or raw[:4] != MAGIC:
        raise ValueError("not a stream file (bad magic or short header)")
    kind, field_k, payload = raw[4], raw[5], raw[10:]
    (n,) = struct.unpack("<I", raw[6:10])
    if not ((kind, field_k) == (0, 0) or (kind == 1 and field_k in MODULI)):
        raise ValueError(f"bad stream header: kind {kind}, field_k {field_k}")
    width = (field_k + 8) // 8
    if len(payload) != (-(-n // 8) if kind == 0 else n * width):
        raise ValueError(f"payload of {len(payload)} bytes does not hold {n} symbols")
    if kind == 0:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
        if bits[n:].any():
            raise ValueError("nonzero padding bits after the last bit")
        return bits[:n].astype(np.int32), 0
    vals = np.frombuffer(payload, dtype=f"<u{width}").astype(np.int32)
    q = 1 << field_k
    if (vals > q).any():
        raise ValueError(f"symbol out of range for GF(2^{field_k})")
    return np.where(vals == q, ERASE, vals), field_k
