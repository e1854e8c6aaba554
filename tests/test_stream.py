"""Stream primitives: read-once discipline, in-order tape, ledger, files."""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamcode.gf import ERASE, MODULI
from streamcode.stream import (
    MemoryLedger, OutOfOrderWrite, OutputTape, StreamExhausted, SymbolStream,
    read_stream_file, serialize_state, state_size_bits, write_stream_file,
)


def test_stream_reads_forward_only():
    s = SymbolStream(np.arange(10))
    assert s.read_next() == 0
    run = s.read_run(4)
    assert list(run) == [1, 2, 3, 4]
    s.skip(3)
    assert s.read_next() == 8
    assert s.remaining == 1
    assert s.total_read == 6  # skipped symbols are not reads
    before = s.cursor
    with pytest.raises(StreamExhausted):
        s.read_run(5)
    assert s.cursor == before  # failed read consumes nothing


def test_stream_exhaustion():
    s = SymbolStream([1, 2])
    s.read_run(2)
    with pytest.raises(StreamExhausted):
        s.read_next()
    with pytest.raises(StreamExhausted):
        s.skip(1)


def test_tape_order_enforced():
    t = OutputTape()
    t.write(0, 1)
    t.write(3, 0)
    with pytest.raises(OutOfOrderWrite):
        t.write(3, 1)
    with pytest.raises(OutOfOrderWrite):
        t.write(1, 1)
    assert t.written_indices() == [0, 3]
    assert list(t.as_array(5, fill=9)) == [1, 9, 9, 0, 9]


def test_ledger_records_but_does_not_raise():
    led = MemoryLedger(budget_bits=100)
    led.checkpoint(60, "a")
    led.checkpoint(90, "b")
    led.checkpoint(140, "c")  # over budget: recorded, not raised
    led.checkpoint(40, "d")
    assert led.peak_bits == 140
    assert led.exceeded and len(led.violations) == 1
    assert led.violations[0]["label"] == "c"
    assert led.checkpoints == 4


def test_serialize_state_deterministic_and_distinct():
    a = {"x": 5, "buf": np.array([1, 0, 1, 1]), "p": Fraction(3, 7)}
    b = {"buf": np.array([1, 0, 1, 1]), "p": Fraction(3, 7), "x": 5}
    assert serialize_state(a) == serialize_state(b)  # dict order canonical
    c = dict(a, x=6)
    assert serialize_state(a) != serialize_state(c)


def test_serialize_state_sizes():
    # 675 bits pack to ceil(675/8) = 85 payload bytes (+ 6 of framing)
    arr = np.zeros(675, dtype=np.int32)
    arr[0] = 1
    assert state_size_bits(arr) == 8 * (1 + 4 + 1 + 85)
    # int16-range values: 2 bytes each
    arr2 = np.array([300, -5, 7])
    assert state_size_bits(arr2) == 8 * (1 + 4 + 1 + 6)
    assert state_size_bits(None) == 8
    assert state_size_bits([1, 2]) == 8 * (1 + 4 + 9 + 9)


def test_serialize_rejects_unknown():
    with pytest.raises(TypeError):
        serialize_state(object())


def test_stream_file_bits_roundtrip(tmp_path):
    path = tmp_path / "bits.scs"
    bits = np.array([1, 0, 1, 1, 0, 0, 0, 0, 1], dtype=np.int32)
    write_stream_file(path, bits, field_k=0)
    got, k = read_stream_file(path)
    assert k == 0 and np.array_equal(got, bits)
    raw = path.read_bytes()
    assert raw[:4] == b"SCS1" and raw[4] == 0
    assert raw[10] == 0b00001101  # LSB-first packing of 1,0,1,1,0,0,0,0


def test_stream_file_symbols_with_erasure(tmp_path):
    path = tmp_path / "syms.scs"
    word = np.array([0, 5, ERASE, 15, 7], dtype=np.int32)
    write_stream_file(path, word, field_k=4)
    got, k = read_stream_file(path)
    assert k == 4 and np.array_equal(got, word)


def test_stream_file_wide_symbols(tmp_path):
    path = tmp_path / "wide.scs"
    word = np.array([255, ERASE, 0], dtype=np.int32)
    write_stream_file(path, word, field_k=8)  # sentinel 256 needs two bytes
    got, k = read_stream_file(path)
    assert k == 8 and np.array_equal(got, word)


def test_stream_file_rejects_bad_bits(tmp_path):
    with pytest.raises(ValueError):
        write_stream_file(tmp_path / "bad.scs", np.array([0, 2]), field_k=0)


def test_stream_file_rejects_symbol_q(tmp_path):
    # q itself is the on-disk erasure sentinel, so it is not a symbol
    with pytest.raises(ValueError):
        write_stream_file(tmp_path / "bad.scs", np.array([16, 3]), field_k=4)
    with pytest.raises(ValueError):
        write_stream_file(tmp_path / "bad.scs", np.array([3, -2]), field_k=4)


def test_stream_file_read_rejects_value_above_q(tmp_path):
    path = tmp_path / "bad.scs"
    write_stream_file(path, np.array([3, 5]), field_k=4)
    raw = bytearray(path.read_bytes())
    raw[10] = 17  # neither a GF(16) symbol nor the erasure sentinel 16
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_stream_file(path)


def test_stream_file_truncated_symbols(tmp_path):
    path = tmp_path / "cut.scs"
    write_stream_file(path, np.arange(100) % 16, field_k=4)
    path.write_bytes(path.read_bytes()[:10 + 64])  # header + 64 of 100 symbols
    with pytest.raises(ValueError):
        read_stream_file(path)


def test_stream_file_truncated_bits(tmp_path):
    path = tmp_path / "cut.scs"
    write_stream_file(path, np.arange(100) % 2, field_k=0)
    path.write_bytes(path.read_bytes()[:10 + 8])  # header + 64 of 100 bits
    with pytest.raises(ValueError):
        read_stream_file(path)


def _header(kind, field_k, n):
    return b"SCS1" + bytes([kind, field_k]) + n.to_bytes(4, "little")


def _rejected(path, raw):
    path.write_bytes(raw)
    with pytest.raises(ValueError):
        read_stream_file(path)


def test_stream_file_rejects_unknown_kind(tmp_path):
    _rejected(tmp_path / "k7.scs", _header(7, 4, 2) + bytes([3, 5]))


def test_stream_file_rejects_symbols_without_field(tmp_path):
    # read as one-byte "symbols" of GF(2^0), 1 would come back as ERASE
    _rejected(tmp_path / "k1f0.scs", _header(1, 0, 2) + bytes([0, 1]))


def test_stream_file_rejects_field_without_modulus(tmp_path):
    assert 5 not in MODULI
    _rejected(tmp_path / "k1f5.scs", _header(1, 5, 2) + bytes([3, 5]))


def test_stream_file_rejects_bits_with_field_byte(tmp_path):
    _rejected(tmp_path / "k0f4.scs", _header(0, 4, 8) + bytes([0b1101]))


@pytest.mark.parametrize("field_k", [0, 4, 8])
def test_stream_file_rejects_trailing_bytes(tmp_path, field_k):
    path = tmp_path / "long.scs"
    write_stream_file(path, np.arange(9) % 2, field_k)
    read_stream_file(path)
    _rejected(path, path.read_bytes() + bytes(2))   # a whole two-byte symbol at k = 8


def test_stream_file_rejects_short_header(tmp_path):
    path = tmp_path / "cut.scs"
    write_stream_file(path, np.arange(9) % 2, 0)
    raw = path.read_bytes()
    for cut in range(10):
        _rejected(path, raw[:cut])


def test_stream_file_write_rejects_unpinned_field(tmp_path):
    for field_k in (5, 13, -1):
        with pytest.raises(ValueError):
            write_stream_file(tmp_path / "bad.scs", np.array([1, 0]), field_k)
        assert not (tmp_path / "bad.scs").exists()


@settings(max_examples=200, deadline=None)
@given(field_k=st.sampled_from([0] + sorted(MODULI)), data=st.data())
def test_stream_file_roundtrip_property(field_k, data):
    # bits, or symbols of GF(2^k) with erasures mixed in
    lo = 0 if field_k == 0 else ERASE
    hi = 1 if field_k == 0 else (1 << field_k) - 1
    word = np.array(data.draw(st.lists(st.integers(lo, hi), max_size=300)),
                    dtype=np.int32)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.scs"
        write_stream_file(path, word, field_k)
        got, k = read_stream_file(path)
    assert k == field_k
    assert np.array_equal(got, word)
