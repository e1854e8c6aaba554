"""Two-phase streaming decoder for the repetition codec.

Unit profile: q=16 RM(m=2, d=1) over the extended Hamming [8,4,4] inner code,
12 message bits, 8 copies, v=8 checksums, r_out=6, eps=1/5.  Settle threshold
is (1-eps)*copies/2 = 16/5, so phase 1 needs at least 4 clean copies; two
accepted copies then finish the harvest.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from streamcode.codec_repeat import (RepeatParams, _schedule, _walk_copy,
                                     dec_repeat, enc_repeat,
                                     errcount_property_probe)
from streamcode.gf import ERASE, GF
from streamcode.codes import extended_hamming_code
from streamcode.ldc_binary import BinaryLdcParams
from streamcode.stream import MemoryLedger, SymbolStream


def make_params(budget_bits=1 << 15, threshold_variant="algorithm"):
    ldc = BinaryLdcParams(F=GF(4), m=2, d=1, inner=extended_hamming_code(),
                          n=12, eps=Fraction(1, 5), t_smooth=2, t_advice=2)
    return RepeatParams(ldc=ldc, msg_bits=12, copies=8, v=8, r_out=6,
                        budget_bits=budget_bits,
                        threshold_variant=threshold_variant)


def msg(seed=5):
    rng = random.Random(seed)
    return np.array([rng.randrange(2) for _ in range(12)], dtype=np.int32)


class TestParams:
    def test_thresholds(self):
        p = make_params(threshold_variant="prose")
        assert p.threshold == Fraction(4, 5)       # (1/2 - 2/5) * 8
        assert make_params().threshold == Fraction(12, 5)  # (1/2 - 1/5) * 8
        assert p.settle_threshold == Fraction(16, 5)

    def test_shapes(self):
        p = make_params()
        assert p.ldc.code_len == 2048
        assert p.code_len == 8 * 2048
        assert p.rate == Fraction(12, 16384)

    def test_validation(self):
        ldc = make_params().ldc
        with pytest.raises(ValueError):
            RepeatParams(ldc=ldc, msg_bits=999, copies=8, v=8, r_out=6,
                         budget_bits=1 << 14)
        with pytest.raises(ValueError):
            RepeatParams(ldc=ldc, msg_bits=12, copies=8, v=8, r_out=6,
                         budget_bits=1 << 14, threshold_variant="nope")
        with pytest.raises(ValueError):
            RepeatParams(ldc=ldc, msg_bits=12, copies=1, v=8, r_out=6,
                         budget_bits=1 << 14)


class TestCleanStream:
    def test_roundtrip(self):
        p = make_params()
        x = msg()
        word = enc_repeat(p, x)
        assert len(word) == p.code_len
        res = dec_repeat(p, SymbolStream(word), random.Random(0))
        assert res.success
        assert np.array_equal(res.message, x)
        assert res.settled_after == 4          # ceil of 16/5 with strict >
        assert res.copies_used == 6            # 4 tracking + 2 harvesting
        assert res.tape.written_indices() == list(range(12))
        assert not res.stream_exhausted
        assert res.advice_failures == 0

    def test_deterministic(self):
        p = make_params()
        word = enc_repeat(p, msg())
        a = dec_repeat(p, SymbolStream(word), random.Random(3))
        b = dec_repeat(p, SymbolStream(word), random.Random(3))
        assert np.array_equal(a.message, b.message)
        assert a.per_copy == b.per_copy
        assert a.ledger.peak_bits == b.ledger.peak_bits

    def test_single_pass_reads_are_partial(self):
        p = make_params()
        word = enc_repeat(p, msg())
        stream = SymbolStream(word)
        res = dec_repeat(p, stream, random.Random(0))
        assert res.success
        # the decoder reads a strict subset of the stream positions
        assert stream.total_read < len(word)

    def test_budget_respected(self):
        p = make_params()
        res = dec_repeat(p, SymbolStream(enc_repeat(p, msg())), random.Random(1))
        assert 0 < res.ledger.peak_bits <= p.budget_bits
        assert not res.ledger.exceeded
        assert res.report()["budget_ok"]

    def test_budget_violations_recorded_not_raised(self):
        p = make_params(budget_bits=4000)
        res = dec_repeat(p, SymbolStream(enc_repeat(p, msg())), random.Random(1))
        assert res.success                      # decoding is unaffected
        assert res.ledger.exceeded
        assert not res.report()["budget_ok"]


class TestCorruption:
    def test_uniform_corruption(self):
        p = make_params()
        x = msg()
        clean = enc_repeat(p, x)
        wins = 0
        for seed in range(15):
            rng = random.Random(100 + seed)
            word = clean.copy()
            flips = rng.sample(range(len(word)), len(word) // 20)  # 5%
            word[flips] ^= 1
            res = dec_repeat(p, SymbolStream(word), random.Random(seed))
            if res.success and np.array_equal(res.message, x):
                wins += 1
        assert wins >= 13

    def test_killed_tracking_copy(self):
        # complementing copy 0 wholesale: trackers settle one copy later
        p = make_params()
        x = msg()
        word = enc_repeat(p, x)
        N = p.ldc.code_len
        word[:N] ^= 1
        res = dec_repeat(p, SymbolStream(word), random.Random(2))
        assert res.success
        assert np.array_equal(res.message, x)
        assert res.settled_after == 5

    def test_killed_harvest_copy_is_screened_out(self):
        p = make_params()
        x = msg()
        word = enc_repeat(p, x)
        N = p.ldc.code_len
        word[4 * N:5 * N] ^= 1                 # first phase-2 copy
        res = dec_repeat(p, SymbolStream(word), random.Random(0))
        assert res.success
        assert np.array_equal(res.message, x)
        killed = res.per_copy[4]
        assert killed["phase"] == 2
        assert killed["c"] == 8 and not killed["passed"]
        assert res.copies_used == 7            # one extra copy consumed


class TestExhaustion:
    def test_truncated_stream_fails_cleanly(self):
        p = make_params()
        word = enc_repeat(p, msg())[:3 * p.ldc.code_len]
        res = dec_repeat(p, SymbolStream(word), random.Random(0))
        assert not res.success
        assert res.message is None
        assert res.stream_exhausted

    def test_truncation_mid_harvest(self):
        p = make_params()
        word = enc_repeat(p, msg())[:5 * p.ldc.code_len - 7]
        res = dec_repeat(p, SymbolStream(word), random.Random(0))
        assert not res.success
        assert res.stream_exhausted
        assert len(res.tape) < 12


class TestErrcountProbe:
    def test_clean_run_has_no_violations(self):
        p = make_params()
        res = dec_repeat(p, SymbolStream(enc_repeat(p, msg())), random.Random(0),
                         collect_trace=True)
        trace = dict(res.trace)
        trace["errors_per_copy"] = [0] * 8
        assert errcount_property_probe(p, trace) == []

    def test_late_settling_with_no_errors_is_flagged(self):
        p = make_params()
        trace = {"settled_after": 8, "errors_per_copy": [0] * 8}
        violations = errcount_property_probe(p, trace)
        # bound (1-eps)(ell - 4) N / 2 is positive for ell = 5, 6, 7
        assert [v["copy"] for v in violations] == [5, 6, 7]
        assert violations[0]["bound"] == Fraction(4, 5) * 1 * 2048 / 2

    def test_heavy_errors_satisfy_the_property(self):
        p = make_params()
        trace = {"settled_after": 7,
                 "errors_per_copy": [900, 900, 900, 900, 900, 900, 0, 0]}
        assert errcount_property_probe(p, trace) == []


class TestReport:
    def test_report_schema(self):
        p = make_params()
        res = dec_repeat(p, SymbolStream(enc_repeat(p, msg())), random.Random(0))
        rep = res.report()
        for key in ("success", "copies_used", "settled_after", "bits_written",
                    "peak_bits", "budget_bits", "budget_ok", "per_copy"):
            assert key in rep
        assert rep["bits_written"] == 12

    def test_describe(self):
        d = make_params().describe()
        assert d["copies"] == 8 and d["msg_bits"] == 12
        assert d["threshold_variant"] == "algorithm"


def test_walk_copy_delivers_erasures():
    """An erased bit reaches the curve buffers and the single-bit slots as
    ERASE, so the decoders charge it one half instead of a whole flip."""
    word = np.array([0, 1, 1, 0, 1, ERASE, 0, 1, 1, 1, 0, 0], dtype=np.int32)
    curve = SimpleNamespace(positions=range(8), blocks=[1, 0])
    [[buf]], deliveries = _schedule(4, [[curve]])
    vals = np.zeros(2, dtype=np.int64)
    stream = SymbolStream(word)
    _walk_copy(stream, 4, 3, deliveries, {1: [(vals, 1, 1)]})
    assert buf.tolist() == [1, ERASE, 0, 1, 0, 1, 1, 0]
    assert vals.tolist() == [0, ERASE]
    assert stream.cursor == len(word)
