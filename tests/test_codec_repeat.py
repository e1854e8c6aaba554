"""Two-phase streaming decoder for the repetition codec.

Unit profile: q=16 RM(m=2, d=1) over the extended Hamming [8,4,4] inner code,
12 message bits, 8 copies, v=8 checksums, r_out=6, eps=1/5.  Settle threshold
is (1-eps)*copies/2 = 16/5, so phase 1 needs at least 4 clean copies; two
accepted copies then finish the harvest.
"""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from streamcode.channel import AttackStrategy, ErrorBudget, corrupt
from streamcode.cli import _jsonable
from streamcode.codec_repeat import (RepeatParams, _read_copy, dec_repeat,
                                     enc_repeat, errcount_property_probe)
from streamcode.gf import ERASE, GF
from streamcode.codes import extended_hamming_code
from streamcode.ldc_binary import BinaryLdcParams, _smooth_fold
from streamcode.profiles import build_params, load_profile
from streamcode.stream import SymbolStream


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

    @pytest.mark.parametrize("seed, total_read", [(0, 7368), (1, 7656)])
    def test_read_schedule_pinned(self, seed, total_read):
        # six copies of 2048 consumed, the symbols read and the ledger peak
        # as measured on the earlier one-read-per-block schedule
        p = make_params()
        stream = SymbolStream(enc_repeat(p, msg()))
        res = dec_repeat(p, stream, random.Random(seed))
        assert res.success
        assert (stream.cursor, stream.total_read) == (12288, total_read)
        assert res.ledger.peak_bits == 17264

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
        res = dec_repeat(p, SymbolStream(enc_repeat(p, msg())), random.Random(0))
        assert errcount_property_probe(p, res.settled_after, [0] * 8) == []

    def test_late_settling_with_no_errors_is_flagged(self):
        p = make_params()
        violations = errcount_property_probe(p, 8, [0] * 8)
        # bound (1-eps)(ell - 4) N / 2 is positive for ell = 5, 6, 7
        assert [v["copy"] for v in violations] == [5, 6, 7]
        assert violations[0]["bound"] == Fraction(4, 5) * 1 * 2048 / 2

    def test_heavy_errors_satisfy_the_property(self):
        p = make_params()
        errors = [900, 900, 900, 900, 900, 900, 0, 0]
        assert errcount_property_probe(p, 7, errors) == []


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


def test_read_copy_delivers_erasures():
    """An erased bit comes back as ERASE, so the decoders charge it one half
    instead of a whole flip; blocks are gathered in the caller's shape, only
    the needed ones count as read, and the cursor ends at the copy's end."""
    word = np.array([0, 1, 1, 0, 1, ERASE, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0],
                    dtype=np.int32)
    stream = SymbolStream(word)
    rows = _read_copy(stream, 4, 4, np.array([[1, 0], [1, 1]]))
    assert rows.dtype == np.int8 and rows.shape == (2, 2, 4)
    assert rows[0].reshape(-1).tolist() == [1, ERASE, 0, 1, 0, 1, 1, 0]
    assert rows[1].reshape(-1).tolist() == [1, ERASE, 0, 1] * 2
    assert (stream.cursor, stream.total_read) == (len(word), 8)
    assert type(stream.cursor) is int and type(stream.total_read) is int


# (report, decoder rng state after dec_repeat) SHA-256 digests of repeat-toy
# trials 0-9 at seed 0, measured while phase 1 still sampled, read and
# decoded one tracker at a time
DRAW_ORDER_PIN = [
    ("9b54e40a6d9e0e22071ae833fc9f3bd20537e29c17067051f8ae4548a0bfb379",
     "c21c0d4bb2da9712f8736a81076bf59cd90655efa078b13af98a14d219fe5d6f"),
    ("1f9846c2e01066d9a86a5867ab5def139daa301b791ac382ade687dabf875fa6",
     "9887cefc609e2572e6c9e4761e1a07ebd481e339800da1e02e4ee390c70f254a"),
    ("e05f3da6a99a742e59651b4921da6e6bdc02c19e7d551b80d33612c8ac46a24f",
     "e8d506ebbce8ee1944c432d3446dd72db3e2ae06c7f91e793cd1d0b39059366d"),
    ("8ad5038009a030b9acb8cc8715d3bc1ff72f9ed828ae67265496fe5d5dede86c",
     "68a2b51d9edafac2e40025617928e6778b7cc3a122cdd88632c1490e0b65e9ee"),
    ("eaed1f40130fd59c19fb91947f64dedb9e62e570c79ef1cf86b9ec2308677970",
     "9c222148aa5ab355b890e46e8108659bdb7ed34fdaa1d6f05da6894c9d853295"),
    ("9b0ac7569090c189fc7ce2f1740cbda62b15cf11ba1c60f0ec51f88abbbab345",
     "e6bad6fc5bfe9b481a2841a4e91b07f7da6a1ee3b758d625c95ed7c0c7342cf5"),
    ("d7447ee665aeef3bba8551a21548e20845691e6ca4c9ef8158e220fd56f85e7b",
     "7a40404f3acc977e8432afb90479656938a956310ed4d7bb3a56b90c37bcc925"),
    ("00a2a8745085d7c1c5c6dcd246736dadfdf51d72a346ee874ecdd2de54f7918c",
     "1212988ea6d14bbf4eaf6cd7ee2e4765857da26e4b393c65d39d1392d7ed7044"),
    ("c39cecc90cc4da9071cd923bc47808e893ab7e2326f6c9964804bbf547b2aa6f",
     "eb0ec329825760e1de61b775e863eea3ad0adcff87c483aba7c849e3e76d15b1"),
    ("0089e3412125b78bdbd6ac3bd35076809fa3f5133b3f4a2b0bbca1717ea04940",
     "7d163c58377464b10db40c23a78106a79faa9a870aa8cb9e25659606487f27a9"),
]


def test_draw_order_pinned():
    """Reports and final decoder rng states of ten repeat-toy trials, seeded
    as `streamcode run` seeds them: a reordered draw changes the rng state
    even where no report moves."""
    params = build_params(load_profile("repeat-toy"))
    got = []
    for trial in range(10):
        x = np.random.default_rng([0, trial]).integers(0, 2, size=params.msg_bits)
        word = enc_repeat(params, x.astype(np.int32))
        bad = corrupt(word, AttackStrategy("uniform", {}),
                      ErrorBudget(rho=Fraction(1, 20), m=len(word)),
                      random.Random(f"0:{trial}:chan"))
        rng = random.Random(f"0:{trial}:dec")
        report = json.dumps(_jsonable(dec_repeat(params, SymbolStream(bad), rng).report()),
                            sort_keys=True)
        got.append(tuple(hashlib.sha256(text.encode()).hexdigest()
                         for text in (report, repr(rng.getstate()))))
    assert got == [tuple(pin) for pin in DRAW_ORDER_PIN]


@pytest.mark.parametrize("t", [1, 2, 3, 5, 6])
def test_integer_fold_equals_fraction_fold(t):
    """The integer confidence fold against the Fraction fold it replaces:
    acc[b] collects the evidence against b, 1/4 each from a failed curve,
    d2/n2 against the decoded bit and 1/2 - d2/n2 against the other, and
    p(b) = 2/t * acc[1 - b]."""
    rng = np.random.default_rng(t)
    n2 = 2 * 675
    bits = rng.integers(0, 2, (40, t))
    d2 = rng.integers(0, n2 + 1, (40, t))
    failed = rng.random((40, t)) < 0.3
    got = _smooth_fold(bits.reshape(-1), d2.reshape(-1), failed.reshape(-1), t, n2)
    assert len(got) == 40
    for conf, row in zip(got, zip(bits.tolist(), d2.tolist(), failed.tolist())):
        acc = {0: Fraction(0), 1: Fraction(0)}
        for bit, dist2, fail in zip(*row):
            if fail:
                acc[0] += Fraction(1, 4)
                acc[1] += Fraction(1, 4)
                continue
            acc[bit] += Fraction(dist2, n2)
            acc[1 - bit] += Fraction(1, 2) - Fraction(dist2, n2)
        assert (conf.p0, conf.p1) == (Fraction(2, t) * acc[1], Fraction(2, t) * acc[0])
