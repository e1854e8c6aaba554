"""Channel strategies: budget truncation, determinism, charge accounting,
the declared alphabet, bit-exact outputs, and sampling that matches
random.Random draw for draw."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamcode.channel import (AttackStrategy, ErrorBudget, _draws_below,
                                _sample, corrupt, corruption_dist2)
from streamcode.gf import ERASE, MODULI


def budget(rho, m):
    return ErrorBudget(Fraction(rho), m)


class TestBudget:
    def test_limit_is_floor(self):
        assert budget("5/100", 64).limit == 3
        assert budget("5/100", 60).limit == 3
        assert budget("5/100", 59).limit == 2

    def test_charge_cap(self):
        b = budget("1/10", 20)  # limit 2, limit2 4
        assert b.charge(1, 0) == (1, 0)
        assert b.charge(0, 1) == (0, 1)
        assert b.charge(3, 3) == (0, 1)  # one unit left: no substitution
        assert b.charge(1, 1) == (0, 0)
        assert b.charged2 == 4

    def test_charge_substitutions_before_erasures(self):
        b = budget("1/2", 10)  # limit2 10
        assert b.charge(4, 5) == (4, 2)
        assert b.charged2 == 10
        odd = ErrorBudget(Fraction(1, 2), 10, charged2=3)  # 7 units left
        assert odd.charge(9, 9) == (3, 1)
        assert odd.charged2 == 10


class TestStrategies:
    def test_uniform_exact_budget_binary(self):
        word = np.zeros(200, dtype=np.uint8)
        out = corrupt(word, AttackStrategy("uniform"), budget("1/10", 200),
                      random.Random(1), 0)
        assert int(out.sum()) == 20
        assert corruption_dist2(word, out) == 40

    def test_uniform_deterministic(self):
        word = np.zeros(100, dtype=np.uint8)
        a = corrupt(word, AttackStrategy("uniform"), budget("1/4", 100),
                    random.Random(7), 0)
        b = corrupt(word, AttackStrategy("uniform"), budget("1/4", 100),
                    random.Random(7), 0)
        assert np.array_equal(a, b)

    def test_burst_contiguous(self):
        word = np.zeros(100, dtype=np.uint8)
        out = corrupt(word, AttackStrategy("burst"), budget("1/10", 100),
                      random.Random(3), 0)
        hits = np.flatnonzero(out != word)
        assert len(hits) == 10
        assert hits[-1] - hits[0] == 9  # one contiguous run

    def test_copy_kill_truncates_to_budget(self):
        # 4 copies of length 50; budget floor(0.1*200)=20 < 50.
        word = np.zeros(200, dtype=np.uint8)
        out = corrupt(word, AttackStrategy("copy_kill",
                                           {"copy_len": 50, "target_copy": 2}),
                      budget("1/10", 200), random.Random(5), 0)
        hits = np.flatnonzero(out != word)
        assert len(hits) == 20
        assert all(100 <= h < 150 for h in hits)

    def test_copy_kill_full_copy_when_budget_allows(self):
        word = np.ones(40, dtype=np.uint8)
        out = corrupt(word, AttackStrategy("copy_kill",
                                           {"copy_len": 10, "target_copy": 0}),
                      budget("1/2", 40), random.Random(5), 0)
        assert np.array_equal(out[:10], np.zeros(10, dtype=np.uint8))
        assert np.array_equal(out[10:], word[10:])

    def test_blockzero_charges_only_changes(self):
        word = np.ones(60, dtype=np.uint8)
        b = budget("1/6", 60)  # limit 10
        out = corrupt(word, AttackStrategy("blockzero",
                                           {"block_len": 4, "window_step": 4}),
                      b, random.Random(2), 0)
        assert int((out != word).sum()) == 10
        assert b.charged2 == 20

    def test_blockzero_skips_already_zero(self):
        word = np.zeros(60, dtype=np.uint8)
        b = budget("1/6", 60)
        out = corrupt(word, AttackStrategy("blockzero",
                                           {"block_len": 4, "window_step": 4}),
                      b, random.Random(2), 0)
        assert np.array_equal(out, word)
        assert b.charged2 == 0

    def test_erasure_mix_split_and_charge(self):
        word = np.full(100, 5, dtype=np.int16)
        b = budget("1/5", 100)  # limit 20: 10 flips + 20 erasures
        out = corrupt(word, AttackStrategy("erasure_mix"), b, random.Random(9), 4)
        era = int((out == ERASE).sum())
        flips = int(((out != word) & (out != ERASE)).sum())
        assert era == 20 and flips == 10
        assert corruption_dist2(word, out) == 2 * flips + era == 40
        assert b.charged2 == 40

    def test_erasure_mix_rejects_binary(self):
        with pytest.raises(ValueError):
            corrupt(np.zeros(8, dtype=np.uint8), AttackStrategy("erasure_mix"),
                    budget("1/2", 8), random.Random(0), 0)

    def test_erasure_mix_rejects_unsigned(self):
        # ERASE = -1 has no unsigned representation; rejected before any draw
        word = np.full(50, 3, dtype=np.uint8)
        b, rng = budget("1/5", 50), random.Random(4)
        state = rng.getstate()
        with pytest.raises(ValueError, match="signed"):
            corrupt(word, AttackStrategy("erasure_mix"), b, rng, 4)
        assert rng.getstate() == state and b.charged2 == 0
        out = corrupt(word.astype(np.int16), AttackStrategy("erasure_mix"), b, rng, 4)
        assert (out == ERASE).sum() == 10

    def test_dtype_too_narrow_for_alphabet(self):
        with pytest.raises(ValueError, match="cannot hold"):
            corrupt(np.zeros(8, dtype=np.uint8), AttackStrategy("uniform"),
                    budget("1/2", 8), random.Random(0), 10)

    def test_symbol_substitution_stays_in_alphabet(self):
        word = np.arange(16, dtype=np.int16) % 7
        out = corrupt(word, AttackStrategy("uniform"), budget("1/2", 16),
                      random.Random(11), 3)
        changed = out != word
        assert changed.sum() == 8
        assert out.min() >= 0 and out.max() < 8

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            corrupt(np.zeros(4, dtype=np.uint8), AttackStrategy("nope"),
                    budget("1/2", 4), random.Random(0), 0)


class TestBlockzeroAttack:
    def test_window_stops_at_word_end(self):
        # step larger than block: later blocks' windows fall off the end.
        word = np.ones(40, dtype=np.uint8)
        out = corrupt(word, AttackStrategy("blockzero",
                                           {"block_len": 4, "window_step": 16}),
                      budget("1", 40), random.Random(0), 0)
        # at most floor((40 - j)/16) <= 2 blocks zeroed
        assert 4 <= int((out != word).sum()) <= 8

    def test_never_exceeds_budget(self):
        word = np.ones(64, dtype=np.uint8)
        for seed in range(20):
            b = budget("5/100", 64)  # limit 3
            out = corrupt(word, AttackStrategy("blockzero",
                                               {"block_len": 8, "window_step": 8}),
                          b, random.Random(seed), 0)
            assert corruption_dist2(word, out) == b.charged2 == b.limit2

    def test_zeroes_symbols(self):
        word = np.full(32, 9, dtype=np.int32)
        out = corrupt(word, AttackStrategy("blockzero",
                                           {"block_len": 8, "window_step": 8}),
                      budget("1/4", 32), random.Random(1), 4)
        assert set(out.tolist()) == {0, 9}
        assert int((out == 0).sum()) == 8


class TestDeclaredAlphabet:
    def test_bit_valued_symbol_word_gets_field_substitutions(self):
        # a GF(16) word that happens to hold only 0/1 is still a GF(16) word
        word = np.arange(2000, dtype=np.int32) % 2
        out = corrupt(word, AttackStrategy("uniform"), budget("1/2", 2000),
                      random.Random(4), 4)
        changed = out != word
        assert int(changed.sum()) == 1000
        assert int(out.max()) >= 2
        assert set(out[changed & (word == 0)].tolist()) == set(range(1, 16))
        assert set(out[changed & (word == 1)].tolist()) == {0} | set(range(2, 16))

    @pytest.mark.parametrize("field_k,bad", [(0, 2), (0, -1), (4, 16),
                                             (4, ERASE), (1, 2)])
    def test_value_outside_alphabet_raises(self, field_k, bad):
        word = np.zeros(10, dtype=np.int32)
        word[7] = bad
        with pytest.raises(ValueError):
            corrupt(word, AttackStrategy("uniform"), budget("1/2", 10),
                    random.Random(0), field_k)


# SHA-256 of corrupt's output (as little-endian int32), the final charged2 and
# the next 32 rng bits, measured on the code before the channel was batched.
# The calls keep the four-argument form, which means bits.
PIN_WORD = np.random.default_rng(2024).integers(0, 2, size=10_000).astype(np.int32)
PINS = [
    ("uniform", {}, 0, "fd4a47b306bd62cb63d89f2611075b1a7ab5d26f27f358881af5c780258d82aa", 1000, 4279945023),
    ("burst", {}, 0, "2f03d7e6e1525eb66c4721a0f5e7c59bd7b1c9388bfcd4c3bafd57ead3dbff5a", 1000, 1357375482),
    ("copy_kill", {"copy_len": 1000}, 0, "4b2d0156fd50aabef63a5e0af263c244e999f8b4fd10f88848db50b7a5d709f3", 1000, 899877915),
    ("blockzero", {"block_len": 64, "window_step": 50}, 0, "2601f7c6862792109d3e783ef4cc000986b44dfaac945f9a45632838dc2c9422", 1000, 4009036803),
    ("uniform", {}, 7, "cd633734965ee03fe2c45a22106d7249d69bf149a43c8079a6f92ff2eefc0ddd", 999, 3112000482),
    ("blockzero", {"block_len": 64, "window_step": 50}, 5, "6d37a27a5c2d2d7c1afe8500b438af2350267bc57279781a29a92367116f5149", 999, 3172318593),
]


@pytest.mark.parametrize("name,opts,pre,digest,charged2,next_bits", PINS)
def test_binary_outputs_bit_exact(name, opts, pre, digest, charged2, next_bits):
    b = ErrorBudget(Fraction(1, 20), len(PIN_WORD), charged2=pre)
    rng = random.Random(f"pin:{name}:{pre}")
    out = corrupt(PIN_WORD, AttackStrategy(name, dict(opts)), b, rng)
    got = hashlib.sha256(np.ascontiguousarray(out, dtype="<i4").tobytes())
    assert got.hexdigest() == digest
    assert b.charged2 == charged2
    assert rng.getrandbits(32) == next_bits


# Symbol words, pinned the same way (SHA-256 of the output as little-endian
# int32, final charged2, next 32 rng bits) on the code before sampling
# replayed the rng's MT19937 stream: both take sample's set branch.
SYMBOL_PINS = [
    ("uniform", 8, np.int32, "ead24ce1201dc4be5642a07f8f5f0250bf9389aabc9fa0a8f6c0ac1f741c4f89", 1000, 3970963613),
    ("erasure_mix", 4, np.int16, "7179a4e26d54ecd1ba8541c30eba86dce3b51dc9de9cc69f1bd52f845500e81f", 1000, 3927586338),
]


@pytest.mark.parametrize("name,field_k,dtype,digest,charged2,next_bits", SYMBOL_PINS)
def test_symbol_outputs_bit_exact(name, field_k, dtype, digest, charged2, next_bits):
    word = np.random.default_rng(2024).integers(0, 1 << field_k, size=10_000).astype(dtype)
    b = ErrorBudget(Fraction(1, 20), len(word))
    rng = random.Random(f"pin:{name}:gf{field_k}")
    out = corrupt(word, AttackStrategy(name), b, rng, field_k)
    got = hashlib.sha256(np.ascontiguousarray(out, dtype="<i4").tobytes())
    assert got.hexdigest() == digest
    assert b.charged2 == charged2
    assert rng.getrandbits(32) == next_bits


STRATEGY_NAMES = ["uniform", "burst", "copy_kill", "blockzero", "erasure_mix"]


@settings(max_examples=300, deadline=None)
@given(field_k=st.sampled_from([0] + sorted(MODULI)),
       name=st.sampled_from(STRATEGY_NAMES),
       m=st.integers(1, 300),
       rho=st.fractions(0, 1, max_denominator=40),
       pre_share=st.fractions(0, 1, max_denominator=7),
       seed=st.integers(0, 2**32 - 1),
       copy_len=st.integers(1, 300),
       block_len=st.integers(1, 40),
       window_step=st.integers(0, 60),
       dtype=st.sampled_from([np.int16, np.int32, np.int64,
                              np.uint8, np.uint16, np.uint32]))
def test_corrupt_contract(field_k, name, m, rho, pre_share, seed, copy_len,
                          block_len, window_step, dtype):
    if name == "erasure_mix" and field_k == 0:
        return  # rejected; see test_erasure_mix_rejects_binary
    q = 1 << max(field_k, 1)
    word = np.random.default_rng(seed).integers(0, q, size=m).astype(dtype)
    before = word.copy()
    b = ErrorBudget(rho, m)
    pre = int(pre_share * b.limit2)
    b.charged2 = pre
    opts = {"copy_kill": {"copy_len": min(copy_len, m)},
            "blockzero": {"block_len": block_len, "window_step": window_step}
            }.get(name, {})
    strategy, rng = AttackStrategy(name, opts), random.Random(seed)
    unsigned = np.dtype(dtype).kind == "u"
    if np.iinfo(dtype).max < q - 1 or (name == "erasure_mix" and unsigned):
        with pytest.raises(ValueError):  # the dtype cannot hold the outputs
            corrupt(word, strategy, b, rng, field_k)
        assert b.charged2 == pre
        return
    out = corrupt(word, strategy, b, rng, field_k)
    assert np.array_equal(word, before) and out.dtype == word.dtype
    erased = out == ERASE
    assert ((out >= 0) & (out < q) | erased).all()
    if name != "erasure_mix":
        assert not erased.any()
    subs = int(((out != word) & ~erased).sum())
    assert subs + int(erased.sum()) / 2 <= b.limit  # an erasure counts half
    assert corruption_dist2(word, out) == b.charged2 - pre
    assert b.charged2 <= b.limit2


# _sample replays random.Random's MT19937 stream in numpy; these tests compare
# it with CPython's own sample and randrange, so a CPython release that changes
# either one fails here rather than silently changing the channel's outputs.
BIT_EDGES = [2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]


@st.composite
def sample_shapes(draw):
    n = draw(st.one_of(st.integers(1, 400), st.integers(400, 3_000_000),
                       st.sampled_from(BIT_EDGES)))
    k = draw(st.one_of(st.integers(0, min(n, 2_000)), st.just(min(n, 2_000))))
    return n, k


@settings(max_examples=300, deadline=None)
@given(shape=sample_shapes(), seed=st.integers(0, 2**32 - 1),
       skip=st.integers(0, 700))
@example(shape=(1, 1), seed=0, skip=0)
@example(shape=(1, 0), seed=0, skip=0)
@example(shape=(300, 300), seed=1, skip=0)
@example(shape=(1000, 0), seed=2, skip=0)
@example(shape=(2_211_840, 110_592), seed=3, skip=5)  # repeat-toy's uniform shape
@example(shape=(2**32 - 1, 1_000), seed=4, skip=623)
@example(shape=(2**32, 50), seed=5, skip=1)
@example(shape=(10_000, 500), seed=196, skip=0)  # the first bulk draw falls short
@example(shape=(21, 5), seed=6, skip=0)  # sample's setsize is 21 for k <= 5 ...
@example(shape=(22, 5), seed=6, skip=0)
@example(shape=(50, 6), seed=7, skip=0)  # ... and 21 + 4**3 for k = 6
@example(shape=(85, 6), seed=7, skip=0)
@example(shape=(86, 6), seed=7, skip=0)
@example(shape=(4_117, 1_000), seed=8, skip=0)  # 21 + 4**6
@example(shape=(4_118, 1_000), seed=8, skip=0)
def test_sample_matches_random_sample(shape, seed, skip):
    n, k = shape
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want_rng.getrandbits(32 * skip)  # start at any position in the key
    got_rng.getrandbits(32 * skip)
    want = want_rng.sample(range(n), k)
    got = _sample(got_rng, n, k)
    assert got.dtype == np.intp and got.tolist() == want
    assert got_rng.getstate() == want_rng.getstate()


@settings(max_examples=200, deadline=None)
@given(field_k=st.sampled_from(sorted(MODULI)), count=st.integers(0, 3_000),
       seed=st.integers(0, 2**32 - 1))
@example(field_k=2, count=3_000, seed=54)  # the first bulk draw falls short
@example(field_k=3, count=3_000, seed=217)
def test_symbol_draws_match_randrange(field_k, count, seed):
    q = 1 << field_k
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want = [want_rng.randrange(1, q) for _ in range(count)]
    got = 1 + _draws_below(got_rng, q - 1, count, distinct=False)
    assert got.tolist() == want
    assert got_rng.getstate() == want_rng.getstate()


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.samples = 0

    def sample(self, population, k, **kw):
        self.samples += 1
        return super().sample(population, k, **kw)


def test_sample_subclass_falls_back_to_rng_sample():
    rng, ref = CountingRandom(6), random.Random(6)
    got = _sample(rng, 2_211_840, 5_000)  # the set branch, replayed for a plain Random
    assert rng.samples == 1
    assert got.tolist() == ref.sample(range(2_211_840), 5_000)
    assert rng.getstate() == ref.getstate()
