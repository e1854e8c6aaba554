"""Large-alphabet LDC tests on RM(q=16, m=2, d=1) over GF(16) with a
two-fold repetition inner code: 3 message symbols into 512 codeword symbols."""

import random
from fractions import Fraction

import numpy as np
import pytest

from streamcode.gf import ERASE, GF, field_mul, mul_lut
from streamcode.codes import codebook, repetition_code, doubly_extended_rs
from streamcode.ldc_large import (
    SCAN_CHUNK, ConfidenceDist, LargeLdcParams, ResampleExhausted,
    UniformQuerySpec, decode_curves_large, gen_qlists, overlap_cap,
    query_smoothness_check, sample_smooth_plan, smooth_local_decode_large,
    gather,
)
from streamcode.ldc_core import encode

GF16 = GF(4)


def toy_params(**over):
    kw = dict(K=GF16, e=1, m=2, d=1, inner=repetition_code(GF16, 2), r=3,
              eps=Fraction(1, 5), t=2)
    kw.update(over)
    return LargeLdcParams(**kw)


def random_message(p, rng):
    return np.array([rng.randrange(p.K.q) for _ in range(p.r)], dtype=np.int32)


def test_shapes():
    p = toy_params()
    assert p.capacity_syms == 3 and p.code_len == 512
    assert p.queries == 2 * 15 * 2
    assert p.smoothness_bound == Fraction(30, 256)


def test_encode_systematic_and_linear():
    p = toy_params()
    rng = random.Random(1)
    for _ in range(10):
        x = random_message(p, rng)
        w = encode(p, x)
        assert len(w) == p.code_len
        assert [int(w[p.sym_position(i)]) for i in range(p.r)] == list(x)
    a, b = random_message(p, rng), random_message(p, rng)
    assert np.array_equal(encode(p, a ^ b),
                          encode(p, a) ^ encode(p, b))
    # K-linearity under scalar multiplication as well
    c = 7
    ca = np.array([field_mul(GF16, c, int(v)) for v in a], dtype=np.int32)
    assert np.array_equal(encode(p, ca), mul_lut(GF16, c)[encode(p, a)])


def test_smooth_uncorrupted_certainty():
    p = toy_params()
    rng = random.Random(2)
    x = random_message(p, rng)
    w = encode(p, x)
    for i in range(p.r):
        dist = smooth_local_decode_large(w, i, p, rng)
        sigma, mass, bot = dist.merged()
        assert sigma == int(x[i]) and mass == 1 and bot == 0


def test_smooth_single_erasure_exact_masses():
    p = toy_params()
    rng = random.Random(3)
    x = random_message(p, rng)
    w = encode(p, x)
    i = 1
    plan = sample_smooth_plan(p, i, p_rng := random.Random(7))
    # erase one position that only the first curve reads
    rows = plan.positions.reshape(len(plan.blocks), -1)   # one row per curve
    only_first = set(map(int, rows[0])) - set(map(int, rows[1]))
    pos = sorted(only_first)[0]
    w = w.copy()
    w[pos] = ERASE
    from streamcode.ldc_large import confidence_from_words_large
    words = [gather(w, row) for row in rows]
    dist = confidence_from_words_large(p, plan, words)
    L = p.curve_code.code_len  # 30
    # the erased curve: delta = 1/(2L); mass 1 - 1/L on sigma, 1/L on bot
    sigma, mass, bot = dist.merged()
    assert sigma == int(x[i])
    assert bot == Fraction(1, 2 * L) and mass == 1 - bot


def test_smooth_codeword_index():
    p = toy_params()
    rng = random.Random(4)
    x = random_message(p, rng)
    w = encode(p, x)
    for j in [0, 17, 300, 511]:
        dist = smooth_local_decode_large(w, j, p, rng, index="codeword")
        sigma, mass, bot = dist.merged()
        assert sigma == int(w[j]) and mass == 1


def test_smooth_under_symbol_corruption():
    p = toy_params(t=4)
    rng = random.Random(5)
    ok = 0
    for _ in range(30):
        x = random_message(p, rng)
        w = encode(p, x)
        for pos in rng.sample(range(p.code_len), p.code_len // 20):
            w[pos] = (w[pos] + 1 + rng.randrange(15)) % 16
        i = rng.randrange(p.r)
        sigma, mass, bot = smooth_local_decode_large(w, i, p, rng).merged()
        ok += int(sigma == int(x[i]))
    assert ok >= 27


def test_smooth_garbage_gives_bot():
    p = toy_params()
    rng = random.Random(6)
    w = np.full(p.code_len, ERASE, dtype=np.int32)
    dist = smooth_local_decode_large(w, 0, p, rng)
    sigma, mass, bot = dist.merged()
    assert sigma is None and bot == 1


def decode_curve_one(p, word):
    """The curve decode of one word by itself: argmin of its own scan row
    (ties to the smallest message index), then the erasure-aware radius."""
    cc = p.curve_code
    d2 = codebook(cc).dist2_scan(word)
    i = int(np.argmin(d2))
    if Fraction(int(d2[i]), 2 * cc.code_len) > Fraction(1, 2) - p.eps / 2:
        return None
    return int(p.packing.sym[i // p.F.q ** (cc.outer.msg_len - 1)]), int(d2[i])


def test_batched_curve_decode_matches_one_word_decodes():
    from streamcode.profiles import build_params, load_profile
    p = build_params(load_profile("tensor-toy")).ldc
    cc, cb = p.curve_code, codebook(p.curve_code)
    top = p.F.q ** (cc.outer.msg_len - 1)
    # a lightest codeword whose h(0) differs from the zero codeword's; erasing
    # where the two differ leaves a word equally far from both
    weights = cb.dist2_scan(np.zeros(cc.code_len, dtype=np.int32))
    hi = top + int(np.argmin(weights[top:]))
    assert p.packing.sym[hi // top] != p.packing.sym[0]
    c1 = cc.encode(cb.msg_of_index(hi))
    tie = np.where(c1 == 0, 0, ERASE)
    erased = int(weights[hi]) // 2          # one dist2 unit per erasure
    assert cb.dist2_scan(tie)[[0, hi]].tolist() == [erased] * 2
    far = np.full(cc.code_len, ERASE)   # every codeword at relative distance 1/2
    rng = np.random.default_rng(46)
    words = [tie, far]
    for _ in range(2 * SCAN_CHUNK + 5):
        w = cc.encode(rng.integers(0, cc.field.q, cc.msg_len))
        hit = rng.choice(cc.code_len, size=int(rng.integers(0, cc.code_len)), replace=False)
        w[hit] = rng.integers(ERASE, cc.field.q, len(hit))
        words.append(w)
    words.insert(SCAN_CHUNK + 3, tie)   # the tie again, inside a later chunk
    want = [decode_curve_one(p, w) for w in words]
    assert want[0] == (int(p.packing.sym[0]), erased)   # the tie goes to message 0
    assert want[1] is None and None in want[2:] and want.count(None) < len(want) - 2
    assert decode_curves_large(p, words) == want
    assert decode_curves_large(p, np.array(words)) == want
    assert decode_curves_large(p, []) == []


def test_merging_rule_by_hand():
    d = ConfidenceDist({3: Fraction(1, 2), 7: Fraction(1, 3)}, Fraction(1, 6))
    sigma, mass, bot = d.merged()
    assert (sigma, mass) == (3, Fraction(1, 6))
    assert bot == Fraction(1, 6) + 2 * Fraction(1, 3)
    # equal masses annihilate completely
    d = ConfidenceDist({1: Fraction(1, 2), 2: Fraction(1, 2)}, Fraction(0))
    assert d.merged() == (None, Fraction(0), Fraction(1))


def test_confidence_total_must_be_one():
    with pytest.raises(AssertionError):
        ConfidenceDist({1: Fraction(1, 2)}, Fraction(1, 3))


def test_mds_inner_variant():
    p = toy_params(K=GF(2), e=2, inner=doubly_extended_rs(GF(2)), r=4, t=2)
    assert p.F.q == 16 and p.code_len == 256 * 5
    rng = random.Random(8)
    x = random_message(p, rng)
    w = encode(p, x)
    for i in range(p.r):
        sigma, mass, _ = smooth_local_decode_large(w, i, p, rng).merged()
        assert sigma == int(x[i]) and mass == 1


# ---------------------------------------------------------------------------
# query lists

def test_gen_qlists_real_params():
    p = toy_params()
    rng = random.Random(9)
    ql = gen_qlists(p, rng)
    assert len(ql.lists) == p.r and len(ql.plans) == p.r
    for lst in ql.lists:
        assert len(lst) == p.queries
    assert ql.counts.max() <= ql.cap
    assert ql.cap == overlap_cap(p.r, p.queries, p.code_len)


def test_gen_qlists_deterministic_per_seed():
    p = toy_params()
    a = gen_qlists(p, random.Random(10))
    b = gen_qlists(p, random.Random(10))
    for x, y in zip(a.lists, b.lists):
        assert np.array_equal(x, y)


def test_gen_qlists_uniform_spec():
    spec = UniformQuerySpec(r=16, Q=8, R=128)
    ql = gen_qlists(spec, random.Random(11))
    assert len(ql.lists) == 16 and all(len(l) == 8 for l in ql.lists)
    assert ql.cap == overlap_cap(16, 8, 128) == 24
    assert ql.counts.max() <= 24


def test_gen_qlists_adversarial_rng_exhausts():
    class Rigged:
        def randrange(self, n):
            return 0  # every draw lands on position 0

    spec = UniformQuerySpec(r=64, Q=8, R=2048)  # cap = ceil(3*64*64/2048) = 6
    assert overlap_cap(64, 8, 2048) == 6
    with pytest.raises(ResampleExhausted):
        gen_qlists(spec, Rigged())


def test_query_smoothness_check():
    p = toy_params()
    rng = random.Random(12)
    rep = query_smoothness_check(p, trials=800, rng=rng)
    bound = rep["bound"]
    assert rep["mean_freq"] <= bound
    sd = (float(bound) * (1 - float(bound)) / 800) ** 0.5
    assert float(rep["max_freq"]) <= float(bound) + 5 * sd
