"""Binary LDC tests on a small instance: RM(q=16, m=2, d=1) over an [8,4,4]
extended-Hamming inner code, 12 message bits into 2048 codeword bits."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamcode.gf import GF, pack_symbols, poly_eval
from streamcode.codes import (codebook, extended_hamming_code, list_decode_concat,
                              replicate, simplex_code, unique_decode)
from streamcode.ldc_binary import (
    AdviceMismatch, BinaryLdcParams, advice_coset, advice_symbols,
    asymptotic_regime, decode_advice_from_words, decode_with_advice,
    ldc_encode, sample_advice, sample_advice_plan, sample_smooth_plan,
    smooth_local_decode, smooth_confidence_from_words, gather,
)
from streamcode.profiles import build_params, load_profile


def toy_params(**over):
    kw = dict(F=GF(4), m=2, d=1, inner=extended_hamming_code(), n=12,
              eps=Fraction(1, 5), t_smooth=2, t_advice=3, k_adv=1)
    kw.update(over)
    return BinaryLdcParams(**kw)


def random_message(params, rng):
    return np.array([rng.randrange(2) for _ in range(params.n)], dtype=np.int32)


def test_shapes_and_capacity():
    p = toy_params()
    assert p.capacity_syms == 3 and p.capacity_bits == 12
    assert p.num_blocks == 256 and p.code_len == 2048
    assert p.queries_smooth == 2 * 15 * 8
    assert p.advice_size == 8


def test_encode_systematic_readback():
    p = toy_params()
    rng = random.Random(1)
    for _ in range(10):
        x = random_message(p, rng)
        w = ldc_encode(p, x)
        assert len(w) == p.code_len
        got = [int(w[p.bit_position(i)]) for i in range(p.n)]
        assert got == list(x)


def test_encode_is_linear():
    p = toy_params()
    rng = random.Random(2)
    a, b = random_message(p, rng), random_message(p, rng)
    assert np.array_equal(ldc_encode(p, a ^ b), ldc_encode(p, a) ^ ldc_encode(p, b))


def test_curve_restriction_is_curve_codeword():
    """Reading the codeword along a sampled curve must give an exact codeword
    of the restricted RS-concat code whose h(lambda) matches the RM values."""
    p = toy_params()
    rng = random.Random(3)
    x = random_message(p, rng)
    w = ldc_encode(p, x)
    syms = np.array([pack_symbols(GF(1), p.F, x[j * 4:(j + 1) * 4]) for j in range(3)])
    evals = p.rm.encode(syms)
    for i in range(4):
        plan = sample_smooth_plan(p, i, rng)
        for curve in plan.curves:
            word = gather(w, curve.positions)
            got = unique_decode(p.curve_code, word)
            assert got is not None
            coeffs, d2 = p.pack(got[0]).tolist(), got[1]
            assert d2 == 0
            for lam, blk in zip(p.nonzero_points, curve.blocks):
                assert poly_eval(p.F, coeffs, lam) == int(evals[blk])


def test_smooth_uncorrupted_certainty():
    p = toy_params()
    rng = random.Random(4)
    x = random_message(p, rng)
    w = ldc_encode(p, x)
    for i in range(p.n):
        c = smooth_local_decode(w, i, p, rng)
        assert (c.p1, c.p0) == (Fraction(1), Fraction(0)) if x[i] else \
               (c.p0, c.p1) == (Fraction(1), Fraction(0))


def test_smooth_complement_oracle_certain_zero():
    # the inner code contains the all-ones word, so the bitwise complement of
    # a codeword is again a codeword and every curve decodes to flipped bits
    p = toy_params()
    rng = random.Random(5)
    x = random_message(p, rng)
    w = 1 - ldc_encode(p, x)
    for i in range(0, p.n, 3):
        c = smooth_local_decode(w, i, p, rng)
        assert (c.p1 if x[i] else c.p0) == Fraction(0)


def test_smooth_codeword_index():
    p = toy_params()
    rng = random.Random(6)
    x = random_message(p, rng)
    w = ldc_encode(p, x)
    for j in [0, 5, 100, 1027, 2047]:
        c = smooth_local_decode(w, j, p, rng, index="codeword")
        assert c.best() == int(w[j])
        assert max(c.p0, c.p1) == Fraction(1)


def test_smooth_under_mild_corruption():
    p = toy_params()
    rng = random.Random(7)
    ok = 0
    for _ in range(30):
        x = random_message(p, rng)
        w = ldc_encode(p, x)
        for pos in rng.sample(range(p.code_len), p.code_len // 20):  # 5%
            w[pos] ^= 1
        i = rng.randrange(p.n)
        c = smooth_local_decode(w, i, p, rng)
        ok += int(c.best() == x[i])
    assert ok >= 27


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_confidence_sums_to_one_on_garbage(seed):
    # the exact-arithmetic invariant p0 + p1 == 1 holds for any oracle at all
    p = toy_params()
    rng = random.Random(seed)
    w = np.array([rng.randrange(2) for _ in range(p.code_len)], dtype=np.int32)
    c = smooth_local_decode(w, seed % p.n, p, rng)
    assert c.p0 + c.p1 == 1 and c.p0 >= 0 and c.p1 >= 0


def test_plan_positions_shape():
    p = toy_params()
    rng = random.Random(8)
    plan = sample_smooth_plan(p, 3, rng)
    pos = plan.positions
    assert len(pos) == p.queries_smooth
    assert pos.min() >= 0 and pos.max() < p.code_len
    # whole blocks, in lambda order
    assert all(len(c.positions) == 15 * 8 for c in plan.curves)


def test_sample_advice_expands_blocks():
    p = toy_params()
    rng = random.Random(9)
    adv = sample_advice(p, rng)
    assert len(adv.rm_points) == 1 and len(adv.positions) == 8
    blk = adv.rm_points[0]
    assert list(adv.positions) == list(range(blk * 8, blk * 8 + 8))


def test_advice_decode_uncorrupted():
    p = toy_params()
    rng = random.Random(10)
    x = random_message(p, rng)
    w = ldc_encode(p, x)
    adv = sample_advice(p, rng)
    vals = gather(w, list(adv.positions))
    for i in range(p.n):
        assert decode_with_advice(w, i, adv, vals, p, rng) == x[i]


def test_advice_decode_light_corruption():
    p = toy_params()
    rng = random.Random(11)
    ok = trials = 0
    for _ in range(25):
        x = random_message(p, rng)
        w = ldc_encode(p, x)
        adv = sample_advice(p, rng)
        vals = gather(w, list(adv.positions))  # advice stays clean
        for pos in rng.sample(range(p.code_len), p.code_len // 50):  # 2%
            w[pos] ^= 1
        i = rng.randrange(p.n)
        try:
            ok += int(decode_with_advice(w, i, adv, vals, p, rng) == x[i])
            trials += 1
        except AdviceMismatch:
            trials += 1
    assert trials == 25 and ok >= 22


def test_advice_mismatch_on_invalid_advice():
    p = toy_params()
    rng = random.Random(12)
    x = random_message(p, rng)
    w = ldc_encode(p, x)
    adv = sample_advice(p, rng)
    vals = gather(w, list(adv.positions))
    vals = vals.copy()
    vals[0] ^= 1  # now not an inner codeword: every candidate must fail
    with pytest.raises(AdviceMismatch):
        decode_with_advice(w, 0, adv, vals, p, rng)


def test_advice_wrong_but_valid_advice_changes_answer_or_mismatches():
    # advice that decodes to the wrong symbol steers the filter away from the
    # true candidate; with an otherwise clean word nothing else survives
    p = toy_params()
    rng = random.Random(13)
    x = random_message(p, rng)
    w = ldc_encode(p, x)
    adv = sample_advice(p, rng)
    wrong_sym_bits = p.inner_words[7]
    true_block = gather(w, list(adv.positions))
    if np.array_equal(true_block, wrong_sym_bits):
        wrong_sym_bits = p.inner_words[8]
    with pytest.raises(AdviceMismatch):
        decode_with_advice(w, 0, adv, wrong_sym_bits, p, rng)


def _passes_advice(p, msg, nodes, syms):
    coeffs = p.pack(msg).tolist()
    return all(s is not None and poly_eval(p.F, coeffs, lam) == s
               for lam, s in zip(nodes, syms))


def _reference_advice(p, plan, words, adv_values):
    """Advice decoding as a list decode of the whole codebook followed by
    the h(lambda_l) == s_l filter: (survivor list per iteration, vote or
    AdviceMismatch)."""
    syms = advice_symbols(p, adv_values)
    lists, votes = [], []
    for it, word in zip(plan.iterations, words):
        kept = [(tuple(msg), d2) for msg, d2 in list_decode_concat(p.advice_code, word, p.eps)
                if _passes_advice(p, msg, it.nodes, syms)]
        lists.append(kept)
        if len(kept) == 1:
            votes.append(int(p.inner_words[p.pack(kept[0][0])[0], plan.offset]))
    if not votes:
        return lists, AdviceMismatch
    return lists, 1 if 2 * sum(votes) > len(votes) else 0


def _coset_lists(p, plan, words, adv_values):
    syms = advice_symbols(p, adv_values)
    if None in syms:
        return [[] for _ in plan.iterations]
    return [[(tuple(msg), d2) for msg, d2 in list_decode_concat(
                p.advice_code, word, p.eps, idx=advice_coset(p, it.nodes, syms))]
            for it, word in zip(plan.iterations, words)]


def _vote(p, plan, words, adv_values):
    try:
        return decode_advice_from_words(p, plan, words, adv_values)
    except AdviceMismatch:
        return AdviceMismatch


ADVICE_PARAMS = {
    "toy-kadv1": lambda: toy_params(),                    # 256 messages, cosets of 16
    "toy-kadv2": lambda: toy_params(k_adv=2),             # 4096 messages, cosets of 16
    "repeat-toy": lambda: build_params(load_profile("repeat-toy")).ldc,  # 65536, of 4096
}


@pytest.mark.parametrize("name", list(ADVICE_PARAMS))
def test_advice_coset_is_the_filtered_codebook(name):
    p = ADVICE_PARAMS[name]()
    cb = codebook(p.advice_code)
    rng = random.Random(15)
    for _ in range(3):
        nodes = rng.sample(p.nonzero_points, p.k_adv)
        syms = [rng.randrange(p.F.q) for _ in range(p.k_adv)]
        idx = advice_coset(p, nodes, syms)
        assert len(idx) == p.advice_code.msg_space // p.F.q ** p.k_adv
        assert len(set(idx.tolist())) == len(idx)
        sample = idx[rng.sample(range(len(idx)), min(64, len(idx)))]
        assert all(_passes_advice(p, cb.msg_of_index(int(i)), nodes, syms) for i in sample)


@pytest.mark.parametrize("name", list(ADVICE_PARAMS))
def test_advice_coset_decode_matches_full_scan_filter(name):
    """The coset scan gives the reference's survivor lists in (dist2, index)
    order and its vote or AdviceMismatch, on clean and flipped words, an
    invalid advice block and wrong-but-valid advice."""
    p = ADVICE_PARAMS[name]()
    rng = random.Random(16)
    sizes = []
    for case in ["clean", 0.2, 0.3, 0.4, "invalid", "wrong"] * 3:
        x = random_message(p, rng)
        w = ldc_encode(p, x)
        adv = sample_advice(p, rng)
        vals = gather(w, list(adv.positions)).copy()
        if case == "invalid":
            vals[rng.randrange(len(vals))] ^= 1
        elif case == "wrong":
            true_syms = advice_symbols(p, vals)
            vals = np.concatenate([p.inner_words[(s + rng.randrange(1, p.F.q)) % p.F.q]
                                   for s in true_syms])
        elif case != "clean":
            for pos in rng.sample(range(p.code_len), int(case * p.code_len)):
                w[pos] ^= 1
        plan = sample_advice_plan(p, rng.randrange(p.n), adv, rng)
        words = [gather(w, it.positions) for it in plan.iterations]
        want_lists, want_vote = _reference_advice(p, plan, words, vals)
        assert _coset_lists(p, plan, words, vals) == want_lists, case
        assert _vote(p, plan, words, vals) == want_vote, case
        sizes += [len(kept) for kept in want_lists]
    assert {0, 1} <= set(sizes)   # both a vote and an iteration that abstains


def test_equidistant_inner_variant_builds():
    p = toy_params(inner=replicate(simplex_code(4), 2))
    rng = random.Random(14)
    x = random_message(p, rng)
    w = ldc_encode(p, x)
    assert len(w) == 256 * 30
    c = smooth_local_decode(w, 5, p, rng)
    assert max(c.p0, c.p1) == Fraction(1)


def test_asymptotic_regime_relations():
    r = asymptotic_regime(n=10 ** 6, eps=Fraction(1, 10))
    assert r["k_adv"] == 10
    assert r["q"] ** 2 >= r["Q"]  # q ~ sqrt(Q) rounded up to a power of two
    assert r["t_advice"] >= r["t_smooth"] >= 1
    assert asymptotic_regime(10 ** 9, Fraction(1, 10))["Q"] >= r["Q"]


def test_validation_errors():
    with pytest.raises(ValueError):
        toy_params(n=13)  # over capacity
    with pytest.raises(ValueError):
        toy_params(d=16)  # degree too large for the field
    bad_inner = extended_hamming_code()
    bad_inner.systematic_positions = None
    with pytest.raises(ValueError):
        toy_params(inner=bad_inner)
