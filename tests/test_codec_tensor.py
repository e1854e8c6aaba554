"""Tensor codec: axis encoding identities, base-layer coin behavior, the
recursive functional decoder, and the end-to-end majority vote."""

import random
from fractions import Fraction

import numpy as np
import pytest

from streamcode.gf import GF, field_mul
from streamcode.codes import (LinearCode, codebook, doubly_extended_rs,
                              min_distance_bruteforce)
from streamcode.ldc_large import LargeLdcParams, gen_qlists, ldc_large_encode
from streamcode.stream import StreamExhausted, SymbolStream
from streamcode.codec_tensor import (LinearFunctional, TensorParams,
                                     base_symbol_code, default_instances,
                                     enc_linear, functional_dot,
                                     lift_functional, linear_dec,
                                     linear_dec_traced, recurse_linear,
                                     tensor_encode, tensor_regime,
                                     _base_outcome, _base_tables)

GF4 = GF(2)


def toy_ldc():
    return LargeLdcParams(K=GF4, e=2, m=1, d=1, inner=doubly_extended_rs(GF4),
                          r=4, eps=Fraction(1, 5), t=1)


def toy_params(**kw):
    kw.setdefault("instances", 16)
    return TensorParams(ldc=toy_ldc(), depth=2, n=16,
                        base_code=base_symbol_code(GF4), **kw)


def inner_4_2_2():
    gen = np.array([[1, 0], [0, 1], [1, 1], [1, 0]], dtype=np.int32)
    return LinearCode(GF(1), gen, kind="custom", systematic_positions=(0, 1),
                      dist2_bound=4)


def small_ldc():
    # binary symbols, four-element evaluation field, one variable, degree one
    return LargeLdcParams(K=GF(1), e=2, m=1, d=1, inner=inner_4_2_2(),
                          r=4, eps=Fraction(1, 5), t=1)


def rand_bits(rng, n):
    return rng.integers(0, 2, size=n).astype(np.int32)


# ---------------------------------------------------------------------------
# base code and domain types

def test_base_symbol_code_two_bit():
    code = base_symbol_code(GF4)
    assert (code.msg_len, code.code_len) == (2, 8)
    weights = sorted(int(w.sum()) for w in codebook(code).words[1:])
    assert weights == [5, 5, 6]          # FROZEN: hand-computed codeword weights
    assert min_distance_bruteforce(code) == 5
    # two flips stay uniquely decodable: radius2 = (2*5-1)//2 = 4 >= 2*2
    assert (code.dist2_bound - 1) // 2 == 4


def test_base_symbol_code_one_bit():
    code = base_symbol_code(GF(1))
    assert (code.msg_len, code.code_len) == (1, 4)
    assert min_distance_bruteforce(code) == 4


def test_base_symbol_code_unsupported():
    with pytest.raises(ValueError):
        base_symbol_code(GF(4))


def test_linear_functional_restrict():
    ell = LinearFunctional(GF4, np.arange(16) % 4)
    sub = ell.restrict(2, 4)
    assert np.array_equal(sub.coeffs, (np.arange(8, 12) % 4))
    assert sub.path == (2,)
    leaf = sub.restrict(1, 4)
    assert leaf.path == (2, 1)
    assert leaf.scalar == (9 % 4)


# ---------------------------------------------------------------------------
# tensor encoding

def test_tensor_encode_depth_zero_identity():
    P = toy_params()
    x = np.array([3], dtype=np.int32)   # depth 0 has a single message cell
    assert np.array_equal(tensor_encode(P.axis_code, 0, x), x)


def test_tensor_encode_depth_one_matches_axis_code():
    P = toy_params()
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.integers(0, 4, size=4).astype(np.int32)
        got = tensor_encode(P.axis_code, 1, x)
        assert np.array_equal(got, P.axis_code.encode(x))
        assert np.array_equal(got, ldc_large_encode(P.ldc, x))


def test_tensor_encode_axis_commutation():
    P = toy_params()
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.integers(0, 4, size=16).astype(np.int32)
        a = tensor_encode(P.axis_code, 2, x, axis_order=(0, 1))
        b = tensor_encode(P.axis_code, 2, x, axis_order=(1, 0))
        assert np.array_equal(a, b)


def test_tensor_encode_linearity():
    P = toy_params()
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, y = (rng.integers(0, 4, size=16).astype(np.int32) for _ in range(2))
        assert np.array_equal(
            tensor_encode(P.axis_code, 2, x) ^ tensor_encode(P.axis_code, 2, y),
            tensor_encode(P.axis_code, 2, x ^ y))


def test_tensor_encode_entry_formula():
    # symbol at tuple (a, b) is sum_{i1,i2} G[a,i1] G[b,i2] x[i1*r+i2]
    P = toy_params()
    gen = P.axis_code.gen
    rng = np.random.default_rng(8)
    x = rng.integers(0, 4, size=16).astype(np.int32)
    grid = tensor_encode(P.axis_code, 2, x).reshape(P.R, P.R)
    for a, b in [(0, 0), (3, 77), (51, 12), (79, 79)]:
        want = 0
        for i1 in range(4):
            for i2 in range(4):
                want ^= field_mul(GF4, field_mul(GF4, int(gen[a, i1]), int(gen[b, i2])),
                                  int(x[i1 * 4 + i2]))
        assert int(grid[a, b]) == want


def test_tensor_min_distance_is_product():
    code = inner_4_2_2()              # [4,2,2]
    weights = []
    for msg_idx in range(1, 16):
        x = np.array([(msg_idx >> j) & 1 for j in range(4)], dtype=np.int32)
        weights.append(int(tensor_encode(code, 2, x).sum()))
    assert min(weights) == 4          # 2 * 2, by full enumeration


def test_tensor_encode_rejects_bad_axis_order():
    P = toy_params()
    x = np.zeros(16, dtype=np.int32)
    with pytest.raises(ValueError):
        tensor_encode(P.axis_code, 2, x, axis_order=(0, 0))


# ---------------------------------------------------------------------------
# params and bit-level encoding

def test_params_shapes():
    P = toy_params()
    assert (P.r, P.R, P.Q, P.N_inner) == (4, 80, 75, 8)
    assert P.code_bits == 8 * 80 * 80
    assert P.cap == -(-3 * 4 * 75 * 75 // 80)
    d = P.describe()
    assert d["n"] == 16 and d["depth"] == 2 and d["instances"] == 16


def test_params_validation():
    ldc = toy_ldc()
    base = base_symbol_code(GF4)
    with pytest.raises(ValueError):
        TensorParams(ldc=ldc, depth=2, n=15, base_code=base)
    with pytest.raises(ValueError):
        TensorParams(ldc=ldc, depth=0, n=16, base_code=base)
    with pytest.raises(ValueError):
        TensorParams(ldc=ldc, depth=2, n=16, base_code=doubly_extended_rs(GF4))
    with pytest.raises(ValueError):
        TensorParams(ldc=ldc, depth=2, n=16, base_code=base_symbol_code(GF(1)))
    short = LargeLdcParams(K=GF4, e=2, m=1, d=1, inner=doubly_extended_rs(GF4),
                           r=3, eps=Fraction(1, 5), t=1)   # r below capacity
    with pytest.raises(ValueError):
        TensorParams(ldc=short, depth=2, n=9, base_code=base)


def test_default_instances():
    assert default_instances(16) == 16
    assert default_instances(4) == 9
    assert default_instances(1 << 20) == 49


def test_tensor_regime():
    got = tensor_regime(n=1 << 20, eps=Fraction(1, 10), s=1 << 10)
    assert got["r"] == 4
    assert got["depth"] == 10
    assert got["eps_prime"] == Fraction(1, 1000)
    assert got["instances"] == 49


def test_enc_linear_zero_and_linearity():
    P = toy_params()
    assert not enc_linear(P, np.zeros(16, dtype=np.int32)).any()
    rng = np.random.default_rng(9)
    for _ in range(5):
        x, y = rand_bits(rng, 16), rand_bits(rng, 16)
        assert np.array_equal(enc_linear(P, x) ^ enc_linear(P, y),
                              enc_linear(P, x ^ y))


def test_enc_linear_rejects_bad_input():
    P = toy_params()
    with pytest.raises(ValueError):
        enc_linear(P, np.zeros(15, dtype=np.int32))
    with pytest.raises(ValueError):
        enc_linear(P, np.full(16, 2, dtype=np.int32))


# ---------------------------------------------------------------------------
# base layer

def test_base_outcome_uncorrupted_always_accepts():
    P = toy_params()
    from streamcode.codec_tensor import _symbol_bit_words
    words = _symbol_bit_words(P)
    for s in range(4):
        for seed in range(5):
            out = _base_outcome(P, ("t", s, seed), words[s],
                                random.Random(seed), {})
            assert out == s


def test_base_outcome_two_flips_half_acceptance():
    P = toy_params()
    from streamcode.codec_tensor import _symbol_bit_words
    words = _symbol_bit_words(P)
    rng = random.Random(404)
    kept = 0
    trials = 800
    for t in range(trials):
        s = rng.randrange(4)
        blk = words[s].copy()
        i, j = rng.sample(range(8), 2)
        blk[i] ^= 1
        blk[j] ^= 1
        out = _base_outcome(P, (t,), blk, rng, {})
        if out is not None:
            assert out == s          # two flips stay inside the unique radius
            kept += 1
    assert 0.43 < kept / trials < 0.57    # true acceptance rate is exactly 1/2


def test_base_outcome_shared_across_rngs():
    P = toy_params()
    from streamcode.codec_tensor import _symbol_bit_words
    words = _symbol_bit_words(P)
    cache = {}
    outs_a = []
    rng_a, rng_b = random.Random(1), random.Random(2)
    for t in range(30):
        blk = words[t % 4].copy()
        blk[t % 8] ^= 1
        blk[(t + 3) % 8] ^= 1
        outs_a.append(_base_outcome(P, (t,), blk, rng_a, cache))
    outs_b = [_base_outcome(P, (t,), None, rng_b, cache) for t in range(30)]
    assert outs_a == outs_b
    assert any(o is None for o in outs_a) and any(o is not None for o in outs_a)


def test_base_table_rejects_beyond_radius():
    P = toy_params()
    syms, d2s = _base_tables(P)
    # dist2 over 4 means no symbol survives
    assert (syms[d2s > 4] == -1).all()
    assert (syms[d2s <= 4] >= 0).all()


# ---------------------------------------------------------------------------
# recursive decoding

def test_recurse_depth_one_small_instance_uncorrupted():
    ldc = small_ldc()
    P = TensorParams(ldc=ldc, depth=1, n=4, base_code=base_symbol_code(GF(1)),
                     instances=9)
    assert (P.R, P.N_inner, P.code_bits) == (16, 4, 64)
    nrng = np.random.default_rng(11)
    correct = 0
    for trial in range(60):
        x = rand_bits(nrng, 4)
        ell_bits = rand_bits(nrng, 4)
        cw = enc_linear(P, x)
        rng = random.Random(trial)
        ql = {1: gen_qlists(ldc, rng)}
        got = recurse_linear(P, 1, cw, (), lift_functional(P, ell_bits), ql,
                             rng, {}, {})
        truth = functional_dot(ell_bits, x)
        if got is not None and got & 1 == truth:
            correct += 1
    assert correct == 60        # uncorrupted evaluation is exact


def test_linear_dec_small_instance_roundtrip():
    ldc = small_ldc()
    P = TensorParams(ldc=ldc, depth=1, n=4, base_code=base_symbol_code(GF(1)),
                     instances=9)
    nrng = np.random.default_rng(12)
    for trial in range(10):
        x = rand_bits(nrng, 4)
        ell_bits = rand_bits(nrng, 4)
        cw = enc_linear(P, x)
        bit = linear_dec(P, SymbolStream(cw), ell_bits, random.Random(trial))
        assert bit == functional_dot(ell_bits, x)


def test_linear_dec_toy_uncorrupted():
    P = toy_params()
    nrng = np.random.default_rng(13)
    for trial in range(6):
        x = rand_bits(nrng, 16)
        ell_bits = rand_bits(nrng, 16)
        cw = enc_linear(P, x)
        bit, diag = linear_dec_traced(P, SymbolStream(cw), ell_bits,
                                      random.Random(trial))
        assert bit == functional_dot(ell_bits, x)
        assert diag["bot_instances"] == 0
        assert diag["live_ok"]


def test_linear_dec_zero_functional():
    P = toy_params()
    nrng = np.random.default_rng(14)
    x = rand_bits(nrng, 16)
    cw = enc_linear(P, x)
    bit = linear_dec(P, SymbolStream(cw), np.zeros(16, dtype=np.int32),
                     random.Random(0))
    assert bit == 0


def test_linear_dec_deterministic():
    P = toy_params()
    nrng = np.random.default_rng(15)
    x = rand_bits(nrng, 16)
    ell_bits = rand_bits(nrng, 16)
    cw = enc_linear(P, x)
    runs = [linear_dec_traced(P, SymbolStream(cw.copy()), ell_bits,
                              random.Random(99)) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1]["votes"] == runs[1][1]["votes"]
    assert runs[0][1]["base_blocks"] == runs[1][1]["base_blocks"]


def test_linear_dec_live_counter_within_cap():
    P = toy_params()
    nrng = np.random.default_rng(16)
    x = rand_bits(nrng, 16)
    cw = enc_linear(P, x)
    _, diag = linear_dec_traced(P, SymbolStream(cw), rand_bits(nrng, 16),
                                random.Random(3))
    assert diag["live_max"][1] <= diag["live_cap"][1] == P.cap
    assert diag["live_max"][2] <= diag["live_cap"][2] == P.cap ** 2
    assert diag["live_max"][2] >= diag["live_max"][1]


def test_linear_dec_under_corruption():
    from streamcode.channel import AttackStrategy, ErrorBudget, corrupt
    P = toy_params()
    nrng = np.random.default_rng(17)
    wins = 0
    for trial in range(10):
        x = rand_bits(nrng, 16)
        ell_bits = rand_bits(nrng, 16)
        cw = enc_linear(P, x)
        budget = ErrorBudget(rho=Fraction(1, 20), m=len(cw))
        bad = corrupt(cw, AttackStrategy("uniform"), budget,
                      random.Random(7000 + trial))
        bit = linear_dec(P, SymbolStream(bad), ell_bits,
                         random.Random(trial))
        wins += bit == functional_dot(ell_bits, x)
    assert wins >= 9


def test_linear_dec_short_stream_raises():
    P = toy_params()
    with pytest.raises(StreamExhausted):
        linear_dec(P, SymbolStream(np.zeros(100, dtype=np.int32)),
                   np.zeros(16, dtype=np.int32), random.Random(0))
