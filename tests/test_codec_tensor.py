"""Tensor codec: axis encoding identities, base-layer coin behavior, the
recursive functional decoder, and the end-to-end majority vote."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from streamcode.gf import ERASE, GF, field_mul
from streamcode.codes import (LinearCode, codebook, doubly_extended_rs,
                              min_distance_bruteforce, symbol_words)
from streamcode.ldc_core import encode
from streamcode.ldc_large import LargeLdcParams, confidence_from_words_large, gen_qlists
from streamcode.profiles import build_params, load_profile
from streamcode.stream import StreamExhausted, SymbolStream
from streamcode.codec_tensor import (LinearFunctional, TensorParams,
                                     base_symbol_code, default_instances,
                                     enc_linear, functional_dot,
                                     lift_functional,
                                     linear_dec_traced, recurse_linear,
                                     tensor_encode,
                                     _base_tables, _coin, _decode_base_blocks,
                                     _fill_level1, _fold, _node_values)

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
    assert leaf.coeffs.tolist() == [9 % 4]


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
        assert np.array_equal(got, encode(P.ldc, x))


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

def word_with_blocks(P, blocks):
    """An all-zero stream word holding each given block at its block tuple."""
    word = np.zeros(P.code_bits, dtype=np.int32)
    view = word.reshape((P.R,) * P.depth + (P.N_inner,))
    for key, blk in blocks.items():
        view[key] = blk
    return word


def test_base_outcome_uncorrupted_always_accepts():
    P = toy_params()
    words = symbol_words(P.base_code, P.K)
    keys = [(s, seed) for s in range(4) for seed in range(5)]
    word = word_with_blocks(P, {k: words[k[0]] for k in keys})
    rng = random.Random(0)
    state = rng.getstate()
    assert _decode_base_blocks(P, word, keys, rng) == {k: k[0] for k in keys}
    assert rng.getstate() == state     # an exact block draws no coin


def test_base_outcome_two_flips_half_acceptance():
    P = toy_params()
    words = symbol_words(P.base_code, P.K)
    rng = random.Random(404)
    trials = 800
    keys = [divmod(t, P.R) for t in range(trials)]
    sent, blocks = {}, {}
    for key in keys:
        sent[key] = s = rng.randrange(4)
        blk = words[s].copy()
        i, j = rng.sample(range(8), 2)
        blk[i] ^= 1
        blk[j] ^= 1
        blocks[key] = blk
    out = _decode_base_blocks(P, word_with_blocks(P, blocks), keys, rng)
    kept = [k for k in keys if out[k] is not None]
    assert all(out[k] == sent[k] for k in kept)  # two flips stay inside the unique radius
    assert 0.43 < len(kept) / trials < 0.57      # true acceptance rate is exactly 1/2


def reference_level1(P, T, ell, qlists, base_cache):
    """(value, p) of a level-1 node, one curve scan per index, each curve word
    read off base_cache (⊥ as an erasure) and scaled by the index's coefficient."""
    def merged(i):
        c, plan = int(ell.coeffs[i]), qlists[1].plans[i]
        outs = [[base_cache[T + (j,)] for j in row]
                for row in plan.positions.reshape(len(plan.blocks), -1).tolist()]
        words = [[ERASE if o is None else field_mul(P.K, c, o) for o in out] for out in outs]
        return confidence_from_words_large(P.ldc, plan, words).merged()[:2]
    return _fold(merged(i) for i in range(P.r))


def test_base_outcome_shared_across_rngs():
    """Base outcomes are drawn once; _fill_level1 reads them (⊥ as an erasure)
    into the level-1 nodes, and every instance then sees the same node value,
    drawing nothing but its own acceptance coin."""
    P = toy_params()
    words = symbol_words(P.base_code, P.K)
    blocks = {}
    for t in range(30):
        blk = words[t % 4].copy()
        blk[t % 8] ^= 1
        blk[(t + 3) % 8] ^= 1
        blocks[(0, t)] = blk
    rng = random.Random(1)
    cache = _decode_base_blocks(P, word_with_blocks(P, blocks), [(0, j) for j in range(P.R)], rng)
    qlists = {a: gen_qlists(P.ldc, rng) for a in (2, 1)}
    heads = {int(p) for lst in qlists[1].lists for p in lst}
    assert {cache[0, j] is None for j in heads} == {True, False}
    ell = lift_functional(P, np.arange(16) % 3 == 1)
    nodes = [((0,), ell.restrict(i, P.r)) for i in range(P.r)]
    node_cache = {}
    _fill_level1(P, nodes, qlists, cache, node_cache)
    for T, f in nodes:
        value, p = node_cache[T, f.path]
        assert (value, p) == reference_level1(P, T, f, qlists, cache)
        for seed in range(4):
            inst = random.Random(seed)
            state = inst.getstate()
            assert recurse_linear(P, 1, T, f, qlists, inst, node_cache) in (None, value)
            assert (inst.getstate() == state) == (value is None or not 0 < p < 1)


def reference_base_blocks(P, word, keys, rng):
    """One block at a time: table lookup, then _coin at 1 - Fraction(d2, Ni)."""
    syms_tbl, d2_tbl = _base_tables(P)
    view = word.reshape((P.R,) * P.depth + (P.N_inner,))
    out = {}
    for key in keys:
        idx = sum(int(b) << k for k, b in enumerate(view[key]))
        sym, d2 = int(syms_tbl[idx]), int(d2_tbl[idx])
        out[key] = sym if sym >= 0 and _coin(rng, 1 - Fraction(d2, P.N_inner)) else None
    return out


def test_base_coins_match_reference_at_every_dist2():
    # six-bit blocks: 1 - 3/6 must draw as 1/2.  (randrange draws the same
    # bits for a fraction left unreduced by a power of two, so eight-bit
    # blocks could not tell a wrongly reduced coin table apart.)
    gen = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1]], dtype=np.int32)
    P = TensorParams(ldc=toy_ldc(), depth=2, n=16, instances=16,
                     base_code=LinearCode(GF(1), gen, systematic_positions=(0, 1)))
    Ni, n_idx = P.N_inner, 1 << P.N_inner
    # a stand-in decode table reaching every dist2 from 0 to 2*Ni, some blocks ⊥
    idx = np.arange(n_idx)
    d2s = idx % (2 * Ni + 1)
    syms = np.where((idx // (2 * Ni + 1)) % 3 == 2, -1, idx % 4).astype(np.int32)
    P._base_tbl = (syms, d2s.astype(np.int64))
    rng = random.Random(47)
    keys = rng.sample([(i, j) for i in range(P.R) for j in range(P.R)], 600)
    assert keys != sorted(keys)
    values = list(range(2 * Ni + 1)) + [rng.randrange(n_idx) for _ in keys[2 * Ni + 1:]]
    blocks = {key: [(v >> b) & 1 for b in range(Ni)] for key, v in zip(keys, values)}
    assert {int(d2s[v]) for v in range(2 * Ni + 1) if syms[v] >= 0} == set(range(2 * Ni + 1))
    word = word_with_blocks(P, blocks)
    rng_a, rng_b = random.Random(48), random.Random(48)
    got = _decode_base_blocks(P, word, keys, rng_a)
    want = reference_base_blocks(P, word, keys, rng_b)
    assert list(got) == keys and got == want
    assert rng_a.getstate() == rng_b.getstate()
    assert rng_a.getstate() != random.Random(48).getstate()   # coins were drawn


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
        keys = [(j,) for j in sorted({int(p) for lst in ql[1].lists for p in lst})]
        base = _decode_base_blocks(P, cw, keys, rng)
        ell, node_cache = lift_functional(P, ell_bits), {}
        _fill_level1(P, [((), ell)], ql, base, node_cache)
        got = recurse_linear(P, 1, (), ell, ql, rng, node_cache)
        truth = functional_dot(ell_bits, x)
        if got is not None and got & 1 == truth:
            correct += 1
    assert correct == 60        # uncorrupted evaluation is exact


def reference_node(P, a, T, ell, qlists, rng, node_cache):
    """(value, p) of one instance's node above level 1: per index, its
    children's coins, then one curve scan of that instance's words alone."""
    def merged(i):
        ql, child = qlists[a], ell.restrict(i, P.r)
        values = {j: recurse_linear(P, a - 1, T + (j,), child, qlists, rng, node_cache)
                  for j in sorted({int(p) for p in ql.lists[i]})}
        plan = ql.plans[i]
        words = [[ERASE if values[j] is None else values[j] for j in row]
                 for row in plan.positions.reshape(len(plan.blocks), -1).tolist()]
        return confidence_from_words_large(P.ldc, ql.plans[i], words).merged()[:2]
    return _fold(merged(i) for i in range(P.r))


def test_root_instances_stacked_match_one_at_a_time():
    """Stacking the instances' root words into one scan per index changes no
    instance's (value, p) and no instance rng's draws, ⊥ instances included."""
    P = toy_params()
    nrng = np.random.default_rng(2)
    x, ell_bits = rand_bits(nrng, 16), rand_bits(nrng, 16)
    word = enc_linear(P, x)
    word[nrng.choice(len(word), len(word) // 4, replace=False)] ^= 1
    rng = random.Random(2)
    qlists = {a: gen_qlists(P.ldc, rng) for a in (2, 1)}
    needed = [sorted({int(p) for lst in qlists[a].lists for p in lst}) for a in (2, 1)]
    base = _decode_base_blocks(P, word, list(itertools.product(*needed)), rng)
    ell, node_cache = lift_functional(P, ell_bits), {}
    nodes = [((j,), ell.restrict(i, P.r)) for i in range(P.r)
             for j in sorted({int(p) for p in qlists[2].lists[i]})]
    _fill_level1(P, nodes, qlists, base, node_cache)
    stacked = [random.Random(seed) for seed in range(40)]
    got = _node_values(P, 2, (), ell, qlists, stacked, node_cache)
    assert 0 < sum(value is None for value, _ in got) < 40
    for seed, inst in enumerate(stacked):
        alone = random.Random(seed)
        assert got[seed] == reference_node(P, 2, (), ell, qlists, alone, node_cache)
        assert inst.getstate() == alone.getstate()


def test_linear_dec_small_instance_roundtrip():
    ldc = small_ldc()
    P = TensorParams(ldc=ldc, depth=1, n=4, base_code=base_symbol_code(GF(1)),
                     instances=9)
    nrng = np.random.default_rng(12)
    for trial in range(10):
        x = rand_bits(nrng, 4)
        ell_bits = rand_bits(nrng, 4)
        cw = enc_linear(P, x)
        bit = linear_dec_traced(P, SymbolStream(cw), ell_bits, random.Random(trial))[0]
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
    bit = linear_dec_traced(P, SymbolStream(cw), np.zeros(16, dtype=np.int32),
                            random.Random(0))[0]
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
        bit = linear_dec_traced(P, SymbolStream(bad), ell_bits,
                                random.Random(trial))[0]
        wins += bit == functional_dot(ell_bits, x)
    assert wins >= 9


def test_linear_dec_short_stream_raises():
    P = toy_params()
    with pytest.raises(StreamExhausted):
        linear_dec_traced(P, SymbolStream(np.zeros(100, dtype=np.int32)),
                          np.zeros(16, dtype=np.int32), random.Random(0))


def test_linear_dec_rejects_erased_bit():
    """The base table is indexed by a block's bits; an erased bit would read
    as a wrong block, so the decoder refuses the word instead."""
    P = build_params(load_profile("tensor-small"))
    cw = enc_linear(P, np.array([1, 0, 1, 1], dtype=np.int32))
    cw[3] = ERASE
    with pytest.raises(ValueError, match="erasure"):
        linear_dec_traced(P, SymbolStream(cw), np.ones(4, dtype=np.int32),
                          random.Random(0))
