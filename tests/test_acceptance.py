"""Release-gate acceptance suite: fifteen numbered criteria.

Each criterion is one test, run in order, asserting the stated tolerance and
(where given) the runtime cap; a test prints a single `[criterion NN] PASS`
line with the measured numbers when it holds (visible with `pytest -s`).
The expensive trial batches are shared through module-scoped fixtures so the
repeat-codec batch (criteria 9/10/11) and the tensor batches (10/13) each run
once.  Channel corruption throughout goes through the adversarial channel
under its budget discipline, and every planted corruption is re-measured and
checked against the budget in criterion 14.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from streamcode.gf import (
    ERASE, GF, MODULI, field_add, field_inv, field_mul, field_pow,
    poly_eval, poly_interpolate, unpack_symbol,
)
from streamcode.codes import (
    LinearCode, concat, codebook, doubly_extended_rs, ecc_eps,
    list_decode_concat, make_systematic, min_distance_bruteforce,
    repetition_code, replicate, rm_code, rs_code, simplex_code,
    unique_decode, word_dist2,
)
from streamcode.ldc_binary import (
    AdviceMismatch, BinaryLdcParams, decode_with_advice, gather,
    sample_advice, sample_advice_plan, sample_smooth_plan,
    smooth_confidence_from_words,
)
from streamcode.ldc_large import (
    LargeLdcParams, UniformQuerySpec, confidence_from_words_large,
    gen_qlists, overlap_cap, query_smoothness_check, ResampleExhausted,
)
from streamcode.ldc_core import encode
from streamcode.channel import AttackStrategy, ErrorBudget, corrupt
from streamcode.codec_repeat import (
    dec_repeat, enc_repeat, errcount_property_probe,
)
from streamcode.codec_tensor import (
    _base_tables, _coin, enc_linear, functional_dot, linear_dec_traced,
    tensor_encode,
)
from streamcode.profiles import build_params, load_profile
from streamcode.stream import MemoryLedger, SymbolStream
from streamcode.cli import _jsonable, run_experiment


def _ok(num: int, detail: str):
    print(f"[criterion {num:02d}] PASS  {detail}")


def _bits(rng, n):
    return np.array([rng.randrange(2) for _ in range(n)], dtype=np.int32)


# ---------------------------------------------------------------------------
# shared toy parameter points
#
# The binary locally decodable toys use the strongest small inner code in the
# library (the simplex code replicated eight times, [120, 4] with distance
# 64) so the composite has relative distance exactly 1/2 and stays decodable
# at the corruption levels the criteria demand.

P_SMOOTH = BinaryLdcParams(F=GF(4), m=2, d=1,
                           inner=replicate(simplex_code(4), 8),
                           n=12, eps=Fraction(1, 5), t_smooth=2)
P_ADVICE = BinaryLdcParams(F=GF(4), m=2, d=1,
                           inner=replicate(simplex_code(4), 8),
                           n=12, eps=Fraction(1, 10), t_smooth=2, t_advice=5)
LT = LargeLdcParams(K=GF(4), e=1, m=2, d=1, inner=repetition_code(GF(4), 2),
                    r=3, eps=Fraction(1, 5), t=2)

# a [4, 2] binary toy with distance 2, used for concatenation sweeps
INNER_422 = LinearCode(GF(1), np.array([[1, 0], [0, 1], [1, 1], [1, 0]],
                                       dtype=np.int32),
                       kind="toy-4-2-2", systematic_positions=(0, 1),
                       dist2_bound=4)

# outcomes of the repeat-codec attack sweeps (filled by criterion 9, reused
# by criteria 10 and 14; test order in this file guarantees the fill)
REPEAT_SWEEP_OUTS: list = []


# ---------------------------------------------------------------------------
# repeat-codec batches

@pytest.fixture(scope="module")
def repeat_ctx():
    prof = load_profile("repeat-toy")
    params = build_params(prof)
    return prof, params


def _repeat_trial(params, seed, trial, strategy, options, rho):
    x = np.random.default_rng([seed, trial]).integers(
        0, 2, size=params.msg_bits).astype(np.int32)
    code = enc_repeat(params, x)
    budget = ErrorBudget(rho, len(code))
    bad = corrupt(code, AttackStrategy(strategy, dict(options)), budget,
                  random.Random(f"{seed}:{trial}:chan"))
    ledger = MemoryLedger(params.budget_bits)
    res = dec_repeat(params, SymbolStream(bad), random.Random(f"{seed}:{trial}:dec"),
                     ledger=ledger)
    N = params.ldc.code_len
    errs = [word_dist2(code[c * N:(c + 1) * N], bad[c * N:(c + 1) * N]) // 2
            for c in range(params.copies)]
    tape_exact = bool(
        res.success
        and np.array_equal(res.message, x)
        and res.tape.written_indices() == list(range(params.msg_bits))
        and [v for _, v in res.tape.entries] == [int(b) for b in x])
    return {
        "strategy": strategy,
        "success": bool(res.success),
        "tape_exact": tape_exact,
        "peak_bits": ledger.peak_bits,
        "budget_bits": params.budget_bits,
        "ledger_violations": len(ledger.violations),
        "probe_violations": len(errcount_property_probe(params, res.settled_after,
                                                        errs)),
        "planted_dist2": word_dist2(code, bad),
        "limit_dist2": budget.limit2,
        "copies_used": res.copies_used,
    }


@pytest.fixture(scope="module")
def repeat_uniform(repeat_ctx):
    _, params = repeat_ctx
    rho = Fraction(1, 20)
    t0 = time.monotonic()
    outs = [_repeat_trial(params, 9, t, "uniform", {}, rho) for t in range(200)]
    return outs, time.monotonic() - t0


@pytest.fixture(scope="module")
def repeat_zero(repeat_ctx):
    _, params = repeat_ctx
    t0 = time.monotonic()
    outs = [_repeat_trial(params, 31, t, "uniform", {}, Fraction(0))
            for t in range(40)]
    return outs, time.monotonic() - t0


# ---------------------------------------------------------------------------
# tensor-codec batches

@pytest.fixture(scope="module")
def tensor_ctx():
    prof = load_profile("tensor-toy")
    params = build_params(prof)
    return prof, params


def _tensor_trial(params, seed, trial, rho):
    g = np.random.default_rng([seed, trial])
    x = g.integers(0, 2, size=params.n).astype(np.int32)
    ell = g.integers(0, 2, size=params.n).astype(np.int32)
    word = enc_linear(params, x)
    budget = ErrorBudget(rho, len(word))
    bad = corrupt(word, AttackStrategy("uniform", {}), budget,
                  random.Random(f"{seed}:{trial}:chan"))
    bit, diag = linear_dec_traced(params, SymbolStream(bad), ell,
                                  random.Random(f"{seed}:{trial}:dec"))
    return {
        "success": bit == functional_dot(ell, x),
        "live_ok": bool(diag["live_ok"]),
        "live_max": diag["live_max"],
        "live_cap": diag["live_cap"],
        "bot_instances": diag["bot_instances"],
        "planted_dist2": word_dist2(word, bad),
        "limit_dist2": budget.limit2,
    }


@pytest.fixture(scope="module")
def tensor_zero(tensor_ctx):
    _, params = tensor_ctx
    t0 = time.monotonic()
    outs = [_tensor_trial(params, 51, t, Fraction(0)) for t in range(300)]
    return outs, time.monotonic() - t0


@pytest.fixture(scope="module")
def tensor_rho(tensor_ctx):
    _, params = tensor_ctx
    t0 = time.monotonic()
    outs = [_tensor_trial(params, 52, t, Fraction(1, 20)) for t in range(300)]
    return outs, time.monotonic() - t0


# ---------------------------------------------------------------------------
# criterion 1: field and polynomial correctness

def test_c01_field_and_polynomial_laws():
    t0 = time.monotonic()
    cases = 0
    for k in sorted(MODULI):
        F = GF(k)
        rng = random.Random(100 + k)
        for _ in range(1000):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert field_add(F, field_add(F, a, b), c) == \
                field_add(F, a, field_add(F, b, c))
            assert field_mul(F, field_mul(F, a, b), c) == \
                field_mul(F, a, field_mul(F, b, c))
            assert field_mul(F, a, field_add(F, b, c)) == \
                field_add(F, field_mul(F, a, b), field_mul(F, a, c))
            assert field_add(F, a, a) == 0
            if a:
                assert field_mul(F, a, field_inv(F, a)) == 1
                assert field_pow(F, a, F.q - 1) == 1
            cases += 1
    rounds = 0
    for k in (1, 2, 3, 4):
        F = GF(k)
        rng = random.Random(200 + k)
        for _ in range(60):
            deg = rng.randrange(min(4, F.q))
            coeffs = [rng.randrange(F.q) for _ in range(deg + 1)]
            xs = rng.sample(range(F.q), deg + 1)
            pts = [(x, poly_eval(F, coeffs, x)) for x in xs]
            back = poly_interpolate(F, pts)
            assert all(poly_eval(F, back, x) == poly_eval(F, coeffs, x)
                       for x in range(F.q))
            rounds += 1
    dt = time.monotonic() - t0
    assert dt < 5.0
    _ok(1, f"{cases} law cases over {len(MODULI)} fields, "
           f"{rounds} interpolation roundtrips, {dt:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: brute-force distances meet every claimed bound

def test_c02_oracle_distances_meet_claims():
    t0 = time.monotonic()
    checked = []

    # MDS codes: exact equality
    for code, d_exact in [
        (rs_code(GF(4), list(range(1, 16)), 3), 13),
        (rs_code(GF(3), list(range(8)), 2), 7),
        (doubly_extended_rs(GF(2)), 4),
    ]:
        assert code.msg_space <= 4096
        d = min_distance_bruteforce(code)
        assert d == d_exact, (code.describe(), d)
        checked.append(f"rs[{code.code_len},{code.msg_len}]={d}")

    # Reed-Muller: distance at least the (q-d)/q fraction
    for F, m, d in [(GF(2), 2, 2), (GF(2), 1, 2), (GF(4), 2, 1)]:
        code = rm_code(F, m, d)
        assert code.msg_space <= 4096
        dist = min_distance_bruteforce(code)
        bound = Fraction(F.q - d, F.q) * code.code_len
        assert dist >= bound, (F.q, m, d, dist, bound)
        checked.append(f"rm(q={F.q},m={m},d={d})={dist}>={bound}")

    # binary composite (Reed-Muller over an inner binary code): relative
    # distance at least 1/2 - eps^6
    full = concat(P_ADVICE.rm, P_ADVICE.inner)
    assert full.msg_space == 4096
    d_full = min_distance_bruteforce(full)
    bound = (Fraction(1, 2) - P_ADVICE.eps ** 6) * full.code_len
    assert d_full >= bound, (d_full, bound)
    checked.append(f"binary-composite={d_full}/{full.code_len}")

    # large-alphabet composite in the low-degree regime d <= eps^6 * q:
    # relative distance at least 1 - eps^6
    for code, eps, q, deg in [
        (rs_code(GF(6), list(range(64)), 2), Fraction(1, 2), 64, 1),
        (concat(make_systematic(rm_code(GF(4), 1, 1)),
                repetition_code(GF(4), 2)), Fraction(2, 3), 16, 1),
    ]:
        assert code.msg_space <= 4096
        assert deg <= eps ** 6 * q  # the regime the bound is claimed in
        dist = min_distance_bruteforce(code)
        bound = (1 - eps ** 6) * code.code_len
        assert dist >= bound, (dist, bound)
        checked.append(f"large-composite[{code.code_len}]={dist}>={bound}")

    # the balanced-code family used for inner codes: declared target
    for K, eps, n in [(GF(1), Fraction(1, 4), 4), (GF(4), Fraction(1, 4), 3)]:
        code = ecc_eps(K, eps, n)
        assert code.msg_space <= 4096
        dist = min_distance_bruteforce(code)
        target = (1 - Fraction(1, K.q) - eps) * code.code_len
        assert dist >= target, (K.k, dist, target)
        checked.append(f"ecc_eps(k={K.k})={dist}>={target}")

    dt = time.monotonic() - t0
    assert dt < 120.0
    _ok(2, f"{len(checked)} codes: {'; '.join(checked)}; {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: decoders agree with the brute-force oracles

def test_c03_decoder_oracle_agreement():
    t0 = time.monotonic()
    cc = concat(rs_code(GF(2), [0, 1, 2], 2), INNER_422)
    cb = codebook(cc)
    radius2 = (cc.dist2_bound - 1) // 2

    # full sweep of the entire 2^12 word space: the structured decoder path
    # must return exactly the brute-force nearest codeword within radius
    in_radius = 0
    for wv in range(1 << cc.code_len):
        w = np.array([(wv >> b) & 1 for b in range(cc.code_len)],
                     dtype=np.int32)
        d2 = cb.dist2_scan(w)
        i = int(np.argmin(d2))
        got = unique_decode(cc, w)
        if got is not None:
            assert got[1] == word_dist2(w, cc.encode(got[0])) <= radius2
        if int(d2[i]) <= radius2:
            assert got is not None and np.array_equal(got[0], cb.msg_of_index(i))
            in_radius += 1

    # erasure-bearing words, same agreement
    rng = random.Random(33)
    for _ in range(500):
        w = np.array([rng.choice([0, 1, 1, 0, ERASE])
                      for _ in range(cc.code_len)], dtype=np.int32)
        d2 = cb.dist2_scan(w)
        i = int(np.argmin(d2))
        got = unique_decode(cc, w)
        if int(d2[i]) <= radius2:
            assert got is not None and np.array_equal(got[0], cb.msg_of_index(i))

    # list decoding complete against an independent enumeration
    eps = Fraction(1, 5)
    thresh = (1 - eps) / 2 * 2 * cc.code_len
    all_msgs = [np.array([(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1],
                         dtype=np.int32) for v in range(16)]
    words = 0
    for _ in range(60):
        base = cc.encode(all_msgs[rng.randrange(16)]).copy()
        for pos in rng.sample(range(cc.code_len), rng.randrange(6)):
            base[pos] ^= 1
        for pos in rng.sample(range(cc.code_len), rng.randrange(3)):
            base[pos] = ERASE
        got = list_decode_concat(cc, base, eps)
        brute = set()
        for msg in all_msgs:
            d2 = word_dist2(base, cc.encode(msg))
            if Fraction(d2) <= thresh:
                brute.add((tuple(int(v) for v in msg), d2))
        assert {(tuple(int(v) for v in m), d) for m, d in got} == brute
        d2s = [d for _, d in got]
        assert d2s == sorted(d2s)
        words += 1

    dt = time.monotonic() - t0
    assert dt < 300.0
    _ok(3, f"4096-word sweep ({in_radius} in radius) + 500 erasure words + "
           f"{words} list-decode words; {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: binary smooth-decoding inequality

def test_c04_smooth_inequality_binary():
    t0 = time.monotonic()
    rng = random.Random(44)
    rates = {}
    for delta in (Fraction(0), Fraction(1, 10), Fraction(1, 5)):
        viol = 0
        k = int(delta * P_SMOOTH.code_len)
        assert Fraction(k, P_SMOOTH.code_len) == delta
        for _ in range(500):
            x = _bits(rng, P_SMOOTH.n)
            w = encode(P_SMOOTH, x)
            for pos in rng.sample(range(P_SMOOTH.code_len), k):
                w[pos] ^= 1
            i = rng.randrange(P_SMOOTH.n)
            plan = sample_smooth_plan(P_SMOOTH, i, rng)
            assert len(np.unique(plan.positions)) <= P_SMOOTH.queries_smooth
            words = gather(w, plan.positions).reshape(len(plan.blocks), -1)
            conf = smooth_confidence_from_words(P_SMOOTH, plan, words)
            p_true = conf.p1 if x[i] else conf.p0
            if not p_true > 1 - 2 * delta - P_SMOOTH.eps:
                viol += 1
        rates[str(delta)] = viol
        assert viol <= 25, (str(delta), viol)
    dt = time.monotonic() - t0
    assert dt < 120.0
    _ok(4, f"violations per 500 trials {rates}; {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: large-alphabet smooth decoding with erasures

def test_c05_smooth_inequality_large_alphabet():
    t0 = time.monotonic()
    rng = random.Random(55)
    viol = 0
    for _ in range(500):
        x = np.array([rng.randrange(LT.K.q) for _ in range(LT.r)],
                     dtype=np.int32)
        word = encode(LT, x)
        budget = ErrorBudget(Fraction(3, 10), len(word))
        bad = corrupt(word, AttackStrategy("erasure_mix", {}), budget, rng,
                      LT.K.k)
        delta = Fraction(word_dist2(word, bad), 2 * len(word))
        i = rng.randrange(LT.r)
        plan = sample_smooth_plan(LT, i, rng)
        assert len(np.unique(plan.positions)) <= LT.queries
        words = gather(bad, plan.positions).reshape(len(plan.blocks), -1)
        conf = confidence_from_words_large(LT, plan, words)
        p_true = conf.field_mass.get(int(x[i]), Fraction(0))
        if not p_true + conf.p_bot / 2 > 1 - delta - LT.eps:
            viol += 1
    dt = time.monotonic() - t0
    assert viol <= 25, viol
    assert dt < 120.0
    _ok(5, f"{viol}/500 violations at delta=0.3 flip/erasure mix; {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: advice decoding at delta = 0.3

def test_c06_advice_decoding():
    t0 = time.monotonic()
    rng = random.Random(66)
    k = int(Fraction(3, 10) * P_ADVICE.code_len)
    ok = 0
    for _ in range(200):
        x = _bits(rng, P_ADVICE.n)
        w = encode(P_ADVICE, x)
        adv = sample_advice(P_ADVICE, rng)
        vals = gather(w, list(adv.positions))
        for pos in rng.sample(range(P_ADVICE.code_len), k):
            w[pos] ^= 1
        i = rng.randrange(P_ADVICE.n)
        plan = sample_advice_plan(P_ADVICE, i, adv, rng)
        assert len(plan.blocks) == len(plan.nodes) == P_ADVICE.t_advice
        for row in plan.positions.reshape(len(plan.blocks), -1):
            assert len(np.unique(row)) <= \
                (P_ADVICE.F.q - 1) * P_ADVICE.block_len
        assert len(adv.positions) == P_ADVICE.advice_size
        try:
            ok += int(decode_with_advice(w, i, adv, vals, P_ADVICE, rng) == x[i])
        except AdviceMismatch:
            pass
    assert ok >= 190, ok

    # falsified advice: a non-codeword advice block can never satisfy the
    # candidate filter, so the failure must be flagged every time
    flagged = 0
    for _ in range(100):
        x = _bits(rng, P_ADVICE.n)
        w = encode(P_ADVICE, x)
        adv = sample_advice(P_ADVICE, rng)
        vals = gather(w, list(adv.positions)).copy()
        vals[rng.randrange(len(vals))] ^= 1
        with pytest.raises(AdviceMismatch):
            decode_with_advice(w, rng.randrange(P_ADVICE.n), adv, vals,
                               P_ADVICE, rng)
        flagged += 1
    dt = time.monotonic() - t0
    assert dt < 120.0
    _ok(6, f"{ok}/200 recovered at delta=0.3, {flagged}/100 "
           f"falsified-advice flags; {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: query plans are non-adaptive, budgeted, and smooth

def test_c07_query_plan_properties():
    # non-adaptivity: the plan is a deterministic function of (params, i, rng)
    # alone -- two rngs in the same state yield identical position lists,
    # before any oracle value is read
    for i in (0, 5, 11):
        p1 = sample_smooth_plan(P_SMOOTH, i, random.Random(1234))
        p2 = sample_smooth_plan(P_SMOOTH, i, random.Random(1234))
        assert np.array_equal(p1.positions, p2.positions)
    for i in (0, 1, 2):
        p1 = sample_smooth_plan(LT, i, random.Random(99))
        p2 = sample_smooth_plan(LT, i, random.Random(99))
        assert np.array_equal(p1.positions, p2.positions)
    adv = sample_advice(P_ADVICE, random.Random(7))
    a1 = sample_advice_plan(P_ADVICE, 3, adv, random.Random(42))
    a2 = sample_advice_plan(P_ADVICE, 3, adv, random.Random(42))
    assert np.array_equal(a1.positions, a2.positions)
    assert np.array_equal(a1.nodes, a2.nodes)

    # per-decode budget, re-asserted over fresh samples
    rng = random.Random(77)
    for _ in range(50):
        plan = sample_smooth_plan(P_SMOOTH, rng.randrange(P_SMOOTH.n), rng)
        assert len(np.unique(plan.positions)) <= P_SMOOTH.queries_smooth
        planl = sample_smooth_plan(LT, rng.randrange(LT.r), rng)
        assert len(np.unique(planl.positions)) <= LT.queries

    # smoothness: empirical per-position frequency over 10^4 samples stays
    # under 1.1 * Q/R plus three binomial standard deviations
    res = query_smoothness_check(LT, 10_000, random.Random(101))
    bound = float(res["bound"])
    sigma = math.sqrt(bound * (1 - bound) / res["trials"])
    max_freq = float(res["max_freq"])
    assert max_freq <= 1.1 * bound + 3 * sigma, (max_freq, bound, sigma)
    assert float(res["mean_freq"]) <= bound
    _ok(7, f"non-adaptive plans, budgets <= Q, max_freq {max_freq:.4f} "
           f"<= 1.1*{bound:.4f}+3*{sigma:.4f}")


# ---------------------------------------------------------------------------
# criterion 8: query-list overlap cap and resampling termination

def test_c08_qlist_overlap():
    # deterministic cap on every profile geometry that generates query lists
    for name in ("tensor-toy", "tensor-small"):
        params = build_params(load_profile(name))
        for s in range(3):
            ql = gen_qlists(params.ldc, random.Random(s))
            assert ql.cap == overlap_cap(params.ldc.r, params.ldc.queries,
                                         params.ldc.code_len)
            assert int(ql.counts.max()) <= ql.cap
    for name in ("repeat-toy", "repeat-unit"):
        params = build_params(load_profile(name))
        spec = UniformQuerySpec(r=params.msg_bits,
                                Q=params.ldc.queries_smooth,
                                R=params.ldc.code_len)
        for s in range(3):
            ql = gen_qlists(spec, random.Random(s))
            assert int(ql.counts.max()) <= ql.cap

    # resampling terminates within the Q^2 budget on a deliberately tight cap
    spec = UniformQuerySpec(r=32, Q=8, R=64, cap=6)
    done = 0
    for s in range(1000):
        try:
            ql = gen_qlists(spec, random.Random(s))
            assert int(ql.counts.max()) <= 6
            done += 1
        except ResampleExhausted:
            pass
    assert done >= 990, done
    _ok(8, f"caps hold on 4 profile geometries; tight-cap termination "
           f"{done}/1000")


# ---------------------------------------------------------------------------
# criterion 9: end-to-end repeat codec under attack

def test_c09_repeat_end_to_end(repeat_ctx, repeat_uniform, repeat_zero):
    _, params = repeat_ctx
    uni, t_uni = repeat_uniform
    zero, t_zero = repeat_zero
    t0 = time.monotonic()
    rho = Fraction(1, 20)

    wins = sum(o["success"] for o in uni)
    assert wins >= 198, wins
    assert all(o["tape_exact"] for o in uni if o["success"])

    assert all(o["success"] and o["tape_exact"] for o in zero)

    kill_outs = [_repeat_trial(params, seed, t, "copy_kill",
                               {"copy_len": params.ldc.code_len,
                                "target_copy": t}, rho)
                 for seed in (13, 14) for t in range(params.copies)]
    kills = sum(o["success"] for o in kill_outs)
    assert kills >= math.ceil(0.95 * len(kill_outs)), kills
    assert all(o["tape_exact"] for o in kill_outs if o["success"])

    bz_outs = [_repeat_trial(params, seed, 7 * bl + st, "blockzero",
                             {"block_len": bl, "window_step": st}, rho)
               for seed in (15, 16)
               for bl in (512, 2048, 8192, 32768)
               for st in (64, 256)]
    bz_outs += [_repeat_trial(params, 17, st, "blockzero",
                              {"block_len": 2048, "window_step": st}, rho)
                for st in (1024, 4096, 16384, 65536)]
    bzs = sum(o["success"] for o in bz_outs)
    assert bzs >= math.ceil(0.95 * len(bz_outs)), bzs
    assert all(o["tape_exact"] for o in bz_outs if o["success"])

    REPEAT_SWEEP_OUTS.extend(kill_outs + bz_outs)
    dt = t_uni + t_zero + (time.monotonic() - t0)
    assert dt < 600.0
    _ok(9, f"uniform {wins}/200, zero {len(zero)}/{len(zero)}, "
           f"copy_kill {kills}/{len(kill_outs)}, blockzero {bzs}/"
           f"{len(bz_outs)}, all tapes exact in order; {dt:.0f}s")


# ---------------------------------------------------------------------------
# criterion 10: space ledger and live-instance cap

def test_c10_space_ledger(repeat_uniform, repeat_zero, tensor_zero,
                          tensor_rho, tensor_ctx):
    uni, _ = repeat_uniform
    zero, _ = repeat_zero
    assert REPEAT_SWEEP_OUTS, "criterion 9 must run first"
    accepted = [o for o in uni + zero + REPEAT_SWEEP_OUTS if o["success"]]
    assert accepted
    assert all(o["peak_bits"] <= o["budget_bits"] for o in accepted)
    assert all(o["ledger_violations"] == 0 for o in accepted)
    peak = max(o["peak_bits"] for o in accepted)

    _, params = tensor_ctx
    tz, _ = tensor_zero
    tr, _ = tensor_rho
    for o in tz + tr:
        assert o["live_ok"]
        for depth_j, live in o["live_max"].items():
            assert live <= params.cap ** int(depth_j)
    _ok(10, f"repeat peak {peak}/{accepted[0]['budget_bits']} bits over "
            f"{len(accepted)} accepted runs; tensor live counter under "
            f"cap^depth in {len(tz) + len(tr)} runs")


# ---------------------------------------------------------------------------
# criterion 11: error-count probe on instrumented trials

def test_c11_errcount_probe(repeat_uniform):
    uni, _ = repeat_uniform
    bad = sum(1 for o in uni if o["probe_violations"] > 0)
    assert bad <= 10, bad
    _ok(11, f"progress/err-count bound held in {200 - bad}/200 "
            f"instrumented trials")


# ---------------------------------------------------------------------------
# criterion 12: tensor encoding identities

def test_c12_tensor_identities(tensor_ctx):
    t0 = time.monotonic()
    _, params = tensor_ctx
    code, d = params.axis_code, params.depth
    K = code.field
    rng = random.Random(121)
    n = code.msg_len ** d
    for _ in range(100):
        x = np.array([rng.randrange(K.q) for _ in range(n)], dtype=np.int32)
        y = np.array([rng.randrange(K.q) for _ in range(n)], dtype=np.int32)
        fwd = tensor_encode(code, d, x, axis_order=(0, 1))
        rev = tensor_encode(code, d, x, axis_order=(1, 0))
        assert np.array_equal(fwd, rev)
        assert np.array_equal(tensor_encode(code, d, x ^ y),
                              fwd ^ tensor_encode(code, d, y))

    base_d = min_distance_bruteforce(INNER_422)
    weights = [int((tensor_encode(INNER_422, 2,
                                  np.array([(v >> 3) & 1, (v >> 2) & 1,
                                            (v >> 1) & 1, v & 1],
                                           dtype=np.int32)) != 0).sum())
               for v in range(1, 16)]
    assert min(weights) == base_d ** 2
    dt = time.monotonic() - t0
    assert dt < 60.0
    _ok(12, f"commutation+linearity on 100 instances; tensor-square min "
            f"weight {min(weights)} == {base_d}^2; {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 13: end-to-end tensor codec

def test_c13_tensor_end_to_end(tensor_ctx, tensor_zero, tensor_rho):
    _, params = tensor_ctx
    tz, t_z = tensor_zero
    tr, t_r = tensor_rho
    t0 = time.monotonic()
    zero_wins = sum(o["success"] for o in tz)
    rho_wins = sum(o["success"] for o in tr)
    assert zero_wins >= 297, zero_wins
    assert rho_wins >= 285, rho_wins

    # base-level proxy: a block at relative distance 0.25 from its codeword
    # is accepted with probability 1 - 2*0.25 = 1/2
    syms_tbl, d2_tbl = _base_tables(params)
    N = params.N_inner
    rng = random.Random(131)
    accepts = 0
    for _ in range(1000):
        sigma = rng.randrange(params.K.q)
        word = params.base_code.encode(np.array(
            unpack_symbol(GF(1), params.K, sigma), dtype=np.int32)
        ).astype(np.int64)
        flips = rng.sample(range(N), 2)
        for pos in flips:
            word[pos] ^= 1
        idx = int(np.dot(word, 1 << np.arange(N)))
        assert int(syms_tbl[idx]) == sigma  # two flips stay in radius
        assert int(d2_tbl[idx]) == 4
        p = 1 - Fraction(int(d2_tbl[idx]), N)
        accepts += int(_coin(rng, p))
    rate = accepts / 1000
    assert abs(rate - 0.5) <= 0.05, rate
    dt = t_z + t_r + (time.monotonic() - t0)
    assert dt < 600.0
    _ok(13, f"zero {zero_wins}/300, rho=0.05 {rho_wins}/300, base accept "
            f"rate {rate:.3f} in [0.45, 0.55]; {dt:.0f}s")


# ---------------------------------------------------------------------------
# criterion 14: channel budget discipline

def test_c14_channel_discipline(repeat_uniform, tensor_rho):
    cases = 0
    for seed in range(4):
        for rho in (Fraction(0), Fraction(1, 20), Fraction(1, 7),
                    Fraction(1, 4), Fraction(9, 10)):
            for kind in ("bits", "syms"):
                rng = random.Random(f"{seed}:{rho}:{kind}")
                if kind == "bits":
                    word = np.array([rng.randrange(2) for _ in range(2000)],
                                    dtype=np.int32)
                    strategies = [("uniform", {}), ("burst", {}),
                                  ("copy_kill", {"copy_len": 250}),
                                  ("blockzero", {"block_len": 50,
                                                 "window_step": 37})]
                else:
                    word = np.array([rng.randrange(16) for _ in range(2000)],
                                    dtype=np.int32)
                    strategies = [("uniform", {}), ("burst", {}),
                                  ("copy_kill", {"copy_len": 250}),
                                  ("erasure_mix", {})]
                field_k = 0 if kind == "bits" else 4
                for name, opts in strategies:
                    budget = ErrorBudget(rho, len(word))
                    before = word.copy()
                    bad = corrupt(word, AttackStrategy(name, opts), budget,
                                  rng, field_k)
                    assert np.array_equal(word, before)  # original untouched
                    d2 = word_dist2(word, bad)
                    assert d2 <= budget.limit2, (name, str(rho), d2)
                    assert d2 == budget.charged2
                    assert len(bad) == len(word)
                    cases += 1

    # and every corruption planted by the end-to-end batches stayed legal
    uni, _ = repeat_uniform
    tr, _ = tensor_rho
    batch = uni + tr + REPEAT_SWEEP_OUTS
    assert all(o["planted_dist2"] <= o["limit_dist2"] for o in batch)
    _ok(14, f"{cases} strategy/seed/budget grid cases + {len(batch)} "
            f"batch corruptions, zero overdrafts")


# ---------------------------------------------------------------------------
# criterion 15: bit-exact reproducibility from the echoed profile

def test_c15_reproducibility():
    for name, trials, seed in (("repeat-unit", 3, 5), ("tensor-small", 5, 3)):
        r1 = run_experiment(load_profile(name), trials=trials, seed=seed)
        r2 = run_experiment(dict(r1["profile"]), trials=trials,
                            seed=r1["seed"])
        j1 = json.dumps(_jsonable(r1), sort_keys=True)
        j2 = json.dumps(_jsonable(r2), sort_keys=True)
        assert j1 == j2, name
    _ok(15, "repeat-unit and tensor-small reports re-run bit-exactly "
            "from their echoes")
