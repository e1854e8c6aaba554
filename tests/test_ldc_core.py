"""The shared Reed-Muller core.  The binary LDC is the large-alphabet LDC
over K = GF(2) with e = b: both parameter classes must give the same
codewords and, from equal seeds, the same smooth-decoding plans.  The core's
vectorized curve walk and packing are checked against pointwise references."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from streamcode.codes import (doubly_extended_rs, extended_hamming_code, replicate,
                              simplex_code)
from streamcode.gf import GF, pack_symbols, poly_eval
from streamcode.ldc_core import curve_plan, encode, sample_smooth_plan
from streamcode.ldc_binary import BinaryLdcParams
from streamcode.ldc_large import LargeLdcParams

GEOMETRIES = {
    "ext-hamming": (extended_hamming_code, 2, 1),
    "simplex4x3": (lambda: replicate(simplex_code(4), 3), 3, 3),
}


def _pair(name):
    make_inner, m, d = GEOMETRIES[name]
    F = GF(4)
    n = math.comb(d + m, m) * F.k
    binary = BinaryLdcParams(F=F, m=m, d=d, inner=make_inner(), n=n,
                             eps=Fraction(1, 5), t_smooth=2)
    large = LargeLdcParams(K=GF(1), e=F.k, m=m, d=d, inner=make_inner(), r=n,
                           eps=Fraction(1, 5), t=2)
    return binary, large


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_binary_equals_large_over_gf2(name):
    binary, large = _pair(name)
    assert binary.code_len == large.code_len
    rng = random.Random(name)
    for _ in range(3):
        x = np.array([rng.randrange(2) for _ in range(binary.n)], dtype=np.int32)
        assert np.array_equal(encode(binary, x), encode(large, x))
    for index, count in (("message", binary.n), ("codeword", binary.code_len)):
        for i in random.Random(1).sample(range(count), 6):
            pb = sample_smooth_plan(binary, i, random.Random(i), index=index)
            pl = sample_smooth_plan(large, i, random.Random(i), index=index)
            assert pb.offset == pl.offset and pb.v0 == pl.v0
            assert np.array_equal(pb.positions, pl.positions)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_curve_plan_matches_pointwise_evaluation(name):
    """The vectorized curve walk against evaluating each coordinate
    polynomial at each nonzero lambda, for degrees up to 4."""
    p, _ = _pair(name)
    rng = random.Random(5)
    for deg in range(5):
        polys = [[rng.randrange(p.F.q) for _ in range(deg + 1)] for _ in range(p.m)]
        cv = curve_plan(p, polys)
        want = [p.point_index([poly_eval(p.F, cp, lam) for cp in polys])
                for lam in p.nonzero_points]
        assert cv.blocks == want
        L = p.block_len
        assert np.array_equal(cv.positions,
                              np.concatenate([np.arange(b * L, (b + 1) * L) for b in want]))


def test_pack_matches_pack_symbols():
    rng = random.Random(7)
    for K, e, inner in ((GF(1), 4, extended_hamming_code()),
                        (GF(2), 2, doubly_extended_rs(GF(2)))):
        p = LargeLdcParams(K=K, e=e, m=2, d=1, inner=inner, r=1, eps=Fraction(1, 5))
        syms = np.array([rng.randrange(K.q) for _ in range(3 * e)])
        want = [pack_symbols(K, p.F, syms[j * e:(j + 1) * e]) for j in range(3)]
        assert p.pack(syms).tolist() == want
