"""Named desk-scale parameter profiles and the flat key=value profile format.

A profile is a flat mapping of string keys to string values.  Keys with the
``override.`` prefix pin a quantity that the construction would otherwise
derive from its scaling formulas — every desk-scale profile pins everything,
so the echo makes each relaxation explicit.  Plain keys carry run policy
(channel rate, attack strategy, trial counts, base seed).  ``strategy.``
prefixed keys pass numeric options to the attack.

Reports embed the profile verbatim, and `build_params` is deterministic in
it, so a report can be re-run bit-exactly from its own echo.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .gf import GF
from .channel import STRATEGY_OPTIONS
from .codes import (LinearCode, doubly_extended_rs, extended_hamming_code,
                    replicate, simplex_code)
from .ldc_binary import BinaryLdcParams
from .ldc_large import LargeLdcParams
from .codec_repeat import RepeatParams
from .codec_tensor import TensorParams, base_symbol_code


def _bits_4_2_2() -> LinearCode:
    gen = np.array([[1, 0], [0, 1], [1, 1], [1, 0]], dtype=np.int32)
    return LinearCode(GF(1), gen, kind="custom", systematic_positions=(0, 1),
                      dist2_bound=4)


INNER_CODES = {
    "simplex4x3": lambda: replicate(simplex_code(4), 3),
    "simplex4x8": lambda: replicate(simplex_code(4), 8),
    "ext-hamming": extended_hamming_code,
    "rs-ext-gf4": lambda: doubly_extended_rs(GF(2)),
    "bits-4-2-2": _bits_4_2_2,
}

SEED_POLICY = "role-keyed: random.Random(f'{seed}:{trial}:{role}')"

REGISTRY: dict = {
    # end-to-end repeat codec at the acceptance scale
    "repeat-toy": {
        "name": "repeat-toy",
        "codec": "repeat",
        "override.f_k": "4",
        "override.m": "3",
        "override.d": "3",
        "override.inner": "simplex4x3",
        "override.n": "64",
        "override.eps": "3/10",
        "override.t_smooth": "2",
        "override.t_advice": "1",
        "override.k_adv": "1",
        "override.copies": "12",
        "override.v": "16",
        "override.r_out": "16",
        "override.budget_bits": "262144",
        "override.threshold_variant": "algorithm",
        "rho": "1/20",
        "strategy": "uniform",
        "trials": "200",
        "seed": "0",
        "seed_policy": SEED_POLICY,
    },
    # small repeat instance for fast checks and CLI smoke runs
    "repeat-unit": {
        "name": "repeat-unit",
        "codec": "repeat",
        "override.f_k": "4",
        "override.m": "2",
        "override.d": "1",
        "override.inner": "ext-hamming",
        "override.n": "12",
        "override.eps": "1/5",
        "override.t_smooth": "2",
        "override.t_advice": "2",
        "override.k_adv": "1",
        "override.copies": "8",
        "override.v": "8",
        "override.r_out": "6",
        "override.budget_bits": "32768",
        "override.threshold_variant": "algorithm",
        "rho": "1/20",
        "strategy": "uniform",
        "trials": "25",
        "seed": "0",
        "seed_policy": SEED_POLICY,
    },
    # end-to-end tensor codec at the acceptance scale (depth 2)
    "tensor-toy": {
        "name": "tensor-toy",
        "codec": "tensor",
        "override.k_k": "2",
        "override.e": "2",
        "override.m": "1",
        "override.d": "1",
        "override.inner": "rs-ext-gf4",
        "override.r": "4",
        "override.eps": "1/5",
        "override.t": "1",
        "override.depth": "2",
        "override.n": "16",
        "override.instances": "16",
        "rho": "1/20",
        "strategy": "uniform",
        "trials": "100",
        "seed": "0",
        "seed_policy": SEED_POLICY,
    },
    # one-level tensor instance (r = 4, R = 16) over bit symbols
    "tensor-small": {
        "name": "tensor-small",
        "codec": "tensor",
        "override.k_k": "1",
        "override.e": "2",
        "override.m": "1",
        "override.d": "1",
        "override.inner": "bits-4-2-2",
        "override.r": "4",
        "override.eps": "1/5",
        "override.t": "1",
        "override.depth": "1",
        "override.n": "4",
        "override.instances": "9",
        "rho": "0",
        "strategy": "uniform",
        "trials": "50",
        "seed": "0",
        "seed_policy": SEED_POLICY,
    },
}


# ---------------------------------------------------------------------------
# flat text format

def parse_profile_text(text: str) -> dict:
    prof = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        prof[key.strip()] = value.strip()
    return prof


def dump_profile(prof: dict) -> str:
    return "".join(f"{k}={prof[k]}\n" for k in sorted(prof))


def load_profile(name_or_path: str) -> dict:
    if name_or_path in REGISTRY:
        return dict(REGISTRY[name_or_path])
    try:
        with open(name_or_path) as fh:
            return parse_profile_text(fh.read())
    except FileNotFoundError:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown profile {name_or_path!r} "
                         f"(registered: {known}; or pass a file path)") from None


# ---------------------------------------------------------------------------
# validation and parameter construction

_REQUIRED = {
    "repeat": ["override.f_k", "override.m", "override.d", "override.inner",
               "override.n", "override.eps", "override.t_smooth",
               "override.t_advice", "override.k_adv", "override.copies",
               "override.v", "override.r_out", "override.budget_bits",
               "override.threshold_variant"],
    "tensor": ["override.k_k", "override.e", "override.m", "override.d",
               "override.inner", "override.r", "override.eps", "override.t",
               "override.depth", "override.n", "override.instances"],
}

_INT_KEYS = {"override.f_k", "override.k_k", "override.e", "override.m",
             "override.d", "override.n", "override.t_smooth",
             "override.t_advice", "override.k_adv", "override.copies",
             "override.v", "override.r_out", "override.budget_bits",
             "override.r", "override.t", "override.depth",
             "override.instances", "trials", "seed"}

_FRACTION_KEYS = {"override.eps", "rho"}


def validate_profile(prof: dict) -> list:
    """Every problem found, as human-readable strings (empty = valid)."""
    errors = []
    codec = prof.get("codec")
    if "name" not in prof:
        errors.append("missing key: name")
    if codec not in _REQUIRED:
        errors.append(f"codec must be one of {sorted(_REQUIRED)}, got {codec!r}")
        return errors
    for key in _REQUIRED[codec] + ["rho", "strategy", "trials", "seed"]:
        if key not in prof:
            errors.append(f"missing key: {key}")
    for key, value in prof.items():
        if key in _INT_KEYS:
            try:
                int(value)
            except ValueError:
                errors.append(f"{key}: not an integer: {value!r}")
        elif key in _FRACTION_KEYS:
            try:
                f = Fraction(value)
            except (ValueError, ZeroDivisionError):
                errors.append(f"{key}: not a fraction: {value!r}")
            else:
                if key == "rho" and not 0 <= f <= 1:
                    errors.append(f"rho: must lie in [0, 1], got {value}")
        elif key.startswith("strategy."):
            try:
                int(value)
            except ValueError:
                errors.append(f"{key}: not an integer: {value!r}")
    strategy = prof.get("strategy")
    if strategy is not None and strategy not in STRATEGY_OPTIONS:
        errors.append(f"strategy: unknown {strategy!r} (known: {', '.join(STRATEGY_OPTIONS)})")
    given = {key.split(".", 1)[1] for key in prof if key.startswith("strategy.")}
    if codec == "repeat":
        given.add("copy_len")   # the run harness kills one whole copy by default
    for opt in STRATEGY_OPTIONS.get(strategy, ()):
        if opt not in given:
            errors.append(f"strategy {strategy} needs strategy.{opt}")
    inner = prof.get("override.inner")
    if inner is not None and inner not in INNER_CODES:
        errors.append(f"override.inner: unknown code {inner!r} "
                      f"(known: {', '.join(sorted(INNER_CODES))})")
    if errors:
        return errors
    try:
        build_params(prof)
    except (ValueError, KeyError) as exc:
        errors.append(f"parameter construction failed: {exc}")
    return errors


def build_params(prof: dict):
    """RepeatParams or TensorParams, deterministically from the flat echo."""
    g = prof.__getitem__
    if prof["codec"] == "repeat":
        ldc = BinaryLdcParams(
            F=GF(int(g("override.f_k"))),
            m=int(g("override.m")),
            d=int(g("override.d")),
            inner=INNER_CODES[g("override.inner")](),
            n=int(g("override.n")),
            eps=Fraction(g("override.eps")),
            t_smooth=int(g("override.t_smooth")),
            t_advice=int(g("override.t_advice")),
            k_adv=int(g("override.k_adv")))
        return RepeatParams(
            ldc=ldc,
            msg_bits=int(g("override.n")),
            copies=int(g("override.copies")),
            v=int(g("override.v")),
            r_out=int(g("override.r_out")),
            budget_bits=int(g("override.budget_bits")),
            threshold_variant=g("override.threshold_variant"),
            rho=Fraction(g("rho")))
    if prof["codec"] == "tensor":
        K = GF(int(g("override.k_k")))
        ldc = LargeLdcParams(
            K=K,
            e=int(g("override.e")),
            m=int(g("override.m")),
            d=int(g("override.d")),
            inner=INNER_CODES[g("override.inner")](),
            r=int(g("override.r")),
            eps=Fraction(g("override.eps")),
            t=int(g("override.t")))
        return TensorParams(
            ldc=ldc,
            depth=int(g("override.depth")),
            n=int(g("override.n")),
            base_code=base_symbol_code(K),
            instances=int(g("override.instances")))
    raise ValueError(f"unknown codec {prof['codec']!r}")


def channel_spec(prof: dict):
    """(rho, strategy name, strategy options) for the run harness."""
    opts = {key.split(".", 1)[1]: int(value)
            for key, value in prof.items() if key.startswith("strategy.")}
    return Fraction(prof.get("rho", "0")), prof.get("strategy", "uniform"), opts
