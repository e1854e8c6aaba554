"""Named desk-scale parameter profiles and the flat key=value profile format.

A profile is a flat mapping of string keys to string values.  Keys with the
``override.`` prefix pin a quantity that the construction would otherwise
derive from its scaling formulas — every desk-scale profile pins everything,
so the echo makes each relaxation explicit.  Plain keys carry run policy
(channel rate, attack strategy, trial counts, base seed).  ``strategy.``
prefixed keys pass numeric options to the attack.  `OVERRIDE_KEYS` lists each
codec's ``override.`` keys, in the order errors name them, with the parser of
their values, and `RUN_KEYS` the plain keys; `validate_profile` and
`build_params` both read them there.

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

OVERRIDE_KEYS = {
    "repeat": {"override.f_k": int, "override.m": int, "override.d": int, "override.inner": str,
               "override.n": int, "override.eps": Fraction, "override.t_smooth": int,
               "override.t_advice": int, "override.k_adv": int, "override.copies": int,
               "override.v": int, "override.r_out": int, "override.budget_bits": int,
               "override.threshold_variant": str},
    "tensor": {"override.k_k": int, "override.e": int, "override.m": int, "override.d": int,
               "override.inner": str, "override.r": int, "override.eps": Fraction,
               "override.t": int, "override.depth": int, "override.n": int,
               "override.instances": int},
}
RUN_KEYS = {"rho": Fraction, "strategy": str, "trials": int, "seed": int}


def validate_profile(prof: dict) -> list:
    """Every problem found, as human-readable strings (empty = valid)."""
    errors = []
    codec = prof.get("codec")
    if "name" not in prof:
        errors.append("missing key: name")
    if codec not in OVERRIDE_KEYS:
        errors.append(f"codec must be one of {sorted(OVERRIDE_KEYS)}, got {codec!r}")
        return errors
    keys = {**OVERRIDE_KEYS[codec], **RUN_KEYS}
    keys.update((key, int) for key in prof if key.startswith("strategy."))
    for key, parse in keys.items():
        try:
            value = parse(prof[key])
        except KeyError:
            errors.append(f"missing key: {key}")
        except (ValueError, ZeroDivisionError):
            kind = "an integer" if parse is int else "a fraction"
            errors.append(f"{key}: not {kind}: {prof[key]!r}")
        else:
            if key == "rho" and not 0 <= value <= 1:
                errors.append(f"rho: must lie in [0, 1], got {prof[key]}")
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
    if prof["codec"] not in OVERRIDE_KEYS:
        raise ValueError(f"unknown codec {prof['codec']!r}")
    val = {key.removeprefix("override."): parse(prof[key])
           for key, parse in {**OVERRIDE_KEYS[prof["codec"]], **RUN_KEYS}.items()}
    if prof["codec"] == "repeat":
        ldc = BinaryLdcParams(
            F=GF(val["f_k"]),
            m=val["m"],
            d=val["d"],
            inner=INNER_CODES[val["inner"]](),
            n=val["n"],
            eps=val["eps"],
            t_smooth=val["t_smooth"],
            t_advice=val["t_advice"],
            k_adv=val["k_adv"])
        return RepeatParams(
            ldc=ldc,
            msg_bits=val["n"],
            copies=val["copies"],
            v=val["v"],
            r_out=val["r_out"],
            budget_bits=val["budget_bits"],
            threshold_variant=val["threshold_variant"],
            rho=val["rho"])
    ldc = LargeLdcParams(
        K=GF(val["k_k"]),
        e=val["e"],
        m=val["m"],
        d=val["d"],
        inner=INNER_CODES[val["inner"]](),
        r=val["r"],
        eps=val["eps"],
        t=val["t"])
    return TensorParams(
        ldc=ldc,
        depth=val["depth"],
        n=val["n"],
        base_code=base_symbol_code(ldc.K),
        instances=val["instances"])


def channel_spec(prof: dict):
    """(rho, strategy name, strategy options) for the run harness."""
    opts = {key.split(".", 1)[1]: int(value)
            for key, value in prof.items() if key.startswith("strategy.")}
    return Fraction(prof.get("rho", "0")), prof.get("strategy", "uniform"), opts
