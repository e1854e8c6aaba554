"""Command-line interface: profile-driven encode/corrupt/decode runs and
machine-readable JSON reports.

Subcommands: repeat-encode, repeat-decode, linear-encode, linear-decode,
corrupt, run, verify-tables, show-profile.  Binary words travel in the
stream file format; reports are JSON with sorted keys and no timestamps, and
embed the full profile echo so any run can be reproduced bit-exactly from
the report alone.
Exit status is 2 for a profile or input-file error, found before any work;
1 when a deterministic invariant fired (memory budget, overlap cap,
out-of-order tape write) or a verification check failed; and 0 otherwise.
A wrong or truncated decode is reported in the JSON, not the exit status.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

import numpy as np

from .gf import GF, word_from_hex
from .codes import min_distance_bruteforce, word_dist2
from .stream import (MemoryLedger, OutOfOrderWrite, StreamExhausted,
                     SymbolStream, read_stream_file, write_stream_file)
from .channel import SYMBOL_ONLY, AttackStrategy, ErrorBudget, corrupt
from .ldc_large import ResampleExhausted
from .codec_repeat import (dec_repeat, enc_repeat, errcount_property_probe)
from .codec_tensor import (enc_linear, functional_dot, linear_dec_traced)
from .profiles import (build_params, channel_spec, dump_profile, load_profile,
                       validate_profile)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_report(report: dict, path: str | None):
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_valid_profile(name: str, codecs: tuple = (), overrides: dict | None = None) -> dict:
    """The profile with the overrides that are not None; exit 2 when it is
    invalid or, for a subcommand that runs the bit words of `codecs`, is of
    another codec or attacks with a strategy that needs symbols."""
    try:
        prof = load_profile(name)
    except ValueError as exc:   # an unknown name or a malformed file
        prof, errors = {}, [str(exc)]
    else:
        prof.update({k: v for k, v in (overrides or {}).items() if v is not None})
        if codecs and prof.get("codec") not in codecs:
            errors = [f"this subcommand needs a {' or '.join(codecs)} profile, "
                      f"not codec {prof.get('codec')!r}"]
        else:
            errors = validate_profile(prof) + (_bit_word_errors(prof) if codecs else [])
    _exit_on(errors)
    return prof


def _exit_on(errors: list):
    """Print each profile error and exit 2, when there are any."""
    if errors:
        for err in errors:
            print(f"profile error: {err}", file=sys.stderr)
        raise SystemExit(2)


def _bit_word_errors(prof: dict) -> list:
    """The codecs send bit words, which a symbol-only strategy cannot attack."""
    strategy = prof.get("strategy")
    return [f"strategy {strategy} needs a symbol word; the codecs send bits"] \
        if strategy in SYMBOL_ONLY else []


class _NotBits(ValueError):
    """A file that must hold a bit stream holds symbols; main exits 2."""


def _read_bits(path: str, what: str):
    word, field_k = read_stream_file(path)
    if field_k != 0:
        raise _NotBits(f"{what} file must be a bit stream")
    return word


def _chan_rng(seed: int, trial, role: str) -> random.Random:
    return random.Random(f"{seed}:{trial}:{role}")


def _attack(prof: dict, params, word_len: int):
    """The profile's attack and the ErrorBudget, carrying its rho, for a word."""
    rho, name, opts = channel_spec(prof)
    if prof["codec"] == "repeat" and name == "copy_kill":
        opts.setdefault("copy_len", params.ldc.code_len)
    return AttackStrategy(name, opts), ErrorBudget(rho=rho, m=word_len)


# ---------------------------------------------------------------------------
# encode / decode / corrupt subcommands

def cmd_encode(args) -> int:
    prof = _load_valid_profile(args.profile, (args.codec,))
    encode = enc_repeat if args.codec == "repeat" else enc_linear
    word = encode(build_params(prof), _read_bits(args.infile, "message"))
    write_stream_file(args.outfile, word, 0)
    _write_report({"profile": prof, "code_bits": len(word),
                   "out": args.outfile}, None)
    return 0


def cmd_repeat_decode(args) -> int:
    prof = _load_valid_profile(args.profile, ("repeat",))
    params = build_params(prof)
    if args.budget_bits is not None:
        params.budget_bits = args.budget_bits
    word = _read_bits(args.infile, "codeword")
    ledger = MemoryLedger(params.budget_bits)
    invariant_fired = False
    try:
        res = dec_repeat(params, SymbolStream(word),
                         _chan_rng(args.seed, "one", "dec"), ledger=ledger)
        report = res.report()
        report["per_copy_c"] = [rec.get("c") for rec in res.per_copy
                                if rec.get("phase") == 2]
        if res.success and args.outfile:
            write_stream_file(args.outfile, res.message, 0)
        if res.ledger.exceeded:
            invariant_fired = True
    except OutOfOrderWrite as exc:
        report = {"success": False, "error": f"out-of-order write: {exc}"}
        invariant_fired = True
    report.update({"profile": prof, "seed": args.seed,
                   "violations": len(ledger.violations),
                   "invariant_fired": invariant_fired})
    _write_report(report, args.report)
    return 1 if invariant_fired else 0


def cmd_linear_decode(args) -> int:
    prof = _load_valid_profile(args.profile, ("tensor",))
    params = build_params(prof)
    with open(args.functional) as fh:
        ell = word_from_hex(GF(1), fh.read().strip())
    word = _read_bits(args.infile, "codeword")
    invariant_fired = False
    try:
        bit, diag = linear_dec_traced(params, SymbolStream(word), ell,
                                      _chan_rng(args.seed, "one", "dec"))
        report = {"bit": bit, "bot_instances": diag["bot_instances"],
                  "votes": diag["votes"], "live_max": diag["live_max"],
                  "live_cap": diag["live_cap"], "live_ok": diag["live_ok"]}
        invariant_fired = not diag["live_ok"]
    except ResampleExhausted as exc:
        report = {"error": f"query-list resampling exhausted: {exc}"}
        invariant_fired = True
    except StreamExhausted as exc:
        report = {"error": f"stream exhausted: {exc}"}
    report.update({"profile": prof, "seed": args.seed,
                   "invariant_fired": invariant_fired})
    _write_report(report, args.report)
    return 1 if invariant_fired else 0


def cmd_corrupt(args) -> int:
    prof = _load_valid_profile(args.profile,
                               overrides={"strategy": args.strategy, "rho": args.rho})
    word, field_k = read_stream_file(args.infile)
    if field_k == 0:
        _exit_on(_bit_word_errors(prof))
    strategy, budget = _attack(prof, build_params(prof), len(word))
    bad = corrupt(word, strategy, budget, _chan_rng(args.seed, "one", "chan"),
                  field_k)
    write_stream_file(args.outfile, bad, field_k)
    if args.mask_out:
        write_stream_file(args.mask_out,
                          (word != bad).astype(np.int32), 0)
    _write_report({"profile": prof, "strategy": strategy.name,
                   "rho": budget.rho, "limit": budget.limit,
                   "changed": int((word != bad).sum()),
                   "dist2": word_dist2(word, bad),
                   "out": args.outfile}, None)
    return 0


# ---------------------------------------------------------------------------
# experiment orchestration

def _repeat_trial(prof, params, seed, trial):
    nrng = np.random.default_rng([seed, trial])
    x = nrng.integers(0, 2, size=params.msg_bits).astype(np.int32)
    word = enc_repeat(params, x)
    strategy, budget = _attack(prof, params, len(word))
    bad = corrupt(word, strategy, budget, _chan_rng(seed, trial, "chan"))
    errors_per_copy = (word != bad).reshape(params.copies, -1).sum(axis=1).tolist()
    res = dec_repeat(params, SymbolStream(bad), _chan_rng(seed, trial, "dec"))
    ok = bool(res.success and res.message is not None
              and np.array_equal(res.message, x))
    probe = errcount_property_probe(params, res.settled_after, errors_per_copy)
    return {
        "trial": trial,
        "success": ok,
        "copies_used": res.copies_used,
        "settled_after": res.settled_after,
        "peak_bits": res.ledger.peak_bits,
        "budget_ok": not res.ledger.exceeded,
        "advice_failures": res.advice_failures,
        "probe_violations": len(probe),
        "planted_dist2": word_dist2(word, bad),
    }, res.ledger.exceeded


def _tensor_trial(prof, params, seed, trial):
    nrng = np.random.default_rng([seed, trial])
    x = nrng.integers(0, 2, size=params.n).astype(np.int32)
    ell = nrng.integers(0, 2, size=params.n).astype(np.int32)
    word = enc_linear(params, x)
    strategy, budget = _attack(prof, params, len(word))
    bad = corrupt(word, strategy, budget, _chan_rng(seed, trial, "chan"))
    bit, diag = linear_dec_traced(params, SymbolStream(bad), ell,
                                  _chan_rng(seed, trial, "dec"))
    return {
        "trial": trial,
        "success": bool(bit == functional_dot(ell, x)),
        "bot_instances": diag["bot_instances"],
        "live_ok": diag["live_ok"],
        "live_max": diag["live_max"],
        "planted_dist2": word_dist2(word, bad),
    }, not diag["live_ok"]


def run_experiment(prof: dict, trials: int | None = None,
                   seed: int | None = None) -> dict:
    """encode -> corrupt -> decode per trial; order-independent aggregates."""
    errors = validate_profile(prof) or _bit_word_errors(prof)
    if errors:
        raise ValueError("; ".join(errors))
    params = build_params(prof)
    trials = int(prof["trials"]) if trials is None else trials
    seed = int(prof["seed"]) if seed is None else seed
    repeat = prof["codec"] == "repeat"
    trial_fn, msg_len, code_len = ((_repeat_trial, params.msg_bits, params.code_len) if repeat
                                   else (_tensor_trial, params.n, params.code_bits))
    outcomes, invariant_fired = [], False
    for t in range(trials):
        try:
            outcome, fired = trial_fn(prof, params, seed, t)
        except (OutOfOrderWrite, ResampleExhausted) as exc:
            outcome, fired = {"trial": t, "success": False,
                              "error": str(exc)}, True
        except StreamExhausted as exc:
            outcome, fired = {"trial": t, "success": False,
                              "error": f"stream exhausted: {exc}"}, False
        outcomes.append(outcome)
        invariant_fired = invariant_fired or fired
    wins = sum(1 for o in outcomes if o["success"])
    agg = {
        "trials": trials,
        "success_rate": wins / trials if trials else 1.0,
        "measured_code_len": code_len,
        "measured_rate": str(Fraction(msg_len, code_len)),
    }
    if repeat:
        used = [o["copies_used"] for o in outcomes if "copies_used" in o]
        agg["mean_copies_used"] = sum(used) / len(used) if used else None
        peaks = [o["peak_bits"] for o in outcomes if "peak_bits" in o]
        agg["max_peak_bits"] = max(peaks) if peaks else None
        agg["budget_ok_all"] = all(o.get("budget_ok", False) for o in outcomes)
        agg["probe_violation_trials"] = sum(
            1 for o in outcomes if o.get("probe_violations", 0) > 0)
    else:
        agg["live_ok_all"] = all(o.get("live_ok", False) for o in outcomes)
        bots = [o["bot_instances"] for o in outcomes if "bot_instances" in o]
        agg["mean_bot_instances"] = sum(bots) / len(bots) if bots else None
    return {
        "profile": dict(prof),
        "seed": seed,
        "outcomes": outcomes,
        "aggregates": agg,
        "invariant_fired": invariant_fired,
    }


def verify_code_tables(prof: dict) -> dict:
    """Brute-force minimum distance against every claimed bound small enough
    to enumerate (message space <= 2^12); larger codes are skipped."""
    errors = validate_profile(prof)
    if errors:
        raise ValueError("; ".join(errors))
    params = build_params(prof)
    if prof["codec"] == "repeat":
        named = [("inner", params.ldc.inner)]
    else:
        named = [("inner", params.ldc.inner), ("rm", params.ldc.rm),
                 ("curve", params.ldc.curve_code),
                 ("axis", params.axis_code), ("base", params.base_code)]
    checks = []
    for label, code in named:
        claimed = code.dist2_bound // 2
        if code.msg_space > 1 << 12:
            checks.append({"code": label, "skipped":
                           f"message space {code.msg_space} > 2^12"})
            continue
        measured = min_distance_bruteforce(code)
        checks.append({"code": label, "msg_space": code.msg_space,
                       "claimed": claimed, "measured": measured,
                       "pass": bool(measured >= claimed)})
    all_pass = all(c.get("pass", True) for c in checks)
    return {"profile": dict(prof), "checks": checks, "all_pass": all_pass}


def cmd_run(args) -> int:
    prof = _load_valid_profile(args.profile, ("repeat", "tensor"))
    report = run_experiment(prof, trials=args.trials, seed=args.seed)
    _write_report(report, args.report)
    return 1 if report["invariant_fired"] else 0


def cmd_verify_tables(args) -> int:
    prof = _load_valid_profile(args.profile)
    report = verify_code_tables(prof)
    _write_report(report, args.report)
    return 0 if report["all_pass"] else 1


def cmd_show_profile(args) -> int:
    prof = _load_valid_profile(args.profile)
    print(dump_profile(prof), end="")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="streamcode", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, report=True):
        p.add_argument("--profile", required=True,
                       help="registered profile name or profile file path")
        if report:
            p.add_argument("--report", default=None,
                           help="write the JSON report here (default stdout)")

    for command, codec in (("repeat-encode", "repeat"), ("linear-encode", "tensor")):
        p = sub.add_parser(command, help=f"encode a message for the {codec} codec")
        common(p, report=False)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="outfile", required=True)
        p.set_defaults(fn=cmd_encode, codec=codec)

    p = sub.add_parser("repeat-decode", help="stream-decode a repeat codeword")
    common(p)
    p.add_argument("--budget-bits", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default=None,
                   help="write the decoded message here on success")
    p.set_defaults(fn=cmd_repeat_decode)

    p = sub.add_parser("linear-decode",
                       help="decode one linear functional of the message")
    common(p)
    p.add_argument("--functional", required=True,
                   help="text file with the functional's bits in hex")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_linear_decode)

    p = sub.add_parser("corrupt", help="apply an attack within the error budget")
    common(p, report=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", default=None, help="override the profile's rate")
    p.add_argument("--strategy", default=None,
                   help="override the profile's attack strategy")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--mask-out", dest="mask_out", default=None,
                   help="also write the changed-position mask as a bit stream")
    p.set_defaults(fn=cmd_corrupt)

    p = sub.add_parser("run", help="encode -> corrupt -> decode experiment")
    common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify-tables",
                       help="brute-force distance checks for the profile's codes")
    common(p)
    p.set_defaults(fn=cmd_verify_tables)

    p = sub.add_parser("show-profile", help="print the resolved profile echo")
    common(p, report=False)
    p.set_defaults(fn=cmd_show_profile)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _NotBits as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
