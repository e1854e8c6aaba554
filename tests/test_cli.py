"""Profiles and the command-line pipeline: validation, parameter building,
encode/corrupt/decode roundtrips, experiment reports, reproducibility."""

import json
from fractions import Fraction

import numpy as np
import pytest

from streamcode.gf import ERASE, GF, word_to_hex
from streamcode import cli
from streamcode.channel import ErrorBudget, corrupt
from streamcode.cli import main, run_experiment, verify_code_tables
from streamcode.codec_repeat import RepeatParams
from streamcode.codec_tensor import TensorParams, functional_dot
from streamcode.profiles import (REGISTRY, build_params, dump_profile,
                                 load_profile, parse_profile_text,
                                 validate_profile)
from streamcode.stream import read_stream_file, write_stream_file


# ---------------------------------------------------------------------------
# profiles

def test_registry_profiles_validate():
    for name in REGISTRY:
        prof = load_profile(name)
        assert validate_profile(prof) == []


def test_profile_text_roundtrip(tmp_path):
    prof = load_profile("repeat-unit")
    text = dump_profile(prof)
    assert parse_profile_text(text) == prof
    path = tmp_path / "custom.profile"
    path.write_text("# tweaked copy\n" + text)
    assert load_profile(str(path)) == prof


def test_load_profile_unknown_name():
    with pytest.raises(ValueError, match="unknown profile"):
        load_profile("no-such-profile")


def test_parse_profile_rejects_bad_line():
    with pytest.raises(ValueError, match="key=value"):
        parse_profile_text("name=x\nnot a pair\n")


def test_validate_profile_lists_every_problem():
    prof = dict(load_profile("repeat-unit"))
    del prof["override.copies"]
    prof["override.eps"] = "zero point two"
    prof["override.inner"] = "mystery-code"
    errors = validate_profile(prof)
    joined = "\n".join(errors)
    assert "override.copies" in joined
    assert "override.eps" in joined
    assert "mystery-code" in joined


@pytest.mark.parametrize("base,strategy,opts,problem", [
    ("repeat-unit", "nope", {}, "unknown 'nope'"),
    ("tensor-small", "nope", {}, "unknown 'nope'"),
    ("repeat-unit", "blockzero", {}, "strategy.block_len"),
    ("repeat-unit", "blockzero", {"strategy.block_len": "8"}, "strategy.window_step"),
    ("tensor-small", "blockzero", {"strategy.window_step": "4"}, "strategy.block_len"),
    ("tensor-small", "copy_kill", {}, "strategy.copy_len"),
])
def test_validate_profile_rejects_strategies_corrupt_cannot_run(base, strategy, opts, problem):
    prof = dict(load_profile(base), strategy=strategy, **opts)
    assert any(problem in e for e in validate_profile(prof))


@pytest.mark.parametrize("base,strategy,opts", [
    ("repeat-unit", "copy_kill", {}),     # the repeat harness kills one copy by default
    ("tensor-small", "copy_kill", {"strategy.copy_len": "16"}),
    ("repeat-unit", "blockzero", {"strategy.block_len": "8", "strategy.window_step": "4"}),
    ("tensor-small", "burst", {}),
])
def test_validate_profile_accepts_runnable_strategies(base, strategy, opts):
    prof = dict(load_profile(base), strategy=strategy, **opts)
    assert validate_profile(prof) == []
    rep = run_experiment(prof, trials=1, seed=0)
    assert rep["aggregates"]["trials"] == 1


@pytest.mark.parametrize("base,strategy", [("repeat-unit", "nope"), ("repeat-unit", "blockzero"),
                                           ("tensor-small", "blockzero"),
                                           ("tensor-small", "copy_kill")])
def test_cli_run_rejects_unrunnable_strategy(tmp_path, capsys, base, strategy):
    path = tmp_path / "p.profile"
    path.write_text(dump_profile(dict(load_profile(base), strategy=strategy)))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--profile", str(path), "--trials", "1"])
    assert exc.value.code == 2
    assert "profile error:" in capsys.readouterr().err


def test_cli_corrupt_rejects_unrunnable_strategy_override(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corrupt", "--profile", "tensor-small", "--strategy", "blockzero",
              "--in", str(tmp_path / "w.bin"), "--out", str(tmp_path / "bad.bin")])
    assert exc.value.code == 2
    assert "strategy.block_len" in capsys.readouterr().err


@pytest.mark.parametrize("command,profile,needs", [
    ("repeat-encode", "tensor-toy", "repeat"),
    ("repeat-decode", "tensor-small", "repeat"),
    ("linear-encode", "repeat-unit", "tensor"),
    ("linear-decode", "repeat-toy", "tensor"),
])
def test_codec_subcommands_reject_the_other_codec(tmp_path, capsys, command, profile, needs):
    # real input files, so the only thing wrong is the profile's codec
    write_stream_file(tmp_path / "x.bin", np.zeros(64, dtype=np.int32), 0)
    (tmp_path / "ell.hex").write_text(word_to_hex(GF(1), np.ones(16, dtype=np.int32)))
    args = [command, "--profile", profile, "--in", str(tmp_path / "x.bin")]
    args += {"repeat-encode": ["--out", str(tmp_path / "y.bin")],
             "linear-encode": ["--out", str(tmp_path / "y.bin")],
             "linear-decode": ["--functional", str(tmp_path / "ell.hex")]}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "profile error:" in err and f"needs a {needs} profile" in err


@pytest.mark.parametrize("command", ["run", "repeat-encode", "repeat-decode", "linear-encode",
                                     "linear-decode", "corrupt", "verify-tables",
                                     "show-profile"])
def test_cli_unknown_profile_name_is_a_profile_error(tmp_path, capsys, command):
    write_stream_file(tmp_path / "x.bin", np.zeros(64, dtype=np.int32), 0)
    (tmp_path / "ell.hex").write_text(word_to_hex(GF(1), np.ones(16, dtype=np.int32)))
    args = [command, "--profile", "nosuch"]
    args += {"repeat-encode": ["--in", str(tmp_path / "x.bin"), "--out", str(tmp_path / "y.bin")],
             "repeat-decode": ["--in", str(tmp_path / "x.bin")],
             "linear-encode": ["--in", str(tmp_path / "x.bin"), "--out", str(tmp_path / "y.bin")],
             "linear-decode": ["--in", str(tmp_path / "x.bin"),
                               "--functional", str(tmp_path / "ell.hex")],
             "corrupt": ["--in", str(tmp_path / "x.bin"), "--out", str(tmp_path / "y.bin")],
             }.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "profile error: unknown profile 'nosuch'" in capsys.readouterr().err
    assert not (tmp_path / "y.bin").exists()


@pytest.mark.parametrize("command,profile", [
    ("run", "repeat-unit"), ("run", "tensor-small"),
    ("repeat-encode", "repeat-unit"), ("repeat-decode", "repeat-unit"),
    ("linear-encode", "tensor-small"), ("linear-decode", "tensor-small"),
])
def test_cli_bit_word_subcommands_reject_symbol_only_strategy(tmp_path, capsys, monkeypatch,
                                                              command, profile):
    """The codecs send bit words, which erasure_mix cannot attack: run and
    the codec subcommands exit 2 before any trial or file is touched."""
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_repeat_trial", no_trial)
    monkeypatch.setattr(cli, "_tensor_trial", no_trial)
    path = tmp_path / "p.profile"
    path.write_text(dump_profile(dict(load_profile(profile), strategy="erasure_mix")))
    missing = ["--in", str(tmp_path / "missing.bin")]   # never opened
    args = [command, "--profile", str(path)] + {
        "run": ["--trials", "2"],
        "repeat-encode": missing + ["--out", str(tmp_path / "y.bin")],
        "repeat-decode": missing,
        "linear-encode": missing + ["--out", str(tmp_path / "y.bin")],
        "linear-decode": missing + ["--functional", str(tmp_path / "missing.hex")]}[command]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "profile error: strategy erasure_mix needs a symbol word" in err
    with pytest.raises(ValueError, match="erasure_mix needs a symbol word"):
        run_experiment(dict(load_profile(profile), strategy="erasure_mix"), trials=1, seed=0)


def test_cli_corrupt_keeps_erasure_mix_from_the_profile(tmp_path, capsys):
    word = np.arange(200, dtype=np.int32) % 16
    write_stream_file(tmp_path / "w.bin", word, 4)
    path = tmp_path / "p.profile"
    path.write_text(dump_profile(dict(load_profile("tensor-small"), strategy="erasure_mix",
                                      rho="1/10")))
    assert main(["corrupt", "--profile", str(path), "--in", str(tmp_path / "w.bin"),
                 "--out", str(tmp_path / "bad.bin")]) == 0
    assert json.loads(capsys.readouterr().out)["strategy"] == "erasure_mix"
    assert (read_stream_file(tmp_path / "bad.bin")[0] == ERASE).any()


@pytest.mark.parametrize("via", ["flag", "profile"])
def test_cli_corrupt_rejects_erasure_mix_on_a_bit_file(tmp_path, capsys, via):
    """erasure_mix needs a symbol word: on a bit stream file, corrupt exits 2
    with the bit-word profile error and writes nothing."""
    write_stream_file(tmp_path / "w.bin", np.arange(200, dtype=np.int32) % 2, 0)
    path = tmp_path / "p.profile"
    path.write_text(dump_profile(dict(load_profile("tensor-small"), strategy="erasure_mix")))
    args = {"flag": ["--profile", "tensor-small", "--strategy", "erasure_mix"],
            "profile": ["--profile", str(path)]}[via]
    with pytest.raises(SystemExit) as exc:
        main(["corrupt", *args, "--rho", "1/10", "--in", str(tmp_path / "w.bin"),
              "--out", str(tmp_path / "bad.bin"), "--mask-out", str(tmp_path / "mask.bin")])
    assert exc.value.code == 2
    assert "profile error: strategy erasure_mix needs a symbol word" in capsys.readouterr().err
    assert not (tmp_path / "bad.bin").exists() and not (tmp_path / "mask.bin").exists()


@pytest.mark.parametrize("rho", ["-1/5", "6/5", "-1"])
def test_rho_outside_unit_interval_is_rejected(tmp_path, capsys, rho):
    prof = dict(load_profile("repeat-unit"), rho=rho)
    assert any(e.startswith("rho: ") for e in validate_profile(prof))
    with pytest.raises(ValueError, match="rho"):
        run_experiment(prof, trials=1, seed=0)
    with pytest.raises(ValueError, match="rho"):
        ErrorBudget(Fraction(rho), 100)
    path = tmp_path / "p.profile"
    path.write_text(dump_profile(prof))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--profile", str(path), "--trials", "1"])
    assert exc.value.code == 2
    assert "profile error: rho: " in capsys.readouterr().err
    write_stream_file(tmp_path / "w.bin", np.zeros(100, dtype=np.int32), 0)
    with pytest.raises(SystemExit) as exc:
        main(["corrupt", "--profile", "repeat-unit", f"--rho={rho}",
              "--in", str(tmp_path / "w.bin"), "--out", str(tmp_path / "bad.bin")])
    assert exc.value.code == 2
    assert "profile error: rho: " in capsys.readouterr().err
    assert not (tmp_path / "bad.bin").exists()


@pytest.mark.parametrize("rho", ["0", "1/3", "1"])
def test_rho_inside_unit_interval_is_accepted(rho):
    assert validate_profile(dict(load_profile("repeat-unit"), rho=rho)) == []
    assert ErrorBudget(Fraction(rho), 10).rho == Fraction(rho)


def _registered_keys():
    """(profile, key, value) for every override and run key of the first
    registered profile of each codec."""
    firsts = {}
    for name, prof in REGISTRY.items():
        firsts.setdefault(prof["codec"], name)
    return [(name, key, REGISTRY[name][key]) for name in firsts.values()
            for key in REGISTRY[name]
            if key.startswith("override.") or key in ("rho", "strategy", "trials", "seed")]


@pytest.mark.parametrize("name,key,value", _registered_keys(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_validate_profile_checks_every_key(name, key, value):
    missing = dict(load_profile(name))
    del missing[key]
    assert f"missing key: {key}" in validate_profile(missing)
    garbled = validate_profile(dict(load_profile(name), **{key: "x"}))
    if key in ("override.eps", "rho"):
        assert f"{key}: not a fraction: 'x'" in garbled
    elif value.isdigit():
        assert f"{key}: not an integer: 'x'" in garbled


def test_validate_profile_bad_codec():
    errors = validate_profile({"name": "x", "codec": "parity"})
    assert any("codec" in e for e in errors)


def test_build_params_shapes():
    rp = build_params(load_profile("repeat-toy"))
    assert isinstance(rp, RepeatParams)
    assert (rp.msg_bits, rp.copies) == (64, 12)
    assert rp.ldc.code_len == 4096 * 45
    tp = build_params(load_profile("tensor-toy"))
    assert isinstance(tp, TensorParams)
    assert (tp.n, tp.depth, tp.R, tp.code_bits) == (16, 2, 80, 51200)
    small = build_params(load_profile("tensor-small"))
    assert (small.n, small.R, small.code_bits) == (4, 16, 64)


# ---------------------------------------------------------------------------
# repeat pipeline through main()

def test_cli_repeat_pipeline(tmp_path):
    msg = np.random.default_rng(3).integers(0, 2, size=12).astype(np.int32)
    write_stream_file(tmp_path / "msg.bin", msg, 0)
    assert main(["repeat-encode", "--profile", "repeat-unit",
                 "--in", str(tmp_path / "msg.bin"),
                 "--out", str(tmp_path / "code.bin")]) == 0
    assert main(["corrupt", "--profile", "repeat-unit", "--seed", "4",
                 "--in", str(tmp_path / "code.bin"),
                 "--out", str(tmp_path / "bad.bin"),
                 "--mask-out", str(tmp_path / "mask.bin")]) == 0
    assert main(["repeat-decode", "--profile", "repeat-unit", "--seed", "1",
                 "--in", str(tmp_path / "bad.bin"),
                 "--report", str(tmp_path / "rep.json"),
                 "--out", str(tmp_path / "dec.bin")]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["success"] is True
    assert rep["violations"] == 0
    assert not rep["invariant_fired"]
    assert isinstance(rep["per_copy_c"], list)
    assert rep["profile"]["name"] == "repeat-unit"
    dec, field_k = read_stream_file(tmp_path / "dec.bin")
    assert field_k == 0 and np.array_equal(dec, msg)
    # the mask replays the corruption on a bit stream
    code, _ = read_stream_file(tmp_path / "code.bin")
    bad, _ = read_stream_file(tmp_path / "bad.bin")
    mask, _ = read_stream_file(tmp_path / "mask.bin")
    assert np.array_equal(code ^ mask, bad)


def test_cli_repeat_decode_budget_invariant(tmp_path):
    msg = np.zeros(12, dtype=np.int32)
    write_stream_file(tmp_path / "msg.bin", msg, 0)
    main(["repeat-encode", "--profile", "repeat-unit",
          "--in", str(tmp_path / "msg.bin"), "--out", str(tmp_path / "code.bin")])
    rc = main(["repeat-decode", "--profile", "repeat-unit", "--seed", "0",
               "--budget-bits", "4000",
               "--in", str(tmp_path / "code.bin"),
               "--report", str(tmp_path / "rep.json")])
    assert rc == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["invariant_fired"]
    assert rep["violations"] > 0


def test_cli_repeat_decode_budget_zero(tmp_path):
    # a zero budget is a budget, not "no override"
    write_stream_file(tmp_path / "msg.bin", np.zeros(12, dtype=np.int32), 0)
    main(["repeat-encode", "--profile", "repeat-unit",
          "--in", str(tmp_path / "msg.bin"), "--out", str(tmp_path / "code.bin")])
    rc = main(["repeat-decode", "--profile", "repeat-unit", "--seed", "0",
               "--budget-bits", "0",
               "--in", str(tmp_path / "code.bin"),
               "--report", str(tmp_path / "rep.json")])
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["budget_bits"] == 0
    assert rep["invariant_fired"]
    assert rc != 0


def test_cli_repeat_decode_rejects_symbol_file(tmp_path, capsys):
    # a GF(16) file of the right length, with erasures, is not a bit stream
    n = build_params(load_profile("repeat-unit")).code_len
    word = np.arange(n, dtype=np.int32) % 16
    word[::7] = ERASE
    write_stream_file(tmp_path / "w.bin", word, 4)
    assert main(["repeat-decode", "--profile", "repeat-unit", "--seed", "0",
                 "--in", str(tmp_path / "w.bin"),
                 "--report", str(tmp_path / "rep.json")]) == 2
    assert "must be a bit stream" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_cli_rejects_invalid_profile(tmp_path):
    bad = tmp_path / "bad.profile"
    bad.write_text("name=broken\ncodec=repeat\n")
    with pytest.raises(SystemExit) as exc:
        main(["repeat-encode", "--profile", str(bad),
              "--in", "x", "--out", "y"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# tensor pipeline through main()

def test_cli_tensor_pipeline(tmp_path):
    msg = np.array([1, 0, 1, 1], dtype=np.int32)
    ell = np.array([1, 1, 0, 1], dtype=np.int32)
    write_stream_file(tmp_path / "msg.bin", msg, 0)
    (tmp_path / "ell.hex").write_text(word_to_hex(GF(1), ell))
    assert main(["linear-encode", "--profile", "tensor-small",
                 "--in", str(tmp_path / "msg.bin"),
                 "--out", str(tmp_path / "code.bin")]) == 0
    assert main(["linear-decode", "--profile", "tensor-small",
                 "--functional", str(tmp_path / "ell.hex"), "--seed", "2",
                 "--in", str(tmp_path / "code.bin"),
                 "--report", str(tmp_path / "rep.json")]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["bit"] == functional_dot(ell, msg)
    assert rep["live_ok"] is True
    assert not rep["invariant_fired"]


def test_cli_linear_decode_rejects_symbol_file(tmp_path, capsys):
    # a real codeword, erasures added, rewritten as a GF(16) symbol file
    write_stream_file(tmp_path / "msg.bin", np.array([1, 0, 1, 1], dtype=np.int32), 0)
    assert main(["linear-encode", "--profile", "tensor-small",
                 "--in", str(tmp_path / "msg.bin"),
                 "--out", str(tmp_path / "code.bin")]) == 0
    word, _ = read_stream_file(tmp_path / "code.bin")
    word[::7] = ERASE
    write_stream_file(tmp_path / "w.bin", word, 4)
    (tmp_path / "ell.hex").write_text(word_to_hex(GF(1), np.array([1, 0, 1, 1])))
    assert main(["linear-decode", "--profile", "tensor-small",
                 "--functional", str(tmp_path / "ell.hex"), "--seed", "2",
                 "--in", str(tmp_path / "w.bin"),
                 "--report", str(tmp_path / "rep.json")]) == 2
    assert "must be a bit stream" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_cli_corrupt_rho_override(tmp_path):
    word = np.zeros(1000, dtype=np.int32)
    write_stream_file(tmp_path / "w.bin", word, 0)
    assert main(["corrupt", "--profile", "tensor-small", "--seed", "9",
                 "--rho", "1/10",
                 "--in", str(tmp_path / "w.bin"),
                 "--out", str(tmp_path / "bad.bin")]) == 0
    bad, _ = read_stream_file(tmp_path / "bad.bin")
    assert int(bad.sum()) == 100        # exactly floor(1000/10) flips


def test_cli_corrupt_symbol_file_uses_its_field(tmp_path, capsys):
    # a GF(16) stream file that holds only 0/1 is attacked over GF(16)
    word = np.arange(1000, dtype=np.int32) % 2
    write_stream_file(tmp_path / "w.bin", word, 4)
    assert main(["corrupt", "--profile", "tensor-small", "--seed", "3",
                 "--rho", "1/5", "--strategy", "erasure_mix",
                 "--in", str(tmp_path / "w.bin"),
                 "--out", str(tmp_path / "bad.bin")]) == 0
    rep = json.loads(capsys.readouterr().out)
    bad, field_k = read_stream_file(tmp_path / "bad.bin")
    assert field_k == 4
    erased = bad == ERASE
    assert erased.any()
    assert ((bad >= 0) & (bad < 16) | erased).all()
    assert int(bad.max()) >= 2
    assert rep["dist2"] <= 2 * rep["limit"]


def test_cli_linear_decode_reports_a_short_codeword(tmp_path):
    """A codeword file shorter than the profile's code is a truncated decode:
    reported in the JSON, as run_experiment records it, with exit 0."""
    write_stream_file(tmp_path / "w.bin", np.zeros(10, dtype=np.int32), 0)
    (tmp_path / "ell.hex").write_text(word_to_hex(GF(1), np.array([1, 0, 1, 1])))
    assert main(["linear-decode", "--profile", "tensor-small",
                 "--functional", str(tmp_path / "ell.hex"),
                 "--in", str(tmp_path / "w.bin"),
                 "--report", str(tmp_path / "rep.json")]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["error"].startswith("stream exhausted: ")
    assert rep["invariant_fired"] is False


def test_cli_show_profile(capsys):
    assert main(["show-profile", "--profile", "tensor-toy"]) == 0
    out = capsys.readouterr().out
    assert parse_profile_text(out) == load_profile("tensor-toy")


# ---------------------------------------------------------------------------
# experiment harness

def test_run_experiment_repeat_aggregates():
    rep = run_experiment(load_profile("repeat-unit"), trials=3, seed=11)
    agg = rep["aggregates"]
    assert agg["success_rate"] == 1.0
    assert agg["budget_ok_all"] is True
    assert agg["max_peak_bits"] <= 32768
    assert agg["measured_code_len"] == 16384
    assert not rep["invariant_fired"]
    assert [o["trial"] for o in rep["outcomes"]] == [0, 1, 2]


def test_run_experiment_probe_gets_substitution_counts(monkeypatch):
    """The error-count probe is handed each copy's number of changed
    positions, not its dist2 (which counts two per flipped bit)."""
    planted, handed = [], []

    def spy_corrupt(word, *args):
        bad = corrupt(word, *args)
        planted.append((word, bad))
        return bad

    def spy_probe(params, settled_after, errors_per_copy):
        handed.append(errors_per_copy)
        return []

    monkeypatch.setattr(cli, "corrupt", spy_corrupt)
    monkeypatch.setattr(cli, "errcount_property_probe", spy_probe)
    prof = load_profile("repeat-unit")
    run_experiment(prof, trials=3, seed=11)
    copies = build_params(prof).copies
    assert handed == [(word != bad).reshape(copies, -1).sum(axis=1).tolist()
                      for word, bad in planted]
    assert all(sum(errs) > 0 for errs in handed)


def test_run_experiment_reproducible():
    a = run_experiment(load_profile("repeat-unit"), trials=2, seed=5)
    b = run_experiment(load_profile("repeat-unit"), trials=2, seed=5)
    canon = lambda r: json.dumps(r, default=str, sort_keys=True)
    assert canon(a) == canon(b)


def test_run_experiment_tensor_small():
    rep = run_experiment(load_profile("tensor-small"), trials=4, seed=2)
    assert rep["aggregates"]["success_rate"] == 1.0    # rho = 0 profile
    assert rep["aggregates"]["live_ok_all"] is True
    assert not rep["invariant_fired"]


def test_run_experiment_rejects_invalid():
    prof = dict(load_profile("repeat-unit"))
    prof["codec"] = "parity"
    with pytest.raises(ValueError):
        run_experiment(prof, trials=1, seed=0)


def test_verify_tables_tensor():
    rep = verify_code_tables(load_profile("tensor-toy"))
    assert rep["all_pass"] is True
    by_name = {c["code"]: c for c in rep["checks"]}
    assert by_name["base"]["measured"] == 5
    assert by_name["curve"]["measured"] == 52
    assert by_name["axis"]["measured"] == 60
    assert by_name["rm"]["measured"] == 15


def test_verify_tables_repeat_toy_skips_large():
    rep = verify_code_tables(load_profile("repeat-toy"))
    assert rep["all_pass"] is True
    inner = next(c for c in rep["checks"] if c["code"] == "inner")
    assert inner["measured"] >= inner["claimed"] == 24


# ---------------------------------------------------------------------------
# the command-line surface

CLI_OPTIONS = {   # subcommand -> {option string: required}
    "repeat-encode": {"--profile": True, "--in": True, "--out": True},
    "repeat-decode": {"--profile": True, "--report": False, "--budget-bits": False,
                      "--seed": False, "--in": True, "--out": False},
    "linear-encode": {"--profile": True, "--in": True, "--out": True},
    "linear-decode": {"--profile": True, "--report": False, "--functional": True,
                      "--seed": False, "--in": True},
    "corrupt": {"--profile": True, "--seed": False, "--rho": False, "--strategy": False,
                "--in": True, "--out": True, "--mask-out": False},
    "run": {"--profile": True, "--report": False, "--trials": False, "--seed": False},
    "verify-tables": {"--profile": True, "--report": False},
    "show-profile": {"--profile": True},
}


def test_cli_surface():
    top = cli.build_parser()
    (subs,) = [a for a in top._actions if a.dest == "command"]
    assert sorted(subs.choices) == sorted(CLI_OPTIONS)
    for command, parser in subs.choices.items():
        got = {opt: action.required for action in parser._actions
               for opt in action.option_strings if opt not in ("-h", "--help")}
        assert got == CLI_OPTIONS[command], command
