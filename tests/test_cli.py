"""Profiles and the command-line pipeline: validation, parameter building,
encode/corrupt/decode roundtrips, experiment reports, reproducibility."""

import json

import numpy as np
import pytest

from streamcode.gf import GF, word_to_hex
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


def test_cli_corrupt_rho_override(tmp_path):
    word = np.zeros(1000, dtype=np.int32)
    write_stream_file(tmp_path / "w.bin", word, 0)
    assert main(["corrupt", "--profile", "tensor-small", "--seed", "9",
                 "--rho", "1/10",
                 "--in", str(tmp_path / "w.bin"),
                 "--out", str(tmp_path / "bad.bin")]) == 0
    bad, _ = read_stream_file(tmp_path / "bad.bin")
    assert int(bad.sum()) == 100        # exactly floor(1000/10) flips


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
