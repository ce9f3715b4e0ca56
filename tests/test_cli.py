"""Command-line surface: exit codes, formats, config round-trips, batches."""

import json
import os
import stat

import pytest

from periwords.cli import CLAIMS, DEFAULT_SEED, ExperimentConfig, main, run, run_batch

HOLUB = "holub:n=2,2;tail=repeat"


def out_of(capsys) -> str:
    return capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes, one per outcome class


def test_verify_pass_exits_zero(capsys):
    assert main(["verify", "--word", HOLUB, "--claim", "big", "--J", "3"]) == 0
    assert "status:    pass" in out_of(capsys)


def test_verify_fail_exits_two(capsys):
    assert main(["verify", "--word", HOLUB, "--claim", "peak-average"]) == 2
    assert "counterexample:" in out_of(capsys)


def test_verify_inconclusive_exits_three(capsys):
    code = main(["verify", "--word", "thue-morse", "--claim", "dyadic-gain",
                 "--kprime", "2", "--repetition-bound", "2"])
    assert code == 3


def test_windowed_pass_exits_zero_with_warning(capsys):
    code = main(["verify", "--word", "fibonacci", "--claim", "min-return-chain"])
    captured = capsys.readouterr()
    assert code == 0
    assert "finite window" in captured.err


def test_descriptor_error_exits_one(capsys):
    assert main(["generate", "--word", "nosuch"]) == 1
    assert capsys.readouterr().err.startswith("descriptor error:")


def test_window_error_exits_one(capsys):
    code = main(["factorize", "--word", "fibonacci", "--z", "bb", "--horizon", "500"])
    assert code == 1
    assert capsys.readouterr().err.startswith("window error:")


def test_parameter_error_exits_one(capsys):
    assert main(["verify", "--word", "fibonacci", "--claim", "big"]) == 1
    assert capsys.readouterr().err.startswith("parameter error:")
    assert main(["verify", "--word", HOLUB, "--claim", "nosuch-claim"]) == 1
    err = capsys.readouterr().err
    assert "known claims" in err


def test_output_error_exits_one(tmp_path, capsys):
    target = tmp_path / "not-a-dir" / "x.json"
    code = main(["generate", "--word", "fibonacci", "--out", str(target)])
    assert code == 1
    assert capsys.readouterr().err.startswith("output error:")


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--word", HOLUB])  # --claim is required
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage error:")


# ---------------------------------------------------------------------------
# formats


def test_generate_ruler(capsys):
    assert main(["generate", "--word", HOLUB, "--n", "15"]) == 0
    out = out_of(capsys)
    assert "abbaabbbabbbabb" in out
    assert out.splitlines()[0].startswith("       1  ")


def test_generate_wraps_at_64(capsys):
    assert main(["generate", "--word", "fibonacci", "--n", "130"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[1].startswith("      65  ")
    assert len(lines) == 3


def test_profile_csv_columns(capsys):
    assert main(["profile", "--text", "abaab", "--format", "csv"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "index,local_period,h_numerator,h_denominator,h_approx"
    assert lines[1] == "1,2,2,1,2.0"
    assert lines[2] == "2,3,5,2,2.5"
    assert len(lines) == 6


def test_profile_word_csv(capsys):
    assert main(["profile", "--word", "fibonacci", "--n", "64", "--cap", "256",
                 "--format", "csv"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert len(lines) == 65


def test_verify_json_is_sorted_and_parseable(capsys):
    assert main(["verify", "--word", HOLUB, "--claim", "big", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["status"] == "pass" and data["claim"] == "big"
    dumped = json.dumps(data, sort_keys=True, indent=2) + "\n"
    capsys.readouterr()
    main(["verify", "--word", HOLUB, "--claim", "big", "--format", "json"])
    assert out_of(capsys) == dumped


def test_factorize_json_fields(capsys):
    assert main(["factorize", "--word", "fibonacci", "--z", "aa",
                 "--exponent", "2", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert set(data) == {"z", "e", "preamble", "returns", "m_k", "mu_k", "horizon"}
    assert data["preamble"] == "ab"


def test_factorize_csv_block_table(capsys):
    assert main(["factorize", "--word", "fibonacci", "--z", "aa", "--format", "csv"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "index,offset,length,h_num,h_den"
    assert lines[1].startswith("1,2,")


def test_factorize_dyadic_csv(capsys):
    assert main(["factorize", "--word", "thue-morse", "--mode", "dyadic",
                 "--level", "2", "--horizon", "64", "--format", "csv"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[1] == "0,0,4,2,1"  # block "abba": h = 2
    assert len(lines) == 17


def test_alpha_formats(capsys):
    assert main(["alpha", "--word", "fibonacci", "--K", "2", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert [e["alpha"] for e in data["entries"]] == ["a", "aab"]
    assert data["exponents_certified"] is False
    assert main(["alpha", "--word", "fibonacci", "--K", "2", "--format", "csv"]) == 0
    assert out_of(capsys).splitlines()[0] == "alpha,exponent,horizon"


def test_report_csv(capsys):
    assert main(["report", "--word", "fibonacci", "--checkpoints", "16,32,64",
                 "--format", "csv"]) == 0
    lines = out_of(capsys).strip().splitlines()
    assert lines[0] == "i,h_numerator,h_denominator,h_approx,capped"
    assert len(lines) == 4


def test_flag_aliases_share_dest(capsys):
    assert main(["verify", "--word", HOLUB, "--claim", "occurrence-rigidity",
                 "--I", "2", "--horizon", "2000"]) == 0
    assert main(["verify", "--word", "fibonacci", "--claim", "min-return-chain",
                 "--K", "2"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config round-trips


def test_config_round_trip_lossless():
    cfg = ExperimentConfig(
        action="verify", word=HOLUB, claim="big",
        params={"depth": 3, "cap": None}, format="json", out="x.json", seed=1,
    )
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_serialization_is_explicit():
    data = ExperimentConfig(action="generate", word="fibonacci").to_json()
    # every field is present even when defaulted
    assert set(data) == {"action", "word", "text", "claim", "params", "format", "out", "seed"}
    assert data["seed"] == DEFAULT_SEED and data["format"] == "text"


def test_config_resolution_fills_defaults():
    cfg = ExperimentConfig(action="profile", word="fibonacci").resolved()
    assert cfg.params == {"n": 64, "cap": None}
    cfg = ExperimentConfig(action="verify", claim="big", word=HOLUB).resolved()
    assert cfg.params["depth"] == 3
    # user values win over defaults
    cfg = ExperimentConfig(action="verify", claim="big", word=HOLUB,
                           params={"depth": 2}).resolved()
    assert cfg.params["depth"] == 2


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_json({"action": "generate", "wordd": "fibonacci"})
    with pytest.raises(ValueError, match="action"):
        ExperimentConfig.from_json({"word": "fibonacci"})


def test_run_rejects_unknown_action():
    with pytest.raises(ValueError, match="unknown action"):
        run(ExperimentConfig(action="dance"))


def test_claim_registry_is_complete():
    assert "big" in CLAIMS
    for spec in CLAIMS.values():
        assert spec.kind in ("holub", "source", "none")
        assert spec.help


# ---------------------------------------------------------------------------
# batches


def _write_batch(path, runs):
    path.write_text(json.dumps({"runs": runs}), encoding="utf-8")


def test_batch_isolation_and_precedence(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "generate", "word": HOLUB, "params": {"n": 15}},
        {"action": "verify", "word": HOLUB, "claim": "big", "format": "json"},
        {"action": "verify", "word": HOLUB, "claim": "peak-average", "format": "json"},
        {"action": "generate", "word": "nosuch"},
    ])
    out_dir = tmp_path / "out"
    code = run_batch(str(cfg), str(out_dir))
    assert code == 2  # the fail outranks the error
    summary = json.loads((out_dir / "summary.json").read_text())
    statuses = [r["status"] for r in summary["runs"]]
    assert statuses == ["ok", "pass", "fail", "error"]
    assert summary["runs"][3]["error"].startswith("DescriptorError")
    assert (out_dir / "000-generate.txt").exists()
    assert (out_dir / "001-verify.json").exists()
    assert (out_dir / "002-verify.json").exists()
    assert not (out_dir / "003-generate.txt").exists()  # errored before writing


def test_batch_error_only_exits_one(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [{"action": "generate", "word": "nosuch"}])
    assert run_batch(str(cfg), str(tmp_path / "o")) == 1


def test_batch_inconclusive_only_exits_three(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "verify", "word": "thue-morse", "claim": "dyadic-gain",
         "params": {"kprime": 2, "repetition_bound": 2}, "format": "json"},
    ])
    assert run_batch(str(cfg), str(tmp_path / "o")) == 3


def test_empty_batch(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [])
    assert run_batch(str(cfg), str(tmp_path / "o")) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["runs"] == []


def test_batch_requires_runs_key(tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text("{}", encoding="utf-8")
    assert main(["batch", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("parameter error:")


def test_batch_respects_explicit_out_names(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "generate", "word": "fibonacci", "params": {"n": 8}, "out": "fib.txt"},
    ])
    out_dir = tmp_path / "o"
    assert run_batch(str(cfg), str(out_dir)) == 0
    assert (out_dir / "fib.txt").read_text().endswith("abaababa\n")


def test_batch_runs_are_byte_deterministic(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "verify", "word": HOLUB, "claim": "big", "format": "json"},
        {"action": "profile", "word": "fibonacci", "params": {"n": 32}, "format": "csv"},
        {"action": "verify", "claim": "factor-bound", "params": {"trials": 200}, "format": "json"},
    ])
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert run_batch(str(cfg), str(d)) == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_out_file_written_atomically_no_tmp_left(tmp_path):
    target = tmp_path / "profile.csv"
    assert main(["profile", "--text", "abaab", "--format", "csv",
                 "--out", str(target)]) == 0
    assert target.exists()
    assert list(tmp_path.iterdir()) == [target]


def test_out_file_beside_a_directory_named_like_the_old_temp_file(tmp_path):
    target = tmp_path / "profile.csv"
    (tmp_path / "profile.csv.tmp").mkdir()
    assert main(["profile", "--text", "abaab", "--format", "csv", "--out", str(target)]) == 0
    assert target.read_text().startswith("index,local_period,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.csv", "profile.csv.tmp"]


def test_out_file_mode_follows_the_umask(tmp_path):
    target = tmp_path / "profile.csv"
    old = os.umask(0o027)
    try:
        assert main(["profile", "--text", "abaab", "--out", str(target)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_failed_out_write_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["profile", "--text", "abaab", "--out", str(tmp_path / "profile.txt")]) == 1
    assert capsys.readouterr().err.startswith("output error:")
    assert list(tmp_path.iterdir()) == []
