"""Command-line surface: exit codes, formats, config round-trips, batches."""

import json
import os
import stat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periwords import checks
from periwords.cli import (
    CLAIMS,
    DEFAULT_SEED,
    ExperimentConfig,
    _build_parser,
    _csv_text,
    _profile_csv,
    _profile_json,
    main,
    run,
    run_batch,
)
from periwords.factorize import dyadic_factorization, return_factorization
from periwords.periods import PeriodProfile, h_of
from periwords.words import parse_descriptor

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


def test_verify_fail_is_never_downgraded_by_a_later_cap_hit(capsys):
    code = main(["verify", "--word", HOLUB, "--claim", "peak-average", "--cap", "3"])
    out = out_of(capsys)
    assert code == 2
    assert "status:    fail" in out and "  position: 1\n" in out


def test_verify_inconclusive_exits_three(capsys):
    code = main(["verify", "--word", "thue-morse", "--claim", "dyadic-gain",
                 "--kprime", "2", "--repetition-bound", "2"])
    assert code == 3


@pytest.mark.parametrize("args", [
    ["--claim", "factor-bound", "--trials", "0"],
    ["--claim", "superadditivity", "--trials", "0"],
    ["--word", "holub:n=2,2", "--claim", "letter-formula", "--n", "0"],
    ["--word", "holub:n=2,2", "--claim", "toeplitz-stages", "--n", "0"],
    ["--claim", "critical-exhaustive", "--maxlen", "0"],
    ["--claim", "oracle-equivalence", "--maxlen", "0"],
], ids=lambda args: args[args.index("--claim") + 1])
def test_a_claim_that_checked_no_instance_is_inconclusive(capsys, args):
    assert main(["verify", *args, "--format", "json"]) == 3
    rep = json.loads(out_of(capsys))
    assert rep["status"] == "inconclusive" and rep["instances"] == 0
    assert rep["notes"].endswith("no instance was checked")


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


def test_verify_flag_the_claim_does_not_take_is_a_parameter_error(capsys):
    assert main(["verify", "--word", HOLUB, "--claim", "big", "--trials", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parameter error:")
    assert "unknown parameters for big: ['trials']" in err


@pytest.mark.parametrize("argv", [
    ["profile", "--text", "ab?ab"],
    ["profile", "--word", "periodic:ab?", "--n", "6"],
    ["report", "--word", "periodic:ab?"],
    ["verify", "--word", "periodic:ab?", "--claim", "min-return-chain"],
    ["verify", "--word", "periodic:ab?", "--claim", "return-gain"],
    ["verify", "--word", "periodic:ab?", "--claim", "dyadic-gain"],
    ["verify", "--word", "periodic:ab?", "--claim", "divergence"],
    ["factorize", "--word", "periodic:ab?", "--format", "csv", "--mode", "dyadic",
     "--level", "1", "--horizon", "8"],
    ["factorize", "--word", "periodic:ab?", "--format", "csv", "--z", "a", "--horizon", "20"],
    ["alpha", "--word", "periodic:ab?", "--depth", "2", "--horizon", "60"],
])
def test_words_with_holes_are_a_parameter_error(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("parameter error:")


@pytest.mark.parametrize("argv, message", [
    (["profile", "--word", "fibonacci", "--n", "4", "--cap", "0"], "cap must be >= 1, got 0"),
    (["profile", "--word", "fibonacci", "--n", "4", "--cap", "-2"], "cap must be >= 1, got -2"),
    (["report", "--word", "fibonacci", "--cap", "0"], "cap must be >= 1, got 0"),
    (["profile", "--word", "fibonacci", "--n", "-3"], "n must be >= 0, got -3"),
])
def test_profile_n_and_cap_out_of_range_are_parameter_errors(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"parameter error: {message}\n"


def test_non_ascii_letter_is_a_parameter_error(capsys):
    assert main(["profile", "--text", "xé"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parameter error:")
    assert "'é'" in err and "codec" not in err


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


# ---------------------------------------------------------------------------
# the row-template renderers against the json.dumps and csv.writer routes


_PROFILE_HEADER = ["index", "local_period", "h_numerator", "h_denominator", "h_approx"]


@st.composite
def _period_profiles(draw):
    # totals past 2**63 take the object-dtype sums; None is a cap hit
    top = draw(st.sampled_from([9, 2 ** 40, 2 ** 62]))
    lps = draw(st.lists(st.integers(1, top), max_size=30))
    holes = draw(st.sets(st.integers(0, 29), max_size=3))
    lps = [None if i in holes else p for i, p in enumerate(lps)]
    descriptor = draw(st.text(st.sampled_from('ab"\\:=;,\né'), min_size=1, max_size=12))
    cap = draw(st.none() | st.integers(1, 2 ** 62))
    return PeriodProfile(descriptor, lps, cap=cap)


@settings(max_examples=300, deadline=None)
@given(_period_profiles())
@example(PeriodProfile('a"\\b', [], cap=None))
@example(PeriodProfile("x", [3], cap=4))
@example(PeriodProfile("x", [None], cap=1))
@example(PeriodProfile("x", [2 ** 62, 2 ** 62, 3, None, 5], cap=None))
def test_profile_renderers_match_json_dumps_and_csv_writer(prof):
    assert _profile_json(prof) == json.dumps(prof.to_json(), sort_keys=True, indent=2) + "\n"
    rows = [[r[k] for k in _PROFILE_HEADER] for r in prof.rows()]
    assert _profile_csv(prof) == _csv_text(_PROFILE_HEADER, rows)


def _block_csv(blocks, offsets, first):
    rows = []
    for j, (offset, b) in enumerate(zip(offsets, blocks), first):
        h = h_of(b)
        rows.append([j, offset, len(b), h.numerator, h.denominator])
    return _csv_text(["index", "offset", "length", "h_num", "h_den"], rows)


def test_factorize_csv_matches_the_csv_writer_route(capsys):
    fact = return_factorization(parse_descriptor("fibonacci"), "aab", 3000)
    assert main(["factorize", "--word", "fibonacci", "--z", "aab", "--horizon", "3000",
                 "--format", "csv"]) == 0
    assert out_of(capsys) == _block_csv(fact.returns, fact.boundaries(), 1)
    dy = dyadic_factorization(parse_descriptor("thue-morse"), 3, 1024)
    assert main(["factorize", "--word", "thue-morse", "--mode", "dyadic", "--level", "3",
                 "--horizon", "1024", "--format", "csv"]) == 0
    offsets = range(0, dy.horizon, dy.block_length)
    assert out_of(capsys) == _block_csv(dy.blocks, offsets, 0)


def test_flag_aliases_share_dest(capsys):
    assert main(["verify", "--word", HOLUB, "--claim", "occurrence-rigidity",
                 "--I", "2", "--horizon", "2000"]) == 0
    assert main(["verify", "--word", "fibonacci", "--claim", "min-return-chain",
                 "--K", "2"]) == 0
    capsys.readouterr()


def test_none_flag_value_means_the_default(capsys):
    assert main(["verify", "--word", HOLUB, "--claim", "occurrence-rigidity",
                 "--I", "2", "--horizon", "none", "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["params"]["horizon"] == 10_000


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


def test_run_rejects_unknown_parameters():
    with pytest.raises(ValueError, match=r"unknown parameters for generate: \['m'\]"):
        run(ExperimentConfig(action="generate", word="fibonacci", params={"m": 8}))
    with pytest.raises(ValueError, match=r"unknown parameters for block-closure: \['dept'\]"):
        run(ExperimentConfig(action="verify", word=HOLUB, claim="block-closure",
                             params={"dept": 9}))
    with pytest.raises(ValueError, match="unknown claim"):
        run(ExperimentConfig(action="verify", word=HOLUB, claim="nosuch", params={"depth": 2}))


# every claim's parameters and defaults, as its checker's signature gives them
CLAIM_DEFAULTS = {
    "big": {"depth": 3, "cap": None},
    "peak-witness": {"depth": 3},
    "block-closure": {"depth": 4},
    "occurrence-rigidity": {"depth": 3, "horizon": 10_000},
    "letter-formula": {"n": 10_000},
    "toeplitz-stages": {"n": 10_000, "stage": None},
    "return-time-bound": {"depth": 2, "horizon": None, "max_factor_len": None},
    "min-return-chain": {"depth": 2, "horizon": 10_000, "repetition_bound": None},
    "return-gain": {"k": 1, "kprime": None, "window": 8, "horizon": 20_000,
                    "repetition_bound": None},
    "dyadic-gain": {"k": 1, "kprime": 4, "window": 8, "horizon": None,
                    "repetition_bound": None},
    "factor-bound": {"trials": 10_000, "maxlen": 14, "seed": 7},
    "superadditivity": {"trials": 10_000, "maxlen": 14, "seed": 7},
    "critical-exhaustive": {"alphabet_size": 2, "maxlen": 12},
    "oracle-equivalence": {"alphabet_size": 2, "maxlen": 12},
    "divergence": {"checkpoints": (16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
                   "cap": None, "trend_from": 64},
    "peak-average": {"depth": 3, "cap": None},
}


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_claim_defaults_are_pinned(claim):
    # a seed parameter takes the config's seed
    cfg = ExperimentConfig(action="verify", claim=claim, seed=7).resolved()
    assert cfg.params == CLAIM_DEFAULTS[claim]


def test_report_takes_the_divergence_claims_defaults():
    cfg = ExperimentConfig(action="report", word="fibonacci").resolved()
    assert cfg.params == CLAIM_DEFAULTS["divergence"]


def _option_strings(action: str) -> set[str]:
    top = _build_parser()
    sub = next(a for a in top._actions if a.dest == "action")
    return {s for a in sub.choices[action]._actions for s in a.option_strings}


def test_verify_options_are_pinned():
    assert _option_strings("verify") == {
        "-h", "--help", "--word", "--format", "--out", "--seed", "--claim",
        "--J", "--I", "--K", "--depth", "--cap", "--n", "--stage", "--horizon",
        "--window", "--k", "--kprime", "--trials", "--maxlen", "--alphabet-size",
        "--repetition-bound", "--max-factor-len", "--checkpoints", "--trend-from",
    }
    assert _option_strings("report") == {
        "-h", "--help", "--word", "--format", "--out", "--seed",
        "--checkpoints", "--cap", "--trend-from",
    }


def test_run_calls_the_checker_that_checks_holds_at_call_time(monkeypatch, capsys):
    calls = []

    def fake(params, depth=4):
        calls.append(depth)
        return checks.VerificationReport("block-closure", {"depth": depth}, 1, checks.PASS)

    monkeypatch.setattr(checks, "check_block_closure", fake)
    assert run(ExperimentConfig(action="verify", word=HOLUB, claim="block-closure",
                                params={"depth": 2})) == 0
    assert calls == [2]
    assert "instances: 1" in out_of(capsys)


def test_claim_registry_is_complete():
    assert "big" in CLAIMS
    for spec in CLAIMS.values():
        assert spec.kind in ("holub", "source", "none")
        assert spec.help


def test_every_claim_parameter_has_a_checked_type():
    # resolved() type-checks values against these three annotations only
    for spec in CLAIMS.values():
        assert [name for name, _ in spec.types] == [name for name, _ in spec.defaults]
        for name, annotation in spec.types:
            assert annotation in (int, int | None, tuple[int, ...]), (spec.claim_id, name)


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


def test_batch_parameter_of_the_wrong_type_errors_one_run(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "verify", "word": HOLUB, "claim": "block-closure", "params": {"depth": "3"}},
        {"action": "generate", "word": HOLUB, "params": {"n": 15}},
    ])
    out_dir = tmp_path / "out"
    assert run_batch(str(cfg), str(out_dir)) == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [r["status"] for r in summary["runs"]] == ["error", "ok"]
    assert summary["runs"][0]["error"].startswith("TypeError")
    assert (out_dir / "001-generate.txt").exists()


@pytest.mark.parametrize("entry,error", [
    ({"action": "verify", "word": HOLUB, "claim": "block-closure", "params": {"depth": True}},
     "TypeError: parameter 'depth' of block-closure takes int, got True"),
    ({"action": "verify", "word": HOLUB, "claim": "block-closure", "params": {"depth": 2.5}},
     "TypeError: parameter 'depth' of block-closure takes int, got 2.5"),
    ({"action": "verify", "word": "fibonacci", "claim": "divergence",
      "params": {"checkpoints": [16, "32"]}},
     "TypeError: parameter 'checkpoints' of divergence takes tuple[int, ...], got [16, '32']"),
    ({"action": "report", "word": "fibonacci", "params": {"cap": False}},
     "TypeError: parameter 'cap' of report takes int | None, got False"),
], ids=["bool-for-int", "float-for-int", "string-in-tuple", "bool-for-optional-int"])
def test_batch_parameter_types_follow_the_checker_annotations(tmp_path, entry, error):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        entry,
        {"action": "report", "word": "fibonacci", "params": {"checkpoints": [16, 32], "cap": None}},
    ])
    out_dir = tmp_path / "out"
    assert run_batch(str(cfg), str(out_dir)) == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [r["status"] for r in summary["runs"]] == ["error", "windowed-pass"]
    assert summary["runs"][0]["error"] == error
    assert not (out_dir / f"000-{entry['action']}.txt").exists()
    assert (out_dir / "001-report.txt").exists()


def test_batch_word_with_holes_errors_one_run(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "verify", "word": "periodic:ab?", "claim": "min-return-chain"},
        {"action": "generate", "word": HOLUB, "params": {"n": 15}},
    ])
    out_dir = tmp_path / "out"
    assert run_batch(str(cfg), str(out_dir)) == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [r["status"] for r in summary["runs"]] == ["error", "ok"]
    assert summary["runs"][0]["error"] == (
        "ValueError: cannot check min-return-chain on periodic:ab?: it has holes ('?')")
    assert (out_dir / "001-generate.txt").exists()


def test_batch_unknown_parameter_errors_one_run(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "verify", "word": HOLUB, "claim": "block-closure", "params": {"dept": 9}},
        {"action": "generate", "word": HOLUB, "params": {"n": 15}},
    ])
    out_dir = tmp_path / "out"
    assert run_batch(str(cfg), str(out_dir)) == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [r["status"] for r in summary["runs"]] == ["error", "ok"]
    assert summary["runs"][0]["error"] == (
        "ValueError: unknown parameters for block-closure: ['dept']")
    assert not (out_dir / "000-verify.txt").exists()
    assert (out_dir / "001-generate.txt").exists()


@pytest.mark.parametrize("entry,error", [
    (5, "TypeError: a run takes an object, got 5"),
    ({"action": 5, "word": HOLUB}, "TypeError: field 'action' takes a string, got 5"),
    ({"action": "generate", "word": 5}, "TypeError: field 'word' takes a string or null, got 5"),
    ({"action": "profile", "text": 5}, "TypeError: field 'text' takes a string or null, got 5"),
    ({"action": "verify", "claim": ["big"]},
     "TypeError: field 'claim' takes a string or null, got ['big']"),
    ({"action": "generate", "word": HOLUB, "out": 7},
     "TypeError: field 'out' takes a string or null, got 7"),
    ({"action": "generate", "word": HOLUB, "params": [15]},
     "TypeError: field 'params' takes an object, got [15]"),
    ({"action": "generate", "word": HOLUB, "format": "xml"},
     "ValueError: field 'format' takes one of ['text', 'json', 'csv'], got 'xml'"),
    ({"action": "verify", "claim": "factor-bound", "params": {"trials": 5}, "seed": "3"},
     "TypeError: field 'seed' takes an int, got '3'"),
    ({"action": "verify", "claim": "factor-bound", "params": {"trials": 5}, "seed": True},
     "TypeError: field 'seed' takes an int, got True"),
], ids=["run", "action", "word", "text", "claim", "out", "params", "format", "seed-str",
        "seed-bool"])
def test_batch_config_fields_are_type_checked(tmp_path, entry, error):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [entry, {"action": "generate", "word": HOLUB, "params": {"n": 15}}])
    out_dir = tmp_path / "out"
    assert run_batch(str(cfg), str(out_dir)) == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [r["status"] for r in summary["runs"]] == ["error", "ok"]
    assert summary["runs"][0]["error"] == error
    assert sorted(os.listdir(out_dir)) == ["001-generate.txt", "summary.json"]


def test_batch_runs_of_the_wrong_type_is_a_parameter_error(tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({"runs": 5}), encoding="utf-8")
    assert main(["batch", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("parameter error:")


def test_batch_inconclusive_only_exits_three(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "verify", "word": "thue-morse", "claim": "dyadic-gain",
         "params": {"kprime": 2, "repetition_bound": 2}, "format": "json"},
    ])
    assert run_batch(str(cfg), str(tmp_path / "o")) == 3


def test_batch_error_outranks_inconclusive(tmp_path):
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "verify", "word": "thue-morse", "claim": "dyadic-gain",
         "params": {"kprime": 2, "repetition_bound": 2}, "format": "json"},
        {"action": "generate", "word": "nosuch"},
    ])
    assert run_batch(str(cfg), str(tmp_path / "o")) == 1


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
