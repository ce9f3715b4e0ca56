"""Command-line surface: exit codes, formats, config round-trips, batches."""

import contextlib
import csv
import io
import itertools
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Literal, get_args

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periwords import checks, cli
from periwords.checks import DEFAULT_SEED
from periwords.cli import (
    _ACTIONS,
    _ERRORS,
    CLAIMS,
    ExperimentConfig,
    _build_parser,
    _csv_text,
    _profile_csv,
    _profile_json,
    main,
    run,
    run_batch,
)
from periwords.factorize import alpha_chain, dyadic_factorization, return_factorization
from periwords.periods import PeriodProfile, RepetitionWitness, h_of, profile
from periwords.words import MAX_PREFIX, HolubParams, WordSource, parse_descriptor

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


@pytest.mark.parametrize("args,name", [
    (["--claim", "critical-exhaustive", "--alphabet-size", "-2", "--maxlen", "4"], "alphabet_size"),
    (["--claim", "critical-exhaustive", "--alphabet-size", "-1", "--maxlen", "3"], "alphabet_size"),
    (["--claim", "oracle-equivalence", "--alphabet-size", "-3", "--maxlen", "4"], "alphabet_size"),
    (["--claim", "factor-bound", "--maxlen", "0", "--trials", "3"], "maxlen must be at least 3"),
    (["--claim", "superadditivity", "--maxlen", "1", "--trials", "3"], "maxlen must be at least 2"),
    (["--claim", "factor-bound", "--trials", "-5"], "trials must not be negative"),
    (["--claim", "superadditivity", "--trials", "-1"], "trials must not be negative"),
    (["--claim", "big", "--word", "holub:n=2,2", "--depth", "-1"], "depth must not be negative"),
    (["--claim", "critical-exhaustive", "--maxlen", "-3"], "maxlen must not be negative"),
], ids=["critical-alphabet-minus-2", "critical-alphabet-minus-1", "oracle-alphabet-minus-3",
        "factor-bound-maxlen-0", "superadditivity-maxlen-1", "factor-bound-trials-minus-5",
        "superadditivity-trials-minus-1", "big-depth-minus-1", "critical-maxlen-minus-3"])
def test_a_parameter_out_of_its_range_is_a_parameter_error(capsys, args, name):
    assert main(["verify", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parameter error:") and name in captured.err
    assert "Traceback" not in captured.err


def test_windowed_pass_exits_zero_with_warning(capsys):
    code = main(["verify", "--word", "fibonacci", "--claim", "min-return-chain"])
    captured = capsys.readouterr()
    assert code == 0
    assert "finite window" in captured.err


def test_descriptor_error_exits_one(capsys):
    assert main(["generate", "--word", "nosuch"]) == 1
    assert capsys.readouterr().err.startswith("descriptor error:")


def test_descriptor_text_the_parser_does_not_read_is_a_descriptor_error(capsys):
    assert main(["generate", "--word", "fibonacci:junk"]) == 1
    assert capsys.readouterr() == (
        "", "descriptor error: fibonacci takes no parameters, got 'fibonacci:junk'\n")


def test_window_error_exits_one(capsys):
    code = main(["factorize", "--word", "fibonacci", "--z", "bb", "--horizon", "500"])
    assert code == 1
    assert capsys.readouterr().err.startswith("window error:")


def test_a_window_error_names_a_long_chain_power_by_its_length(capsys):
    # the return-gain marker of periodic:ab is the chain power (ab)^10000
    assert main(["verify", "--claim", "return-gain", "--word", "periodic:ab"]) == 1
    assert capsys.readouterr() == (
        "", "window error: 'abababababababababababababababab'... (20000 letters) occurs 1 time(s) "
            "in a window of 20000; need >= 2\n")


def test_parameter_error_exits_one(capsys):
    assert main(["verify", "--word", "fibonacci", "--claim", "big"]) == 1
    assert capsys.readouterr().err.startswith("parameter error:")
    assert main(["verify", "--word", HOLUB, "--claim", "nosuch-claim"]) == 1
    err = capsys.readouterr().err
    assert "known claims" in err


@pytest.mark.parametrize("argv, name", [
    (["factorize", "--word", "fibonacci", "--mode", "dyadic", "--level", "20000", "--horizon", "64"],
     "level"),
    (["verify", "--word", "thue-morse", "--claim", "dyadic-gain", "--kprime", "20000",
      "--repetition-bound", "2"], "kprime"),
], ids=["factorize", "dyadic-gain"])
def test_a_dyadic_level_past_the_prefix_limit_is_refused_by_name(argv, name, capsys):
    # 2^20000 has over 4300 digits: it must be refused before it is built or printed
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parameter error: {name} must be at most {MAX_PREFIX.bit_length() - 1}, "
                          "got 20000"), err
    assert "integer string conversion" not in err


@pytest.mark.parametrize("k, kprime, bound", [("3", "1", "0"), ("100000000", "4", "2")],
                         ids=["no-exponent", "huge-k"])
def test_dyadic_gain_refuses_k_not_below_kprime_by_name(k, kprime, bound, capsys):
    # with e = 0 the level-gap test passes any k, and 2^(kprime - k) is a
    # float slice bound; a huge k would build 2^(k+1) before the gap test
    argv = ["verify", "--word", "thue-morse", "--claim", "dyadic-gain", "--k", k,
            "--kprime", kprime, "--repetition-bound", bound]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"parameter error: k must be below kprime, got k={k}, kprime={kprime}\n")


@pytest.mark.parametrize("args", [
    ["verify", "--claim", "big", "--word", "holub:n=99999999999;tail=repeat", "--J", "1"],
    ["generate", "--word", "toeplitz:n=99999999999;tail=repeat;stage=1", "--n", "9"],
    ["verify", "--claim", "peak-witness", "--word", "holub:n=99999999999;tail=repeat", "--J", "1"],
    ["verify", "--claim", "block-closure", "--word", "holub:n=99999999999;tail=repeat", "--J", "1"],
], ids=["anchor-scan", "toeplitz-pattern", "witness", "stage-word"])
def test_a_word_past_the_size_limit_is_a_parameter_error(args):
    # each would need 10^11 letters; the size check refuses it before anything
    # is allocated, and the child's address space limit turns a regression
    # into a MemoryError instead of a swapping machine
    resource = pytest.importorskip("resource")
    src = str(Path(checks.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run(
        [sys.executable, "-m", "periwords", *args], env=env, capture_output=True, text=True,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert child.returncode == 1, child.stderr
    assert child.stderr.startswith("parameter error:"), child.stderr
    assert child.stderr.endswith(f"over the limit of {MAX_PREFIX}\n"), child.stderr


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
    (["report", "--word", "fibonacci", "--checkpoints", "0"], "checkpoints must be >= 1, got 0"),
    (["report", "--word", "fibonacci", "--checkpoints", "-3"], "checkpoints must be >= 1, got -3"),
    (["report", "--word", "fibonacci", "--checkpoints", "-3,5"], "checkpoints must be >= 1, got -3"),
    (["factorize", "--word", "fibonacci", "--z", "aa", "--horizon", "-5"],
     "prefix length must be nonnegative"),
    (["alpha", "--word", "fibonacci", "--horizon", "-5"], "prefix length must be nonnegative"),
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


def test_non_ascii_alphabet_letter_is_a_descriptor_error(capsys):
    assert main(["generate", "--word", "morphic:a=aé,é=a;seed=a"]) == 1
    err = capsys.readouterr().err
    assert err == "descriptor error: alphabet letters must be ASCII, got 'é'\n"


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


# every (action, format) pair once, each expected output built from library
# calls and the csv and json modules, never from a renderer of cli


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _report_lines(rep) -> str:
    lines = [f"claim:     {rep.claim}", f"status:    {rep.status}", f"instances: {rep.instances}"]
    if rep.notes:
        lines.append(f"notes:     {rep.notes}")
    lines += ["  " + "  ".join(f"{k}={v}" for k, v in row.items()) for row in rep.details]
    if rep.counterexample is not None:
        lines += ["counterexample:", *(f"  {k}: {v}" for k, v in rep.counterexample.items())]
    return "\n".join(lines) + "\n"


def _generated(fmt):
    letters = parse_descriptor("fibonacci").prefix(70)
    if fmt == "json":
        return _json({"descriptor": "fibonacci", "n": 70, "letters": letters})
    if fmt == "csv":
        return _csv(["index", "letter"], enumerate(letters, 1))
    return f"       1  {letters[:64]}\n      65  {letters[64:]}\n"


def _profiled(fmt):
    # the scan cap hits at position 3, so most rows have no h
    prof = profile(parse_descriptor("thue-morse"), n=12, cap=3)
    header = ["index", "local_period", "h_numerator", "h_denominator", "h_approx"]
    if fmt == "json":
        return _json(prof.to_json())
    if fmt == "csv":
        return _csv(header, [[r[k] for k in header] for r in prof.rows()])
    lines = ["subject: thue-morse", f"{'i':>6} {'p(i)':>8} {'h(i)':>12}"]
    for r in prof.rows():
        h = "-" if r["h_numerator"] is None else f"{r['h_numerator']}/{r['h_denominator']}"
        lines.append(f"{r['index']:>6} {r['local_period']:>8} {h:>12}")
    return "\n".join(lines) + "\n"


def _return_factorized(fmt):
    # 93 return words, so the text lists 40 and counts the rest
    fact = return_factorization(parse_descriptor("fibonacci"), "aa", 400)
    if fmt == "json":
        return _json(fact.to_json())
    if fmt == "csv":
        return _block_csv(fact.returns, fact.boundaries(), 1)
    data = fact.to_json()
    lines = [f"{k}: {data[k]}" for k in ("z", "e", "preamble", "m_k", "mu_k", "horizon")]
    lines += ["returns (93):", *(f"  {w}" for w in fact.returns[:40]), "  ... 53 more"]
    return "\n".join(lines) + "\n"


def _dyadic_factorized(fmt):
    dy = dyadic_factorization(parse_descriptor("thue-morse"), 2, 64)
    if fmt == "csv":
        return _block_csv(dy.blocks, range(0, dy.horizon, dy.block_length), 0)
    return _json(dy.to_json())  # the text form prints the JSON too


def _alpha_chained(fmt):
    chain = alpha_chain(parse_descriptor("fibonacci"), 2, 2000)
    if fmt == "json":
        return _json(chain.to_json())
    if fmt == "csv":
        return _csv(["alpha", "exponent", "horizon"],
                    [[e.alpha, e.exponent, e.horizon] for e in chain.entries])
    lines = [f"alphabet: {chain.alphabet}", f"exponents certified: {chain.exponents_certified}"]
    lines += [f"  level {t}: alpha={e.alpha!r} exponent={e.exponent}"
              for t, e in enumerate(chain.entries, 1)]
    return "\n".join(lines) + "\n"


def _verified(fmt):
    # a fail, so the text carries its details and counterexample
    rep = checks.check_peak_average(parse_descriptor(HOLUB).params, depth=2)
    if fmt == "json":
        return _json(rep.to_json())
    if fmt == "csv":
        return _csv(["claim", "status", "instances", "notes"],
                    [[rep.claim, rep.status, rep.instances, rep.notes]])
    return _report_lines(rep)


def _reported(fmt):
    # a windowed pass, so the text carries its notes
    rep = checks.divergence_report(parse_descriptor("fibonacci"), checkpoints=(16, 32, 64))
    if fmt == "json":
        return _json(rep.to_json())
    if fmt == "csv":
        return _csv(["i", "h_numerator", "h_denominator", "h_approx", "capped"],
                    [[r["i"], r["h_numerator"], r["h_denominator"], r["h_approx"], r["capped"]]
                     for r in rep.details])
    return _report_lines(rep)


# run -> (argv without --format, exit code, expected output of each format)
RENDERED = {
    "generate": (["generate", "--word", "fibonacci", "--n", "70"], 0, _generated),
    "profile": (["profile", "--word", "thue-morse", "--n", "12", "--cap", "3"], 0, _profiled),
    "factorize-return": (["factorize", "--word", "fibonacci", "--z", "aa", "--horizon", "400"],
                         0, _return_factorized),
    "factorize-dyadic": (["factorize", "--word", "thue-morse", "--mode", "dyadic",
                          "--level", "2", "--horizon", "64"], 0, _dyadic_factorized),
    "alpha": (["alpha", "--word", "fibonacci", "--K", "2", "--horizon", "2000"], 0,
              _alpha_chained),
    "verify": (["verify", "--word", HOLUB, "--claim", "peak-average", "--J", "2"], 2, _verified),
    "report": (["report", "--word", "fibonacci", "--checkpoints", "16,32,64"], 0, _reported),
}


def test_every_action_has_a_rendered_run():
    assert {run.split("-")[0] for run in RENDERED} == set(_ACTIONS)


@pytest.mark.parametrize("fmt", list(cli._EXT))
@pytest.mark.parametrize("run_name", list(RENDERED))
def test_every_action_renders_every_format(run_name, fmt, capsys):
    argv, code, expected = RENDERED[run_name]
    assert main([*argv, "--format", fmt]) == code
    assert out_of(capsys) == expected(fmt)


def test_return_mode_without_a_marker_is_a_parameter_error(tmp_path, capsys):
    message = "factorize needs --z for return mode"
    assert main(["factorize", "--word", "fibonacci"]) == 1
    assert capsys.readouterr() == ("", f"parameter error: {message}\n")
    assert _batch_error(tmp_path, {"action": "factorize", "word": "fibonacci"}) == (
        f"ValueError: {message}")


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
    assert main(["generate", "--word", "fibonacci", "--n", "none", "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["n"] == 64
    assert main(["alpha", "--word", "fibonacci", "--J", "none", "--format", "csv"]) == 0
    assert len(out_of(capsys).splitlines()) == 3  # the header and the default 2 levels


# ---------------------------------------------------------------------------
# config round-trips


def test_config_round_trip_lossless():
    cfg = ExperimentConfig(
        action="verify", word=HOLUB, claim="big",
        params={"depth": 3, "cap": None}, format="json", out="x.json",
    )
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_serialization_is_explicit():
    data = ExperimentConfig(action="generate", word="fibonacci").to_json()
    # every field is present even when defaulted
    assert set(data) == {"action", "word", "text", "claim", "params", "format", "out"}
    assert data["format"] == "text"


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
    "factor-bound": {"trials": 10_000, "maxlen": 14, "seed": DEFAULT_SEED},
    "superadditivity": {"trials": 10_000, "maxlen": 14, "seed": DEFAULT_SEED},
    "critical-exhaustive": {"alphabet_size": 2, "maxlen": 12},
    "oracle-equivalence": {"alphabet_size": 2, "maxlen": 12},
    "divergence": {"checkpoints": (16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
                   "cap": None, "trend_from": 64},
    "peak-average": {"depth": 3, "cap": None},
}


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_claim_defaults_are_pinned(claim):
    cfg = ExperimentConfig(action="verify", claim=claim).resolved()
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
        "-h", "--help", "--word", "--format", "--out",
        "--checkpoints", "--cap", "--trend-from",
    }


@pytest.mark.parametrize("action,options", [
    ("generate", {"--n"}),
    ("profile", {"--text", "--n", "--cap"}),
    ("factorize", {"--z", "--mode", "--level", "--horizon", "--exponent", "--alpha-power"}),
    ("alpha", {"--J", "--I", "--K", "--depth", "--horizon", "--repetition-bound"}),
])
def test_action_options_are_pinned(action, options):
    assert _option_strings(action) == {"-h", "--help", "--word", "--format", "--out"} | options


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
        assert spec.subject in (HolubParams, WordSource, None)


def test_readme_claims_table_follows_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("| claim | checker | needs | checks |") + 2
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        # the cells between unescaped pipes, without their code quotes
        _, claim, checker, needs, claim_text, _ = (
            cell.strip().replace("`", "").replace("\\|", "|")
            for cell in re.split(r"(?<!\\)\|", line))
        rows[claim] = (checker, needs, claim_text)
    assert set(rows) == set(CLAIMS)
    needs_of = {HolubParams: "holub word", WordSource: "any word", None: "—"}
    for claim, (checker, needs, claim_text) in rows.items():
        spec = CLAIMS[claim]
        assert checker == spec.checker, claim
        assert needs == needs_of[spec.subject], claim
        first_line = getattr(checks, spec.checker).__doc__.splitlines()[0]
        assert claim_text.startswith(first_line), claim


def test_readme_quickstart_runs_and_computes_what_its_comments_say():
    # the documented import path: every name from the module that defines it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    said = {
        "prof.local_periods": [2, 3, 1, 3, 1],
        'periods.period("abaab")': 3,
        "prof.h_at(2)": Fraction(5, 2),
        'periods.local_period("abaab", 1)': RepetitionWitness(2, "right-overhang", "ba"),
        "fib.prefix(13)": "abaababaabaab",
        "periods.local_period_infinite(fib, 7, cap=200).length": 8,
        "rep.status": "pass",
        "[(e.alpha, e.exponent) for e in chain.entries]": [("a", 2), ("aab", 2), ("aabaabab", 2)],
    }
    for expr, value in said.items():
        assert expr in block, expr
        assert eval(expr, namespace) == value, expr
    assert [row["actual"] for row in namespace["rep"].details] == [3, 12, 48]


# (word, params) of one cheap call of every claim
CHEAP_CALLS = {
    "big": (HOLUB, {"depth": 1}),
    "peak-witness": (HOLUB, {"depth": 1}),
    "block-closure": (HOLUB, {"depth": 1}),
    "occurrence-rigidity": (HOLUB, {"depth": 1, "horizon": 100}),
    "letter-formula": (HOLUB, {"n": 100}),
    "toeplitz-stages": (HOLUB, {"n": 100}),
    "return-time-bound": (HOLUB, {"depth": 1}),
    "min-return-chain": ("fibonacci", {"depth": 1, "horizon": 500}),
    "return-gain": ("fibonacci", {"window": 2, "horizon": 2000}),
    "dyadic-gain": ("thue-morse", {"kprime": 3, "window": 2, "repetition_bound": 2}),
    "factor-bound": (None, {"trials": 10}),
    "superadditivity": (None, {"trials": 10}),
    "critical-exhaustive": (None, {"maxlen": 4}),
    "oracle-equivalence": (None, {"maxlen": 4}),
    "divergence": ("fibonacci", {"checkpoints": [16, 32]}),
    "peak-average": (HOLUB, {"depth": 1}),
}


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_every_claim_records_exactly_its_declared_parameters(tmp_path, claim):
    spec = CLAIMS[claim]
    word, params = CHEAP_CALLS[claim]
    out = tmp_path / "report.json"
    run(ExperimentConfig(action="verify", word=word, claim=claim, params=params,
                         format="json", out=str(out)))
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["claim"] == claim
    expected = set(spec.params) | ({"word"} if spec.subject is not None else set())
    assert set(rep["params"]) == expected
    for name, value in params.items():
        assert rep["params"][name] == value, name


def test_every_claim_parameter_has_a_checked_type():
    # the checkers' parameters take these three annotations only
    for spec in CLAIMS.values():
        for name, (annotation, _) in spec.params.items():
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


@pytest.mark.parametrize("error,prefix", list(_ERRORS.items()), ids=[t.__name__ for t in _ERRORS])
def test_each_expected_error_gets_its_prefix_and_spares_the_rest_of_a_batch(
        error, prefix, tmp_path, monkeypatch, capsys):
    def runner(cfg):
        raise error("planted")

    monkeypatch.setitem(cli._RUNNERS, "alpha", runner)
    assert main(["alpha", "--word", "fibonacci"]) == 1
    assert capsys.readouterr().err == f"{prefix}: planted\n"
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [
        {"action": "alpha", "word": "fibonacci"},
        {"action": "generate", "word": HOLUB, "params": {"n": 15}},
    ])
    out_dir = tmp_path / "out"
    assert run_batch(str(cfg), str(out_dir)) == 1
    runs = json.loads((out_dir / "summary.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["error", "ok"]
    assert runs[0]["error"] == f"{error.__name__}: planted"
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
    ({"action": "factorize", "word": "fibonacci", "params": {"z": "a", "mode": "bogus"}},
     "TypeError: parameter 'mode' of factorize takes Literal['return', 'dyadic'], got 'bogus'"),
    ({"action": "factorize", "word": "fibonacci", "params": {"z": "aa", "alpha_power": "no"}},
     "TypeError: parameter 'alpha_power' of factorize takes bool, got 'no'"),
    ({"action": "generate", "word": HOLUB, "params": {"n": True}},
     "TypeError: parameter 'n' of generate takes int, got True"),
    ({"action": "alpha", "word": "fibonacci", "params": {"depth": True}},
     "TypeError: parameter 'depth' of alpha takes int, got True"),
    ({"action": "generate", "word": HOLUB, "params": {"n": 2.5}},
     "TypeError: parameter 'n' of generate takes int, got 2.5"),
], ids=["bool-for-int", "float-for-int", "string-in-tuple", "bool-for-optional-int",
        "factorize-mode", "factorize-alpha-power", "generate-bool", "alpha-bool",
        "generate-float"])
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


# (action, claim, owner, name, annotation) of every declared parameter
DECLARED = (
    [(action, None, action, name, annotation)
     for action, (_, table) in _ACTIONS.items() if action != "verify"
     for name, (annotation, _) in table.items()]
    + [("verify", claim, claim, name, annotation)
       for claim, spec in CLAIMS.items() for name, (annotation, _) in spec.params.items()]
)

# the JSON values of the wrong type for each declared annotation, among a bool
# (an int for a bool), a float, a string, a list and null, written out apart
# from the type check
WRONG_VALUES = {
    int: [True, 2.5, "3", [1], None],
    int | None: [True, 2.5, "3", [1]],
    tuple[int, ...]: [True, 2.5, "3", [True], [2.5], None],
    str | None: [True, 2.5, [1]],
    bool: [1, 2.5, "3", [1], None],
    Literal["return", "dyadic"]: [True, 2.5, "3", [1], None],
}


def test_every_declared_annotation_has_wrong_values():
    assert {annotation for *_, annotation in DECLARED} <= set(WRONG_VALUES)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(DECLARED), st.data())
def test_a_wrong_typed_parameter_errors_its_run_only(declared, data):
    action, claim, owner, name, annotation = declared
    value = data.draw(st.sampled_from(WRONG_VALUES[annotation]))
    entry = {"action": action, "word": HOLUB, "claim": claim, "params": {name: value}}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "batch.json")
        with open(cfg, "w", encoding="utf-8") as f:
            json.dump({"runs": [entry, {"action": "generate", "word": HOLUB,
                                        "params": {"n": 15}}]}, f)
        out_dir = os.path.join(tmp, "out")
        assert run_batch(cfg, out_dir) == 1
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as f:
            rows = json.load(f)["runs"]
        assert sorted(os.listdir(out_dir)) == ["001-generate.txt", "summary.json"]
    assert [r["status"] for r in rows] == ["error", "ok"]
    error = rows[0]["error"]
    assert error.startswith(f"TypeError: parameter {name!r} of {owner} takes "), error
    assert error.endswith(f", got {value!r}"), error


@pytest.mark.parametrize("action", ["generate", "profile", "factorize", "alpha", "verify",
                                    "report"])
def test_every_declared_parameter_has_a_flag(action, capsys):
    options = _option_strings(action)
    for name in {name for owner_action, _, _, name, _ in DECLARED if owner_action == action}:
        assert "--" + name.replace("_", "-") in options, name
    with pytest.raises(SystemExit) as exc:
        main([action, "--help"])
    assert exc.value.code == 0
    assert out_of(capsys).startswith(f"usage: periwords {action}")


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
    ({"action": 5, "word": HOLUB}, "TypeError: field 'action' takes str, got 5"),
    ({"action": "generate", "word": 5}, "TypeError: field 'word' takes str | None, got 5"),
    ({"action": "profile", "text": 5}, "TypeError: field 'text' takes str | None, got 5"),
    ({"action": "verify", "claim": ["big"]},
     "TypeError: field 'claim' takes str | None, got ['big']"),
    ({"action": "generate", "word": HOLUB, "out": 7},
     "TypeError: field 'out' takes str | None, got 7"),
    ({"action": "generate", "word": HOLUB, "params": [15]},
     "TypeError: field 'params' takes dict, got [15]"),
    ({"action": "generate", "word": HOLUB, "format": "xml"},
     "TypeError: field 'format' takes Literal['text', 'json', 'csv'], got 'xml'"),
    ({"action": "verify", "claim": "factor-bound", "params": {"trials": 5, "seed": "3"}},
     "TypeError: parameter 'seed' of factor-bound takes int, got '3'"),
    ({"action": "verify", "claim": "factor-bound", "params": {"trials": 5, "seed": True}},
     "TypeError: parameter 'seed' of factor-bound takes int, got True"),
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


def _batch_error(tmp_path, entry) -> str:
    # the error row of entry, run ahead of a good entry that still writes its artifact
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, [entry, {"action": "generate", "word": HOLUB, "params": {"n": 15}}])
    out_dir = tmp_path / "out"
    assert run_batch(str(cfg), str(out_dir)) == 1
    rows = json.loads((out_dir / "summary.json").read_text())["runs"]
    assert [r["status"] for r in rows] == ["error", "ok"]
    assert sorted(os.listdir(out_dir)) == ["001-generate.txt", "summary.json"]
    return rows[0]["error"]


@pytest.mark.parametrize("argv,entry,message", [
    (["verify", "--claim", "factor-bound", "--word", "fibonacci"],
     {"action": "verify", "claim": "factor-bound", "word": "fibonacci"},
     "field 'word' is not read by claim 'factor-bound', which takes no word"),
    (["profile", "--word", "fibonacci", "--text", "abaab"],
     {"action": "profile", "word": "fibonacci", "text": "abaab"},
     "fields 'text' and 'word' both name the subject; give one"),
    (["verify", "--claim", "big", "--word", HOLUB, "--seed", "5"],
     {"action": "verify", "claim": "big", "word": HOLUB, "params": {"seed": 5}},
     "unknown parameters for big: ['seed']"),
    (["factorize", "--word", "fibonacci", "--mode", "dyadic", "--level", "2", "--horizon", "64",
      "--z", "bb", "--exponent", "9", "--format", "csv"],
     {"action": "factorize", "word": "fibonacci", "format": "csv",
      "params": {"mode": "dyadic", "level": 2, "horizon": 64, "z": "bb", "exponent": 9}},
     "parameters ['exponent', 'z'] are not read in dyadic mode"),
    (["factorize", "--word", "fibonacci", "--mode", "dyadic", "--alpha-power"],
     {"action": "factorize", "word": "fibonacci",
      "params": {"mode": "dyadic", "alpha_power": False}},
     "parameters ['alpha_power'] are not read in dyadic mode"),
    (["factorize", "--word", "fibonacci", "--z", "aa", "--level", "3"],
     {"action": "factorize", "word": "fibonacci", "params": {"z": "aa", "level": 3}},
     "parameters ['level'] are not read in return mode"),
    (["profile", "--text", "abaab", "--n", "99", "--cap", "1", "--format", "csv"],
     {"action": "profile", "text": "abaab", "params": {"n": 99, "cap": 1}, "format": "csv"},
     "parameters ['cap', 'n'] are not read with field 'text'"),
], ids=["word-on-a-wordless-claim", "text-and-word", "seed-on-a-seedless-claim",
        "return-parameters-in-dyadic-mode", "alpha-power-in-dyadic-mode",
        "level-in-return-mode", "scan-bounds-of-a-text"])
def test_a_field_or_parameter_the_run_does_not_read_is_refused(argv, entry, message, tmp_path,
                                                               capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"parameter error: {message}\n")
    assert _batch_error(tmp_path, entry) == f"ValueError: {message}"


@pytest.mark.parametrize("entry,message", [
    ({"action": "generate", "word": "fibonacci", "claim": "big", "text": "ab"},
     "field 'claim' is read by verify only, not by generate"),
    ({"action": "report", "word": "fibonacci", "claim": "divergence"},
     "field 'claim' is read by verify only, not by report"),
    ({"action": "generate", "word": "fibonacci", "text": "ab"},
     "field 'text' is read by profile only, not by generate"),
    ({"action": "verify", "claim": "return-gain", "text": "abaab"},
     "field 'text' is read by profile only, not by verify"),
    ({"action": "verify", "claim": "factor-bound", "params": {"trials": 5}, "seed": 5},
     "unknown config fields: ['seed']"),
    ({"action": "verify", "claim": "factor-bound", "params": {"trials": 5, "seed": 7}, "seed": 5},
     "unknown config fields: ['seed']"),
], ids=["claim-on-generate", "claim-on-report", "text-on-generate", "text-on-verify",
        "top-level-seed", "top-level-and-params-seed"])
def test_a_batch_field_the_run_does_not_read_is_refused(entry, message, tmp_path):
    assert _batch_error(tmp_path, entry) == f"ValueError: {message}"
    with pytest.raises(ValueError) as info:
        run(ExperimentConfig.from_json(entry))
    assert str(info.value) == message


@pytest.mark.parametrize("argv", [
    ["generate", "--word", "fibonacci", "--seed", "5"],
    ["profile", "--word", "fibonacci", "--n", "4", "--seed", "5"],
    ["factorize", "--word", "fibonacci", "--z", "a", "--seed", "5"],
    ["alpha", "--word", "fibonacci", "--seed", "5"],
    ["report", "--word", "fibonacci", "--seed", "9"],
], ids=lambda argv: argv[0])
def test_seed_is_a_flag_of_verify_only(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", "usage error: unrecognized arguments: --seed "
                                   f"{argv[-1]}\n")
    entry = {"action": argv[0], "word": "fibonacci", "params": {"seed": int(argv[-1])}}
    assert _batch_error(tmp_path, entry) == (
        f"ValueError: unknown parameters for {argv[0]}: ['seed']")


def test_resolved_writes_out_only_the_parameters_the_run_reads():
    dyadic = ExperimentConfig(action="factorize", word="fibonacci", params={"mode": "dyadic"})
    assert dyadic.resolved().params == {"mode": "dyadic", "level": 1, "horizon": 4096}
    text = ExperimentConfig(action="profile", text="abaab").resolved()
    assert text.params == {}
    # a resolved config resolves to itself, so its JSON runs again
    for cfg in (dyadic.resolved(), text):
        assert ExperimentConfig.from_json(cfg.to_json()).resolved() == cfg


@pytest.mark.parametrize("word,message", [
    (None, "claim 'divergence' needs a word (field 'word', flag --word)"),
    ("periodic:ab?", "cannot check divergence on periodic:ab?: it has holes ('?')"),
], ids=["no-word", "holed-word"])
def test_report_fails_the_way_verify_divergence_does(word, message, capsys, tmp_path):
    given = ["--word", word] if word else []
    for argv in (["report", *given], ["verify", "--claim", "divergence", *given]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"parameter error: {message}\n")
    # a batch row and a library call say the same
    for k, entry in enumerate([{"action": "report"}, {"action": "verify", "claim": "divergence"}]):
        entry.update({"word": word} if word else {})
        (tmp_path / str(k)).mkdir()
        assert _batch_error(tmp_path / str(k), entry) == f"ValueError: {message}"
        with pytest.raises(ValueError) as info:
            run(ExperimentConfig.from_json(entry))
        assert str(info.value) == message


def test_verify_seed_is_the_claims_seed_parameter(capsys):
    assert main(["verify", "--claim", "factor-bound", "--trials", "30", "--seed", "7",
                 "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["params"] == {"trials": 30, "maxlen": 14, "seed": 7}


# any JSON value; a config field or parameter mostly gets a value it is
# declared to take, so that resolution often gets past the type checks
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=6)
# every declared parameter name, and names no action or claim declares
PARAM_NAMES = sorted({name for *_, name, _ in DECLARED} | {"seed", "m", "dept"})


def _mostly(usual, other=JSON_VALUES):
    # usual in three draws of four, other in the fourth
    return st.integers(0, 3).flatmap(lambda k: other if k == 2 else usual)


def _either(*values):
    return _mostly(st.sampled_from(values))


FIELDS = {
    "word": _either(None, "fibonacci", HOLUB),
    "text": _either(None, "abaab"),
    "claim": _either(None, *CLAIMS),
    "params": _mostly(st.dictionaries(st.sampled_from(PARAM_NAMES),
                                      _either(1, None, "a", [16, 32]), max_size=3)),
    "format": _either(*cli._EXT),
    "out": _either(None, "x.txt"),
}
ACTIONS = _either(*_ACTIONS, "batch")
# mostly entries with an action; else entries that may lack it or hold the
# undeclared field seed, or JSON values that are not entries at all
CONFIG_ENTRIES = _mostly(
    st.fixed_dictionaries({"action": ACTIONS}, optional=FIELDS),
    st.fixed_dictionaries({}, optional={**FIELDS, "action": ACTIONS, "seed": _either(7)})
    | JSON_VALUES)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(CONFIG_ENTRIES)
def test_config_resolution_returns_or_raises_a_parameter_error(entry):
    try:
        cfg = ExperimentConfig.from_json(entry).resolved()
    except (TypeError, ValueError):
        return
    assert cfg.action in cli._RUNNERS and isinstance(cfg.params, dict)


# ---------------------------------------------------------------------------
# the descriptor grammar, fuzzed through cli.main

# binary letters, a letter outside the binary alphabet, the hole and a
# non-ASCII letter
FUZZ_LETTERS = "abc?é"
# an exponent, stage or step: mostly small and valid, else zero, one, or past
# the prefix limit and unbounded above, so that words.MAX_PREFIX must refuse
# it before anything is allocated
EXPONENTS = _mostly(st.integers(2, 6), st.integers(0, 1) | st.integers(min_value=MAX_PREFIX))


def _kv(pairs: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in pairs.items())


_EXPONENT_LISTS = st.lists(EXPONENTS, min_size=1, max_size=4)
_HOLUB_BODIES = st.fixed_dictionaries(
    {"n": _mostly(_EXPONENT_LISTS.map(sorted), _EXPONENT_LISTS).map(
        lambda ns: ",".join(map(str, ns)))},
    # mostly repeat or step:K, else a bare step (it names no K), an unknown rule or any JSON value
    optional={"tail": _mostly(st.just("repeat") | EXPONENTS.map(lambda k: f"step:{k}"),
                              st.sampled_from(["step", "loop"]) | JSON_VALUES),
              "strict": st.sampled_from(["0", "1"])},
).map(_kv)
_RULES = _mostly(
    st.fixed_dictionaries({"a": st.text("ab", max_size=3).map(lambda t: "a" + t),
                           "b": st.text("ab", min_size=1, max_size=3)}),
    st.dictionaries(st.sampled_from(FUZZ_LETTERS), st.text(FUZZ_LETTERS, max_size=4),
                    min_size=1, max_size=3))
_MORPHIC_BODIES = st.builds(
    lambda rules, seed: ",".join(f"{k}={v}" for k, v in rules.items()) + f";seed={seed}",
    _RULES, _either("a", "b", "", "é"))
FAMILIES = ["fibonacci", "thue-morse", "periodic", "morphic", "holub", "holub-formula",
            "toeplitz"]
DESCRIPTORS = _mostly(
    st.one_of(
        st.sampled_from(["fibonacci", "thue-morse"]),
        _mostly(st.text("ab", min_size=1, max_size=6), st.text(FUZZ_LETTERS, max_size=6)).map(
            lambda p: "periodic:" + p),
        _MORPHIC_BODIES.map(lambda b: "morphic:" + b),
        _HOLUB_BODIES.map(lambda b: "holub:" + b),
        _HOLUB_BODIES.map(lambda b: "holub-formula:" + b),
        st.builds(lambda body, stage: f"toeplitz:{body};stage={stage}", _HOLUB_BODIES, EXPONENTS),
    ),
    # malformed bodies: any family, any text of the grammar's characters
    st.sampled_from(["", "nosuch", " fibonacci "])
    | st.builds(lambda family, body: f"{family}:{body}", st.sampled_from(FAMILIES),
                st.text(FUZZ_LETTERS + ":;=,-+_٣0123456789", max_size=16)),
)

def _count(top: int):
    # mostly 1..top, else -1 or 0
    return _mostly(st.integers(1, top), st.integers(-1, 0))


# each parameter's values, bounded so that no run allocates more than a few
# MB; None is added where the parameter's annotation admits it
FUZZ_PARAMS = {
    "n": _count(80), "cap": _count(40), "z": st.text(FUZZ_LETTERS, max_size=3),
    "mode": st.sampled_from(["return", "dyadic"]), "level": _count(5), "horizon": _count(600),
    "exponent": _count(4), "alpha_power": st.booleans(), "depth": _count(2),
    "repetition_bound": _count(4), "stage": _count(4), "max_factor_len": _count(4),
    "k": _count(3), "kprime": _count(6), "window": _count(4), "trials": _count(30),
    "maxlen": _count(8), "seed": st.integers(-5, 5), "alphabet_size": _count(4),
    "checkpoints": st.lists(_count(100), max_size=4), "trend_from": _count(100),
}
# the parameters always given, since their defaults take up to 10^4 letters or trials
FUZZ_REQUIRED = {"n", "horizon", "trials", "maxlen", "checkpoints"}


def _fuzz_value(annotation, name):
    values = FUZZ_PARAMS[name]
    return st.none() | values if type(None) in get_args(annotation) else values


@st.composite
def fuzzed_runs(draw):
    """A config entry and whether it goes through batch; each value fits its parameter."""
    action = draw(st.sampled_from(list(_ACTIONS)))
    entry = {"action": action, "format": draw(st.sampled_from(list(cli._EXT)))}
    table = _ACTIONS[action][1]
    word = st.none() | DESCRIPTORS
    if action == "verify":
        entry["claim"] = claim = draw(st.sampled_from([*CLAIMS, "nosuch"]))
        table = CLAIMS[claim].params if claim in CLAIMS else {}
        if claim not in CLAIMS or CLAIMS[claim].subject is None:
            word = _mostly(st.none(), DESCRIPTORS)
    if action == "profile" and draw(st.booleans()):
        entry["text"] = draw(st.text(FUZZ_LETTERS, max_size=12))
    else:
        entry["word"] = draw(_mostly(DESCRIPTORS, word))
    values = {k: _fuzz_value(annotation, k) for k, (annotation, _) in table.items()}
    params = draw(st.fixed_dictionaries(
        {k: v for k, v in values.items() if k in FUZZ_REQUIRED},
        optional={k: v for k, v in values.items() if k not in FUZZ_REQUIRED}))
    # mostly only what the run reads: a text needs no scan bounds, and each
    # factorize mode reads parameters of its own
    unread = set()
    if "text" in entry:
        unread = {"n", "cap"}
    elif action == "factorize":
        unread = cli._UNREAD_IN_MODE[params.get("mode", "return")]
    if draw(st.integers(0, 3)):
        params = {k: v for k, v in params.items() if k not in unread}
    entry["params"] = params
    return entry, draw(st.booleans())


def _flags(entry: dict) -> list[str]:
    argv = [entry["action"], "--format", entry["format"]]
    for field_ in ("word", "text", "claim"):
        if entry.get(field_) is not None:
            argv += [f"--{field_}", entry[field_]]
    for name, value in entry["params"].items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):
            argv += [flag] if value else []
        elif isinstance(value, list):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, "none" if value is None else str(value)]
    return argv


PREFIXES = tuple(_ERRORS.values()) + ("usage error",)


def _main_in(work: Path, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main run with work as the current directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fuzzed_runs())
# a stage whose holes no prefix reaches is refused before any stage is built
@example(({"action": "generate", "format": "text", "word": "toeplitz:n=2;stage=1000000000",
           "params": {"n": 9}}, False))
def test_a_fuzzed_run_exits_with_a_code_and_writes_only_into_its_out_dir(run):
    entry, batch = run
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        (work / "out").mkdir(parents=True)
        if batch:
            (work / "batch.json").write_text(json.dumps({"runs": [entry]}), encoding="utf-8")
            argv = ["batch", "--config", "batch.json", "--out-dir", "out"]
        else:
            argv = [*_flags(entry), "--out", str(work / "out" / "artifact")]
        code, _, err = _main_in(work, argv)
        assert sorted(os.listdir(tmp)) == ["work"]
        assert set(os.listdir(work)) <= {"out", "batch.json"}
        written = sorted(os.listdir(work / "out"))
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err
    if batch:
        assert written in (["summary.json"], ["000-" + entry["action"] + "." + cli._EXT[
            entry["format"]], "summary.json"]), written
    else:
        assert written in ([], ["artifact"]), written
        if code == 1:
            assert err.startswith(tuple(p + ": " for p in PREFIXES)), (argv, err)


# a batch file: any JSON value at the top, or a runs list of 0-4 entries, some
# of them runs whose every value fits its parameter, so that artifacts get written
BATCH_FILES = JSON_VALUES | st.lists(
    CONFIG_ENTRIES | fuzzed_runs().map(lambda run: run[0]), max_size=4).map(
    lambda runs: {"runs": runs})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(BATCH_FILES)
def test_a_fuzzed_batch_file_exits_with_a_code_and_writes_one_row_per_run(data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        (work / "batch.json").write_text(json.dumps(data), encoding="utf-8")
        code, _, err = _main_in(work, ["batch", "--config", "batch.json", "--out-dir", "out"])
        assert sorted(os.listdir(tmp)) == ["work"]
        assert set(os.listdir(work)) <= {"out", "batch.json"}
        out = work / "out"
        written = set(os.listdir(out)) if out.exists() else set()
        summary = json.loads((out / "summary.json").read_text()) if written else None
    assert code in (0, 1, 2, 3), (data, code)
    assert "Traceback" not in err
    if isinstance(data, dict) and isinstance(data.get("runs"), list):
        rows = summary["runs"]
        assert [row["index"] for row in rows] == list(range(len(data["runs"])))
        assert written == {"summary.json"} | {row["out"] for row in rows if row["out"]}
    else:
        assert code == 1 and not written and err.startswith("parameter error: "), (data, err)


def test_batch_runs_of_the_wrong_type_is_a_parameter_error(tmp_path, capsys):
    # the message names the field and what it takes, as for a run's fields
    cfg = tmp_path / "batch.json"
    for runs in (5, "abc", {"action": "generate"}, True):
        cfg.write_text(json.dumps({"runs": runs}), encoding="utf-8")
        message = f"field 'runs' takes list, got {runs!r}"
        with pytest.raises(TypeError) as info:
            run_batch(str(cfg), str(tmp_path / "o"))
        assert str(info.value) == message
        assert main(["batch", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"parameter error: {message}\n"
        assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("data", [[], [{"action": "generate"}], 3, "runs", None])
def test_batch_top_level_that_is_not_an_object_is_a_parameter_error(data, tmp_path, capsys):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(TypeError, match="a batch file holds an object with a 'runs' list"):
        run_batch(str(cfg), str(tmp_path / "o"))
    assert main(["batch", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(
        "parameter error: a batch file holds an object with a 'runs' list, got ")
    assert not (tmp_path / "o").exists()


def _batch_both_ways(tmp_path, runs):
    # the batch through run_batch and through cli.main, each into an out dir
    # of its own; both must give the same (exit code, summary rows, files),
    # and neither may write beside its out dir
    cfg = tmp_path / "batch.json"
    _write_batch(cfg, runs)
    results = []
    for name in ("direct", "main"):
        out_dir = tmp_path / name / "out"
        if name == "direct":
            code = run_batch(str(cfg), str(out_dir))
        else:
            code = main(["batch", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert os.listdir(tmp_path / name) == ["out"]
        rows = json.loads((out_dir / "summary.json").read_text())["runs"]
        results.append((code, rows, sorted(os.listdir(out_dir))))
    assert results[0] == results[1]
    return results[0]


def _fib(n, **fields):
    return {"action": "generate", "word": "fibonacci", "params": {"n": n}, **fields}


@pytest.mark.parametrize("out", [
    "../escape.txt", "sub/x.txt", "{tmp}/abs.txt", "a\\b.txt", ".", "..", "summary.json",
])
def test_batch_out_must_be_a_plain_file_name(out, tmp_path):
    out = out.format(tmp=tmp_path)
    code, rows, files = _batch_both_ways(tmp_path, [_fib(8, out=out), _fib(5)])
    assert code == 1
    assert [r["status"] for r in rows] == ["error", "ok"]
    assert rows[0]["error"].startswith(f"ValueError: out {out!r} must be a plain file name")
    assert rows[0]["out"] is None
    assert files == ["001-generate.txt", "summary.json"]
    assert sorted(os.listdir(tmp_path)) == ["batch.json", "direct", "main"]


def test_batch_runs_that_share_an_out_write_nothing(tmp_path):
    code, rows, files = _batch_both_ways(
        tmp_path, [_fib(8, out="fib.txt"), _fib(5), _fib(13, out="fib.txt")])
    assert code == 1
    assert [r["status"] for r in rows] == ["error", "ok", "error"]
    for r in (rows[0], rows[2]):
        assert r["error"] == "ValueError: out 'fib.txt' names the artifact of another run"
    assert files == ["001-generate.txt", "summary.json"]


def test_batch_out_may_not_take_a_generated_name(tmp_path):
    # run 1 writes 001-generate.txt itself; run 0 may not claim that name
    code, rows, files = _batch_both_ways(
        tmp_path, [_fib(8, out="001-generate.txt"), _fib(5), _fib(3, out="002-generate.txt")])
    assert code == 1
    assert [r["status"] for r in rows] == ["error", "ok", "ok"]
    assert rows[0]["error"] == (
        "ValueError: out '001-generate.txt' names the artifact of another run")
    assert [r["out"] for r in rows] == [None, "001-generate.txt", "002-generate.txt"]
    assert files == ["001-generate.txt", "002-generate.txt", "summary.json"]
    assert (tmp_path / "direct" / "out" / "001-generate.txt").read_text().endswith("abaab\n")


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


def test_out_file_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # the umask is process-wide: setting it, even briefly, changes the mode
    # of files other threads create meanwhile
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    target = tmp_path / "profile.txt"
    assert main(["profile", "--text", "abaab", "--out", str(target)]) == 0
    assert list(tmp_path.iterdir()) == [target]


def test_failed_out_write_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["profile", "--text", "abaab", "--out", str(tmp_path / "profile.txt")]) == 1
    assert capsys.readouterr().err.startswith("output error:")
    assert list(tmp_path.iterdir()) == []
