"""One test cluster per claim checker: happy paths, downgrade paths, and the
fail payloads that make counterexamples replayable."""

import ast
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from periwords import checks, kernels, periods
from periwords.checks import (
    DEFAULT_SEED,
    FAIL,
    INCONCLUSIVE,
    PASS,
    WINDOWED,
    build_gain_pair,
    check_block_closure,
    check_critical_exhaustive,
    check_dyadic_gain,
    check_factor_bound,
    check_letter_formula,
    check_lexmin_return_words,
    check_occurrence_rigidity,
    check_oracle_equivalence,
    check_peak_average,
    check_peak_periods,
    check_peak_witness,
    check_return_gain,
    check_return_time_bound,
    check_superadditivity,
    check_toeplitz_stages,
    divergence_report,
    return_gain_step,
)
from periwords.errors import InsufficientWindowError
from periwords.factorize import ReturnFactorization, return_factorization
from periwords.periods import period, profile
from periwords.words import (
    HolubParams,
    PeriodicSource,
    WordSource,
    fibonacci_source,
    holub_letter,
    holub_word,
    parse_descriptor,
    thue_morse_source,
)

P22 = HolubParams((2, 2))
FIB = fibonacci_source()
TM = thue_morse_source()


# ---------------------------------------------------------------------------
# anchor peaks


def test_peak_periods_pass():
    rep = check_peak_periods(P22, depth=3)
    assert rep.status == PASS and rep.instances == 3
    assert rep.claim == "big"
    assert [d["expected"] for d in rep.details] == [3, 12, 48]
    assert rep.details[0]["witness"] == "bba"
    assert all(d["sharp"] for d in rep.details)


def test_peak_periods_user_cap_below_prediction_is_inconclusive():
    rep = check_peak_periods(P22, depth=2, cap=2)
    assert rep.status == INCONCLUSIVE
    assert rep.counterexample is None
    assert "cap 2 < predicted 3" in rep.notes


def test_peak_periods_generous_user_cap_still_passes():
    rep = check_peak_periods(P22, depth=2, cap=100)
    assert rep.status == PASS


def test_peak_witness_pass():
    rep = check_peak_witness(HolubParams((2, 3, 4)), depth=3)
    assert rep.status == PASS and rep.instances == 3
    assert rep.details[0]["witness"] == "bba"


def _planted_scan(monkeypatch, plant):
    # every anchor scan goes through plant(the real scan's result)
    real = checks.local_period_infinite
    monkeypatch.setattr(checks, "local_period_infinite",
                        lambda source, i, cap: plant(real(source, i, cap)))


def _all_b(got):
    # a wrong witness of the right length wherever the scan found one
    return got if isinstance(got, periods.CapExceeded) else periods.RepetitionWitness(
        got.length, got.case, "b" * got.length)


def test_peak_periods_reports_a_planted_cap_hit(monkeypatch):
    _planted_scan(monkeypatch, lambda got: periods.CapExceeded(13))
    rep = check_peak_periods(P22, depth=2)
    assert rep.status == FAIL and rep.instances == 2
    assert rep.counterexample == {
        "op": "local_period_infinite", "word": "holub:n=2,2;tail=repeat", "position": 1,
        "cap": 4, "expected": 3, "actual": "> 4",
    }
    assert rep.details == [
        {"j": 1, "position": 1, "expected": 3, "cap": 4, "outcome": "local period exceeds 4"},
        {"j": 2, "position": 5, "expected": 12, "cap": 13, "outcome": "local period exceeds 13"},
    ]


def test_peak_periods_reports_a_planted_wrong_witness(monkeypatch):
    _planted_scan(monkeypatch, _all_b)
    rep = check_peak_periods(P22, depth=2)
    assert rep.status == FAIL and rep.instances == 2
    assert rep.counterexample == {
        "op": "local_period_infinite", "word": "holub:n=2,2;tail=repeat", "position": 1,
        "cap": 4, "expected": 3, "actual": 3, "expected_witness": "bba", "actual_witness": "bbb",
    }
    assert rep.details == [
        {"j": 1, "position": 1, "expected": 3, "cap": 4, "actual": 3, "witness": "bbb",
         "witness_expected": "bba", "sharp": True, "outcome": "mismatch"},
        {"j": 2, "position": 5, "expected": 12, "cap": 13, "actual": 12, "witness": "b" * 12,
         "witness_expected": "bbbabbbabbaa", "sharp": True, "outcome": "mismatch"},
    ]


@pytest.mark.parametrize("plant, actual", [
    (lambda got: periods.CapExceeded(13), "cap-exceeded"),
    (_all_b, "bbb"),
], ids=["cap-hit", "wrong-witness"])
def test_peak_witness_reports_a_planted_scan_failure(plant, actual, monkeypatch):
    _planted_scan(monkeypatch, plant)
    rep = check_peak_witness(P22, depth=2)
    assert rep.status == FAIL and rep.instances == 2
    assert rep.counterexample == {
        "op": "local_period_infinite", "word": "holub:n=2,2;tail=repeat", "position": 1,
        "cap": 4, "expected_witness": "bba", "actual": actual,
    }
    assert rep.details == [
        {"j": 1, "position": 1, "length": 3, "witness": "bba", "outcome": "mismatch"},
        {"j": 2, "position": 5, "length": 12, "witness": "bbbabbbabbaa", "outcome": "mismatch"},
    ]


def test_peak_witness_stops_at_a_witness_it_cannot_build(monkeypatch):
    real = checks.predicted_witness

    def witness(params, j):
        if j == 2:
            raise ValueError("planted")
        return real(params, j)

    monkeypatch.setattr(checks, "predicted_witness", witness)
    rep = check_peak_witness(P22, depth=3)
    assert rep.status == FAIL and rep.instances == 2
    assert rep.counterexample == {"op": "predicted_witness", "j": 2, "error": "planted"}
    assert rep.details == [{"j": 1, "position": 1, "length": 3, "witness": "bba", "outcome": "ok"}]


def test_peak_average_reports_the_level_one_equality():
    # h at the first anchor coincides with peak/position, so strictness fails
    # there and holds from level 2 on; the checker must say exactly that
    rep = check_peak_average(P22, depth=3)
    assert rep.status == FAIL
    assert rep.counterexample["position"] == 1
    assert rep.counterexample["h"] == rep.counterexample["bound"] == "3/1"
    strict = {d["j"]: d["strict"] for d in rep.details}
    assert strict == {1: False, 2: True, 3: True}


# ---------------------------------------------------------------------------
# structural claims of the construction


def test_block_closure_decodes():
    rep = check_block_closure(P22, depth=3)
    assert rep.status == PASS and rep.instances == 6
    for row in rep.details:
        assert row["decode"] == "a" + "b" * P22.n(row["i"]) + row["last"]


def test_block_closure_reports_a_short_last_chunk(monkeypatch):
    # u_2 one letter short: every full chunk is a block, the short last one is not
    real = checks.holub_u
    monkeypatch.setattr(checks, "holub_u",
                        lambda params, j: real(params, j)[:-1] if j == 2 else real(params, j))
    rep = check_block_closure(P22, depth=2)
    assert rep.status == FAIL and rep.instances == 4
    assert rep.counterexample == {
        "op": "check_block_closure", "i": 2, "word": "abbaabbbabbbaba", "offset": 12, "chunk": "aba",
        "expected_blocks": ["abba", "abbb"],
    }
    assert [(row["i"], row["last"]) for row in rep.details] == [(1, "a"), (1, "b")]


def test_occurrence_rigidity_windowed():
    rep = check_occurrence_rigidity(P22, depth=3, horizon=3_000)
    assert rep.status == WINDOWED
    assert all(row["violations"] == 0 for row in rep.details)
    assert rep.instances > 100  # plenty of occurrences actually checked


def test_letter_formula():
    rep = check_letter_formula(P22, n=2_000)
    assert rep.status == PASS and rep.instances == 2_000


class _FlippedHolub(WordSource):
    """The recursion's word with the letters at the given positions flipped."""

    def __init__(self, params, positions):
        super().__init__(f"holub:{params.descriptor_body()}")
        self.real = holub_word(params)
        self.positions = positions

    def _generate(self, n):
        out = list(self.real.prefix(n))
        for i in self.positions:
            if i <= n:
                out[i - 1] = "ab"[out[i - 1] == "a"]
        return "".join(out)


@pytest.mark.parametrize("positions", [(777,), (2_000,), (1_500, 40)])
def test_letter_formula_reports_a_planted_recursion_error(monkeypatch, positions):
    monkeypatch.setattr(checks, "holub_word", lambda params: _FlippedHolub(params, positions))
    n = 2_000
    rep = check_letter_formula(P22, n=n)
    # the counterexample the letter-by-letter scalar rule finds first
    recursion = _FlippedHolub(P22, positions).prefix(n)
    i = next(i for i in range(1, n + 1) if holub_letter(P22, i) != recursion[i - 1])
    assert i == min(positions)
    assert rep.status == FAIL and rep.instances == n
    assert rep.counterexample == {
        "op": "holub_letter",
        "word": "holub:n=2,2;tail=repeat",
        "position": i,
        "expected": recursion[i - 1],
        "actual": holub_letter(P22, i),
    }


def test_toeplitz_stages_auto_and_explicit():
    rep = check_toeplitz_stages(P22, n=2_000)
    assert rep.status == PASS and rep.params["stage"] == 6  # 4^6-1 >= 2000
    rep = check_toeplitz_stages(P22, n=2_000, stage=2)
    assert rep.status == PASS and rep.instances == 15  # span clamps to 4^2-1


def test_return_time_bound():
    rep = check_return_time_bound(P22, depth=2)
    assert rep.status == WINDOWED
    for row in rep.details:
        assert row["max_gap_seen"] <= row["bound"]
    with pytest.raises(InsufficientWindowError):
        check_return_time_bound(P22, depth=2, horizon=20)


def test_return_time_bound_factor_len_cut():
    full = check_return_time_bound(P22, depth=1)
    cut = check_return_time_bound(P22, depth=1, max_factor_len=1)
    assert cut.instances < full.instances
    assert cut.status == WINDOWED


# ---------------------------------------------------------------------------
# minimal chain claims


def test_lexmin_return_words_fibonacci():
    rep = check_lexmin_return_words(FIB, depth=2)
    assert rep.status == WINDOWED
    assert [d["alpha"] for d in rep.details] == ["a", "aab"]
    assert all(d["lyndon_violations"] == 0 for d in rep.details)


def test_lexmin_return_words_thue_morse():
    rep = check_lexmin_return_words(TM, depth=2, repetition_bound=2)
    assert rep.status == WINDOWED


def test_return_gain_auto_level():
    rep = check_return_gain(FIB, horizon=20_000)
    assert rep.status == WINDOWED
    assert rep.params["kprime"] == 3  # first level with mu > 2*m_1 = 10
    assert "holds" in rep.notes
    for row in rep.details:
        assert row["sum_lp"] >= row["sum_bound"]
        assert Fraction(*map(int, row["gain"].split("/"))) >= Fraction(1, 2)


def test_return_gain_low_level_is_inconclusive():
    rep = check_return_gain(FIB, k=1, kprime=2, horizon=20_000)
    assert rep.status == INCONCLUSIVE
    assert "pick a higher level" in rep.notes


def test_gain_pair_respects_depth_limit():
    with pytest.raises(InsufficientWindowError):
        build_gain_pair(FIB, 1, 20_000, max_depth=2)


def test_a_given_kprime_is_the_only_level_tried():
    # level 2 is too short for the half-gain step over level 1, and is
    # still the level returned; level 3 is the one the search finds
    lo, hi, kp = build_gain_pair(FIB, 1, 20_000, kprime=2)
    assert kp == 2 and hi.z == "aab" * 2 and lo.z == "aa"
    assert hi.min_return_length <= 2 * lo.max_return_time
    assert build_gain_pair(FIB, 1, 20_000)[2] == 3
    with pytest.raises(ValueError, match="depth must be >= 1"):
        check_return_gain(FIB, kprime=0)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        build_gain_pair(FIB, 1, 20_000, kprime=0)


def test_gain_step_degenerate_single_constituent():
    # lo == hi: every block is its own only constituent, the exact chain is
    # trivially tight and only the +1/2 corollary is out of reach
    fact = return_factorization(FIB, "aa", 2_000, exponent=2, assert_block_prefix=True)
    rep = return_gain_step(fact, fact, window=4)
    assert rep.status == INCONCLUSIVE
    assert rep.counterexample is None
    for row in rep.details:
        assert row["constituents"] == 1 and row["gain"] == "0/1"


def test_gain_step_rejects_non_refining_boundaries():
    lo = ReturnFactorization("ab", "", ["ab", "ab", "ab"], 6)
    hi = ReturnFactorization("aba", "", ["aba", "bab"], 6)
    rep = return_gain_step(lo, hi, window=1)
    assert rep.status == FAIL
    assert "do not refine" in rep.counterexample["error"]


def test_gain_step_stops_at_a_block_its_constituents_do_not_spell():
    # block 1 holds, block 2 is not spelled by its constituents; the length
    # condition fails, but the report ends at the misfit without the +1/2 note
    lo = ReturnFactorization("ab", "", ["ab", "b", "ab", "b"], 6)
    hi = ReturnFactorization("abb", "", ["abb", "aba"], 6)
    rep = return_gain_step(lo, hi, window=2)
    assert rep.status == FAIL and rep.instances == 2
    assert rep.counterexample == {
        "op": "return_gain_step", "j": 2, "block": "aba",
        "error": "high-level block boundaries do not refine low-level ones",
        "z_lo": "ab", "z_hi": "abb",
    }
    assert rep.notes == "windowed m_lo=2, mu_hi=3; length condition FAILS in this window"
    assert [row["j"] for row in rep.details] == [1]


def test_gain_step_rejects_bordered_block():
    lo = ReturnFactorization("a", "", ["a", "b", "a"], 3)
    hi = ReturnFactorization("aba", "", ["aba"], 3)
    rep = return_gain_step(lo, hi, window=1)
    assert rep.status == FAIL
    assert rep.counterexample["unbordered"] is False


def test_gain_step_window_demand():
    fact = return_factorization(FIB, "aa", 200, exponent=2)
    with pytest.raises(InsufficientWindowError):
        return_gain_step(fact, fact, window=10_000)


# ---------------------------------------------------------------------------
# dyadic claims


def test_dyadic_gain_certified():
    rep = check_dyadic_gain(TM, k=1, kprime=4, repetition_bound=2)
    assert rep.status == WINDOWED
    assert "certified" in rep.notes
    for row in rep.details:
        assert "outcome" not in row
        assert row["period"] * 2 >= 16 and row["period"] >= 4


def test_dyadic_gain_small_gap_is_inconclusive():
    rep = check_dyadic_gain(TM, k=1, kprime=2, repetition_bound=2)
    assert rep.status == INCONCLUSIVE
    assert "level gap too small" in rep.notes


def test_dyadic_gain_estimated_exponent_downgrades():
    # the periodic word has no uniform power bound; the windowed estimate
    # blows up and the guard refuses to conclude anything
    rep = check_dyadic_gain(PeriodicSource("ab"), k=1, kprime=4)
    assert rep.status == INCONCLUSIVE


def test_dyadic_gain_false_certificate_fails_and_replays():
    rep = check_dyadic_gain(PeriodicSource("ab"), k=1, kprime=4, repetition_bound=2)
    assert rep.status == FAIL
    ce = rep.counterexample
    assert ce["op"] == "check_dyadic_gain" and ce["certified"]
    # replay the cited violation from the payload alone
    src = parse_descriptor(ce["word"])
    block = ce["block"]
    assert block in src.prefix(2 ** 4 * (10 + 2))
    assert period(block) == ce["period"]
    assert ce["period"] * ce["e"] < 2 ** 4  # the vouched bound is refuted


# ---------------------------------------------------------------------------
# randomized inequality trials


def test_factor_bound_trials():
    rep = check_factor_bound(trials=400, seed=DEFAULT_SEED)
    assert rep.status == PASS and rep.instances == 400


def test_superadditivity_trials():
    rep = check_superadditivity(trials=400, seed=DEFAULT_SEED)
    assert rep.status == PASS and rep.instances == 400


def test_trials_are_seed_deterministic():
    a = check_factor_bound(trials=50, seed=7).to_json()
    b = check_factor_bound(trials=50, seed=7).to_json()
    assert a == b


# the per-trial loops the batched trial checkers replaced, over the same
# draws: the letters and the 32-bit draws of each block are read back from
# the same random.Random(seed) calls with int shifts alone, and each trial is
# scored as soon as it is decoded


def _decoded_draws(trials, maxlen, seed, count):
    rng = random.Random(seed)
    block = max(1, min(checks.TRIAL_BLOCK, checks.TRIAL_LETTERS // maxlen))
    for start in range(0, trials, block):
        rows = min(block, trials - start)
        letters = rng.getrandbits(rows * maxlen)
        draws = rng.getrandbits(32 * count * rows)
        for r in range(rows):
            word = letters >> (r * maxlen)
            yield word, [draws >> (32 * (r * count + j)) & 0xFFFFFFFF for j in range(count)]


def _below(u, m):
    return u * m >> 32


def _spelled(word, n):
    return "".join("ab"[word >> t & 1] for t in range(n))


def _factor_bound_trials(trials, maxlen, seed):
    for word, (un, ua, ub) in _decoded_draws(trials, maxlen, seed, 3):
        n = 3 + _below(un, maxlen - 2)
        w = _spelled(word, n)
        a = _below(ua, n)
        b = a + 1 + _below(ub, n - a)
        yield w, a, w[a:b]


def _superadditivity_trials(trials, maxlen, seed):
    for word, (un, uc) in _decoded_draws(trials, maxlen, seed, 2):
        n = 2 + _below(un, maxlen - 1)
        yield _spelled(word, n), 1 + _below(uc, n - 1)


def _loop_factor_bound(trials, maxlen, seed, lps):
    instances = 0
    for w, a, v in _factor_bound_trials(trials, maxlen, seed):
        pw, pv = lps(w), lps(v)
        instances += 1
        for i in range(1, len(v) + 1):
            if pv[i - 1] > pw[a + i - 1]:
                return instances, {
                    "op": "local_period", "word": w, "factor": v, "offset": a, "i": i,
                    "factor_lp": int(pv[i - 1]), "word_lp": int(pw[a + i - 1]),
                }
    return instances, None


def _loop_superadditivity(trials, maxlen, seed, lps):
    instances = 0
    for w, c in _superadditivity_trials(trials, maxlen, seed):
        s_w, s_u, s_v = (int(lps(x).sum()) for x in (w, w[:c], w[c:]))
        instances += 1
        if s_w < s_u + s_v:
            return instances, {
                "op": "local_period_sum", "word": w, "split": c,
                "whole": s_w, "left": s_u, "right": s_v,
            }
    return instances, None


_TRIAL_CHECKERS = {
    "factor-bound": (check_factor_bound, _factor_bound_trials, _loop_factor_bound),
    "superadditivity": (check_superadditivity, _superadditivity_trials, _loop_superadditivity),
}


@pytest.mark.parametrize("claim", sorted(_TRIAL_CHECKERS))
@pytest.mark.parametrize("block,trials,at", [
    (checks.TRIAL_BLOCK, 3000, 1234),  # inside the one block of the run
    (100, 1000, 537),  # in the sixth block of 100
], ids=["first-block", "later-block"])
def test_trial_checker_reports_a_planted_failure_like_the_loop(claim, block, trials, at, monkeypatch):
    checker, draws, loop = _TRIAL_CHECKERS[claim]
    seed, maxlen = 5, 14
    monkeypatch.setattr(checks, "TRIAL_BLOCK", block)
    words = [t[0] for t in draws(trials, maxlen, seed)]
    # the first trial from `at` on whose word is new: zeroing that word's
    # local periods makes this trial the first to fail in either claim
    t = next(k for k in range(at, trials) if words[k] not in words[:k])
    target = words[t]
    letters = np.array(["ab".index(x) for x in target], np.uint8)
    real = kernels.active.local_period_matrix

    def planted(rows):
        out = real(rows)
        if rows.shape[1] == letters.size:
            out[(rows == letters).all(1)] = 0
        return out

    def lps(x):
        row = periods.local_periods(x)
        return np.zeros_like(row) if x == target else row

    monkeypatch.setattr(kernels.active, "local_period_matrix", planted)
    rep = checker(trials=trials, maxlen=maxlen, seed=seed)
    instances, counterexample = loop(trials, maxlen, seed, lps)
    assert instances == t + 1
    assert rep.status == FAIL
    assert (rep.instances, rep.counterexample) == (instances, counterexample)
    assert counterexample["word"] == target


@pytest.mark.parametrize("claim", sorted(_TRIAL_CHECKERS))
def test_trial_checker_reports_the_first_of_many_planted_failures(claim, monkeypatch):
    # zeroing the local periods of every 5-letter word fails many trials of
    # the one block; the report names the first in draw order
    checker, _, loop = _TRIAL_CHECKERS[claim]
    real = kernels.active.local_period_matrix

    def lps(x):
        return periods.local_periods(x) * (len(x) != 5)

    monkeypatch.setattr(kernels.active, "local_period_matrix", lambda rows: real(rows) * (rows.shape[1] != 5))
    rep = checker(trials=3000, maxlen=14, seed=5)
    instances, counterexample = loop(3000, 14, 5, lps)
    assert counterexample is not None and instances < 100
    assert (rep.instances, rep.counterexample) == (instances, counterexample)


@pytest.mark.parametrize("claim", sorted(_TRIAL_CHECKERS))
@pytest.mark.parametrize("block", [checks.TRIAL_BLOCK, 64], ids=["one-block", "blocks-of-64"])
def test_trial_checker_passes_like_the_loop(claim, block, monkeypatch):
    checker, _, loop = _TRIAL_CHECKERS[claim]
    monkeypatch.setattr(checks, "TRIAL_BLOCK", block)
    rep = checker(trials=500, maxlen=14, seed=5)
    assert (rep.status, rep.instances) == (PASS, 500)
    assert loop(500, 14, 5, periods.local_periods) == (500, None)


def test_trial_draws_cover_every_factor_and_split_and_decode_alike():
    # at maxlen 5, 3000 trials draw every (n, a, b) with 0 <= a < b <= n and
    # every (n, c) with 1 <= c < n, and nothing else; the pure-int decoding
    # of the same draws spells the same trials
    letters, n, a, b = checks._factor_bound_draws(random.Random(11), 3000, 5)
    drawn = list(zip(n.tolist(), a.tolist(), b.tolist()))
    assert set(drawn) == {(n, a, b) for n in range(3, 6) for a in range(n) for b in range(a + 1, n + 1)}
    words = [checks._spell(row[:k]) for row, (k, _, _) in zip(letters, drawn)]
    assert list(_factor_bound_trials(3000, 5, 11)) == [
        (w, a, w[a:b]) for w, (_, a, b) in zip(words, drawn)]
    letters, n, c = checks._superadditivity_draws(random.Random(11), 3000, 5)
    drawn = list(zip(n.tolist(), c.tolist()))
    assert set(drawn) == {(n, c) for n in range(2, 6) for c in range(1, n)}
    assert list(_superadditivity_trials(3000, 5, 11)) == [
        (checks._spell(row[:k]), c) for row, (k, c) in zip(letters, drawn)]


@pytest.mark.parametrize("checker,maxlen", [
    (check_factor_bound, 3), (check_factor_bound, 40),
    (check_superadditivity, 2), (check_superadditivity, 40),
], ids=["factor-bound-3", "factor-bound-40", "superadditivity-2", "superadditivity-40"])
def test_trial_checker_passes_at_either_end_of_maxlen(checker, maxlen):
    rep = checker(trials=2000, maxlen=maxlen, seed=3)
    assert (rep.status, rep.instances) == (PASS, 2000)


def test_a_long_maxlen_draws_smaller_blocks(monkeypatch):
    sizes = []
    real = checks.random_binary_words

    def spy(rng, rows, n, draws):
        sizes.append(rows * n)
        return real(rng, rows, n, draws)

    monkeypatch.setattr(checks, "TRIAL_LETTERS", 400)
    monkeypatch.setattr(checks, "random_binary_words", spy)
    rep = check_superadditivity(trials=95, maxlen=40, seed=3)
    assert (rep.status, rep.instances) == (PASS, 95)
    assert sizes == [400] * 9 + [200]


@pytest.mark.parametrize("checker", [check_factor_bound, check_superadditivity],
                         ids=["factor-bound", "superadditivity"])
def test_trial_checker_memory_peak_stays_under_2_mb(checker):
    checker(trials=10)
    tracemalloc.start()
    try:
        checker(trials=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# exhaustive sweeps


def test_critical_exhaustive_small():
    rep = check_critical_exhaustive(maxlen=9)
    assert rep.status == PASS and rep.instances == 2 ** 10 - 2


def test_oracle_equivalence_small():
    rep = check_oracle_equivalence(maxlen=8)
    assert rep.status == PASS
    assert rep.instances == sum(n * 2 ** n for n in range(1, 9))


def test_one_letter_sweeps():
    # a^n has period 1 and local period 1 at every position
    rep = check_oracle_equivalence(alphabet_size=1, maxlen=12)
    assert rep.status == PASS and rep.instances == sum(range(1, 13)) == 78
    rep = check_critical_exhaustive(alphabet_size=1, maxlen=12)
    assert rep.status == PASS and rep.instances == 12


@pytest.mark.parametrize("nletters,maxlen", [(2, 6), (3, 4)])
def test_decode_word_follows_the_sweep_letter_matrix(nletters, maxlen):
    # a sweep's (bad_n, bad_code) must decode to the word the sweep tested
    letters = "abc"[:nletters]
    table = kernels.python_kernels()
    for n in range(1, maxlen + 1):
        for code, row in enumerate(table.word_matrix(n, nletters)):
            assert checks._decode_word(n, code, letters) == "".join(letters[x] for x in row)


def test_sweep_guards():
    with pytest.raises(ValueError):
        check_critical_exhaustive(maxlen=13)
    with pytest.raises(ValueError):
        check_oracle_equivalence(alphabet_size=4)


# ---------------------------------------------------------------------------
# divergence trends


def test_divergence_nondecreasing_window():
    rep = divergence_report(FIB, [16, 32, 64, 128, 256])
    assert rep.status == WINDOWED
    assert "not evidence" in rep.notes
    assert [r["i"] for r in rep.details] == [16, 32, 64, 128, 256]


def test_divergence_detects_decrease():
    # the staged word's average oscillates below its anchors, so the trend
    # claim is genuinely false there
    rep = divergence_report(holub_word(P22), [64, 128, 256, 512])
    assert rep.status == FAIL
    assert rep.counterexample["op"] == "profile"
    # replay
    prof = profile(holub_word(P22), n=512)
    i1, i2 = rep.counterexample["from"], rep.counterexample["to"]
    assert prof.h_at(i2) < prof.h_at(i1)


def test_divergence_trend_from_excludes_early_noise():
    rep = divergence_report(holub_word(P22), [64, 128, 256, 512], trend_from=512)
    assert rep.status == WINDOWED  # only one point left in the trend


def test_divergence_capped_checkpoints_are_inconclusive():
    rep = divergence_report(holub_word(P22), [16, 64], cap=2)
    assert rep.status == INCONCLUSIVE
    assert any(r["capped"] for r in rep.details)


def test_divergence_needs_checkpoints():
    with pytest.raises(ValueError):
        divergence_report(FIB, [])


@pytest.mark.parametrize("checkpoints, least", [([0], 0), ([16, -3, 0], -3)])
def test_divergence_refuses_checkpoints_below_one_before_profiling(checkpoints, least, monkeypatch):
    def no_profile(*args, **kwargs):
        raise AssertionError("profiled")

    monkeypatch.setattr(checks, "profile", no_profile)
    with pytest.raises(ValueError, match=f"^checkpoints must be >= 1, got {least}$"):
        divergence_report(FIB, checkpoints)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_serialization_keys():
    rep = check_letter_formula(P22, n=50)
    data = rep.to_json()
    assert set(data) == {
        "claim", "params", "instances", "status", "counterexample", "notes", "details",
    }
    assert data["status"] == "pass" and data["counterexample"] is None


def test_fail_reports_always_carry_payload():
    failing = [
        return_gain_step(
            ReturnFactorization("ab", "", ["ab", "ab"], 4),
            ReturnFactorization("aba", "", ["aba"], 4),
            window=1,
        ),
        check_dyadic_gain(PeriodicSource("ab"), k=1, kprime=4, repetition_bound=2),
        check_peak_average(P22, depth=1),
        # the anchor-1 counterexample, then a cap hit at anchors 2 and 3
        check_peak_average(P22, depth=3, cap=3),
    ]
    for rep in failing:
        assert rep.status == FAIL
        assert rep.counterexample and "op" in rep.counterexample
    # and conversely: a report that carries a counterexample has failed
    others = [
        check_letter_formula(P22, n=50),
        check_occurrence_rigidity(P22, depth=2, horizon=500),
        check_dyadic_gain(TM, k=1, kprime=2, repetition_bound=2),
        check_peak_periods(P22, depth=2, cap=3),
    ]
    for rep in failing + others:
        assert (rep.counterexample is not None) == (rep.status == FAIL), rep.claim


@pytest.mark.parametrize("call", [
    lambda: check_factor_bound(trials=0),
    lambda: check_occurrence_rigidity(P22, depth=0),
    lambda: check_letter_formula(P22, n=0),
], ids=["factor-bound", "occurrence-rigidity", "letter-formula"])
def test_a_direct_call_that_checked_no_instance_is_inconclusive(call):
    rep = call()
    assert rep.status == INCONCLUSIVE and rep.instances == 0
    assert rep.notes == "no instance was checked"


def test_report_keeps_its_first_counterexample_and_every_note():
    rep = checks.VerificationReport("x", {}, 0, WINDOWED)
    rep.undecided("cap too small")
    rep.fail({"op": "first"})
    rep.fail({"op": "second"})
    rep.undecided("window too short")
    assert rep.status == FAIL and rep.counterexample == {"op": "first"}
    assert rep.notes == "cap too small; window too short"


def test_occurrence_rigidity_reports_its_first_misaligned_level(monkeypatch):
    # offset 1 is misaligned at every level: modulus 4 at level 1, 16 at level 2
    monkeypatch.setattr(checks, "occurrences", lambda u, source, horizon: [0, 1])
    rep = check_occurrence_rigidity(P22, depth=2, horizon=100)
    assert rep.status == FAIL
    assert rep.counterexample["factor_level"] == 1 and rep.counterexample["offset"] == 1
    assert [row["violations"] for row in rep.details] == [1, 1]


def test_only_the_report_sets_its_own_outcome():
    # VerificationReport.fail and .undecided are the only writers of a report's
    # status and counterexample; constructor arguments are not assignments
    owned = {"status", "counterexample"}
    offenders = []
    for path in sorted(Path(checks.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "VerificationReport"
                  for node in ast.walk(cls)}
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr in owned and id(node) not in inside
        ]
    assert offenders == []
