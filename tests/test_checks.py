"""One test cluster per claim checker: happy paths, downgrade paths, and the
fail payloads that make counterexamples replayable."""

import ast
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from periwords.factorize import ReturnFactorization, occurrences, return_factorization
from periwords.periods import period, profile
from periwords.words import (
    MAX_PREFIX,
    Alphabet,
    HolubParams,
    PeriodicSource,
    WordSource,
    anchor_length,
    fibonacci_source,
    holub_letter,
    holub_u,
    holub_word,
    parse_descriptor,
    predicted_peak_period,
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


@pytest.mark.parametrize("params", [
    HolubParams((2, 2)), HolubParams((2, 3, 4)), HolubParams((3, 3, 3)), HolubParams((2, 5)),
    HolubParams((2,), "step", 1),
], ids=lambda p: p.descriptor_body())
def test_anchor_levels_match_the_closed_forms(params):
    levels = checks._anchors(params, 8, None)
    assert levels == [(j, anchor_length(params, j), predicted_peak_period(params, j),
                       predicted_peak_period(params, j) + 1) for j in range(1, 9)]
    assert [cap for *_, cap in checks._anchors(params, 8, 7)] == [7] * 8


def _no_scan(*args):
    raise AssertionError("scanned a level of an unreachable depth")


@pytest.mark.parametrize("checker", [check_peak_periods, check_peak_witness],
                         ids=["big", "peak-witness"])
def test_anchor_claims_refuse_an_unreachable_depth_before_scanning(checker, monkeypatch):
    # level 13 of holub:n=2,2 reads d_13 + 3 * 4^12 + 1 letters, past the limit
    monkeypatch.setattr(checks, "local_period_infinite", _no_scan)
    with pytest.raises(ValueError) as exc:
        checker(P22, depth=13)
    assert str(exc.value) == ("depth 13 is out of reach: the scan at level 13 needs 72701270 "
                              f"letters, over the limit of {MAX_PREFIX}")
    assert anchor_length(P22, 13) + predicted_peak_period(P22, 13) + 1 == 72701270


def test_peak_average_refuses_a_deep_level_in_a_short_message(monkeypatch):
    # the first level past the limit is named, not the letters of depth 3000
    monkeypatch.setattr(checks, "profile", _no_scan)
    with pytest.raises(ValueError,
                       match="^depth 3000 is out of reach: the scan at level 13 needs") as exc:
        check_peak_average(P22, depth=3000)
    assert len(str(exc.value)) < 200
    with pytest.raises(ValueError, match="^depth 4 is out of reach: the scan at level 1 needs "
                                         f"{MAX_PREFIX + 1} letters"):
        check_peak_average(P22, depth=4, cap=MAX_PREFIX)


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


def test_letter_formula_quotes_the_formula_letter_it_compared(monkeypatch):
    # a planted fault in the residue rule at position 100: the report quotes
    # the letter the check read, not a second implementation's letter
    real = checks.holub_letters

    def flipped(params, n):
        w = real(params, n)
        return w[:99] + "ab"[w[99] == "a"] + w[100:]

    monkeypatch.setattr(checks, "holub_letters", flipped)
    rep = check_letter_formula(P22, n=500)
    recursion = holub_word(P22).prefix(500)
    assert rep.status == FAIL and rep.instances == 500
    assert rep.counterexample == {
        "op": "holub_letter", "word": "holub:n=2,2;tail=repeat", "position": 100,
        "expected": recursion[99], "actual": "ab"[recursion[99] == "a"],
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


def _loop_return_time_stats(u, source, horizon, cut):
    # the per-factor loop that factor_return_times replaced: one occurrences
    # call per distinct factor z of u with |z| <= cut, giving z's count in the
    # window and its largest gap (0 below two occurrences)
    stats = {}
    for z in {u[a:b] for a in range(len(u)) for b in range(a + 1, min(len(u), a + cut) + 1)}:
        occ = occurrences(z, source, horizon)
        stats[z] = (len(occ), max((y - x for x, y in zip(occ, occ[1:])), default=0))
    return stats


def _named_return_time_stats(u, source, horizon, cut):
    rows = kernels.active.factor_return_times(
        source.alphabet.encode(u), source.ranks(horizon), cut).tolist()
    stats = {u[a:a + L]: (count, gap) for L, a, count, gap in rows}
    assert len(stats) == len(rows)  # one row per distinct factor
    assert all(u.find(u[a:a + L]) == a for L, a, _, _ in rows)  # at its first offset
    return stats


ACCEPTANCE_HOLUB = [HolubParams((2, 2)), HolubParams((2, 3, 4)), HolubParams((3, 3, 3))]


@pytest.mark.parametrize("params", ACCEPTANCE_HOLUB, ids=lambda p: p.descriptor_body())
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_factor_return_times_match_the_loop_on_holub_words(params, depth):
    source = holub_word(params)
    u = holub_u(params, depth)
    default = max(256, 24 * (len(u) + 1))
    for horizon in (3, 5, 8, 12, 14, 40, default):
        assert (_named_return_time_stats(u, source, horizon, len(u))
                == _loop_return_time_stats(u, source, horizon, len(u))), horizon
    for cut in (1, 2, 5):
        assert (_named_return_time_stats(u, source, default, cut)
                == _loop_return_time_stats(u, source, default, min(cut, len(u)))), cut


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text("ab", min_size=1, max_size=12), st.text("ab", min_size=1, max_size=60),
       st.integers(1, 12))
def test_factor_return_times_match_the_loop_on_random_binary_windows(u, window, cut):
    # the window is the whole pattern of a periodic source
    source = PeriodicSource(window)
    cut = min(cut, len(u))
    assert (_named_return_time_stats(u, source, len(window), cut)
            == _loop_return_time_stats(u, source, len(window), cut))


def test_factor_return_times_without_a_factor_to_name():
    rows = kernels.active.factor_return_times(np.zeros(3, np.uint8), np.zeros(5, np.uint8), 0)
    assert rows.shape == (0, 4)


@pytest.mark.parametrize("positions, least", [((40,), "aabbb"), ((150,), "ab")])
def test_return_time_bound_reports_the_least_factor_over_its_bound(monkeypatch, positions, least):
    # a flipped letter stretches some gaps past |u_i| + 1: at level 2 for
    # position 40, at both levels for position 150, where level 1's least
    # factor is the counterexample kept
    monkeypatch.setattr(checks, "holub_word", lambda params: _FlippedHolub(params, positions))
    rep = check_return_time_bound(P22, depth=2)
    source = _FlippedHolub(P22, positions)
    rows = []
    first = None
    for i in (1, 2):
        u = holub_u(P22, i)
        bound = len(u) + 1
        horizon = max(256, 24 * bound)
        stats = _loop_return_time_stats(u, source, horizon, len(u))
        over = sorted(z for z, (_, gap) in stats.items() if gap > bound)
        if over and first is None:
            first = {"op": "occurrences", "word": "holub:n=2,2;tail=repeat", "factor": over[0],
                     "max_gap": stats[over[0]][1], "bound": bound, "horizon": horizon}
        rows.append({"i": i, "factors": len(stats), "bound": bound,
                     "max_gap_seen": max(gap for _, gap in stats.values())})
    assert first["factor"] == least
    assert rep.status == FAIL and rep.counterexample == first
    assert rep.details == rows and rep.instances == sum(row["factors"] for row in rows)


@pytest.mark.parametrize("depth, horizon", [(1, 0), (2, 3), (2, 14), (2, 20), (3, 12), (3, 40)])
def test_return_time_bound_names_the_least_factor_the_window_lacks(depth, horizon):
    # the least factor in sorted order with fewer than two occurrences, at
    # the first level that has one; a window shorter than u_i lacks its
    # longest factors altogether, and the empty window every factor
    for i in range(1, depth + 1):
        u = holub_u(P22, i)
        stats = _loop_return_time_stats(u, holub_word(P22), horizon, len(u))
        rare = sorted(z for z, (count, _) in stats.items() if count < 2)
        if rare:
            break
    z = rare[0]
    with pytest.raises(InsufficientWindowError) as exc:
        check_return_time_bound(P22, depth=depth, horizon=horizon)
    assert str(exc.value) == f"factor {z!r} has {stats[z][0]} occurrence(s) in horizon {horizon}"


def test_return_time_bound_names_a_factor_the_window_never_shows(monkeypatch):
    # (abb)^k holds every factor of u_1 = abb within 4 letters, but not aa,
    # the least factor of u_2 after a
    monkeypatch.setattr(checks, "holub_word", lambda params: PeriodicSource("abb"))
    with pytest.raises(InsufficientWindowError) as exc:
        check_return_time_bound(P22, depth=2)
    assert str(exc.value) == "factor 'aa' has 0 occurrence(s) in horizon 384"


@pytest.mark.parametrize("pattern, least", [("a", "ab"), ("ababb", "abb")])
def test_return_time_bound_names_the_least_failing_factor_not_the_shortest(
        pattern, least, monkeypatch):
    # u_1 = abb: a^k lacks ab, abb, b and bb, and (ababb)^k spaces abb and bb
    # 5 > 4 letters apart; the least of them is not the shortest
    source = PeriodicSource(pattern)
    monkeypatch.setattr(checks, "holub_word", lambda params: source)
    stats = _loop_return_time_stats("abb", source, 256, 3)
    failing = sorted(z for z, (count, gap) in stats.items() if count < 2 or gap > 4)
    assert failing[0] == least and len(min(failing, key=len)) < len(least)
    count, gap = stats[least]
    if count < 2:
        with pytest.raises(InsufficientWindowError) as exc:
            check_return_time_bound(P22, depth=1)
        assert str(exc.value) == f"factor {least!r} has {count} occurrence(s) in horizon 256"
    else:
        assert check_return_time_bound(P22, depth=1).counterexample == {
            "op": "occurrences", "word": source.descriptor, "factor": least, "max_gap": gap,
            "bound": 4, "horizon": 256}


def _sliced_rows(data, letters):
    # a rank array over the letters and (start, length) rows of it: drawn
    # rows, proper prefixes of them, repeated rows and the same factors at
    # other starts of a periodic stretch
    period = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 40))
    base = data.draw(st.lists(st.integers(0, len(letters) - 1), min_size=period, max_size=period))
    ranks = np.array([base[t % period] for t in range(n)], np.uint8)
    for t in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        ranks[t] = data.draw(st.integers(0, len(letters) - 1))
    row = st.integers(0, n - 1).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, n - a)))
    rows = data.draw(st.lists(row, min_size=1, max_size=12))
    for a, length in list(rows):
        rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from([
            (a, length), (a, data.draw(st.integers(0, length))),
            ((a + period) % n, min(length, n - (a + period) % n))])))
    return ranks, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["ab", "abc"]), st.data())
def test_least_row_is_the_first_least_sliced_word(letters, data):
    ranks, rows = _sliced_rows(data, letters)
    among = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)))
    alphabet = Alphabet(letters)
    words = ["".join(letters[r] for r in ranks[a:a + length]) for a, length in rows]
    start, length = (np.array(column, np.int64) for column in zip(*rows))
    want = min(among, key=lambda r: alphabet.sort_key(words[r]))
    assert checks._least_row(ranks, start, length, np.array(among)) == want


def test_return_time_bound_memory_peak_stays_under_3_mb():
    # depth 4 names 21,845 factors of u_1..u_4; a string per factor would
    # hold them all at once (5.5 MB)
    check_return_time_bound(P22, depth=4)
    tracemalloc.start()
    try:
        check_return_time_bound(P22, depth=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


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


def test_min_return_chain_fails_a_level_that_does_not_start_with_the_previous_power(monkeypatch):
    # every chain the walk builds nests, so the nesting check needs a walk
    # that yields ab after the level-1 power aa
    levels = [(a, e, np.array(occurrences(a * e, FIB, 1000))) for a, e in (("a", 2), ("ab", 1))]
    monkeypatch.setattr(checks, "_chain_walk", lambda *_: iter(levels))
    rep = check_lexmin_return_words(FIB, depth=2, horizon=1000)
    assert rep.status == FAIL
    assert rep.counterexample["k"] == 2 and rep.counterexample["nested"] is False


@pytest.mark.parametrize("descriptor", [
    "fibonacci", "thue-morse", "periodic:a", "periodic:aab", "holub:n=2,3",
    "morphic:a=ab,b=c,c=a;seed=a",
])
def test_least_factor_narrowing_matches_the_least_window(descriptor):
    source = parse_descriptor(descriptor)
    for horizon in (1, 2, 7, 100, 1_000):
        text = source.prefix(horizon)
        for m in range(1, min(horizon, 12) + 1):
            windows = dict.fromkeys(text[t:t + m] for t in range(len(text) - m + 1))
            want = min(windows, key=source.alphabet.sort_key)
            assert checks._least_factor(source, m, horizon) == want, (horizon, m)


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
                "op": "local_periods", "word": w, "split": c,
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
def test_trial_checker_memory_peak_stays_under_1_25_mb(checker):
    # lengths and offsets are int8 at the default maxlen; int64 draws pass
    # this bound (1.31 and 1.66 MB)
    checker(trials=10)
    tracemalloc.start()
    try:
        checker(trials=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_250_000


@pytest.mark.parametrize("maxlen,dtype", [(14, np.int8), (127, np.int8), (128, np.int16)])
def test_trial_draws_hold_maxlen_in_the_least_signed_type(maxlen, dtype):
    # 128 fits no int8, so a word of maxlen letters must widen the type; 2000
    # trials are one block at every maxlen here, as the decoding assumes
    letters, n, a, b = checks._factor_bound_draws(random.Random(11), 2000, maxlen)
    assert n.dtype == a.dtype == b.dtype == dtype and int(n.max()) == maxlen
    assert [(len(w), a, a + len(v)) for w, a, v in _factor_bound_trials(2000, maxlen, 11)] == list(
        zip(n.tolist(), a.tolist(), b.tolist()))
    letters, n, c = checks._superadditivity_draws(random.Random(11), 2000, maxlen)
    assert n.dtype == c.dtype == dtype and int(n.max()) == maxlen
    assert [(len(w), c) for w, c in _superadditivity_trials(2000, maxlen, 11)] == list(
        zip(n.tolist(), c.tolist()))


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
