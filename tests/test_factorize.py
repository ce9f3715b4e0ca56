"""Return-word machinery, the minimal chain, and power-of-two tilings."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periwords import checks, factorize, kernels
from periwords.errors import InsufficientWindowError
from periwords.factorize import (
    AlphaChain,
    AlphaChainEntry,
    _chain_walk,
    _quote,
    alpha_chain,
    b_floor,
    dyadic_factorization,
    h_floor,
    max_exponent,
    occurrences,
    repetition_exponent_estimate,
    return_factorization,
    return_words,
)
from periwords.periods import h_of, is_lyndon
from periwords.words import (
    Alphabet,
    HolubParams,
    PeriodicSource,
    fibonacci_source,
    holub_word,
    parse_descriptor,
    thue_morse_source,
)

FIB = fibonacci_source()
TM = thue_morse_source()


def test_occurrences_are_zero_based_offsets():
    assert occurrences("ab", PeriodicSource("ab"), 10) == [0, 2, 4, 6, 8]
    assert occurrences("a", FIB, 8) == [0, 2, 3, 5, 7]
    assert occurrences("bb", FIB, 500) == []


def test_occurrence_search_admits_holes_only_in_holed_words():
    # a hole in z matches a hole of the word, never a letter
    holed = PeriodicSource("a?b")
    assert occurrences("a?", holed, 20) == [0, 3, 6, 9, 12, 15, 18]
    assert occurrences("?b", holed, 20) == [1, 4, 7, 10, 13, 16]
    with pytest.raises(ValueError, match="holes"):
        occurrences("a?", FIB, 50)


def test_search_needs_a_horizon():
    for search in (occurrences, max_exponent):
        with pytest.raises(TypeError, match="horizon"):
            search("a", FIB)
    with pytest.raises(TypeError, match="horizon"):
        repetition_exponent_estimate(FIB)


def test_a_negative_horizon_is_refused_after_a_longer_prefix():
    # the cached prefix must not turn -5 into a slice that drops 5 letters
    source = fibonacci_source()
    source.prefix(100)
    for search in (occurrences, max_exponent):
        with pytest.raises(ValueError, match="prefix length must be nonnegative"):
            search("aa", source, -5)
    with pytest.raises(ValueError, match="prefix length must be nonnegative"):
        source.ranks(-5)


def test_return_words_fibonacci():
    rws, max_time = return_words("a", FIB, 10_000)
    assert rws == ["a", "ab"] and max_time == 2
    rws, max_time = return_words("aa", FIB, 10_000)
    assert rws == ["aab", "aabab"] and max_time == 5
    assert all(is_lyndon(w) for w in rws)


def test_return_words_need_two_occurrences():
    with pytest.raises(InsufficientWindowError):
        return_words("bb", FIB, 500)
    with pytest.raises(InsufficientWindowError):
        return_words("abaab", FIB, 6)  # second occurrence outside the window


def test_max_exponent():
    assert max_exponent("a", FIB, 1000) == 2
    assert max_exponent("aab", FIB, 1000) == 2
    # over a periodic word the window is the only limit
    assert max_exponent("ab", PeriodicSource("ab"), 20) == 10


def test_repetition_exponent_estimates():
    assert repetition_exponent_estimate(TM, 4096) == 2  # overlap-free
    assert repetition_exponent_estimate(FIB, 4096) == 3
    assert repetition_exponent_estimate(PeriodicSource("ab"), 96) >= 40


# ---------------------------------------------------------------------------
# the minimal chain


def test_alpha_chain_fibonacci():
    chain = alpha_chain(FIB, 3, 10_000)
    assert [(e.alpha, e.exponent) for e in chain.entries] == [
        ("a", 2),
        ("aab", 2),
        ("aabaabab", 2),
    ]
    assert [chain.level(k).alpha * chain.level(k).exponent for k in (1, 2)] == ["aa", "aabaab"]
    assert not chain.exponents_certified


def test_alpha_chain_nesting():
    chain = alpha_chain(FIB, 3, 10_000)
    # the previous level's power is a prefix of the next chain word
    for k in range(2, 4):
        below = chain.level(k - 1)
        assert chain.level(k).alpha.startswith(below.alpha * below.exponent)


def test_alpha_chain_certified_bound():
    chain = alpha_chain(FIB, 2, 10_000, repetition_bound=3)
    assert chain.exponents_certified
    with pytest.raises(ValueError, match="exceeds"):
        alpha_chain(FIB, 1, 1000, repetition_bound=1)  # "aa" occurs, so e=2 > 1


def test_alpha_chain_thue_morse():
    chain = alpha_chain(TM, 2, 10_000, repetition_bound=2)
    assert chain.level(1).alpha == "a" and chain.level(1).exponent == 2
    assert chain.level(2).alpha.startswith("aa")


def _loop_walk(source, depth, horizon, repetition_bound=None):
    # the chain as it was built before the walk, level by level: e_k from
    # max_exponent, the next level the least of return_words in the
    # alphabet's order, and the markers one search for the power
    source.refuse_holes("build an alpha chain on")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    alpha = source.alphabet.least
    for k in range(1, depth + 1):
        e = max_exponent(alpha, source, horizon)
        if e == 0:
            raise InsufficientWindowError(
                f"level-{k} word {_quote(alpha)} does not occur within horizon {horizon}")
        if repetition_bound is not None and e > repetition_bound:
            raise ValueError(f"windowed exponent {e} exceeds the vouched bound {repetition_bound}")
        yield alpha, e, np.array(occurrences(alpha * e, source, horizon), np.int64)
        if k < depth:
            rws, _ = return_words(alpha * e, source, horizon)
            alpha = min(rws, key=source.alphabet.sort_key)


def _levels(walk):
    # the (alpha, e, markers) levels a walk yields, then the type and message
    # of what it raises (None when it ends)
    levels = []
    try:
        for a, e, markers in walk:
            levels.append((a, e, markers.tolist()))
    except (ValueError, InsufficientWindowError) as exc:
        return levels, (type(exc), str(exc))
    return levels, None


CHAIN_WORDS = [
    "fibonacci", "thue-morse", "holub:n=2,2;tail=repeat", "holub:n=2,3",
    "holub-formula:n=2,2,6;tail=repeat", "morphic:a=abc,b=ac,c=b;seed=a",
    "morphic:a=ab,b=c,c=a;seed=a", "morphic:a=aab,b=a;seed=a", "periodic:ab", "periodic:aab",
    "periodic:abaab", "periodic:a",
]


@pytest.mark.parametrize("descriptor", CHAIN_WORDS)
def test_alpha_chain_walk_matches_the_loop(descriptor):
    # the loop's outcome at each depth is its walk's first `depth` levels, or
    # what the walk raised before yielding them
    source = parse_descriptor(descriptor)
    for horizon, bound in product((0, 1, 2, 5, 37, 1000, 20_000), (None, 2, 3)):
        levels, error = _levels(_loop_walk(source, 8, horizon, bound))
        for depth in range(1, 9):
            want = error if len(levels) < depth else AlphaChain(
                tuple(AlphaChainEntry(a, e, horizon) for a, e, _ in levels[:depth]),
                source.alphabet.letters, bound is not None).to_json()
            try:
                got = alpha_chain(source, depth, horizon, bound).to_json()
            except (ValueError, InsufficientWindowError) as exc:
                got = type(exc), str(exc)
            assert got == want, (depth, horizon, bound)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["ab", "abc"]).flatmap(
           lambda letters: st.tuples(st.just(letters), st.text(letters, min_size=1, max_size=40))),
       st.integers(1, 8), st.integers(0, 120), st.sampled_from([None, 2, 3]))
def test_the_walk_yields_the_loops_levels_and_markers(pattern, depth, horizon, bound):
    # a long pattern makes the word arbitrary over much of the window; the
    # markers must be every occurrence of the level's power, and no two of
    # them may overlap, since the walk narrows them instead of searching
    letters, text = pattern
    source = PeriodicSource(text, Alphabet(letters))
    walked = _levels(_chain_walk(source, depth, horizon, bound))
    assert walked == _levels(_loop_walk(source, depth, horizon, bound))
    for a, e, markers in walked[0]:
        assert all(q - p >= len(a) * e for p, q in zip(markers, markers[1:])), (a, e, markers)


@pytest.mark.parametrize("descriptor", [
    "fibonacci", "thue-morse", "holub:n=2,2;tail=repeat", "morphic:a=abc,b=ac,c=b;seed=a",
])
def test_alpha_chain_makes_no_occurrence_search(descriptor, monkeypatch):
    # each level's occurrences are its markers narrowed, never a search of
    # the window
    calls = []
    search = kernels.active.occurrence_list
    monkeypatch.setattr(kernels.active, "occurrence_list", lambda *a: calls.append(a) or search(*a))
    chain = alpha_chain(parse_descriptor(descriptor), 6, 100_000)
    assert len(chain.entries) == 6 and calls == []
    checks.build_gain_pair(FIB, 1, 20_000)
    assert calls == []


@pytest.mark.parametrize("descriptor", ["fibonacci", "thue-morse", "holub:n=2,2;tail=repeat",
                                        "morphic:a=abc,b=ac,c=b;seed=a", "periodic:aab"])
def test_gain_and_min_return_chain_read_the_walk_as_the_loop(descriptor, monkeypatch):
    # the claims' reports and errors over a grid, with the walk and with the
    # loop in its place, refusals of k and kprime included
    source = parse_descriptor(descriptor)

    def outcomes():
        grid = product((0, 1, 2, 3, 7), (None, 0, 1, 2, 4), (1, 8), (300, 20_000), (None, 2))
        calls = [lambda k=k, kp=kp, w=w, hz=hz, b=b: checks.check_return_gain(source, k, kp, w, hz, b)
                 for k, kp, w, hz, b in grid]
        calls += [lambda d=d, hz=hz, b=b: checks.check_lexmin_return_words(source, d, hz, b)
                  for d, hz, b in product(range(1, 6), (5, 37, 1000, 10_000), (None, 2, 3))]
        for call in calls:
            try:
                yield call().to_json()
            except (ValueError, InsufficientWindowError) as exc:
                yield type(exc), str(exc)

    got = list(outcomes())
    monkeypatch.setattr(checks, "_chain_walk", _loop_walk)
    assert got == list(outcomes())


# ---------------------------------------------------------------------------
# return factorizations


def test_return_factorization_partition():
    fact = return_factorization(FIB, "aa", 5_000, exponent=2, assert_block_prefix=True)
    assert fact.preamble == "ab"
    assert fact.max_return_time == 5 and fact.min_return_length == 3
    assert set(fact.returns) == {"aab", "aabab"}
    text = FIB.prefix(5_000)
    joined = fact.preamble + "".join(fact.returns)
    assert text.startswith(joined)
    # boundaries are cumulative offsets, starting at the preamble's end
    b = fact.boundaries()
    assert b[0] == 2 and all(y - x == len(w) for x, y, w in zip(b, b[1:], fact.returns))
    assert all(w.startswith("aa") for w in fact.returns)


def test_return_factorization_json_fields():
    fact = return_factorization(FIB, "aa", 1_000, exponent=2)
    data = fact.to_json()
    assert set(data) == {"z", "e", "preamble", "returns", "m_k", "mu_k", "horizon"}
    assert data["z"] == "aa" and data["e"] == 2 and data["m_k"] == 5


def test_window_errors_quote_a_word_past_64_letters_by_its_length():
    # ab repeated 32 times occurs once in a window of 64 letters; one more
    # letter makes the marker too long to quote whole
    src = PeriodicSource("ab")
    with pytest.raises(InsufficientWindowError) as exc:
        return_factorization(src, "ab" * 32, 64)
    assert str(exc.value) == f"{'ab' * 32!r} occurs 1 time(s) in a window of 64; need >= 2"
    with pytest.raises(InsufficientWindowError) as exc:
        return_factorization(src, "ab" * 32 + "a", 65)
    assert str(exc.value) == (f"{'ab' * 16!r}... (65 letters) occurs 1 time(s) in a window of 65; "
                              "need >= 2")


def test_return_factorization_overlap_rejected():
    # occurrences of "aa" inside (a)^... overlap; the prefix discipline must trip
    src = PeriodicSource("aab")
    with pytest.raises(InsufficientWindowError):
        return_factorization(src, "bb", 100)
    overlapping = PeriodicSource("aaab")
    with pytest.raises(ValueError, match="overlap"):
        return_factorization(overlapping, "aa", 100, assert_block_prefix=True)
    # without the flag the same cut is legal
    fact = return_factorization(overlapping, "aa", 100)
    assert fact.returns[0] == "a"


def test_return_factorization_names_the_first_block_shorter_than_its_marker():
    # aba occurs at 0, 3 and 5 of abaababaab...: block 2 spans 3..5 and is
    # shorter than aba, so the next occurrence overlaps it
    with pytest.raises(ValueError) as exc:
        return_factorization(FIB, "aba", 100, assert_block_prefix=True)
    assert str(exc.value) == ("marker occurrences overlap: block 2 ('ab') "
                              "does not start with 'aba'")
    # every block at least as long as its marker starts with it
    fact = return_factorization(FIB, "aab", 100, assert_block_prefix=True)
    assert all(w.startswith("aab") for w in fact.returns)


def test_h_floor():
    fact = return_factorization(FIB, "aa", 10_000, exponent=2)
    assert h_floor(fact, 8) == Fraction(5, 3)
    assert h_floor(fact) == min(h_of(w) for w in fact.returns)
    with pytest.raises(InsufficientWindowError):
        h_floor(return_factorization(FIB, "aa", 30), 50)


def test_a_negative_block_window_is_refused():
    # a negative window would slice off the last blocks instead
    fact = return_factorization(FIB, "aa", 100)
    dy = dyadic_factorization(FIB, 1, 100)
    for floor, blocks, window in ((h_floor, fact, -1), (b_floor, dy, -2)):
        with pytest.raises(ValueError, match=f"window must be >= 0, got {window}"):
            floor(blocks, window)
        with pytest.raises(ValueError, match="empty block window"):
            floor(blocks, 0)


# ---------------------------------------------------------------------------
# dyadic tilings


def test_dyadic_blocks_and_refinement():
    dy = dyadic_factorization(TM, 2, 64)
    assert dy.block_length == 4
    assert dy.blocks[:4] == ["abba", "baab", "baab", "abba"]
    lo = dyadic_factorization(TM, 2, 2048)
    hi = dyadic_factorization(TM, 3, 2048)
    for j in range(len(hi.blocks)):
        assert hi.blocks[j] == lo.blocks[2 * j] + lo.blocks[2 * j + 1]


def test_dyadic_floors():
    assert b_floor(dyadic_factorization(TM, 1, 2048), 8) == Fraction(3, 2)
    assert b_floor(dyadic_factorization(TM, 2, 2048), 8) == Fraction(2)
    with pytest.raises(InsufficientWindowError):
        b_floor(dyadic_factorization(TM, 4, 64), 8)


def test_dyadic_argument_errors():
    with pytest.raises(ValueError):
        dyadic_factorization(TM, -1, 64)
    with pytest.raises(InsufficientWindowError):
        dyadic_factorization(TM, 8, 64)  # no complete 256-block in 64 letters


def test_holub_returns_match_block_structure():
    # returns to u_1 in the staged word have block-multiple lengths
    params = HolubParams((2, 2))
    src = holub_word(params)
    fact = return_factorization(src, "abb", 2_000)
    assert all(len(w) % 4 == 0 for w in fact.returns)
    assert fact.preamble == ""
