"""Return-word machinery, the minimal chain, and power-of-two tilings."""

from fractions import Fraction

import pytest

from periwords.errors import InsufficientWindowError
from periwords.factorize import (
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
    HolubParams,
    PeriodicSource,
    fibonacci_source,
    holub_word,
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
    assert chain.power(1) == "aa"
    assert chain.power(2) == "aabaab"
    assert not chain.exponents_certified


def test_alpha_chain_nesting():
    chain = alpha_chain(FIB, 3, 10_000)
    # the previous level's power is a prefix of the next chain word
    for k in range(2, 4):
        assert chain.level(k).alpha.startswith(chain.power(k - 1))


def test_alpha_chain_certified_bound():
    chain = alpha_chain(FIB, 2, 10_000, repetition_bound=3)
    assert chain.exponents_certified
    with pytest.raises(ValueError, match="exceeds"):
        alpha_chain(FIB, 1, 1000, repetition_bound=1)  # "aa" occurs, so e=2 > 1


def test_alpha_chain_thue_morse():
    chain = alpha_chain(TM, 2, 10_000, repetition_bound=2)
    assert chain.level(1).alpha == "a" and chain.level(1).exponent == 2
    assert chain.level(2).alpha.startswith("aa")


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
