"""Local periods, profiles, and border/period utilities.

The reference implementation here (`ref_local_period`, `ref_period`) is a
deliberately naive re-derivation from the definitions, independent from both
kernel tables: a length L is a repetition length at position i iff the window
w[max(1,i-L+1) .. min(n,i+L)] has period L (vacuously when the window is
shorter than L+1 letters).
"""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from periwords import kernels
from periwords.factorize import (
    alpha_chain,
    dyadic_factorization,
    repetition_exponent_estimate,
    return_factorization,
)
from periwords.periods import (
    CapExceeded,
    PeriodProfile,
    critical_positions,
    factor_local_periods,
    h_of,
    h_of_row,
    is_lyndon,
    is_primitive,
    is_unbordered,
    least_conjugate,
    local_period,
    local_period_infinite,
    local_period_oracle,
    local_period_table,
    local_periods,
    period,
    profile,
    shortest_border,
)
from periwords.words import (
    HolubParams,
    fibonacci_source,
    holub_toeplitz,
    holub_word,
    parse_descriptor,
    thue_morse_source,
)

SEED = 90407


def ref_local_period(w: str, i: int) -> int:
    n = len(w)
    for L in range(1, n + 1):
        lo = max(1, i - L + 1)
        hi = min(n, i + L) - L
        if all(w[t - 1] == w[t + L - 1] for t in range(lo, hi + 1)):
            return L
    raise AssertionError("unreachable: L = |w| is always vacuous")


def ref_period(w: str) -> int:
    for p in range(1, len(w) + 1):
        if all(w[t] == w[t + p] for t in range(len(w) - p)):
            return p
    raise AssertionError("unreachable")


def ref_infinite_local_period(src, i: int, cap: int):
    """Repetition words must extend v to the right: square or right overhang."""
    w = src.prefix(i + 2 * cap)
    for L in range(1, cap + 1):
        if L <= i and w[i - L:i] == w[i:i + L]:
            return L
        if L > i and w[:i] == w[L:L + i]:
            return L
    return None


def rand_word(rng, lo=1, hi=14):
    return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))


# ---------------------------------------------------------------------------
# pinned small cases


def test_known_profile():
    prof = profile("abaab")
    assert prof.local_periods == [2, 3, 1, 3, 1]
    assert prof.h_at(5) == Fraction(2)
    assert period("abaab") == 3
    assert critical_positions("abaab") == [2, 4]
    assert shortest_border("abaab") == "ab"


def test_witness_shapes():
    r = local_period("abaab", 2)
    assert (r.length, r.case, r.word) == (3, "right-overhang", "aab")
    r = local_period("abaab", 4)
    assert (r.length, r.case, r.word) == (3, "left-overhang", "baa")
    r = local_period("ab", 1)
    assert (r.length, r.case, r.word) == (2, "double-overhang", "ba")
    r = local_period("aabaab", 3)
    assert (r.length, r.case, r.word) == (3, "square", "aab")


def test_last_position_is_always_one():
    for w in ("a", "ab", "abaab", "bbbbab"):
        assert local_period(w, len(w)).length == 1


def test_border_period_helpers():
    assert period("abab") == 2
    assert period("aab") == 3
    assert shortest_border("aab") is None
    assert is_unbordered("aab") and not is_unbordered("aba")
    assert is_primitive("ab") and not is_primitive("abab")
    assert least_conjugate("bab") == "abb"
    assert is_lyndon("aab") and is_lyndon("a")
    assert not is_lyndon("aba")  # bordered
    assert not is_lyndon("abab")  # imprimitive
    with pytest.raises(ValueError):
        period("")
    with pytest.raises(ValueError):
        shortest_border("")


def test_h_and_sum():
    assert local_periods("abaab").sum() == 10
    assert h_of("abaab") == 2
    assert h_of("a") == 1


def test_h_of_a_row_is_h_of_its_word():
    for w in ("a", "ab", "abaab", "bbbbab", "aabaab", "abab", "aab", "bab"):
        assert h_of_row(local_periods(w)) == h_of(w)


# ---------------------------------------------------------------------------
# agreement with the naive reference, exhaustively on short words


def test_exhaustive_agreement_up_to_length_8():
    for n in range(1, 9):
        for code in range(2 ** n):
            w = "".join("ab"[(code >> t) & 1] for t in range(n))
            prof = profile(w).local_periods
            assert prof == [ref_local_period(w, i) for i in range(1, n + 1)], w
            assert period(w) == ref_period(w), w
            # critical positions attain the period (existence is the point)
            cps = critical_positions(w)
            assert cps and max(prof) == period(w)
            assert all(prof[i - 1] == period(w) for i in cps)


def test_oracle_agreement_random():
    rng = random.Random(SEED)
    for _ in range(400):
        w = rand_word(rng)
        i = rng.randint(1, len(w))
        assert local_period(w, i).length == local_period_oracle(w, i)


def _every_split(letters, maxlen):
    for n in range(1, maxlen + 1):
        for t in itertools.product(letters, repeat=n):
            yield from (("".join(t), i) for i in range(1, n + 1))


def test_witness_is_a_repetition_word():
    # replay: the witness itself must match u on its overlap and v on its overlap,
    # at random splits and at every split of every short binary and ternary word
    rng = random.Random(SEED + 2)
    sampled = [(w, rng.randint(1, len(w))) for w in (rand_word(rng) for _ in range(300))]
    every = itertools.chain(_every_split("ab", 10), _every_split("abc", 6))
    for w, i in itertools.chain(sampled, every):
        r = local_period(w, i)
        u, v = w[:i], w[i:]
        left = min(len(u), r.length)
        right = min(len(v), r.length)
        assert r.word[r.length - left:] == u[len(u) - left:]
        assert r.word[:right] == v[:right]
        assert len(r.word) == r.length


# ---------------------------------------------------------------------------
# infinite-word scans


def test_infinite_matches_reference():
    for src in (fibonacci_source(), thue_morse_source(), holub_word(HolubParams((2, 2)))):
        for i in range(1, 41):
            want = ref_infinite_local_period(src, i, 200)
            got = local_period_infinite(src, i, 200)
            assert not isinstance(got, CapExceeded) and got.length == want, (src.descriptor, i)


def test_cap_exceeded_is_a_value():
    got = local_period_infinite(fibonacci_source(), 4, 2)  # true value is 5
    assert isinstance(got, CapExceeded) and got.cap == 2


def test_stream_profile_known_prefix():
    prof = profile(fibonacci_source(), n=8, cap=256)
    assert prof.local_periods == [2, 3, 1, 5, 2, 2, 8, 1]
    assert prof.h_at(8) == Fraction(24, 8)


def test_stream_profile_marks_cap_and_kills_average():
    src = holub_word(HolubParams((2, 2)))
    prof = profile(src, n=5, cap=2)  # the very first position needs 3
    assert prof.local_periods[0] is None
    assert prof.h_at(1) is None and prof.h_at(5) is None
    rows = prof.rows()
    assert rows[0]["local_period"] == "CAP"
    assert rows[0]["h_numerator"] is None


def _rows_by_fractions(local_periods):
    # the running average one Fraction per position, dead from the first cap hit
    rows, total, dead = [], 0, False
    for i, p in enumerate(local_periods, 1):
        dead = dead or p is None
        if not dead:
            total += p
        h = None if dead else Fraction(total, i)
        rows.append({
            "index": i,
            "local_period": "CAP" if p is None else p,
            "h_numerator": None if h is None else h.numerator,
            "h_denominator": None if h is None else h.denominator,
            "h_approx": None if h is None else float(h),
        })
    return rows


@pytest.mark.parametrize("cap", [None, 30])
def test_profile_rows_match_the_fraction_route(cap):
    prof = profile(fibonacci_source(), n=4000, cap=cap)
    assert (None in prof.local_periods) == (cap is not None)
    want = _rows_by_fractions(prof.local_periods)
    assert json.dumps(prof.rows()) == json.dumps(want)
    h = [None if r["h_numerator"] is None else Fraction(r["h_numerator"], r["h_denominator"]) for r in want]
    assert prof.h_values() == h
    assert [prof.h_at(i) for i in range(1, prof.n + 1)] == h


def test_profile_rows_beyond_int64():
    prof = PeriodProfile("x", [2 ** 62, 2 ** 62, 3, None, 5])
    assert json.dumps(prof.rows()) == json.dumps(_rows_by_fractions(prof.local_periods))
    assert prof.h_at(3) == Fraction(2 ** 63 + 3, 3) and prof.h_at(5) is None


def test_profile_json_round_shape():
    prof = profile("abaab")
    assert prof.descriptor == "abaab" and prof.n == 5 and prof.cap is None
    row = prof.rows()[1]
    assert row == {
        "index": 2,
        "local_period": 3,
        "h_numerator": 5,
        "h_denominator": 2,
        "h_approx": 2.5,
    }


def test_profile_argument_errors():
    with pytest.raises(ValueError):
        profile("")
    with pytest.raises(ValueError):
        profile(fibonacci_source())  # needs n
    with pytest.raises(ValueError):
        profile("abaab").h_at(6)
    with pytest.raises(ValueError, match="n must be >= 0, got -3"):
        profile(fibonacci_source(), n=-3)
    for cap in (0, -2):
        with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}"):
            profile(fibonacci_source(), n=4, cap=cap)
    assert profile(fibonacci_source(), n=0).rows() == []


def test_profile_columns_are_the_reduced_h_values():
    prof = PeriodProfile("x", [2 ** 62, 2 ** 62, 3, None, 5])
    nums, dens = prof.columns()
    assert [Fraction(a, b) for a, b in zip(nums, dens)] == prof.h_values()[:3]
    assert all(type(v) is int for v in nums + dens)
    prof = profile(fibonacci_source(), n=300)
    nums, dens = prof.columns()
    assert list(zip(nums, dens)) == [(h.numerator, h.denominator) for h in prof.h_values()]
    assert all(type(v) is int for v in nums + dens)


def test_profile_rejects_holes():
    with pytest.raises(ValueError, match="holes"):
        profile("ab?ab")
    with pytest.raises(ValueError, match="holes"):
        profile(parse_descriptor("periodic:ab?"), n=6)
    with pytest.raises(ValueError, match="holes"):
        profile(holub_toeplitz(HolubParams((2, 2)), 1), n=6)


@pytest.mark.parametrize("scan, what", [
    (lambda s: profile(s, n=6), "profile"),
    (lambda s: local_period_infinite(s, 2, 10), "scan"),
    (lambda s: repetition_exponent_estimate(s, 10), "estimate the repetition exponent of"),
    (lambda s: alpha_chain(s, 2, 60), "build an alpha chain on"),
], ids=["profile", "local_period_infinite", "repetition_exponent_estimate", "alpha_chain"])
def test_scans_of_a_holed_source_refuse_it(scan, what):
    # a hole would be matched as a letter: local_period_infinite once
    # answered 3 at position 2 of periodic:ab?, with the witness '?ab'
    with pytest.raises(ValueError) as info:
        scan(parse_descriptor("periodic:ab?"))
    assert str(info.value) == f"cannot {what} periodic:ab?: it has holes ('?')"


def test_h_of_and_local_period_sum_reject_holes():
    with pytest.raises(ValueError, match="holes"):
        h_of("ab?ab")
    with pytest.raises(ValueError, match="holes"):
        local_periods("ab?ab")
    assert h_of("abaab") == Fraction(10, 5)
    assert local_periods("abaab").sum() == 10


@pytest.mark.parametrize("fn", [
    period, shortest_border, is_primitive, is_unbordered, is_lyndon, least_conjugate,
    lambda w: local_period(w, 2), critical_positions, local_periods, h_of,
    profile, lambda w: local_period_oracle(w, 2),
], ids=[
    "period", "shortest_border", "is_primitive", "is_unbordered", "is_lyndon",
    "least_conjugate", "local_period", "critical_positions", "local_periods", "h_of",
    "profile", "local_period_oracle",
])
def test_finite_word_functions_reject_holes(fn):
    # a kernel would match the hole as a letter: period("ab?ab") would be 3
    with pytest.raises(ValueError, match="holes"):
        fn("ab?ab")


def test_default_cap_scales_with_n():
    prof = profile(fibonacci_source(), n=10)
    assert prof.cap == 4 * 10 + 64


# ---------------------------------------------------------------------------
# the batched table against the per-word loop


def assert_table_matches_the_loop(words):
    table = local_period_table(words)
    assert set(table) == set(words)
    for w, row in table.items():
        assert row.dtype == np.int64
        assert row.tolist() == local_periods(w).tolist(), w


@pytest.mark.parametrize("letters,maxlen", [("ab", 12), ("abc", 8)], ids=["binary", "ternary"])
def test_table_matches_the_loop_on_every_short_word(letters, maxlen):
    words = ["".join(t) for n in range(1, maxlen + 1) for t in itertools.product(letters, repeat=n)]
    assert_table_matches_the_loop(words)


def test_table_matches_the_loop_on_mixed_lengths_and_duplicates():
    rng = random.Random(SEED)
    words = [rand_word(rng, 1, 20) for _ in range(400)]
    words += words[:100] + ["abaab", "abaab", "a"]
    assert_table_matches_the_loop(words)


@pytest.mark.parametrize("descriptor,markers", [
    ("fibonacci", ("ab", "aba", "abaab")),
    ("thue-morse", ("ab", "abba", "abbab")),
    ("holub:n=2,2;tail=repeat", ("a", "ab", "abba")),
])
def test_table_matches_the_loop_on_factorization_blocks(descriptor, markers):
    source = parse_descriptor(descriptor)
    blocks = []
    for z in markers:
        blocks += return_factorization(source, z, 20_000).returns
    for level in (2, 4, 6, 8):
        blocks += dyadic_factorization(source, level, 20_000).blocks
    assert_table_matches_the_loop(blocks)


def test_table_rejects_holes_and_takes_empty_input():
    with pytest.raises(ValueError, match="cannot scan a word with holes"):
        local_period_table(["abaab", "ab?ab"])
    with pytest.raises(ValueError, match="cannot scan a word with holes"):
        local_period_table(["?"])
    assert local_period_table([]) == {}


def test_factor_local_periods_match_the_loop_in_place():
    # every factor of rows of a random 3-letter matrix, each row used by
    # several factors, against the loop on the factor's own letters
    rng = np.random.default_rng(SEED)
    letters = rng.integers(0, 3, (40, 16), dtype=np.uint8)
    start = rng.integers(0, 16, 200)
    length = np.array([rng.integers(1, 17 - s) for s in start])
    out = factor_local_periods(letters, start, length)
    assert out.dtype == np.uint8
    for k in range(start.size):
        s, m = start[k], length[k]
        row = np.zeros(16, np.int64)
        row[s:s + m] = kernels.active.local_periods_finite(letters[k % 40, s:s + m].copy())
        assert out[k].tolist() == row.tolist()
