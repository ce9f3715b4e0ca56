"""Word sources, the parametrized construction, and the descriptor language."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import periwords
from periwords.errors import DescriptorError
from periwords.words import (
    BINARY,
    HOLE,
    HOLE_RANK,
    Alphabet,
    FormulaSource,
    HolubParams,
    MorphicSource,
    PeriodicSource,
    ToeplitzSource,
    anchor_length,
    anchor_word,
    fibonacci_source,
    hole_source,
    holub_for_target,
    holub_letter,
    holub_letters,
    holub_toeplitz,
    holub_u,
    holub_word,
    lex_compare,
    parse_descriptor,
    predicted_peak_period,
    predicted_witness,
    encode,
    thue_morse_source,
)

P222 = HolubParams((2, 2, 2))
P234 = HolubParams((2, 3, 4))
P333 = HolubParams((3, 3, 3))


# ---------------------------------------------------------------------------
# alphabets and orders


def test_alphabet_basics():
    ab = Alphabet("ab")
    assert ab.least == "a" and ab.size == 2
    assert ab.rank("b") == 1
    assert list(ab.encode("abba")) == [0, 1, 1, 0]
    with pytest.raises(ValueError):
        ab.validate("abc")
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet("a?")


def test_encode_ranks_bytes_and_holes():
    assert encode("ba", Alphabet("ba")).tolist() == [0, 1]
    assert encode("ba").tolist() == [98, 97]  # no alphabet: the ASCII bytes
    assert encode("a?b", BINARY, allow_hole=True).tolist() == [0, HOLE_RANK, 1]
    assert encode("a?b", allow_hole=True).tolist() == [97, 63, 98]
    for alphabet in (None, BINARY):
        with pytest.raises(ValueError, match="holes"):
            encode("a?b", alphabet)
    with pytest.raises(ValueError, match="'é'"):
        encode("xé")
    with pytest.raises(ValueError, match="'c'"):
        encode("abc", BINARY)


def test_words_is_the_only_module_that_encodes_letters():
    # every kernel input goes through words.encode, under its one hole rule
    package = Path(periwords.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "words.py":
            text = path.read_text(encoding="utf-8")
            assert "frombuffer" not in text and '.encode("ascii")' not in text, path.name


def test_lex_compare_proper_prefix_is_smaller():
    assert lex_compare("a", "ab") == -1
    assert lex_compare("ab", "a") == 1
    assert lex_compare("ab", "b") == -1
    assert lex_compare("aab", "aab") == 0
    # order follows the alphabet, not ASCII
    ba = Alphabet("ba")
    assert lex_compare("b", "a", ba) == -1


def test_hole_encoding():
    src = hole_source()
    assert src.prefix(4) == "????"
    assert list(src.ranks(3)) == [255, 255, 255]


# ---------------------------------------------------------------------------
# morphic fixed points


def test_fibonacci_prefix():
    assert fibonacci_source().prefix(13) == "abaababaabaab"


def test_thue_morse_prefix():
    assert thue_morse_source().prefix(16) == "abbabaabbaababba"


def test_prefix_buffer_is_stable():
    src = fibonacci_source()
    first = src.prefix(10)
    assert src.prefix(300)[:10] == first
    assert src.letter_at(1) == "a" and src.letter_at(300) in "ab"
    with pytest.raises(ValueError):
        src.letter_at(0)


def test_morphic_rejects_non_prolongable_seed():
    with pytest.raises(ValueError, match="must start with the seed"):
        MorphicSource({"a": "ba", "b": "ab"}, "a")
    with pytest.raises(ValueError, match="no rule"):
        MorphicSource({"a": "ab"}, "c")
    with pytest.raises(ValueError, match="empty image"):
        MorphicSource({"a": "ab", "b": ""}, "a")


# ---------------------------------------------------------------------------
# staged construction


def test_stage_words():
    assert holub_u(P222, 0) == ""
    assert holub_u(P222, 1) == "abb"
    assert holub_u(P222, 2) == "abbaabbbabbbabb"
    assert holub_u(P333, 1) == "abbb"


@pytest.mark.parametrize("params", [P222, P234, P333])
def test_stage_length_identity(params):
    # |u_j| + 1 telescopes to the product of the growth factors
    for j in range(5):
        assert len(holub_u(params, j)) + 1 == params.block_length(j)


def test_each_stage_prefixes_the_next():
    for params in (P222, P234):
        for j in range(1, 5):
            assert holub_u(params, j + 1).startswith(holub_u(params, j))
        assert holub_word(params).prefix(500) == holub_u(params, 5)[:500]


def test_tail_rules():
    assert P222.n(7) == 2  # repeat extends the last head value
    stepped = HolubParams((2, 3), tail="step", step=2)
    assert [stepped.n(j) for j in range(1, 6)] == [2, 3, 5, 7, 9]


def test_parameter_validation():
    with pytest.raises(ValueError, match=">= 2"):
        HolubParams((1, 2))
    with pytest.raises(ValueError, match="nondecreasing"):
        HolubParams((3, 2))
    with pytest.raises(ValueError, match="unknown tail"):
        HolubParams((2,), tail="loop")
    with pytest.raises(ValueError, match="strictly increasing"):
        HolubParams((2, 2), strictly_increasing=True)
    with pytest.raises(ValueError):
        HolubParams(())


def test_letter_formula_matches_recursion():
    for params in (P222, P234, P333):
        ref = holub_word(params).prefix(300)
        got = "".join(holub_letter(params, i) for i in range(1, 301))
        assert got == ref


def test_a_positions_of_repeating_two():
    # residue description: 'a' exactly at 1 mod 4, 4 mod 16, 16 mod 64, ...
    word = holub_word(P222).prefix(64)
    a_pos = {i for i in range(1, 65) if word[i - 1] == "a"}
    expect = set()
    for i in range(1, 65):
        prod = 1
        for j in range(6):
            nxt = prod * P222.m(j + 1)
            if i % nxt == prod:
                expect.add(i)
            prod = nxt
    assert a_pos == expect
    assert {1, 4, 5, 9, 13, 16} <= a_pos and 2 not in a_pos


def test_formula_source_equals_recursive_source():
    for params in (P222, P234):
        assert FormulaSource(params).prefix(600) == holub_word(params).prefix(600)


# the heads the benchmark's factor-scan workload draws from, plus two more
# shapes: a single exponent and an arithmetic tail
@pytest.mark.parametrize("params", [
    HolubParams((2, 2, 6)), HolubParams((2, 2, 7)), HolubParams((2, 4, 4)),
    HolubParams((2, 4, 5)), HolubParams((3,)), HolubParams((2, 3), tail="step", step=2),
], ids=lambda p: p.descriptor_body())
def test_residue_rule_for_all_positions_matches_the_scalar_rule_and_the_recursion(params):
    n = 100_000
    got = holub_letters(params, n)
    assert got == holub_word(params).prefix(n)
    assert got[:5_000] == "".join(holub_letter(params, i) for i in range(1, 5_001))
    assert FormulaSource(params).prefix(n) == got
    # every length, the ones just past a block boundary included
    for k in (0, 1, 2, 3, params.block_length(2), params.block_length(2) + 1):
        assert holub_letters(params, k) == got[:k]


# a regression would ask for 10^11 letters at stage 1; the child's address
# space limit turns that into a MemoryError instead of a swapping machine
_HUGE_EXPONENT_PREFIX = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from periwords.words import holub_letters, parse_descriptor
for body in ("n=100000000000;tail=repeat", "n=2,100000000000;tail=repeat"):
    source = parse_descriptor("holub:" + body)
    assert source.prefix(9) == holub_letters(source.params, 9), body
"""


def test_a_huge_exponent_builds_only_the_stage_prefix_it_needs():
    pytest.importorskip("resource")
    src = str(Path(periwords.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-c", _HUGE_EXPONENT_PREFIX], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def test_residue_rule_needs_a_nonnegative_length():
    with pytest.raises(ValueError, match="nonnegative"):
        holub_letters(P222, -1)


def test_toeplitz_stage_zero_and_one():
    assert holub_toeplitz(P222, 0).prefix(5) == "?????"
    assert holub_toeplitz(P222, 1).prefix(8) == "abb?abb?"


def test_toeplitz_stages_determine_growing_prefixes():
    for params, stage in ((P222, 4), (P234, 3)):
        span = params.block_length(stage) - 1
        got = holub_toeplitz(params, stage).prefix(span)
        assert "?" not in got
        assert got == holub_word(params).prefix(span)
        # one more letter and the next hole shows
        assert holub_toeplitz(params, stage).prefix(span + 1)[-1] == "?"


def _fill_letter_by_letter(base: str, filler: str) -> str:
    # reference: the holes of base, left to right, get the letters of filler
    holes = [t for t, c in enumerate(base) if c == HOLE]
    out = list(base)
    for k, t in enumerate(holes):
        out[t] = filler[k]
    return "".join(out)


def _assert_fill_matches_the_reference(src: ToeplitzSource, n: int) -> None:
    base = src.base.prefix(n)
    filler = src.filler.prefix(base.count(HOLE))
    assert src._generate(n) == _fill_letter_by_letter(base, filler)


@pytest.mark.parametrize("params", [HolubParams((2, 2, 6)), HolubParams((2, 4, 5))],
                         ids=["2,2,6", "2,4,5"])
@pytest.mark.parametrize("stage", range(1, 9))
def test_toeplitz_fill_matches_the_letter_by_letter_fill(params, stage):
    src = holub_toeplitz(params, stage)
    for n in (1, 7, 1000, 20_000):
        _assert_fill_matches_the_reference(src, n)


def test_toeplitz_fill_with_a_holed_filler_and_a_prefix_ending_in_a_hole():
    src = ToeplitzSource(PeriodicSource("ab??b?"), PeriodicSource("?ba"))
    assert src.has_holes
    # prefixes of the base ending in a hole, in a letter, and one of holes only
    for n in (3, 4, 6, 7, 600, 601, 1002):
        _assert_fill_matches_the_reference(src, n)
    assert src._generate(6) == "ab?bba"
    assert ToeplitzSource(hole_source(), PeriodicSource("ab"))._generate(5) == "ababa"


# ---------------------------------------------------------------------------
# anchors, peaks, witnesses


def test_anchor_words_and_lengths():
    assert anchor_word(P222, 1) == "a"
    assert anchor_word(P222, 2) == "abbaa"
    for params in (P222, P234, P333):
        for j in range(1, 5):
            assert len(anchor_word(params, j)) == anchor_length(params, j)
    assert anchor_length(P222, 3) == 1 + 4 + 16


def test_predicted_peaks():
    assert [predicted_peak_period(P222, j) for j in (1, 2, 3)] == [3, 12, 48]
    assert predicted_peak_period(P333, 1) == 4
    assert predicted_peak_period(P234, 2) == 4 * 4


def test_predicted_witnesses():
    assert predicted_witness(P222, 1) == "bba"
    assert predicted_witness(P333, 1) == "bbba"
    assert predicted_witness(P222, 2) == "bbbabbbabbaa"
    for params in (P222, P234, P333):
        for j in (1, 2, 3):
            assert len(predicted_witness(params, j)) == predicted_peak_period(params, j)


def test_witness_is_conjugate_of_leading_core():
    # moving the anchor prefix to the back must recover the core on rotation
    for j in (1, 2, 3):
        s = anchor_word(P234, j)
        r = predicted_witness(P234, j)
        core = holub_u(P234, j - 1) + "a" + (holub_u(P234, j - 1) + "b") * P234.n(j)
        assert s + r == core + s


def test_target_beating_parameters():
    params, ds = holub_for_target(lambda d: d, 4)
    assert len(ds) == 4 and ds[0] == 1
    for j, d in enumerate(ds, 1):
        assert d == anchor_length(params, j)
        assert params.n(j) >= 2 * d + 1 or params.n(j) == 2
    assert all(a <= b for a, b in zip(params.head, params.head[1:]))


# ---------------------------------------------------------------------------
# descriptors


@pytest.mark.parametrize(
    "text",
    [
        "fibonacci",
        "thue-morse",
        "periodic:abb",
        "morphic:a=ab,b=a;seed=a",
        "holub:n=2,2;tail=repeat",
        "holub:n=2,3;tail=step:2",
        "holub-formula:n=2,2;tail=repeat",
        "toeplitz:n=2,2;tail=repeat;stage=2",
    ],
)
def test_descriptor_round_trip(text):
    src = parse_descriptor(text)
    again = parse_descriptor(src.descriptor)
    assert again.prefix(50) == src.prefix(50)


def test_descriptor_equivalences():
    assert parse_descriptor("morphic:a=ab,b=a;seed=a").prefix(40) == parse_descriptor(
        "fibonacci"
    ).prefix(40)
    assert parse_descriptor("holub:n=2,2;tail=repeat").prefix(100) == parse_descriptor(
        "holub-formula:n=2,2;tail=repeat"
    ).prefix(100)


@pytest.mark.parametrize(
    "bad, hint",
    [
        ("nosuch", "unknown word family"),
        ("periodic:", "needs a pattern"),
        ("periodic:axb", "not in alphabet"),
        ("morphic:a=ab,b=a", "needs seed"),
        ("morphic:ab;seed=a", "bad rule"),
        ("holub:tail=repeat", "missing n"),
        ("holub:n=2,x", "bad exponent list"),
        ("holub:n=3,2", "nondecreasing"),
        ("holub:n=2,2;cap=5", "unknown keys"),
        ("toeplitz:n=2,2", "needs stage"),
        ("toeplitz:n=2,2;stage=-1", "stage must be"),
        ("holub:n=2,2;tail=step:x", "bad step"),
    ],
)
def test_descriptor_errors(bad, hint):
    with pytest.raises(DescriptorError, match=hint):
        parse_descriptor(bad)


def test_periodic_source_with_holes():
    src = PeriodicSource("ab?")
    assert src.prefix(7) == "ab?ab?a"
    assert src.has_holes


def test_concurrent_readers_get_the_letters_they_ask_for():
    # readers race a thread that keeps growing the prefix; a reader that sees
    # the grown letters must also see their ranks
    short = []

    def read(src):
        for k in range(4, 16):
            n = 2 ** k + 1
            got = len(src.ranks(n))
            if got != n:
                short.append((n, got))

    def grow(src):
        for k in range(4, 16):
            src.prefix(2 ** k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            src = PeriodicSource("aab")
            threads = [threading.Thread(target=grow, args=(src,))]
            threads += [threading.Thread(target=read, args=(src,)) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert short == []
