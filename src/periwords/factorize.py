"""Occurrences, return words, the minimal-return chain, and block factorizations.

Everything here is windowed: computations see only a finite prefix (the
horizon) of an infinite word, and results such as maximal exponents or
extremal return-word lengths are exact for that window but only bounds for
the full word unless a caller vouches for a known repetition bound.
"""

from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import kernels
from .errors import InsufficientWindowError
from .periods import h_of_row, local_period_table
from .words import MAX_PREFIX, WordSource, encode


def _quote(w: str) -> str:
    # a word for a message: as repr up to 64 letters, else its first 32
    # letters and its length
    return repr(w) if len(w) <= 64 else f"{w[:32]!r}... ({len(w)} letters)"


def occurrences(z: str, source: WordSource, horizon: int) -> list[int]:
    """0-based offsets of every occurrence of z inside the window.

    z may hold holes when the word does; a hole then matches only a hole.
    """
    if not z:
        raise ValueError("empty factor")
    hits = kernels.active.occurrence_list(
        encode(z, source.alphabet, allow_hole=source.has_holes), source.ranks(horizon))
    return hits.tolist()


def return_words(z: str, source: WordSource, horizon: int) -> tuple[list[str], int]:
    """Distinct return words to z in the window, plus the max return time.

    A return word spans one occurrence of z to the next; at least two
    occurrences are needed, otherwise the window is declared insufficient.
    """
    fact = return_factorization(source, z, horizon)
    return sorted(set(fact.returns)), fact.max_return_time


def max_exponent(v: str, source: WordSource, horizon: int) -> int:
    """Largest e with v^e inside the window (0 when v does not occur)."""
    if not v:
        raise ValueError("empty factor")
    return int(kernels.active.max_power(
        encode(v, source.alphabet, allow_hole=source.has_holes), source.ranks(horizon)))


def repetition_exponent_estimate(source: WordSource, horizon: int, max_period: int = 64) -> int:
    """Windowed max over short-period factors v of the largest power v^e.

    A lower bound for the full word; it grows with the horizon on periodic
    input, which is exactly how callers detect that no uniform bound exists.
    """
    source.refuse_holes("estimate the repetition exponent of")
    return int(kernels.active.max_run_exponent(source.ranks(horizon), max_period))


@dataclass(frozen=True)
class AlphaChainEntry:
    """One level of the minimal-return chain: the word, its maximal windowed
    exponent, and the horizon that produced both."""

    alpha: str
    exponent: int
    horizon: int


@dataclass(frozen=True)
class AlphaChain:
    """Nested minimal-return words alpha_1, alpha_2, ... of a recurrent word.

    alpha_1 is the least letter; each next alpha is the lexicographically
    least return word to the previous alpha raised to its maximal windowed
    exponent. exponents_certified records whether a caller vouched for a
    repetition bound making the windowed exponents exact.
    """

    entries: tuple[AlphaChainEntry, ...]
    alphabet: str
    exponents_certified: bool = False

    def level(self, k: int) -> AlphaChainEntry:
        if not 1 <= k <= len(self.entries):
            raise ValueError(f"level {k} outside 1..{len(self.entries)}")
        return self.entries[k - 1]

    def to_json(self) -> dict:
        return asdict(self)


def _least_row(ranks: np.ndarray, start: np.ndarray, length: np.ndarray, rows: np.ndarray) -> int:
    # the row r among rows whose factor ranks[start[r]:start[r] + length[r]]
    # is least in the alphabet's order, the first on ties: rows are narrowed,
    # one letter column at a time, to those with the least letter there, and
    # a row that ends at a column is a prefix of every row left, so least
    for c in range(int(length.max())):
        ended = length[rows] == c
        if rows.size == 1 or ended.any():
            return int(rows[ended.argmax()])
        column = ranks[start[rows] + c]
        rows = rows[column == column.min()]
    return int(rows[0])


def _chain_walk(source: WordSource, depth: int, horizon: int, repetition_bound: int | None):
    # (alpha_k, e_k, the offsets of alpha_k^e_k in the window) for k = 1..depth,
    # each level's exponent and markers read off the occurrences of alpha_k.
    # No two occurrences of alpha_k lie closer than |alpha_k|, so the markers
    # do not overlap either: two closer ones would make a longer power, or two
    # closer occurrences of alpha_k. So every block between two markers starts
    # with the marker, and so does alpha_{k+1}, the least block: its
    # occurrences are the markers its remaining letters narrow. Nor do two of
    # them lie closer: the block at the first would be a proper prefix of
    # alpha_{k+1}, hence less than it. Level 1, a letter, starts this.
    source.refuse_holes("build an alpha chain on")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ranks = source.ranks(horizon)
    n = ranks.size
    alpha, occ = source.alphabet.least, np.flatnonzero(ranks == 0)
    for k in range(1, depth + 1):
        e, markers = kernels.active.longest_power(occ, len(alpha), n)
        if e == 0:
            raise InsufficientWindowError(
                f"level-{k} word {_quote(alpha)} does not occur within horizon {horizon}"
            )
        if repetition_bound is not None and e > repetition_bound:
            raise ValueError(
                f"windowed exponent {e} exceeds the vouched bound {repetition_bound}"
            )
        yield alpha, e, markers
        if k == depth:
            return
        z = alpha * e
        _need_two(z, markers.size, horizon)
        t = _least_row(ranks, markers, np.diff(markers), np.arange(markers.size - 1))
        a, b = markers[t:t + 2].tolist()
        alpha = source.prefix(horizon)[a:b]
        occ = kernels.active.narrow(markers[markers <= n - b + a], ranks[a:b], ranks, len(z))


def alpha_chain(
    source: WordSource,
    depth: int,
    horizon: int,
    repetition_bound: int | None = None,
) -> AlphaChain:
    """Build the minimal-return chain down to the given depth.

    With repetition_bound set (a caller-known cap on integer powers in the
    word), the windowed exponents are treated as exact; a windowed exponent
    above the bound is a contradiction and raises.
    """
    walk = _chain_walk(source, depth, horizon, repetition_bound)
    return AlphaChain(tuple(AlphaChainEntry(alpha, e, horizon) for alpha, e, _ in walk),
                      source.alphabet.letters, repetition_bound is not None)


@dataclass
class ReturnFactorization:
    """Window of a word cut at the occurrences of a marker z.

    preamble is everything before the first occurrence; returns[j] spans
    occurrence j to occurrence j+1 (0-based list, matching block numbers
    1.. in the window).
    """

    z: str
    preamble: str
    returns: list[str]
    horizon: int
    exponent: int | None = None

    @property
    def max_return_time(self) -> int:
        return max(map(len, self.returns))

    @property
    def min_return_length(self) -> int:
        return min(map(len, self.returns))

    def boundaries(self) -> list[int]:
        """Offsets of the marker occurrences bounding the complete blocks."""
        return list(accumulate(map(len, self.returns), initial=len(self.preamble)))

    def to_json(self) -> dict:
        return {
            "z": self.z,
            "e": self.exponent,
            "preamble": self.preamble,
            "returns": list(self.returns),
            "m_k": self.max_return_time,
            "mu_k": self.min_return_length,
            "horizon": self.horizon,
        }


def _need_two(z: str, count: int, horizon: int) -> None:
    if count < 2:
        raise InsufficientWindowError(
            f"{_quote(z)} occurs {count} time(s) in a window of {horizon}; need >= 2"
        )


def return_factorization(
    source: WordSource,
    z: str,
    horizon: int,
    exponent: int | None = None,
    assert_block_prefix: bool = False,
    occ: list[int] | None = None,
) -> ReturnFactorization:
    """Cut the window at every occurrence of z.

    assert_block_prefix enforces the chain-marker discipline: occurrences
    may not overlap, equivalently z is a prefix of every return word. Use
    it when z is a chain power alpha^e; leave it off for arbitrary z.
    occ, when given, holds every offset of z in the window in increasing
    order (the markers the chain walk found), and z is not searched for.
    """
    if occ is None:
        occ = occurrences(z, source, horizon)
    _need_two(z, len(occ), horizon)
    text = source.prefix(horizon)
    preamble = text[: occ[0]]
    returns = [text[a:b] for a, b in zip(occ, occ[1:])]
    if assert_block_prefix:
        # block j starts with z exactly when the next occurrence is at least
        # |z| letters after occurrence j
        short = np.flatnonzero(np.diff(occ) < len(z))
        if short.size:
            j = int(short[0])
            raise ValueError(f"marker occurrences overlap: block {j + 1} ({_quote(returns[j])}) "
                             f"does not start with {_quote(z)}")
    return ReturnFactorization(z, preamble, returns, horizon, exponent)


def _least_h(blocks: list[str], window: int | None, where: str) -> Fraction:
    # least h over the first `window` blocks (all of them for None), refusing
    # a negative or empty window and one the blocks do not fill
    if window is not None and window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    chosen = blocks if window is None else blocks[:window]
    if not chosen:
        raise ValueError("empty block window")
    if window is not None and len(blocks) < window:
        raise InsufficientWindowError(f"only {len(blocks)} blocks {where}, wanted {window}")
    return min(map(h_of_row, local_period_table(chosen).values()))


def h_floor(fact: ReturnFactorization, window: int | None = None) -> Fraction:
    """Minimum complexity h over the first `window` return blocks (preamble excluded)."""
    return _least_h(fact.returns, window, "in horizon")


@dataclass
class DyadicFactorization:
    """Consecutive blocks of length 2^level cut from the front of a word."""

    level: int
    blocks: list[str]
    horizon: int

    @property
    def block_length(self) -> int:
        return 2 ** self.level

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "block_length": self.block_length,
            "horizon": self.horizon,
            "blocks": list(self.blocks),
        }


def _dyadic_length(level: int, name: str = "level") -> int:
    # 2^level, refused by the parameter's name before the power is built when
    # level is negative or its blocks are longer than any prefix
    if level < 0:
        raise ValueError(f"{name} must be >= 0")
    if level >= MAX_PREFIX.bit_length():
        raise ValueError(f"{name} must be at most {MAX_PREFIX.bit_length() - 1}, got {level}: "
                         f"blocks of 2^{name} letters are over the limit of {MAX_PREFIX}")
    return 2 ** level


def dyadic_factorization(source: WordSource, level: int, horizon: int) -> DyadicFactorization:
    """Cut the window into blocks of length 2^level (a final stub is dropped)."""
    blen = _dyadic_length(level)
    text = source.prefix(horizon)
    count = len(text) // blen
    if count < 1:
        raise InsufficientWindowError(
            f"horizon {len(text)} holds no complete block of length {blen}"
        )
    blocks = [text[t * blen:(t + 1) * blen] for t in range(count)]
    return DyadicFactorization(level, blocks, len(text))


def b_floor(dy: DyadicFactorization, window: int | None = None) -> Fraction:
    """Minimum h over blocks 1..window; block 0 is excluded."""
    return _least_h(dy.blocks[1:], window, "past block 0")
