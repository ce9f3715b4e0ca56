"""Occurrences, return words, the minimal-return chain, and block factorizations.

Everything here is windowed: computations see only a finite prefix (the
horizon) of an infinite word, and results such as maximal exponents or
extremal return-word lengths are exact for that window but only bounds for
the full word unless a caller vouches for a known repetition bound.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import InsufficientWindowError
from .periods import local_period_table
from .words import HOLE, WordSource, encode


def _horizon(horizon: int | None) -> int:
    if horizon is None:
        raise ValueError("need a horizon for an infinite word")
    return horizon


def occurrences(z: str, source: WordSource, horizon: int | None = None) -> list[int]:
    """0-based offsets of every occurrence of z inside the window.

    z may hold holes when the word does; a hole then matches only a hole.
    """
    if not z:
        raise ValueError("empty factor")
    hits = kernels.active.occurrence_list(
        encode(z, source.alphabet, allow_hole=source.has_holes), source.ranks(_horizon(horizon)))
    return hits.tolist()


def return_words(z: str, source: WordSource, horizon: int | None = None) -> tuple[list[str], int]:
    """Distinct return words to z in the window, plus the max return time.

    A return word spans one occurrence of z to the next; at least two
    occurrences are needed, otherwise the window is declared insufficient.
    """
    occ = occurrences(z, source, horizon)
    if len(occ) < 2:
        raise InsufficientWindowError(
            f"{z!r} occurs {len(occ)} time(s) in a window of {horizon}; need >= 2"
        )
    text = source.prefix(horizon)
    seen = sorted({text[a:b] for a, b in zip(occ, occ[1:])})
    max_time = max(b - a for a, b in zip(occ, occ[1:]))
    return seen, max_time


def max_exponent(v: str, source: WordSource, horizon: int | None = None) -> int:
    """Largest e with v^e inside the window (0 when v does not occur)."""
    if not v:
        raise ValueError("empty factor")
    return int(kernels.active.max_power(
        encode(v, source.alphabet, allow_hole=source.has_holes), source.ranks(_horizon(horizon))))


def repetition_exponent_estimate(
    source: WordSource, horizon: int | None = None, max_period: int = 64
) -> int:
    """Windowed max over short-period factors v of the largest power v^e.

    A lower bound for the full word; it grows with the horizon on periodic
    input, which is exactly how callers detect that no uniform bound exists.
    """
    return int(kernels.active.max_run_exponent(source.ranks(_horizon(horizon)), max_period))


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

    def power(self, k: int) -> str:
        e = self.level(k)
        return e.alpha * e.exponent

    def to_json(self) -> dict:
        return {
            "alphabet": self.alphabet,
            "exponents_certified": self.exponents_certified,
            "entries": [
                {"alpha": e.alpha, "exponent": e.exponent, "horizon": e.horizon}
                for e in self.entries
            ],
        }


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
    if source.has_holes:
        raise ValueError(f"cannot build an alpha chain on {source.descriptor}: "
                         f"it has holes ({HOLE!r})")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    entries = []
    alpha = source.alphabet.least
    for k in range(1, depth + 1):
        e = max_exponent(alpha, source, horizon)
        if e == 0:
            raise InsufficientWindowError(
                f"level-{k} word {alpha!r} does not occur within horizon {horizon}"
            )
        if repetition_bound is not None and e > repetition_bound:
            raise ValueError(
                f"windowed exponent {e} exceeds the vouched bound {repetition_bound}"
            )
        entries.append(AlphaChainEntry(alpha, e, horizon))
        if k < depth:
            rws, _ = return_words(alpha * e, source, horizon)
            alpha = min(rws, key=source.alphabet.sort_key)
    return AlphaChain(tuple(entries), source.alphabet.letters, repetition_bound is not None)


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
        return max(len(w) for w in self.returns)

    @property
    def min_return_length(self) -> int:
        return min(len(w) for w in self.returns)

    def boundaries(self) -> list[int]:
        """Offsets of the marker occurrences bounding the complete blocks."""
        out = [len(self.preamble)]
        for w in self.returns:
            out.append(out[-1] + len(w))
        return out

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


def return_factorization(
    source: WordSource,
    z: str,
    horizon: int | None = None,
    exponent: int | None = None,
    assert_block_prefix: bool = False,
) -> ReturnFactorization:
    """Cut the window at every occurrence of z.

    assert_block_prefix enforces the chain-marker discipline: occurrences
    may not overlap, equivalently z is a prefix of every return word. Use
    it when z is a chain power alpha^e; leave it off for arbitrary z.
    """
    occ = occurrences(z, source, horizon)
    if len(occ) < 2:
        raise InsufficientWindowError(
            f"{z!r} occurs {len(occ)} time(s) in a window of {horizon}; need >= 2"
        )
    text = source.prefix(horizon)
    preamble = text[: occ[0]]
    returns = [text[a:b] for a, b in zip(occ, occ[1:])]
    if assert_block_prefix:
        for j, w in enumerate(returns, 1):
            if not w.startswith(z):
                raise ValueError(
                    f"marker occurrences overlap: block {j} ({w!r}) does not start with {z!r}"
                )
    return ReturnFactorization(z, preamble, returns, horizon, exponent)


def _h_min(blocks: list[str]) -> Fraction:
    # least mean local period over the distinct blocks
    return min(Fraction(int(r.sum()), r.size) for r in local_period_table(blocks).values())


def h_floor(fact: ReturnFactorization, window: int | None = None) -> Fraction:
    """Minimum complexity h over the first `window` return blocks (preamble excluded)."""
    blocks = fact.returns if window is None else fact.returns[:window]
    if not blocks:
        raise ValueError("empty block window")
    if window is not None and len(fact.returns) < window:
        raise InsufficientWindowError(
            f"only {len(fact.returns)} blocks in horizon, wanted {window}"
        )
    return _h_min(blocks)


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


def dyadic_factorization(
    source: WordSource, level: int, horizon: int | None = None
) -> DyadicFactorization:
    """Cut the window into blocks of length 2^level (a final stub is dropped)."""
    if level < 0:
        raise ValueError("level must be >= 0")
    text = source.prefix(_horizon(horizon))
    blen = 2 ** level
    count = len(text) // blen
    if count < 1:
        raise InsufficientWindowError(
            f"horizon {len(text)} holds no complete block of length {blen}"
        )
    blocks = [text[t * blen:(t + 1) * blen] for t in range(count)]
    return DyadicFactorization(level, blocks, len(text))


def b_floor(dy: DyadicFactorization, window: int | None = None) -> Fraction:
    """Minimum h over blocks 1..window; block 0 is excluded."""
    blocks = dy.blocks[1:] if window is None else dy.blocks[1:window + 1]
    if not blocks:
        raise ValueError("empty block window")
    if window is not None and len(dy.blocks) - 1 < window:
        raise InsufficientWindowError(
            f"only {len(dy.blocks) - 1} blocks past block 0, wanted {window}"
        )
    return _h_min(blocks)
