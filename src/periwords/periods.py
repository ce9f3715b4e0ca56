"""Periods, borders, local periods, and the running complexity average.

The local period at position i of w (split u = w[:i], v = w[i:]) is the
length of the shortest nonempty word that is suffix-comparable with u and
prefix-comparable with v, where "comparable" means one word is a suffix
(resp. prefix) of the other. For a finite word it is always defined and
equals 1 at the last position; for an infinite word the search is bounded
by an explicit cap and may come back CapExceeded.

All averaged quantities are exact fractions.Fraction values; nothing here
rounds.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .words import BINARY, HOLE, Alphabet, WordSource, encode

SQUARE = "square"
RIGHT_OVERHANG = "right-overhang"
LEFT_OVERHANG = "left-overhang"
DOUBLE_OVERHANG = "double-overhang"

# distinct words of one length from which local_period_table scans them as
# one matrix; below it the per-row loop is faster. One row is 7-10x slower
# through the matrix, and the two break even at about 20 rows of 3 letters,
# 32 rows of 10-14 letters and 48 rows of 24-48 letters.
MATRIX_MIN_WORDS = 32


@dataclass(frozen=True)
class RepetitionWitness:
    """Shortest repetition word at a position: its length, match shape, letters."""

    length: int
    case: str
    word: str


@dataclass(frozen=True)
class CapExceeded:
    """No repetition word of length <= cap was found (a value, not an error)."""

    cap: int


def period(w: str) -> int:
    """Least p >= 1 with w[i] == w[i+p] wherever both sides exist."""
    if not w:
        raise ValueError("the empty word has no period")
    return int(kernels.active.period_of(encode(w)))


def shortest_border(w: str) -> str | None:
    """Shortest nonempty proper prefix that is also a suffix, or None."""
    if not w:
        raise ValueError("empty word")
    b = int(kernels.active.shortest_border_length(encode(w)))
    return w[:b] if b else None


def is_unbordered(w: str) -> bool:
    return shortest_border(w) is None


def is_primitive(w: str) -> bool:
    """True unless w is a repeated copy of a strictly shorter word."""
    p = period(w)
    return p == len(w) or len(w) % p != 0


def least_conjugate(w: str, alphabet: Alphabet = BINARY) -> str:
    """Lexicographically least rotation of w under the alphabet order."""
    if not w:
        raise ValueError("empty word")
    idx = int(kernels.active.least_rotation_index(encode(w, alphabet)))
    return w[idx:] + w[:idx]


def is_lyndon(w: str, alphabet: Alphabet = BINARY) -> bool:
    """Primitive and equal to its least conjugate (hence unbordered)."""
    if not w:
        return False
    return is_primitive(w) and least_conjugate(w, alphabet) == w


def _case_of(length: int, i: int, lv: int) -> str:
    if length <= i and length <= lv:
        return SQUARE
    if length <= lv:
        return RIGHT_OVERHANG
    if length <= i:
        return LEFT_OVERHANG
    return DOUBLE_OVERHANG


def local_period(w: str, i: int) -> RepetitionWitness:
    """Shortest repetition word at position i of the finite word w.

    The scan tries lengths upward; at each length exactly one of the four
    match shapes applies, and length |w| always matches, so the minimum the
    scan returns is certified by exhaustion of everything shorter.
    """
    n = len(w)
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside 1..{n}")
    L = int(kernels.active.local_period_finite(encode(w), i))
    lv = n - i
    case = _case_of(L, i, lv)
    if case in (SQUARE, RIGHT_OVERHANG):
        word = w[i:i + L]
    elif case == LEFT_OVERHANG:
        word = w[i - L:i]
    else:
        # both ends overhang: r carries v as prefix and u as suffix, and for
        # L <= |w| those two parts cover every letter of r
        chars = [""] * L
        v = w[i:]
        for k in range(lv):
            chars[k] = v[k]
        u = w[:i]
        for k in range(i):
            chars[L - i + k] = u[k]
        word = "".join(chars)
    return RepetitionWitness(L, case, word)


def local_period_infinite(source: WordSource, i: int, cap: int) -> RepetitionWitness | CapExceeded:
    """Shortest repetition word at position i of an infinite word, up to cap.

    The repetition word must be a prefix of the right side, so only the
    square and right-overhang shapes occur.
    """
    if i < 1:
        raise ValueError("positions are 1-based")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    buf = source.ranks(i + cap)
    L = int(kernels.active.local_period_stream(buf, i, cap))
    if L == 0:
        return CapExceeded(cap)
    case = SQUARE if L <= i else RIGHT_OVERHANG
    return RepetitionWitness(L, case, source.prefix(i + L)[i:i + L])


def local_period_oracle(w: str, i: int, alphabet: Alphabet = BINARY) -> int:
    """Independent reference: enumerate all candidate repetition words.

    Exponential in |w|; guarded to |w| <= 16.
    """
    n = len(w)
    if n > 16:
        raise ValueError("oracle is exponential; |w| <= 16 only")
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside 1..{n}")
    return int(kernels.active.oracle_local_period(encode(w, alphabet), i, alphabet.size))


@dataclass
class PeriodProfile:
    """Local periods at positions 1..n plus exact running averages.

    local_periods holds ints, with None marking a cap-exceeded scan; the
    running average h(i) is defined only while no marker occurred yet.
    """

    descriptor: str
    local_periods: list
    cap: int | None = None

    def __post_init__(self):
        self._h: list | None = None
        self._sums: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.local_periods)

    def _prefix_sums(self) -> np.ndarray:
        # p(1) + ... + p(i) for every i before the first cap hit; int64 when no
        # total can overflow it, else Python ints in an object array
        if self._sums is None:
            live = self.local_periods
            if None in live:
                live = live[:live.index(None)]
            wide = max(live, default=0) * len(live) >= 2 ** 63
            self._sums = np.cumsum(np.array(live, dtype=object if wide else np.int64))
        return self._sums

    def h_values(self) -> list:
        if self._h is None:
            sums = self._prefix_sums().tolist()
            self._h = [Fraction(t, i) for i, t in enumerate(sums, 1)] + [None] * (self.n - len(sums))
        return self._h

    def h_at(self, i: int) -> Fraction | None:
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} outside 1..{self.n}")
        sums = self._prefix_sums()
        return Fraction(int(sums[i - 1]), i) if i <= len(sums) else None

    def columns(self) -> tuple[list[int], list[int]]:
        """Reduced numerators and denominators of h(1), h(2), ... as Python ints.

        The lists stop before the first cap hit. h(i) is reduced with np.gcd
        instead of through one Fraction per position.
        """
        sums = self._prefix_sums()
        index = np.arange(1, len(sums) + 1).astype(sums.dtype)
        g = np.gcd(sums, index)
        return (sums // g).tolist(), (index // g).tolist()

    def rows(self) -> list[dict]:
        """One dict per position, rationals split into numerator/denominator.

        float(Fraction) divides the reduced ints, so h_approx is the same float.
        """
        nums, dens = self.columns()
        live = len(nums)
        out = [
            {"index": i, "local_period": p, "h_numerator": a, "h_denominator": b, "h_approx": a / b}
            for i, p, a, b in zip(range(1, live + 1), self.local_periods, nums, dens)
        ]
        out += [
            {
                "index": i,
                "local_period": "CAP" if p is None else p,
                "h_numerator": None,
                "h_denominator": None,
                "h_approx": None,
            }
            for i, p in enumerate(self.local_periods[live:], live + 1)
        ]
        return out

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "n": self.n,
            "cap": self.cap,
            "rows": self.rows(),
        }


def profile(subject, n: int | None = None, cap: int | None = None) -> PeriodProfile:
    """Local periods at every position of a finite word or a source prefix.

    For a WordSource, n >= 0 is required and cap >= 1 defaults to 4n + 64.
    Words with holes are rejected: a hole would be matched as a letter of its
    own.
    """
    if isinstance(subject, str):
        if not subject:
            raise ValueError("empty word")
        lps = local_periods(subject)
        return PeriodProfile(subject, [int(v) for v in lps], cap=None)
    if n is None:
        raise ValueError("need n for an infinite word")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if subject.has_holes:
        raise ValueError(f"cannot profile {subject.descriptor}: it has holes ({HOLE!r})")
    if cap is None:
        cap = 4 * n + 64
    buf = subject.ranks(n + cap)
    lps = kernels.active.local_periods_stream(buf, n, cap)
    vals = [int(v) if v else None for v in lps]
    return PeriodProfile(subject.descriptor, vals, cap=cap)


def local_periods(w: str) -> np.ndarray:
    """Local periods at positions 1..|w| of a finite word, as an int64 array."""
    return kernels.active.local_periods_finite(encode(w))


def local_period_table(words) -> dict[str, np.ndarray]:
    """Local periods of every distinct word in words, keyed by the word.

    The distinct words are grouped by length and each group is encoded as one
    (words x letters) array. A group of at least MATRIX_MIN_WORDS words is
    scanned in one local_period_matrix call; a smaller one row by row, where
    the scalar loop is faster.
    """
    groups: dict[int, list[str]] = {}
    for w in dict.fromkeys(words):
        groups.setdefault(len(w), []).append(w)
    table = {}
    for n, ws in groups.items():
        letters = encode("".join(ws)).reshape(len(ws), n)
        if len(ws) >= MATRIX_MIN_WORDS:
            rows = kernels.active.local_period_matrix(letters)
        else:
            rows = [kernels.active.local_periods_finite(r) for r in letters]
        table.update(zip(ws, rows))
    return table


def h_of(w: str) -> Fraction:
    """Mean of the local periods over all positions of a finite word."""
    if not w:
        raise ValueError("empty word")
    return Fraction(int(local_periods(w).sum()), len(w))


def local_period_sum(w: str) -> int:
    """Integer sum of all local periods of w (|w| times h(w))."""
    if not w:
        return 0
    return int(local_periods(w).sum())


def critical_positions(w: str) -> list[int]:
    """All positions whose local period equals the period of w, ascending."""
    if not w:
        raise ValueError("empty word")
    arr = encode(w)
    p = int(kernels.active.period_of(arr))
    lps = kernels.active.local_periods_finite(arr)
    return [i + 1 for i, v in enumerate(lps) if int(v) == p]
