"""Periods, borders, local periods, and the running complexity average.

The local period at position i of w (split u = w[:i], v = w[i:]) is the
length of the shortest nonempty word that is suffix-comparable with u and
prefix-comparable with v, where "comparable" means one word is a suffix
(resp. prefix) of the other. For a finite word of length n this is one
window rule: p_w(i) is the least L >= 1 with w[j] == w[j+L] for every j in
[max(0, i-L), min(i, n-L)) (0-based letters), that is, the least L that is
a period of w[max(0, i-L):min(n, i+L)]. L = n always qualifies, because its
window is empty. The four match shapes reported with a witness (square,
right, left and double overhang) only say which window end is cut by an
end of w. For an infinite word the search is bounded by an explicit cap
and may come back CapExceeded.

All averaged quantities are exact fractions.Fraction values; nothing here
rounds.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import kernels
from .words import BINARY, Alphabet, WordSource, encode

SQUARE = "square"
RIGHT_OVERHANG = "right-overhang"
LEFT_OVERHANG = "left-overhang"
DOUBLE_OVERHANG = "double-overhang"


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

    The scan tries lengths upward under the window rule, and length |w|
    always qualifies, so the minimum it returns is certified by exhaustion
    of everything shorter. The witness starts with v = w[i:]; when it is
    longer than v, the letters after v are w[|w|-L:i], the end of u that
    the window rule made agree with it.
    """
    n = len(w)
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside 1..{n}")
    L = int(kernels.active.local_period_finite(encode(w), i))
    word = w[i:i + L] if L <= n - i else w[i:] + w[n - L:i]
    return RepetitionWitness(L, _case_of(L, i, n - i), word)


def local_period_infinite(source: WordSource, i: int, cap: int) -> RepetitionWitness | CapExceeded:
    """Shortest repetition word at position i of an infinite word, up to cap.

    The repetition word must be a prefix of the right side, so only the
    square and right-overhang shapes occur.
    """
    if i < 1:
        raise ValueError("positions are 1-based")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    source.refuse_holes("scan")
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

    @property
    def n(self) -> int:
        return len(self.local_periods)

    @cached_property
    def _prefix_sums(self) -> np.ndarray:
        # p(1) + ... + p(i) for every i before the first cap hit; int64 when no
        # total can overflow it, else Python ints in an object array
        live = self.local_periods
        if None in live:
            live = live[:live.index(None)]
        wide = max(live, default=0) * len(live) >= 2 ** 63
        return np.cumsum(np.array(live, dtype=object if wide else np.int64))

    def h_values(self) -> list:
        nums, dens = self.columns()
        return [Fraction(a, b) for a, b in zip(nums, dens)] + [None] * (self.n - len(nums))

    def h_at(self, i: int) -> Fraction | None:
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} outside 1..{self.n}")
        sums = self._prefix_sums
        return Fraction(int(sums[i - 1]), i) if i <= len(sums) else None

    def columns(self) -> tuple[list[int], list[int]]:
        """Reduced numerators and denominators of h(1), h(2), ... as Python ints.

        The lists stop before the first cap hit. h(i) is reduced with np.gcd
        instead of through one Fraction per position.
        """
        sums = self._prefix_sums
        index = np.arange(1, len(sums) + 1).astype(sums.dtype)
        g = np.gcd(sums, index)
        return (sums // g).tolist(), (index // g).tolist()

    def split(self) -> tuple:
        """(i, p(i), h numerator, h denominator) up to the first cap hit, then
        (i, p(i)) with p(i) None at a cap hit and h undefined."""
        nums, dens = self.columns()
        live = len(nums)
        return (zip(range(1, live + 1), self.local_periods, nums, dens),
                enumerate(self.local_periods[live:], live + 1))

    def rows(self) -> list[dict]:
        """One dict per position, rationals split into numerator/denominator.

        float(Fraction) divides the reduced ints, so h_approx is the same float.
        """
        live, capped = self.split()
        out = [{"index": i, "local_period": p, "h_numerator": a, "h_denominator": b,
                "h_approx": a / b} for i, p, a, b in live]
        out += [{"index": i, "local_period": "CAP" if p is None else p, "h_numerator": None,
                 "h_denominator": None, "h_approx": None} for i, p in capped]
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
        return PeriodProfile(subject, lps.tolist(), cap=None)
    if n is None:
        raise ValueError("need n for an infinite word")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    subject.refuse_holes("profile")
    if cap is None:
        cap = 4 * n + 64
    buf = subject.ranks(n + cap)
    lps = kernels.active.local_periods_stream(buf, n, cap)
    vals = [v or None for v in lps.tolist()]
    return PeriodProfile(subject.descriptor, vals, cap=cap)


def local_periods(w: str) -> np.ndarray:
    """Local periods at positions 1..|w| of a finite word, as an int64 array."""
    return kernels.active.local_periods_finite(encode(w))


def local_period_table(words) -> dict[str, np.ndarray]:
    """Local periods of every distinct word in words, keyed by the word."""
    return {w: local_periods(w) for w in dict.fromkeys(words)}


def factor_local_periods(letters: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Local periods of factors of the rows of a letter matrix, each in the columns it spans.

    Factor k is row k % rows of ``letters`` at columns start[k] .. start[k] +
    length[k] - 1; row k of the result holds its local periods in those
    columns and 0 elsewhere, in the least unsigned dtype that holds the row
    length. The factors of each length are gathered and scanned in one
    local_period_matrix call.
    """
    rows, n = letters.shape
    out = np.zeros((start.size, n), np.min_scalar_type(n))
    for m in range(1, n + 1):
        k = np.flatnonzero(length == m)[:, None]
        if k.size:
            cols = start[k] + np.arange(m)
            out[k, cols] = kernels.active.local_period_matrix(letters[k % rows, cols])
    return out


def h_of_row(lps: np.ndarray) -> Fraction:
    """h of a word from its row of local periods: their mean, exactly."""
    return Fraction(int(lps.sum()), lps.size)


def h_of(w: str) -> Fraction:
    """Mean of the local periods over all positions of a finite word."""
    if not w:
        raise ValueError("empty word")
    return h_of_row(local_periods(w))


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
