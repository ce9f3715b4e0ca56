"""Alphabets, lazy infinite words, and the generator families.

Finite words are plain Python strings. Infinite words are WordSource objects
that hand out prefixes of any requested length; every source is deterministic,
so letter_at(i) is a pure function of the descriptor. Positions are 1-based
throughout, and position i of a finite word w runs over 1..|w|.

The hole symbol "?" is reserved for partially defined words (Toeplitz bases)
and is never a member of any alphabet.
"""

import random
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DescriptorError

HOLE = "?"
HOLE_RANK = 255
# the longest prefix a source is asked for, about 3.4e7 letters: its letters
# and ranks take 64 MB.  Building a morphic one holds two images of at most
# that length per rule letter and one join of at most twice it: fibonacci's
# traced peak is 107 MB (Python 3.11).  A word with a huge exponent asks for
# far longer ones, which are refused before anything is allocated.
MAX_PREFIX = 1 << 25


def _check_size(n: int, what: str) -> None:
    if n > MAX_PREFIX:
        raise ValueError(f"{what} needs {n} letters, over the limit of {MAX_PREFIX}")


class Alphabet:
    """An ordered finite alphabet; the first letter is the least one."""

    __slots__ = ("letters", "_rank", "_trans")

    def __init__(self, letters: str = "ab"):
        if len(letters) < 2:
            raise ValueError("an alphabet needs at least two letters")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        if HOLE in letters:
            raise ValueError(f"{HOLE!r} is reserved for holes")
        if not letters.isascii():
            bad = next(c for c in letters if not c.isascii())
            raise ValueError(f"alphabet letters must be ASCII, got {bad!r}")
        self.letters = letters
        self._rank = {c: r for r, c in enumerate(letters)}
        self._trans = bytes.maketrans(
            (letters + HOLE).encode("ascii"), bytes(range(len(letters))) + bytes([HOLE_RANK])
        )

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def least(self) -> str:
        return self.letters[0]

    def rank(self, letter: str) -> int:
        return self._rank[letter]

    def validate(self, word: str, allow_hole: bool = False) -> None:
        # the letters are ASCII (__init__ refuses others), so a valid word is
        # one whose bytes all delete; any other word takes the set route,
        # which names the bad letters
        allowed = self.letters + HOLE if allow_hole else self.letters
        if word.isascii() and not word.encode("ascii").translate(None, allowed.encode("ascii")):
            return
        bad = set(word) - set(allowed)
        if bad:
            raise ValueError(f"letters {sorted(bad)!r} are not in alphabet {self.letters!r}")

    def encode(self, word: str, allow_hole: bool = False) -> np.ndarray:
        """Rank-encode a word as a uint8 array (holes become {HOLE_RANK})."""
        return encode(word, self, allow_hole)

    def sort_key(self, word: str):
        """Key for lexicographic order where a proper prefix sorts first."""
        return tuple(self._rank[c] for c in word)

    def __repr__(self):
        return f"Alphabet({self.letters!r})"


BINARY = Alphabet("ab")


def encode(word: str, alphabet: Alphabet | None = None, allow_hole: bool = False) -> np.ndarray:
    """The one letter encoding: a word as the uint8 array every kernel reads.

    With an alphabet the codes are ranks and a hole becomes HOLE_RANK; without
    one they are the ASCII bytes, which is all an equality-only kernel needs.
    A hole is refused unless allow_hole is set, since a kernel would match it
    as a letter of its own; only a holed source's ranks and occurrence search
    in it admit holes.
    """
    if not allow_hole and HOLE in word:
        raise ValueError(f"cannot scan a word with holes ({HOLE!r})")
    if alphabet is None:
        if not word.isascii():
            bad = sorted({c for c in word if not c.isascii()})
            raise ValueError(f"letters {bad!r} are not ASCII")
        return np.frombuffer(word.encode("ascii"), np.uint8)
    alphabet.validate(word, allow_hole=allow_hole)
    return np.frombuffer(word.encode("ascii").translate(alphabet._trans), np.uint8).copy()


def random_binary_words(rng: random.Random, rows: int, n: int, draws: int):
    """``rows`` random binary words of ``n`` letters, and ``draws`` random 32-bit numbers per word.

    Letter t of word r is bit r * n + t of one ``rng.getrandbits`` call (0 is
    the first letter), and number j of word r is 32-bit word r * draws + j of
    a second one, both least significant first. Returns the (rows, n) uint8
    letter matrix and a (draws, rows) uint64 array.
    """
    size = rows * n
    bits = np.frombuffer(rng.getrandbits(size).to_bytes((size + 7) // 8, "little"), np.uint8)
    letters = np.unpackbits(bits, count=size, bitorder="little").reshape(rows, n)
    numbers = rng.getrandbits(32 * draws * rows).to_bytes(4 * draws * rows, "little")
    return letters, np.frombuffer(numbers, "<u4").reshape(rows, draws).T.astype(np.uint64)


def lex_compare(w1: str, w2: str, alphabet: Alphabet = BINARY) -> int:
    """-1, 0, or 1 for w1 < w2, w1 == w2, w1 > w2 in alphabet order.

    A proper prefix is smaller than any of its extensions.
    """
    k1, k2 = alphabet.sort_key(w1), alphabet.sort_key(w2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


class WordSource:
    """Lazy right-infinite word with a growing prefix buffer.

    Subclasses implement _generate(n) returning a prefix of length >= n;
    successive calls must agree on their common prefix. Buffer growth is
    serialized by a lock and published as one (letters, ranks) snapshot, so
    concurrent readers always see letters and ranks of the same length.
    """

    def __init__(self, descriptor: str, alphabet: Alphabet = BINARY, has_holes: bool = False):
        self.descriptor = descriptor
        self.alphabet = alphabet
        self.has_holes = has_holes
        self._snap = ("", np.empty(0, np.uint8))
        self._lock = threading.Lock()

    def _generate(self, n: int) -> str:
        raise NotImplementedError

    def _ensure(self, n: int) -> tuple[str, np.ndarray]:
        """A (letters, ranks) snapshot holding at least n letters."""
        if n < 0:
            raise ValueError("prefix length must be nonnegative")
        snap = self._snap
        if len(snap[0]) >= n:
            return snap
        _check_size(n, f"a prefix of {self.descriptor}")
        with self._lock:
            snap = self._snap
            if len(snap[0]) >= n:
                return snap
            buf = snap[0]
            target = min(max(n, 2 * len(buf), 64), MAX_PREFIX)
            new = self._generate(target)
            if len(new) < n:
                raise ValueError(
                    f"{self.descriptor!r} produced only {len(new)} letters, needed {n}"
                )
            if not new.startswith(buf):
                raise AssertionError(f"{self.descriptor!r} regenerated an unstable prefix")
            self._snap = snap = (new, self.alphabet.encode(new, allow_hole=self.has_holes))
            return snap

    def prefix(self, n: int) -> str:
        return self._ensure(n)[0][:n]

    def letter_at(self, i: int) -> str:
        """The letter at 1-based position i."""
        if i < 1:
            raise ValueError("positions are 1-based")
        return self._ensure(i)[0][i - 1]

    def ranks(self, n: int) -> np.ndarray:
        """Rank-encoded prefix of length n (read-only view of the cache)."""
        return self._ensure(n)[1][:n]

    def refuse_holes(self, what: str) -> None:
        """Raise ValueError("cannot {what} {descriptor}: ...") if the word has holes.

        Every scan but an occurrence search calls it: a kernel would match a
        hole as a letter of its own.
        """
        if self.has_holes:
            raise ValueError(f"cannot {what} {self.descriptor}: it has holes ({HOLE!r})")

    def __repr__(self):
        return f"<WordSource {self.descriptor!r}>"


class PeriodicSource(WordSource):
    """pattern repeated forever; the pattern may contain holes."""

    def __init__(self, pattern: str, alphabet: Alphabet = BINARY):
        if not pattern:
            raise ValueError("empty pattern")
        alphabet.validate(pattern, allow_hole=True)
        super().__init__(
            f"periodic:{pattern}", alphabet, has_holes=HOLE in pattern
        )
        self.pattern = pattern

    def _generate(self, n: int) -> str:
        reps = n // len(self.pattern) + 1
        return self.pattern * reps


class MorphicSource(WordSource):
    """Fixed point of a morphism prolongable on its seed letter."""

    def __init__(self, rules: dict[str, str], seed: str, descriptor: str | None = None):
        letters = "".join(rules.keys())
        if seed not in rules:
            raise ValueError(f"seed {seed!r} has no rule")
        image = rules[seed]
        if not image.startswith(seed) or len(image) < 2:
            raise ValueError(
                f"morphism not prolongable on seed {seed!r}: image {image!r} "
                "must start with the seed and have length >= 2"
            )
        for c, img in rules.items():
            if len(c) != 1:
                raise ValueError(f"rule key {c!r} is not a single letter")
            if not img:
                raise ValueError(f"empty image for {c!r} stalls the iteration")
            for d in img:
                if d not in rules:
                    raise ValueError(f"image letter {d!r} has no rule")
        alphabet = Alphabet(letters)
        if descriptor is None:
            body = ",".join(f"{c}={img}" for c, img in rules.items())
            descriptor = f"morphic:{body};seed={seed}"
        super().__init__(descriptor, alphabet)
        self.rules = dict(rules)
        self.seed = seed

    def _generate(self, n: int) -> str:
        # img[c] is phi^k(c) cut to n letters, one join per letter and level.
        # Each piece of a join is whole or already n long, so the first n
        # letters stay exact; a join stops taking pieces once it has n
        # letters, so it never holds more than 2n
        img = {c: c for c in self.rules}
        while len(img[self.seed]) < n:
            img = {c: _cut_join(img, r, n) for c, r in self.rules.items()}
        return img[self.seed]


def _cut_join(img: dict[str, str], rule: str, n: int) -> str:
    """The first n letters of the images img[d] of the letters d of rule, joined."""
    pieces, size = [], 0
    for d in rule:
        if size >= n:
            break
        pieces.append(img[d])
        size += len(img[d])
    return "".join(pieces)[:n]


def fibonacci_source() -> MorphicSource:
    return MorphicSource({"a": "ab", "b": "a"}, "a", descriptor="fibonacci")


def thue_morse_source() -> MorphicSource:
    return MorphicSource({"a": "ab", "b": "ba"}, "a", descriptor="thue-morse")


@dataclass(frozen=True)
class HolubParams:
    """Exponent sequence for the interleaved binary construction.

    head gives the leading exponents n_1, n_2, ...; past the head the tail
    rule extends it forever: "repeat" keeps the last value, "step" adds the
    arithmetic step per level. The sequence must be nondecreasing with
    n_1 >= 2; set strictly_increasing to insist on strict growth.
    """

    head: tuple[int, ...]
    tail: str = "repeat"
    step: int = 1
    strictly_increasing: bool = False

    def __post_init__(self):
        if not self.head:
            raise ValueError("need at least one exponent")
        if any(not isinstance(v, int) or isinstance(v, bool) for v in self.head):
            raise ValueError("exponents must be integers")
        if self.head[0] < 2:
            raise ValueError(f"first exponent must be >= 2, got {self.head[0]}")
        if self.tail not in ("repeat", "step"):
            raise ValueError(f"unknown tail rule {self.tail!r}")
        if self.tail == "step" and self.step < 1:
            raise ValueError("arithmetic step must be >= 1")
        pairs = zip(self.head, self.head[1:])
        if self.strictly_increasing:
            if any(b <= a for a, b in pairs):
                raise ValueError(f"exponents must be strictly increasing: {self.head}")
            if self.tail == "repeat":
                raise ValueError("tail=repeat cannot be strictly increasing")
        else:
            if any(b < a for a, b in pairs):
                raise ValueError(f"exponents must be nondecreasing: {self.head}")

    def n(self, j: int) -> int:
        """Exponent at level j >= 1."""
        if j < 1:
            raise ValueError("levels are 1-based")
        if j <= len(self.head):
            return self.head[j - 1]
        if self.tail == "repeat":
            return self.head[-1]
        return self.head[-1] + self.step * (j - len(self.head))

    def m(self, j: int) -> int:
        """Block growth factor: m_0 = 1, m_j = n_j + 2."""
        return 1 if j == 0 else self.n(j) + 2

    def block_length(self, j: int) -> int:
        """m_0 * m_1 * ... * m_j, which equals |u_j| + 1."""
        if j < 0:
            raise ValueError("stage must be >= 0")
        out = 1
        for t in range(1, j + 1):
            out *= self.m(t)
        return out

    def descriptor_body(self) -> str:
        body = "n=" + ",".join(str(v) for v in self.head)
        body += ";tail=repeat" if self.tail == "repeat" else f";tail=step:{self.step}"
        return body + (";strict=1" if self.strictly_increasing else "")

    @property
    def descriptor(self) -> str:
        """The descriptor of the word these exponents build."""
        return "holub:" + self.descriptor_body()


def holub_u(params: HolubParams, j: int) -> str:
    """Finite stage word u_j: u_0 is empty, u_j = u_(j-1) a (u_(j-1) b)^n_j u_(j-1)."""
    if j < 0:
        raise ValueError("stage must be >= 0")
    _check_size(params.block_length(j) - 1, f"u_{j} of {params.descriptor}")
    u = ""
    for t in range(1, j + 1):
        u = u + "a" + (u + "b") * params.n(t) + u
    return u


class HolubSource(WordSource):
    """Limit of the nested stage words u_j (each u_j is a prefix of the next)."""

    def __init__(self, params: HolubParams):
        super().__init__(params.descriptor, BINARY)
        self.params = params

    def _generate(self, n: int) -> str:
        # a stage past n letters is cut after the copies of u_(j-1) b that
        # reach n; what is left is still a prefix of u_j
        u = ""
        j = 0
        while len(u) < n:
            j += 1
            u = u + "a" + (u + "b") * min(self.params.n(j), -(-n // (len(u) + 1))) + u
        return u


def holub_word(params: HolubParams) -> HolubSource:
    """The infinite word built by the nested stage recursion."""
    return HolubSource(params)


def holub_letter(params: HolubParams, i: int) -> str:
    """Letter at position i straight from the residue description.

    Position i holds 'a' exactly when i = m_0...m_j modulo m_0...m_j*m_(j+1)
    for some j >= 0; once the product exceeds i no further level can match.
    """
    if i < 1:
        raise ValueError("positions are 1-based")
    prod = 1
    j = 0
    while prod <= i:
        if i % (prod * params.m(j + 1)) == prod:
            return "a"
        j += 1
        prod *= params.m(j)
    return "b"


def holub_letters(params: HolubParams, n: int) -> str:
    """The first n letters from the residue rule, all positions at once.

    Position i is 'a' exactly when i = m_0...m_j modulo m_0...m_j*m_(j+1)
    for some j with m_0...m_j <= n, as in holub_letter: each level marks
    its residue class with one strided write.
    """
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    out = np.full(n, ord("b"), np.uint8)
    prod = 1
    j = 0
    while prod <= n:
        out[prod - 1::prod * params.m(j + 1)] = ord("a")
        j += 1
        prod *= params.m(j)
    return out.tobytes().decode("ascii")


class FormulaSource(WordSource):
    """Same word as HolubSource, generated from the residue rule."""

    def __init__(self, params: HolubParams):
        super().__init__(f"holub-formula:{params.descriptor_body()}", BINARY)
        self.params = params

    def _generate(self, n: int) -> str:
        return holub_letters(self.params, n)


class ToeplitzSource(WordSource):
    """Fill the holes of base, in order, with the letters of filler."""

    def __init__(self, base: WordSource, filler: WordSource):
        if base.alphabet.letters != filler.alphabet.letters:
            raise ValueError("base and filler must share an alphabet")
        if not base.has_holes:
            raise ValueError(f"base {base.descriptor!r} has no holes to fill")
        super().__init__(
            f"toeplitz({base.descriptor};{filler.descriptor})",
            base.alphabet,
            has_holes=filler.has_holes,
        )
        self.base = base
        self.filler = filler

    def _generate(self, n: int) -> str:
        out = encode(self.base.prefix(n), allow_hole=True).copy()
        holes = np.flatnonzero(out == ord(HOLE))
        out[holes] = encode(self.filler.prefix(holes.size), allow_hole=True)
        return out.tobytes().decode("ascii")


def holub_toeplitz(params: HolubParams, stage: int) -> WordSource:
    """Stage'th Toeplitz iterate: holes filled with (a b^n_i ?) patterns.

    Stage 0 is all holes; each following stage agrees with the recursion on a
    longer prefix while keeping sparser and sparser holes.
    """
    if stage < 0:
        raise ValueError("stage must be >= 0")
    w: WordSource = PeriodicSource(HOLE)
    for i in range(1, stage + 1):
        # the holes stage i fills sit at multiples of block_length(i-1), so
        # past the prefix limit no prefix reaches one
        _check_size(params.block_length(i - 1),
                    f"the first hole of stage {i - 1} of toeplitz:{params.descriptor_body()}")
        _check_size(params.n(i) + 2,
                    f"the stage-{i} pattern of toeplitz:{params.descriptor_body()}")
        pattern = "a" + "b" * params.n(i) + HOLE
        w = ToeplitzSource(w, PeriodicSource(pattern))
    w.descriptor = f"toeplitz:{params.descriptor_body()};stage={stage}"
    return w


def anchor_word(params: HolubParams, j: int) -> str:
    """The prefix u_(j-1) a u_(j-2) a ... u_1 a a whose length marks level j."""
    if j < 1:
        raise ValueError("levels are 1-based")
    parts = []
    for t in range(j - 1, 0, -1):
        parts.append(holub_u(params, t))
        parts.append("a")
    parts.append("a")
    return "".join(parts)


def anchor_length(params: HolubParams, j: int) -> int:
    """Length of the level-j anchor prefix (1 at level 1)."""
    if j < 1:
        raise ValueError("levels are 1-based")
    return 1 + sum(params.block_length(t) for t in range(1, j))


def predicted_peak_period(params: HolubParams, j: int) -> int:
    """Closed form for the local period at the level-j anchor position."""
    return (params.n(j) + 1) * params.block_length(j - 1)


def predicted_witness(params: HolubParams, j: int) -> str:
    """The shortest repetition word at the level-j anchor position.

    It is the conjugate of u_(j-1) a (u_(j-1) b)^n_j obtained by moving the
    anchor prefix from the front to the back.
    """
    s = anchor_word(params, j)
    core = holub_u(params, j - 1) + "a" + (holub_u(params, j - 1) + "b") * params.n(j)
    if not core.startswith(s):
        raise ValueError(
            f"anchor prefix {s!r} does not start the conjugation core {core[:len(s) + 8]!r}..."
        )
    return core[len(s):] + s


def holub_for_target(
    f: Callable[[int], int], depth: int, tail: str = "repeat"
) -> tuple[HolubParams, list[int]]:
    """Choose exponents so the running complexity beats f at the anchors.

    Level j takes n_j = 2 f(d_j) + 1, clamped to stay >= 2 and nondecreasing;
    returns the parameters together with the anchor positions d_1..d_depth.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ns: list[int] = []
    ds: list[int] = []
    for j in range(1, depth + 1):
        # d_j reads only the exponents below level j, all chosen by now
        ds.append(anchor_length(HolubParams(tuple(ns) or (2,)), j))
        ns.append(max(2 * int(f(ds[-1])) + 1, 2, *ns[-1:]))
    return HolubParams(tuple(ns), tail=tail), ds


def _parse_kv(body: str) -> dict[str, str]:
    out = {}
    for part in body.split(";"):
        if not part:
            continue
        if "=" not in part:
            raise DescriptorError(f"expected key=value, got {part!r}")
        k, v = (t.strip() for t in part.split("=", 1))
        if k in out:
            raise DescriptorError(f"key {k!r} given twice")
        out[k] = v
    return out


def _read_int(text: str, error: str) -> int:
    # an optional '-' and ASCII digits between spaces, nothing else: int()
    # would also read '+', '_' separators and digits of other scripts
    text = text.strip()
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise DescriptorError(error)


def _parse_holub_params(body: str, extra_keys: tuple[str, ...] = ()) -> tuple[HolubParams, dict[str, str]]:
    kv = _parse_kv(body)
    unknown = set(kv) - {"n", "tail", "strict"} - set(extra_keys)
    if unknown:
        raise DescriptorError(f"unknown keys {sorted(unknown)!r}")
    if "n" not in kv:
        raise DescriptorError("missing n=... exponent list")
    bad = f"bad exponent list {kv['n']!r}"
    head = tuple(_read_int(v, bad) for v in kv["n"].split(","))
    tail = kv.get("tail", "repeat")
    step = 1
    if tail.startswith("step"):
        tail, colon, rest = tail.partition(":")
        if tail == "step" and not colon:
            raise DescriptorError("bad step: tail=step needs its K, as in tail=step:1")
        if colon:
            step = _read_int(rest, f"bad step {rest!r}")
    strict = kv.get("strict", "0")
    if strict not in ("1", "true", "yes", "0", "false", "no"):
        raise DescriptorError(f"bad strict value {strict!r}")
    try:
        params = HolubParams(head, tail=tail, step=step,
                             strictly_increasing=strict in ("1", "true", "yes"))
    except ValueError as exc:
        raise DescriptorError(str(exc)) from exc
    return params, kv


def parse_descriptor(text: str) -> WordSource:
    """Build a WordSource from its one-line descriptor.

    Forms: fibonacci | thue-morse | periodic:PATTERN |
    morphic:a=ab,b=a;seed=a | holub:n=2,3;tail=repeat|step:K[;strict=1] |
    holub-formula:<same keys> | toeplitz:<same keys>;stage=S
    """
    text = text.strip()
    name, colon, body = text.partition(":")
    if name in ("fibonacci", "thue-morse"):
        if colon:
            raise DescriptorError(f"{name} takes no parameters, got {text!r}")
        return fibonacci_source() if name == "fibonacci" else thue_morse_source()
    if name == "periodic":
        if not body:
            raise DescriptorError("periodic needs a pattern")
        try:
            return PeriodicSource(body)
        except ValueError as exc:
            raise DescriptorError(str(exc)) from exc
    if name == "morphic":
        kv_parts = body.split(";")
        rules: dict[str, str] = {}
        seed = None
        for part in kv_parts:
            if not part:
                continue
            if part.startswith("seed="):
                if seed is not None:
                    raise DescriptorError("seed given twice")
                seed = part[len("seed="):]
                continue
            for rule in part.split(","):
                if "=" not in rule:
                    raise DescriptorError(f"bad rule {rule!r}")
                k, v = rule.split("=", 1)
                if k in rules:
                    raise DescriptorError(f"rule for {k!r} given twice")
                rules[k] = v
        if seed is None:
            raise DescriptorError("morphic needs seed=...")
        try:
            return MorphicSource(rules, seed)
        except ValueError as exc:
            raise DescriptorError(str(exc)) from exc
    if name == "holub":
        params, _ = _parse_holub_params(body)
        return holub_word(params)
    if name == "holub-formula":
        params, _ = _parse_holub_params(body)
        return FormulaSource(params)
    if name == "toeplitz":
        params, kv = _parse_holub_params(body, extra_keys=("stage",))
        if "stage" not in kv:
            raise DescriptorError("toeplitz needs stage=...")
        stage = _read_int(kv["stage"], f"bad stage {kv['stage']!r}")
        if stage < 0:
            raise DescriptorError("stage must be >= 0")
        return holub_toeplitz(params, stage)
    raise DescriptorError(f"unknown word family {name!r}")
