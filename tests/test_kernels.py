"""The kernel table against its own references on matched inputs.

The vectorized local_periods_stream is checked against the per-position scan
local_period_stream, which is tied to the brute-force oracle on every small
binary buffer; least_rotation_index is checked against a brute-force search
of the rotations, and the vectorized oracle_sweep/cft_sweep against the
one-word-at-a-time loops below, which call the scalar kernels; max_power,
occurrence_list and max_run_exponent are checked against the per-offset loops
they once ran. Sizes are kept small because the scalar side is interpreted.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periwords import kernels
from periwords.words import HOLE_RANK, parse_descriptor

PY = kernels.python_kernels()


@pytest.fixture(params=[kernels.active], ids=[kernels.BACKEND])
def table(request):
    """The kernel table, under the backend name the run metadata reports."""
    return request.param


def test_kernel_names_resolve(table):
    assert table is kernels.python_kernels()
    for name in kernels.KERNEL_NAMES:
        assert callable(getattr(table, name))


def _stream_by_position(table, buf, n, cap):
    return [int(table.local_period_stream(buf, i, cap)) for i in range(1, n + 1)]


def _stream(table, buf, n, cap):
    out = table.local_periods_stream(buf, n, cap)
    assert out.dtype == np.int64 and out.shape == (n,)
    return out.tolist()


def test_stream_position_scan_matches_the_oracle(table):
    # the split after i letters of an unbounded word, read through buf[:i+cap]:
    # the oracle's least repetition length on that prefix when it is <= cap,
    # else a cap hit (0); the oracle depends on buf[:i+cap] and i alone
    oracle = {}
    for size in range(11):
        for letters in itertools.product((0, 1), repeat=size):
            buf = np.array(letters, np.uint8)
            for i in range(size + 1):
                for cap in range(size - i + 1):
                    key = (letters[:i + cap], i)
                    if key not in oracle:
                        oracle[key] = int(table.oracle_local_period(buf[:i + cap], i, 2))
                    want = oracle[key] if oracle[key] <= cap else 0
                    assert table.local_period_stream(buf, i, cap) == want, (letters, i, cap)


def _first_least_rotation(letters):
    rotations = [letters[c:] + letters[:c] for c in range(len(letters))]
    return rotations.index(min(rotations)) if rotations else 0


def test_least_rotation_index_every_small_word(table):
    for k, maxlen in ((2, 12), (3, 8)):
        for n in range(maxlen + 1):
            for letters in itertools.product(range(k), repeat=n):
                got = table.least_rotation_index(np.array(letters, np.uint8))
                assert got == _first_least_rotation(letters), letters


def test_least_rotation_index_on_a_power_and_one_letter(table):
    # a^k b is its own least rotation; b a^k first rotates to a^k b at 1
    ks = sorted({*range(33), *(2 ** j - 1 for j in range(13)), *(2 ** j for j in range(12))})
    assert ks[-1] == 4095
    for k in ks:
        for letters, want in (((0,) * k + (1,), 0), ((1,) + (0,) * k, min(k, 1))):
            if k <= 32:
                assert want == _first_least_rotation(letters)
            assert table.least_rotation_index(np.array(letters, np.uint8)) == want, (k, letters)
    assert table.least_rotation_index(np.empty(0, np.uint8)) == 0


def test_stream_scan_every_binary_buffer(table):
    # every split n + cap = |buf|, cap = 0 and n = 0 included
    for size in range(1, 11):
        for letters in itertools.product((0, 1), repeat=size):
            buf = np.array(letters, np.uint8)
            for n in range(size + 1):
                cap = size - n
                assert _stream(table, buf, n, cap) == _stream_by_position(table, buf, n, cap), (
                    letters, n, cap)


@pytest.mark.parametrize("letters, top", [(2, 9), (3, 6)], ids=["binary", "ternary"])
def test_stream_scan_every_short_buffer_with_letters_past_the_scan(table, letters, top):
    # every (n, cap) with n + cap <= |buf|: letters past n + cap must not be
    # read, so no overhang search may look past offset cap. Position i reads
    # buf[:i+cap] alone, so one per-position scan to n = |buf| - cap serves
    # every shorter n
    for size in range(1, top + 1):
        for word in itertools.product(range(letters), repeat=size):
            buf = np.array(word, np.uint8)
            for cap in range(size + 1):
                want = _stream_by_position(table, buf, size - cap, cap)
                for n in range(size - cap + 1):
                    assert _stream(table, buf, n, cap) == want[:n], (word, n, cap)


@pytest.mark.parametrize("descriptor", [
    "fibonacci", "morphic:a=aaab,b=a;seed=a", "periodic:aababbbb", "holub:n=2,3,4;tail=repeat",
])
def test_stream_scan_on_long_prefixes(table, descriptor):
    n = 10_000
    src = parse_descriptor(descriptor)
    for cap in (4 * n + 64, 7):  # the default cap, and one every word exceeds somewhere
        buf = src.ranks(n + cap)
        got = _stream(table, buf, n, cap)
        assert got == _stream_by_position(table, buf, n, cap)
        assert (0 in got) == (cap == 7)


def _sorts(monkeypatch):
    # counts np.unique calls: local_periods_stream ranks names through it alone
    calls = []
    unique = np.unique

    def counting(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return calls


@pytest.mark.parametrize("letters", [2, 4])
def test_stream_scan_ranks_names_in_several_rounds(table, letters, monkeypatch):
    # a random buffer keeps positions open through many rounds: from h = 32
    # (binary) or h = 16 (4 letters) on, the pair keys outgrow int32 every
    # other round, and those names are ranked; at cap 7 the rounds stop at
    # h = 8, before any key can
    buf = np.random.default_rng(20).integers(0, letters, 4096, dtype=np.uint8)
    sorts = _sorts(monkeypatch)
    for n, cap, ranked in ((806, 4 * 806 + 64, 3), (4089, 7, 0)):
        sorts.clear()
        got = _stream(table, buf, n, cap)
        assert len(sorts) == ranked
        assert got == _stream_by_position(table, buf, n, cap), (letters, n, cap)


def test_stream_scan_on_names_that_are_never_ranked(table, monkeypatch):
    # the pair keys of periodic:ab never outgrow int32: no sort at all
    n = 10_000
    buf = parse_descriptor("periodic:ab").ranks(n + 4 * n + 64)
    sorts = _sorts(monkeypatch)
    for cap in (4 * n + 64, 7):
        got = _stream(table, buf, n, cap)
        assert sorts == []
        assert got == _stream_by_position(table, buf, n, cap)


@pytest.mark.parametrize("descriptor, want", [
    ("fibonacci", 4), ("morphic:a=aab,b=a;seed=a", 3), ("periodic:aabbbbab", 0),
])
def test_stream_scan_sorts_only_keys_that_outgrow_int32(table, descriptor, want, monkeypatch):
    # on 16384-letter prefixes (the profile-wide workload) the ranking rule
    # takes the sorts from 13, 12 and 3 (one per round) down to these
    n = 16384
    buf = parse_descriptor(descriptor).ranks(5 * n + 64)
    sorts = _sorts(monkeypatch)
    table.local_periods_stream(buf, n, 4 * n + 64)
    assert len(sorts) == want


@st.composite
def _periodic_stretches_with_a_defect(draw):
    # one or two periodic stretches of 200-1000 letters over {0, 1}, with
    # one letter changed somewhere (possibly to the new letter 2)
    letters = []
    for length in draw(st.lists(st.integers(200, 1000), min_size=1, max_size=2)):
        root = draw(st.lists(st.integers(0, 1), min_size=1, max_size=12))
        letters += (root * length)[:length]
    size = len(letters)
    spot = draw(st.integers(0, size - 1))
    letters[spot] = (letters[spot] + draw(st.integers(1, 2))) % 3
    n = draw(st.integers(1, size - 1))
    cap = draw(st.one_of(st.just(size - n), st.integers(1, size - n)))
    return np.array(letters, np.uint8), n, cap


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_periodic_stretches_with_a_defect())
def test_stream_scan_on_periodic_stretches_with_a_defect(case):
    buf, n, cap = case
    assert _stream(PY, buf, n, cap) == _stream_by_position(PY, buf, n, cap)


@st.composite
def _recurring_prefixes(draw):
    # a random buffer that starts with u (2-40 letters) and repeats it at
    # 1-6 random offsets, each copy with 0-2 letters changed: overhang
    # positions then share answers, and near-copies end the prefix matches
    k = draw(st.integers(2, 3))
    size = draw(st.integers(60, 400))
    letters = draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    u = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=40))
    letters[:len(u)] = u
    for at in draw(st.lists(st.integers(1, size - len(u)), min_size=1, max_size=6)):
        copy = list(u)
        for t in draw(st.lists(st.integers(0, len(u) - 1), max_size=2)):
            copy[t] = (copy[t] + 1) % k
        letters[at:at + len(u)] = copy
    n = draw(st.integers(1, size - 1))
    cap = draw(st.integers(1, size - n))
    return np.array(letters, np.uint8), n, cap


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_recurring_prefixes())
def test_stream_scan_on_recurring_prefixes(case):
    buf, n, cap = case
    assert _stream(PY, buf, n, cap) == _stream_by_position(PY, buf, n, cap)


def test_stream_scan_on_thue_morse(table):
    # half the positions have no square: the overhang case dominates
    n = 1024
    cap = 4 * n + 64
    buf = parse_descriptor("thue-morse").ranks(n + cap)
    got = _stream(table, buf, n, cap)
    assert got == _stream_by_position(table, buf, n, cap)
    assert sum(p > i for i, p in enumerate(got, 1)) == n // 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=80), st.floats(0, 1))
def test_stream_scan_on_random_ternary_buffers(letters, split):
    buf = np.array(letters, np.uint8)
    n = round(split * len(letters))
    cap = len(letters) - n
    assert _stream(PY, buf, n, cap) == _stream_by_position(PY, buf, n, cap)


def test_stream_scan_when_the_last_factors_hold_the_largest_names(table):
    # the factor names near the end of the scanned region ('22' below) are
    # larger than every name that starts a pair; the pair keys must still
    # tell '0100' from '0022', or position 7 reports a square 1100100 1100100
    buf = np.array([1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 2, 2], np.uint8)
    assert _stream(table, buf, 7, 7) == _stream_by_position(table, buf, 7, 7)
    assert _stream(table, buf, 7, 7)[6] == 0


def test_stream_scan_on_binary_buffers_with_a_new_letter_tail(table):
    # every binary word up to length 11 followed by '22', split in the middle:
    # the names of the factors that reach the tail are the largest ones
    for size in range(1, 12):
        for letters in itertools.product((0, 1), repeat=size):
            buf = np.array(letters + (2, 2), np.uint8)
            n = (size + 2) // 2
            cap = size + 2 - n
            assert _stream(table, buf, n, cap) == _stream_by_position(table, buf, n, cap), (
                letters, n, cap)


def test_sweep_counts(table):
    # sum over n<=8 of n*2^n position checks; 2^11 - 2 nonempty words up to length 10
    checks, mismatches, cft_fails = (int(v) for v in table.oracle_sweep(8, 2)[:3])
    assert checks == sum(n * 2 ** n for n in range(1, 9))
    assert mismatches == 0 and cft_fails == 0
    words, failures = (int(v) for v in table.cft_sweep(10, 2)[:2])
    assert words == 2 ** 11 - 2
    assert failures == 0


def _loop_oracle_sweep(table, maxlen, nletters):
    # reference for oracle_sweep: one word at a time through the scalar kernels
    out = np.zeros(6, np.int64)
    out[3] = -1
    out[4] = -1
    out[5] = -1
    w = np.empty(maxlen, np.uint8)
    for n in range(1, maxlen + 1):
        for code in range(nletters ** n):
            c = code
            for t in range(n - 1, -1, -1):
                w[t] = c % nletters
                c //= nletters
            ww = w[:n]
            per = table.period_of(ww)
            maxlp = 0
            for i in range(1, n + 1):
                a = table.local_period_finite(ww, i)
                b = table.oracle_local_period(ww, i, nletters)
                out[0] += 1
                if a != b:
                    out[1] += 1
                    if out[3] < 0:
                        out[3] = n
                        out[4] = code
                        out[5] = i
                if a > maxlp:
                    maxlp = a
            if maxlp != per:
                out[2] += 1
                if out[3] < 0:
                    out[3] = n
                    out[4] = code
                    out[5] = 0
    return out.tolist()


def _loop_cft_sweep(table, maxlen, nletters):
    # reference for cft_sweep: one word at a time through the scalar kernels
    out = np.zeros(4, np.int64)
    out[2] = -1
    out[3] = -1
    w = np.empty(maxlen, np.uint8)
    for n in range(1, maxlen + 1):
        for code in range(nletters ** n):
            c = code
            for t in range(n - 1, -1, -1):
                w[t] = c % nletters
                c //= nletters
            ww = w[:n]
            per = table.period_of(ww)
            maxlp = 0
            for i in range(1, n + 1):
                a = table.local_period_finite(ww, i)
                if a > maxlp:
                    maxlp = a
            out[0] += 1
            if maxlp != per:
                out[1] += 1
                if out[2] < 0:
                    out[2] = n
                    out[3] = code
    return out.tolist()


@pytest.mark.parametrize("maxlen,nletters", [(9, 2), (6, 3)])
def test_oracle_sweep_matches_the_loop(maxlen, nletters):
    got = PY.oracle_sweep(maxlen, nletters)
    assert got.dtype == np.int64
    assert got.tolist() == _loop_oracle_sweep(PY, maxlen, nletters)


@pytest.mark.parametrize("maxlen,nletters", [(11, 2), (7, 3)])
def test_cft_sweep_matches_the_loop(maxlen, nletters):
    got = PY.cft_sweep(maxlen, nletters)
    assert got.dtype == np.int64
    assert got.tolist() == _loop_cft_sweep(PY, maxlen, nletters)


@pytest.mark.parametrize("maxlen,nletters", [(10, 2), (6, 3)])
def test_sweep_matrices_match_the_scalar_kernels(maxlen, nletters):
    for n in range(1, maxlen + 1):
        words = PY.word_matrix(n, nletters)
        assert words.shape == (nletters ** n, n)
        scan = PY.local_period_matrix(words).tolist()
        oracle = PY.oracle_period_matrix(words, nletters).tolist()
        periods = PY.period_column(words).tolist()
        for w, s, o, p in zip(words, scan, oracle, periods):
            assert s == [int(PY.local_period_finite(w, i)) for i in range(1, n + 1)], w
            assert o == [int(PY.oracle_local_period(w, i, nletters)) for i in range(1, n + 1)], w
            assert p == int(PY.period_of(w)), w


@pytest.mark.parametrize("rows,n", [(0, 0), (0, 9), (4, 0), (9, 1)])
def test_oracle_period_matrix_on_empty_and_one_column_shapes(rows, n):
    words = np.random.default_rng(rows + n).integers(0, 3, (rows, n), dtype=np.uint8)
    got = PY.oracle_period_matrix(words, 3)
    assert got.dtype == np.int64 and got.shape == words.shape
    assert got.tolist() == [[PY.oracle_local_period(w, i, 3) for i in range(1, n + 1)]
                            for w in words]


def test_neither_oracle_reads_the_scan(monkeypatch):
    # every binary word up to 8 letters: both oracles give the same answers
    # with every scan kernel they could lean on made to raise
    blocks = [PY.word_matrix(n, 2) for n in range(1, 9)]

    def answers():
        return [(PY.oracle_period_matrix(words, 2).tolist(),
                 [[PY.oracle_local_period(w, i, 2) for i in range(1, n + 1)] for w in words])
                for n, words in enumerate(blocks, 1)]

    want = answers()
    assert all(matrix == scalar for matrix, scalar in want)

    def scan(*args):
        raise AssertionError("an oracle read a scan kernel")

    for name in ("_window_period", "local_period_matrix", "local_periods_stream"):
        monkeypatch.setattr(PY, name, scan)
    assert answers() == want


def _matrix_and_loop(words):
    out = PY.local_period_matrix(words)
    assert out.dtype == np.int64 and out.shape == words.shape
    return out.tolist(), [PY.local_periods_finite(w).tolist() for w in words]


@pytest.mark.parametrize("maxlen,nletters", [(12, 2), (8, 3)], ids=["binary", "ternary"])
def test_local_period_matrix_on_every_short_word(maxlen, nletters):
    for n in range(1, maxlen + 1):
        got, want = _matrix_and_loop(PY.word_matrix(n, nletters))
        assert got == want, n


@pytest.mark.parametrize("rows,n", [(0, 0), (0, 9), (4, 0), (9, 1)])
def test_local_period_matrix_on_empty_and_one_column_shapes(rows, n):
    words = np.random.default_rng(rows + n).integers(0, 3, (rows, n), dtype=np.uint8)
    got, want = _matrix_and_loop(words)
    assert got == want


@pytest.mark.parametrize("n", [64, 200, 512])
def test_local_period_matrix_on_long_rows(n):
    # prefixes of words whose local periods run long (thue-morse) or stay
    # short (periodic), and a random row
    descriptors = ["fibonacci", "thue-morse", "periodic:aababbbb", "holub:n=2,3,4;tail=repeat"]
    rows = [parse_descriptor(d).ranks(n) for d in descriptors]
    rows.append(np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8))
    got, want = _matrix_and_loop(np.stack(rows))
    assert got == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_local_period_matrix_on_periodic_stretches_with_one_defect(data):
    # each row repeats a short base over at least half its length, amid
    # random letters, and has one letter changed somewhere
    n = data.draw(st.integers(2, 120))
    rows = []
    for _ in range(data.draw(st.integers(1, 3))):
        base = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=8))
        row = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        a = data.draw(st.integers(0, n // 4))
        b = data.draw(st.integers(n - n // 4, n))
        row[a:b] = (base * n)[:b - a]
        d = data.draw(st.integers(0, n - 1))
        row[d] = (row[d] + data.draw(st.integers(1, 2))) % 3
        rows.append(row)
    got, want = _matrix_and_loop(np.array(rows, np.uint8))
    assert got == want


def test_word_matrix_blocks_follow_the_code_order():
    whole = PY.word_matrix(5, 3)
    assert whole[1].tolist() == [0, 0, 0, 0, 1]
    assert whole[3 ** 5 - 1].tolist() == [2] * 5
    assert np.array_equal(PY.word_matrix(5, 3, 100, 140), whole[100:140])


def _planted(rows=4, n=5):
    # every word scans to the local periods 1..n with period n: no failure
    scan = np.tile(np.arange(1, n + 1, dtype=np.int64), (rows, 1))
    return scan, scan.copy(), np.full(rows, n, np.int64)


def test_first_failure_identity_in_an_earlier_word_wins():
    scan, oracle, periods = _planted()
    periods[1] = 3  # word 1 fails the identity alone
    oracle[2, 0] = 9  # word 2 has a mismatch
    assert PY.first_failure(scan, oracle, periods) == (1, 1, 1, 0)


def test_first_failure_reports_the_first_mismatching_position():
    scan, oracle, periods = _planted()
    oracle[2, 3] = 9
    oracle[2, 1] = 9
    periods[2] = 1  # the same word also fails the identity
    assert PY.first_failure(scan, oracle, periods) == (2, 1, 2, 2)


def test_first_failure_counts_add_up_over_all_words():
    scan, oracle, periods = _planted(rows=6)
    oracle[0, 4] = 1
    oracle[3, :] = 0
    oracle[5, 2] = 7
    periods[[1, 3, 4]] = 2
    assert PY.first_failure(scan, oracle, periods) == (1 + 5 + 1, 3, 0, 5)
    assert PY.first_failure(*_planted()) == (0, 0, -1, -1)


def test_sweeps_report_a_planted_failure_in_a_later_block(monkeypatch):
    # words of length 12 span two blocks; plant failures on codes 3000 and
    # 3001 (the second block) and on code 4000, so the reported code must
    # carry the block's offset, and the counts must add up across blocks
    real_periods = PY.period_column
    real_oracle = PY.oracle_period_matrix
    weights = 2 ** np.arange(11, -1, -1)

    def periods(words):
        out = real_periods(words)
        if words.shape[1] == 12:
            out[np.isin(words @ weights, (3001, 4000))] += 1
        return out

    def oracle(words, nletters):
        out = real_oracle(words, nletters)
        if words.shape[1] == 12:
            out[words @ weights == 3000, 4:6] += 1
        return out

    monkeypatch.setattr(PY, "period_column", periods)
    monkeypatch.setattr(PY, "oracle_period_matrix", oracle)
    checks = sum(n * 2 ** n for n in range(1, 13))
    assert PY.oracle_sweep(12, 2).tolist() == [checks, 2, 2, 12, 3000, 5]
    assert PY.cft_sweep(12, 2).tolist() == [2 ** 13 - 2, 2, 12, 3001]


def _loop_max_power(v, s):
    # the per-offset search and chain scan max_power once ran on its own
    m = v.shape[0]
    n = s.shape[0]
    if m == 0 or m > n:
        return 0
    limit = n - m
    occ = np.zeros(limit + 1, np.uint8)
    for j in range(limit + 1):
        ok = True
        for t in range(m):
            if s[j + t] != v[t]:
                ok = False
                break
        if ok:
            occ[j] = 1
    best = 0
    chain = np.zeros(limit + 1, np.int64)
    for j in range(limit, -1, -1):
        if occ[j] == 1:
            c = 1
            if j + m <= limit and occ[j + m] == 1:
                c = 1 + chain[j + m]
            chain[j] = c
            if c > best:
                best = c
    return best


def _binary_words(maxlen, minlen=0):
    for size in range(minlen, maxlen + 1):
        for letters in itertools.product((0, 1), repeat=size):
            yield np.array(letters, np.uint8)


def test_max_power_matches_the_loop_on_every_short_binary_pair(table):
    factors = list(_binary_words(4, minlen=1))
    for s in _binary_words(10):
        for v in factors:
            assert int(table.max_power(v, s)) == _loop_max_power(v, s), (v, s)


@pytest.mark.parametrize("descriptor", ["fibonacci", "thue-morse", "holub:n=2,2", "periodic:ab"])
def test_max_power_matches_the_loop_on_long_prefixes(table, descriptor):
    src = parse_descriptor(descriptor)
    s = src.ranks(100_000)
    for z in ("a", "aa", "ab", "aab", "abaab"):
        v = src.alphabet.encode(z)
        assert int(table.max_power(v, s)) == _loop_max_power(v, s), z


def test_longest_power_offsets_are_the_occurrences_of_the_power(table):
    # the exponent max_power gives, and the offsets a search for v^e finds
    cases = [(v, s) for s in _binary_words(8) for v in _binary_words(4, minlen=1)]
    for descriptor in ("fibonacci", "thue-morse", "holub:n=2,2", "periodic:ab"):
        src = parse_descriptor(descriptor)
        cases += [(src.alphabet.encode(z), src.ranks(20_000)) for z in ("a", "aab", "abaab")]
    for v, s in cases:
        e, offsets = table.longest_power(table.occurrence_list(v, s), v.shape[0], s.shape[0])
        assert e == table.max_power(v, s), (v, s)
        want = table.occurrence_list(np.tile(v, e), s).tolist() if e else []
        assert offsets.tolist() == want, (v, s)


def _loop_occurrence_list(z, s):
    # the per-offset search occurrence_list once ran
    m = z.shape[0]
    n = s.shape[0]
    if m == 0 or m > n:
        return np.empty(0, np.int64)
    out = np.empty(n - m + 1, np.int64)
    c = 0
    for j in range(n - m + 1):
        ok = True
        for t in range(m):
            if s[j + t] != z[t]:
                ok = False
                break
        if ok:
            out[c] = j
            c += 1
    return out[:c].copy()


def _loop_max_run_exponent(s, p_max):
    # the per-shift run scan max_run_exponent once ran
    n = s.shape[0]
    if n == 0:
        return 0
    best = 1
    top = p_max
    if top > n - 1:
        top = n - 1
    for p in range(1, top + 1):
        run = 0
        for j in range(n - p):
            if s[j] == s[j + p]:
                run += 1
                e = run // p + 1
                if e > best:
                    best = e
            else:
                run = 0
    return best


def _occurrences(table, z, s):
    got = table.occurrence_list(z, s)
    assert got.dtype == np.int64
    return got.tolist()


def test_occurrence_list_matches_the_loop_on_every_short_binary_pair(table):
    factors = list(_binary_words(4))
    for s in _binary_words(10):
        for z in factors:
            assert _occurrences(table, z, s) == _loop_occurrence_list(z, s).tolist(), (z, s)


def test_max_run_exponent_matches_the_loop_on_every_short_binary_word(table):
    for s in _binary_words(10):
        for p_max in range(7):
            assert table.max_run_exponent(s, p_max) == _loop_max_run_exponent(s, p_max), (s, p_max)


LONG_PREFIXES = ["fibonacci", "thue-morse", "holub:n=2,2", "periodic:ab",
                 "morphic:a=abc,b=ac,c=b;seed=a", "toeplitz:n=2,2,2;stage=2"]


@pytest.mark.parametrize("descriptor", LONG_PREFIXES)
def test_search_kernels_match_the_loops_on_long_prefixes(table, descriptor):
    n = 100_000
    src = parse_descriptor(descriptor)
    s = src.ranks(n)
    text = src.prefix(n)
    # z starting with the most frequent letter (the hole included) has more
    # first-letter candidates than one comparison block holds
    top = max(set(text), key=text.count)
    assert text.count(top) > PY._BLOCK
    j = text.index(top, 500)
    zs = ["a", "ab", "aab", "abaab", text[1000:1143], text[j:j + 6]]
    if src.has_holes:
        assert "?" in text[1000:1143]
    for z in zs:
        v = src.alphabet.encode(z, allow_hole=src.has_holes)
        assert _occurrences(table, v, s) == _loop_occurrence_list(v, s).tolist(), z
    assert table.max_run_exponent(s, 6) == _loop_max_run_exponent(s, 6)


_LETTERS = st.sampled_from((0, 1, 2, HOLE_RANK))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_occurrence_list_matches_the_loop_on_random_pairs(data):
    s = np.array(data.draw(st.lists(_LETTERS, max_size=80)), np.uint8)
    if s.size and data.draw(st.booleans()):
        # a factor of s, so that hits exist
        a = data.draw(st.integers(0, s.size - 1))
        z = s[a:data.draw(st.integers(a + 1, s.size))].copy()
    else:
        z = np.array(data.draw(st.lists(_LETTERS, max_size=6)), np.uint8)
    assert _occurrences(PY, z, s) == _loop_occurrence_list(z, s).tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2), max_size=80), st.integers(-1, 12))
def test_max_run_exponent_matches_the_loop_on_random_words(letters, p_max):
    s = np.array(letters, np.uint8)
    assert PY.max_run_exponent(s, p_max) == _loop_max_run_exponent(s, p_max)
