"""The kernel table against its own references on matched inputs.

The vectorized local_periods_stream is checked against the per-position scan
local_period_stream, and the vectorized oracle_sweep/cft_sweep against the
one-word-at-a-time loops below, which call the scalar kernels; sizes are kept
small because the scalar side is interpreted.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periwords import kernels
from periwords.words import parse_descriptor

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


def test_stream_scan_every_binary_buffer(table):
    # every split n + cap = |buf|, cap = 0 and n = 0 included
    for size in range(1, 11):
        for letters in itertools.product((0, 1), repeat=size):
            buf = np.array(letters, np.uint8)
            for n in range(size + 1):
                cap = size - n
                assert _stream(table, buf, n, cap) == _stream_by_position(table, buf, n, cap), (
                    letters, n, cap)


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
