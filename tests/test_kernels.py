"""Parity of the interpreted and jitted kernel tables on matched inputs.

Every test takes the `backend` fixture (both tables when numba imports), or
compares the two tables head to head; sizes are kept small because the pure
table is the slow side. The vectorized local_periods_stream is checked
against the per-position scan local_period_stream of the same table.
"""

import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periwords import kernels
from periwords.words import parse_descriptor

PY = kernels.python_kernels()
SEED = 90407


def _arr(w: str) -> np.ndarray:
    return np.frombuffer(w.encode("ascii"), np.uint8)


def _rand_word(rng, lo=1, hi=16) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))


def test_kernel_names_resolve(backend):
    for name in kernels.KERNEL_NAMES:
        assert callable(getattr(backend, name))


def test_active_table_matches_flag():
    assert kernels.BACKEND in ("python", "numba")
    expect = kernels.numba_kernels() if kernels.BACKEND == "numba" else PY
    assert kernels.active is expect


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="no jitted table to compare")
def test_profile_parity_random_words():
    rng = random.Random(SEED)
    nb = kernels.numba_kernels()
    for _ in range(250):
        w = _arr(_rand_word(rng))
        assert list(PY.local_periods_finite(w)) == list(nb.local_periods_finite(w))


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="no jitted table to compare")
def test_border_and_period_parity():
    rng = random.Random(SEED + 1)
    nb = kernels.numba_kernels()
    for _ in range(250):
        w = _arr(_rand_word(rng))
        assert int(PY.period_of(w)) == int(nb.period_of(w))
        assert int(PY.shortest_border_length(w)) == int(nb.shortest_border_length(w))
        assert list(PY.border_table(w)) == list(nb.border_table(w))
        assert int(PY.least_rotation_index(w)) == int(nb.least_rotation_index(w))


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="no jitted table to compare")
def test_stream_parity_on_morphic_prefixes():
    # both tables share the numpy local_periods_stream; the jitted side is
    # the per-position scan
    from periwords.words import fibonacci_source, thue_morse_source

    nb = kernels.numba_kernels()
    for src in (fibonacci_source(), thue_morse_source()):
        buf = src.ranks(80 + 400)
        assert list(PY.local_periods_stream(buf, 80, 400)) == [
            int(nb.local_period_stream(buf, i, 400)) for i in range(1, 81)
        ]


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="no jitted table to compare")
def test_search_kernel_parity():
    from periwords.words import fibonacci_source

    nb = kernels.numba_kernels()
    hay = _arr(fibonacci_source().prefix(2000))
    for z in ("a", "ab", "aab", "abaab", "babba"):
        needle = _arr(z)
        assert list(PY.occurrence_list(needle, hay)) == list(nb.occurrence_list(needle, hay))
        assert int(PY.max_power(needle, hay)) == int(nb.max_power(needle, hay))
    assert int(PY.max_run_exponent(hay, 64)) == int(nb.max_run_exponent(hay, 64))


def _stream_by_position(table, buf, n, cap):
    return [int(table.local_period_stream(buf, i, cap)) for i in range(1, n + 1)]


def _stream(table, buf, n, cap):
    out = table.local_periods_stream(buf, n, cap)
    assert out.dtype == np.int64 and out.shape == (n,)
    return out.tolist()


def test_stream_scan_every_binary_buffer(backend):
    # every split n + cap = |buf|, cap = 0 and n = 0 included
    for size in range(1, 11):
        for letters in itertools.product((0, 1), repeat=size):
            buf = np.array(letters, np.uint8)
            for n in range(size + 1):
                cap = size - n
                assert _stream(backend, buf, n, cap) == _stream_by_position(backend, buf, n, cap), (
                    letters, n, cap)


@pytest.mark.parametrize("descriptor", [
    "fibonacci", "morphic:a=aaab,b=a;seed=a", "periodic:aababbbb", "holub:n=2,3,4;tail=repeat",
])
def test_stream_scan_on_long_prefixes(backend, descriptor):
    n = 10_000
    src = parse_descriptor(descriptor)
    for cap in (4 * n + 64, 7):  # the default cap, and one every word exceeds somewhere
        buf = src.ranks(n + cap)
        got = _stream(backend, buf, n, cap)
        assert got == _stream_by_position(backend, buf, n, cap)
        assert (0 in got) == (cap == 7)


def test_stream_scan_on_thue_morse(backend):
    # half the positions have no square: the overhang case dominates
    n = 1024
    cap = 4 * n + 64
    buf = parse_descriptor("thue-morse").ranks(n + cap)
    got = _stream(backend, buf, n, cap)
    assert got == _stream_by_position(backend, buf, n, cap)
    assert sum(p > i for i, p in enumerate(got, 1)) == n // 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=80), st.floats(0, 1))
def test_stream_scan_on_random_ternary_buffers(letters, split):
    buf = np.array(letters, np.uint8)
    n = round(split * len(letters))
    cap = len(letters) - n
    assert _stream(PY, buf, n, cap) == _stream_by_position(PY, buf, n, cap)


def test_stream_scan_when_the_last_factors_hold_the_largest_names(backend):
    # the factor names near the end of the scanned region ('22' below) are
    # larger than every name that starts a pair; the pair keys must still
    # tell '0100' from '0022', or position 7 reports a square 1100100 1100100
    buf = np.array([1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 2, 2], np.uint8)
    assert _stream(backend, buf, 7, 7) == _stream_by_position(backend, buf, 7, 7)
    assert _stream(backend, buf, 7, 7)[6] == 0


def test_stream_scan_on_binary_buffers_with_a_new_letter_tail(backend):
    # every binary word up to length 11 followed by '22', split in the middle:
    # the names of the factors that reach the tail are the largest ones
    for size in range(1, 12):
        for letters in itertools.product((0, 1), repeat=size):
            buf = np.array(letters + (2, 2), np.uint8)
            n = (size + 2) // 2
            cap = size + 2 - n
            assert _stream(backend, buf, n, cap) == _stream_by_position(backend, buf, n, cap), (
                letters, n, cap)


def test_sweep_counts(backend):
    # sum over n<=8 of n*2^n position checks; 2^11 - 2 nonempty words up to length 10
    checks, mismatches, cft_fails = (int(v) for v in backend.oracle_sweep(8, 2)[:3])
    assert checks == sum(n * 2 ** n for n in range(1, 9))
    assert mismatches == 0 and cft_fails == 0
    words, failures = (int(v) for v in backend.cft_sweep(10, 2)[:2])
    assert words == 2 ** 11 - 2
    assert failures == 0


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="no jitted table to compare")
def test_sweep_parity():
    nb = kernels.numba_kernels()
    assert list(PY.oracle_sweep(7, 2)) == list(nb.oracle_sweep(7, 2))
    assert list(PY.cft_sweep(8, 2)) == list(nb.cft_sweep(8, 2))
    assert list(PY.cft_sweep(6, 3)) == list(nb.cft_sweep(6, 3))


def _probe_backend(env_value: str | None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop(kernels.ENV_FLAG, None)
    if env_value is not None:
        env[kernels.ENV_FLAG] = env_value
    return subprocess.run(
        [sys.executable, "-c", "from periwords import kernels; print(kernels.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )


def test_env_flag_forces_python_backend():
    proc = _probe_backend("python")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "python"


def test_env_flag_rejects_unknown_value():
    proc = _probe_backend("cuda")
    assert proc.returncode != 0
    assert "PERIWORDS_BACKEND" in proc.stderr
