"""Scan kernels over uint8 letter arrays: the one kernel table.

Scalar Python loops: border_table (and period_of and shortest_border_length
on it). Scalar kernels that compare byte slices of the letter array:
local_period_finite, local_periods_finite and local_period_stream apply the
window rule stated in periods one length at a time, and least_rotation_index
takes the least rotation with min.
The two brute-force oracles state the definition the scans are checked
against: the local period at a split (u, v) is the least length of a word r
that ends with u or is a suffix of it, and starts with v or is a prefix of
it. oracle_local_period tries every candidate r as a byte string with
endswith/startswith; oracle_period_matrix tries every candidate code against
every row's code in base-k arithmetic. Neither reads a scan kernel or the
other oracle.
Vectorized numpy code, checked in the tests against the scalar kernels or
against the loops they replaced: local_periods_stream, whose overhang phase
is one bytes.find per distinct answer; oracle_sweep and cft_sweep with the
helpers the sweeps use (word_matrix, local_period_matrix, period_column,
oracle_period_matrix, first_failure); the search kernels occurrence_list and
max_run_exponent; max_power, which longest_power reads off the hits of
occurrence_list; narrow and longest_power, which the minimal-return chain
walk in factorize also reads; and factor_return_times, which names every
factor of a word at once for checks.check_return_time_bound and is checked
against one occurrence_list call per factor.
local_period_matrix applies the window rule stated in periods, one shift at
a time for every row and position; it also serves the library:
periods.factor_local_periods scans the factors of each length of a letter
matrix with it.
Positions handed to these functions are 1-based, matching the library API.
"""

from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# element budget of one comparison block in local_periods_stream and the
# sweeps, and of one block of the sweeps' (words x letters) matrices
_BLOCK = 1 << 15

# isqrt(2**31 - 1): up to this base, every pair key base * x + y with
# x, y < base fits int32
_KEY_FITS = 46340


def border_table(w):
    # classic failure function: f[i] = length of longest proper border of w[:i+1]
    n = w.shape[0]
    f = np.zeros(n, np.int64)
    k = 0
    for i in range(1, n):
        while k > 0 and w[i] != w[k]:
            k = f[k - 1]
        if w[i] == w[k]:
            k += 1
        f[i] = k
    return f


def period_of(w):
    n = w.shape[0]
    if n == 0:
        return 0
    f = border_table(w)
    return n - f[n - 1]


def shortest_border_length(w):
    # walk the border chain down to its smallest nonzero element
    n = w.shape[0]
    if n == 0:
        return 0
    f = border_table(w)
    b = f[n - 1]
    while b > 0 and f[b - 1] > 0:
        b = f[b - 1]
    return b


def _window_period(b, i, n, stop):
    # least L <= stop with b[j] == b[j+L] for every j in the window
    # [max(0, i-L), min(i, n-L)) of the split after i letters of the byte
    # string b, or 0 if there is none; an empty window always qualifies.
    # The window ends are spelled out: max and min calls double the time.
    for L in range(1, stop + 1):
        lo = i - L if L < i else 0
        hi = i if i < n - L else n - L
        if b[lo:hi] == b[lo + L:hi + L]:
            return L
    return 0


def local_period_finite(w, i):
    # minimal length of a repetition word centred at the split u = w[:i], v = w[i:];
    # L = n always qualifies (its window is empty: r = vu)
    n = w.shape[0]
    return _window_period(w.tobytes(), i, n, n)


def local_periods_finite(w):
    n = w.shape[0]
    b = w.tobytes()
    return np.array([_window_period(b, i, n, n) for i in range(1, n + 1)], np.int64)


def local_period_stream(buf, i, cap):
    # split after position i of an unbounded word; buf holds >= i + cap letters.
    # Every L <= cap keeps the window's right end at i, as in an infinite word.
    # Returns 0 when no repetition word of length <= cap exists.
    return _window_period(buf[:i + cap].tobytes(), i, i + cap, cap)


def local_periods_stream(buf, n, cap):
    # local_period_stream at every position 1..n, all positions at once.
    # Square case (L <= i): round h tests L in [h, 2h) for every position with
    # no shorter square, through names of the factors of length h
    # (Karp-Miller-Rosenberg: equal names iff equal factors), so a square is
    # two name comparisons. Overhang case (L > i): positions with no square
    # of length <= min(i, cap) look for the length-i prefix at an offset
    # L in (i, cap], one substring search per distinct answer.
    out = np.zeros(n, np.int64)
    if n <= 0 or cap <= 0:
        return out
    # a square at position i reads letters below i + min(i, cap)
    m = n + min(n, cap)
    # names[m + j] names buf[j:j+h]; the zero front half absorbs the reads
    # before the word that only masked-out columns make
    names = np.zeros(2 * m, np.int32)
    names[m:] = buf[:m]
    todo = np.arange(1, n + 1, dtype=np.int64)
    h = 1
    while True:
        # every square length <= min(i, cap) is tested once min(i, cap) < h
        todo = todo[np.minimum(todo, cap) >= h]
        if todo.size == 0:
            break
        if h > 1:
            # names of length h from pairs of names of length h/2
            # the base exceeds every name of length h/2, those the second
            # half reads included, so distinct pairs get distinct keys. A key
            # is at most base^2 - 1: while base <= _KEY_FITS the keys are the
            # new names as they are, and only larger keys are ranked (one
            # np.unique sort). The product stays int64 either way, since the
            # ranks themselves may exceed _KEY_FITS.
            k = m - h + 1
            base = int(names.max()) + 1
            key = names[m:m + k].astype(np.int64) * base
            key += names[m + h // 2:m + h // 2 + k]
            names = np.zeros(2 * m, np.int32)
            names[m:m + k] = key if base <= _KEY_FITS else np.unique(key, return_inverse=True)[1]
        win = sliding_window_view(names, h)
        cols = np.arange(h)
        rows = max(1, _BLOCK // h)
        left = []
        for s in range(0, todo.size, rows):
            i = todo[s:s + rows]
            c = m + i
            # column t tests L = h + t: buf[i-L:i-L+h] == buf[i:i+h] and
            # buf[i-h:i] == buf[i+L-h:i+L]
            ok = win[c - 2 * h + 1][:, ::-1] == names[c][:, None]
            ok &= win[c] == names[c - h][:, None]
            ok &= cols <= (np.minimum(i, cap) - h)[:, None]
            first = ok.argmax(1)
            hit = ok[np.arange(i.size), first]
            out[i[hit] - 1] = h + first[hit]
            left.append(i[~hit])
        todo = np.concatenate(left)
        h *= 2
    # the positions with no square are those still at 0; from i = cap on,
    # (i, cap] is empty and out stays 0. Position i answers the least L in
    # (i, cap] with buf[L:L+i] == buf[:i]; such an L also serves every
    # shorter prefix, so the answers never decrease along pos and the first
    # failed search ends the phase. The L found for pos[k] answers every
    # later j < L with buf[:j] == buf[L:L+j]: one find per distinct answer.
    pos = np.flatnonzero(out[:cap - 1] == 0) + 1
    b = buf[:n + cap].tobytes()
    L = k = 0
    while k < pos.size:
        i = int(pos[k])
        L = b.find(b[:i], max(i + 1, L), i + cap)
        if L < 0:
            break
        t = min(L - 1, int(pos[-1]))
        # how far buf[L:] repeats the prefix, up to t letters
        lcp = np.append(buf[:t] == buf[L:L + t], False).argmin()
        j = int(np.searchsorted(pos, lcp, "right"))
        out[pos[k:j] - 1] = L
        k = j
    return out


def oracle_local_period(w, i, nletters):
    # reference answer by brute force, the definition verbatim: the least
    # length of a word r over nletters letters that ends with u = w[:i] (or
    # u ends with r) and starts with v = w[i:] (or v starts with r); r = vu
    # always qualifies, so the answer is at most n
    n = w.shape[0]
    u, v = w[:i].tobytes(), w[i:].tobytes()
    for L in range(1, n + 1):
        for r in map(bytes, product(range(nletters), repeat=L)):
            if (r.endswith(u) or u.endswith(r)) and (r.startswith(v) or v.startswith(r)):
                return L
    return n


def word_matrix(n, nletters, lo=0, hi=None):
    # rows lo..hi-1 of the (nletters^n, n) matrix of every word of length n:
    # row code spells code in base nletters, last letter least significant
    if hi is None:
        hi = nletters ** n
    out = np.empty((hi - lo, n), np.uint8)
    c = np.arange(lo, hi, dtype=np.int64)
    for t in range(n - 1, -1, -1):
        out[:, t] = c % nletters
        c //= nletters
    return out


def local_period_matrix(words):
    # local_period_finite at every position of every row: column i - 1 holds
    # p_w(i), the least L with w[j] == w[j+L] for every j in the window
    # [max(0, i-L), min(i, n-L)). One step per shift L serves every row and
    # position: a running count of the mismatches at shift L, read at both
    # window ends, closes each open position (still 0) whose window holds
    # none. The scan runs on the transpose, so that each numpy call of a
    # step works on all rows at once.
    rows, n = words.shape
    wt = np.ascontiguousarray(words.T)
    out = np.zeros((n, rows), np.min_scalar_type(n))
    miss = np.zeros_like(out)
    i = np.arange(1, n + 1)
    for L in range(1, n):
        np.cumsum(wt[:n - L] != wt[L:], axis=0, out=miss[1:n - L + 1])
        ok = miss[np.minimum(i, n - L)] == miss[np.maximum(0, i - L)]
        ok &= out == 0
        out[ok] = L
        if out.all():
            break
    out[out == 0] = n  # L = n: the window is empty
    return out.T.astype(np.int64)


def period_column(words):
    # period_of of every row: the least p with w[p:] == w[:n-p]
    rows, n = words.shape
    out = np.full(rows, n, np.int64)
    todo = np.arange(rows)
    for p in range(1, n):
        w = words[todo]
        ok = (w[:, p:] == w[:, :n - p]).all(1)
        out[todo[ok]] = p
        todo = todo[~ok]
    return out


def oracle_period_matrix(words, nletters):
    # oracle_local_period at every position of every row, in base-k digits
    # (k = nletters, last letter least significant, as in word_matrix). The
    # candidate r of length L with code c ends with u = w[:i] (or u ends with
    # r) iff c % k^a spells the last a = min(L, i) letters of u, and starts
    # with v = w[i:] (or v starts with r) iff c // k^(L-b) spells the first
    # b = min(L, n-i) letters of v. Every code c < k^L is tried against every
    # open row's own code; it never reads the scan. L = n is not enumerated:
    # the oracle answers n either way.
    rows, n = words.shape
    k = nletters
    # every code and power of k below is at most k^n: the least type that
    # holds k^n, and blocks of _BLOCK // 4 comparisons, keep the bool blocks
    # and the buffers numpy fills to broadcast them small
    code = np.zeros(rows, np.min_scalar_type(k ** n))
    for t in range(n):
        code = code * k + words[:, t]
    out = np.full((rows, n), n, np.int64)
    for i in range(1, n + 1):
        todo = np.arange(rows)
        for L in range(1, n):
            if todo.size == 0:
                break
            a, b = min(L, i), min(L, n - i)
            u = code[todo] // k ** (n - i) % k ** a
            v = code[todo] // k ** (n - i - b) % k ** b
            cstep = min(k ** L, _BLOCK // 4)
            rstep = _BLOCK // 4 // cstep
            hit = np.zeros(todo.size, bool)
            for lo in range(0, k ** L, cstep):
                c = np.arange(lo, min(lo + cstep, k ** L), dtype=code.dtype)
                cu, cv = c % k ** a, c // k ** (L - b)
                for s in range(0, todo.size, rstep):
                    ok = cu == u[s:s + rstep, None]
                    ok &= cv == v[s:s + rstep, None]
                    hit[s:s + rstep] |= ok.any(1)
            out[todo[hit], i - 1] = L
            todo = todo[~hit]
    return out


def first_failure(scan, oracle, periods):
    # tally one block of words: scan/oracle mismatches, identity failures
    # max_i p_w(i) != p(w), and the first failing row with its position --
    # the first mismatching i, or 0 when the identity alone fails (-1, -1
    # when nothing fails)
    diff = scan != oracle
    mismatch = diff.any(1)
    fails = scan.max(1) != periods
    bad = np.flatnonzero(mismatch | fails)
    row = i = -1
    if bad.size:
        row = int(bad[0])
        i = int(diff[row].argmax()) + 1 if mismatch[row] else 0
    return int(diff.sum()), int(fails.sum()), row, i


def _word_blocks(maxlen, nletters):
    # every word of length 1..maxlen in (n, code) order, as code-ordered
    # blocks of word_matrix rows of about _BLOCK letters each
    for n in range(1, maxlen + 1):
        total = nletters ** n
        step = max(1, _BLOCK // n)
        for lo in range(0, total, step):
            yield n, lo, word_matrix(n, nletters, lo, min(total, lo + step))


def oracle_sweep(maxlen, nletters):
    # exhaustive agreement run: scan vs oracle at every position of every word
    # up to maxlen, plus the critical-position identity max_i p_w(i) == p(w).
    # out = (checks, scan/oracle mismatches, identity failures, bad_n, bad_code, bad_i)
    out = np.zeros(6, np.int64)
    out[3:] = -1
    for n, lo, words in _word_blocks(maxlen, nletters):
        mism, fails, row, i = first_failure(
            local_period_matrix(words), oracle_period_matrix(words, nletters),
            period_column(words))
        out[0] += words.size
        out[1] += mism
        out[2] += fails
        if out[3] < 0 and row >= 0:
            out[3:] = n, lo + row, i
    return out


def cft_sweep(maxlen, nletters):
    # identity max_i p_w(i) == p(w) alone, scan route only
    # out = (words, failures, bad_n, bad_code)
    out = np.zeros(4, np.int64)
    out[2:] = -1
    for n, lo, words in _word_blocks(maxlen, nletters):
        scan = local_period_matrix(words)
        _, fails, row, _ = first_failure(scan, scan, period_column(words))
        out[0] += words.shape[0]
        out[1] += fails
        if out[2] < 0 and row >= 0:
            out[2:] = n, lo + row
    return out


def occurrence_list(z, s):
    # all 0-based offsets where z occurs in s, in increasing order: the
    # offsets of z's first letter, narrowed by the rest of z
    m = z.shape[0]
    n = s.shape[0]
    if m == 0 or m > n:
        return np.empty(0, np.int64)
    return narrow(np.flatnonzero(s[:n - m + 1] == z[0]), z, s, 1)


def narrow(cand, z, s, t):
    # the offsets among cand where z occurs in s, given increasing offsets at
    # most len(s) - len(z) that z[:t] already matches: cand narrowed by the
    # next columns of z, as many columns at a time as fit a block of _BLOCK
    # elements. A hole rank matches only a hole rank.
    m = z.shape[0]
    while t < m and cand.size:
        w = min(m - t, max(1, _BLOCK // cand.size))
        cand = cand[(s[cand[:, None] + np.arange(t, t + w)] == z[t:t + w]).all(1)]
        t += w
    return cand


def factor_return_times(u, s, cut):
    # one row (L, a, count, gap) for each distinct factor z = u[a:a+L] of u
    # with L <= cut: a is z's first offset in u, count the occurrences of z
    # in s and gap the largest distance between two consecutive ones (0 when
    # there are fewer than two). u and s lie side by side in one array, and
    # the factors of each length are named at once (Karp-Miller-Rosenberg):
    # for L = 1..cut one stable sort of the key (name of length L-1, next
    # letter) groups the offsets by factor, and the group ranks are the
    # names of length L. Every group keeps its offsets in increasing order,
    # so u's come first and s's follow in order: the first offset is a, and
    # the differences between consecutive offsets in s are the gaps. An
    # offset leaves for good once its factor runs past the end of its part
    # or is no factor of u.
    nu = u.shape[0]
    text = np.concatenate((u, s))
    pos = np.arange(text.shape[0])
    name = np.zeros_like(pos)
    rows = [np.empty((0, 4), np.int64)]
    for L in range(1, min(cut, nu) + 1):
        key = name * 256 + text[pos + L - 1]
        # ties go by the current order, so the sort is stable whatever its
        # kind; the default kind's code is resident already, the stable
        # kind's would add about 0.2 MB to the process. Names stay below the
        # offset count n, so the tie keys stay below 256 n^2 < 2^63.
        order = np.argsort(key * key.size + np.arange(key.size))
        pos, key = pos[order], key[order]
        new = np.flatnonzero(key[1:] != key[:-1]) + 1
        starts = np.concatenate(([0], new))
        name = np.zeros_like(pos)
        name[new] = 1
        np.cumsum(name, out=name)
        ins = pos >= nu
        # the distance from each offset in s to the next one of its group
        gap = np.zeros_like(pos)
        gap[:-1] = pos[1:] - pos[:-1]
        gap[new - 1] = 0
        gap[~ins] = 0
        first = pos[starts]
        g = np.flatnonzero(first < nu)
        rows.append(np.column_stack((
            np.full(g.size, L), first[g], np.bincount(name[ins], minlength=starts.size)[g],
            np.maximum.reduceat(gap, starts)[g])))
        keep = (first < nu)[name] & (pos + L < np.where(ins, text.shape[0], nu))
        pos, name = pos[keep], name[keep]
    return np.concatenate(rows)


def longest_power(hits, m, n):
    # the largest e with v^e in s, and the offsets of v^e in increasing
    # order, from the offsets hits of v in s (m = |v| >= 1, n = |s|): v^e
    # occurs where a run of e hits spaced m apart starts, so only at the
    # first offset of a longest run. Row r, column c of the grid is offset
    # r*m + c, so each run goes down one column.
    rows = n // m
    grid = np.zeros((rows + 1, m), bool)  # the last row stays False
    grid.flat[hits] = True
    # the columns end to end, one pass over the gaps between runs of True
    cols = grid.T.ravel()
    edges = np.flatnonzero(np.diff(cols, prepend=False))
    run = edges[1::2] - edges[::2]
    e = int(run.max(initial=0))
    # the first offset of each longest run, read back in the grid's order;
    # numpy's sort would map more of its code into the process than this
    cols[:] = False
    cols[edges[::2][run == e]] = True
    return e, np.flatnonzero(cols.reshape(m, rows + 1).T)


def max_power(v, s):
    # largest e with v repeated e times in a row somewhere in s (0 if absent)
    return longest_power(occurrence_list(v, s), v.shape[0], s.shape[0])[0] if v.shape[0] else 0


def max_run_exponent(s, p_max):
    # max over periods p <= p_max of the largest integer power v^e with |v| = p;
    # a run of r agreements s[j] == s[j+p] yields e = r // p + 1, and the
    # runs at shift p lie between the mismatches (sentinels at both ends)
    n = s.shape[0]
    if n == 0:
        return 0
    best = 1
    for p in range(1, min(p_max, n - 1) + 1):
        if (n - p) // p + 1 <= best:
            break  # no run at this shift or a longer one can beat best
        cuts = np.flatnonzero(s[:n - p] != s[p:])
        run = int(np.diff(cuts, prepend=-1, append=n - p).max()) - 1
        best = max(best, run // p + 1)
    return best


def least_rotation_index(w):
    # index of the lexicographically least rotation (the first one on ties)
    n = w.shape[0]
    ww = w.tobytes() * 2
    return min(range(n), key=lambda c: ww[c:c + n], default=0)
