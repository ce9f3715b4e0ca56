"""Scan kernels over uint8 letter arrays: the one kernel table.

The scalar kernels are plain loops; local_periods_stream, oracle_sweep and
cft_sweep, and the helpers the sweeps use (word_matrix, local_period_matrix,
period_column, oracle_period_matrix, first_failure), are vectorized numpy
code that the scalar kernels check in the tests. Positions handed to these
functions are 1-based, matching the library API.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# element budget of one comparison block in local_periods_stream and the
# sweeps, and of one block of the sweeps' (words x letters) matrices
_BLOCK = 1 << 15


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


def local_period_finite(w, i):
    # minimal length of a repetition word centred at the split u = w[:i], v = w[i:].
    # The length ranges for the four match shapes partition (L vs i) x (L vs |v|),
    # and L = n always matches (r = vu), so the scan terminates.
    n = w.shape[0]
    lv = n - i
    for L in range(1, n + 1):
        if L <= i and L <= lv:
            # square: w[i-L:i] == w[i:i+L]
            ok = True
            for t in range(L):
                if w[i - L + t] != w[i + t]:
                    ok = False
                    break
            if ok:
                return L
        elif L <= lv:
            # right overhang: r = w[i:i+L] reaches past the end of u,
            # so u must be a suffix of it
            ok = True
            for t in range(i):
                if w[t] != w[L + t]:
                    ok = False
                    break
            if ok:
                return L
        elif L <= i:
            # left overhang: r = w[i-L:i] reaches past the end of v,
            # so v must be a prefix of it
            ok = True
            for t in range(lv):
                if w[i + t] != w[i - L + t]:
                    ok = False
                    break
            if ok:
                return L
        else:
            # r overhangs on both sides; only the forced overlap of the
            # v-prefix and u-suffix constrains it (1-based k in r)
            ok = True
            lo = L - i + 1
            if lo < 1:
                lo = 1
            for k in range(lo, lv + 1):
                if w[i + k - 1] != w[k - L + i - 1]:
                    ok = False
                    break
            if ok:
                return L
    return n


def local_periods_finite(w):
    n = w.shape[0]
    out = np.empty(n, np.int64)
    for i in range(1, n + 1):
        out[i - 1] = local_period_finite(w, i)
    return out


def local_period_stream(buf, i, cap):
    # split after position i of an unbounded word; buf holds >= i + cap letters.
    # r must be the length-L prefix of the right side, so two shapes remain.
    # Returns 0 when no repetition word of length <= cap exists.
    for L in range(1, cap + 1):
        if L <= i:
            ok = True
            for t in range(L):
                if buf[i - L + t] != buf[i + t]:
                    ok = False
                    break
        else:
            ok = True
            for t in range(i):
                if buf[t] != buf[L + t]:
                    ok = False
                    break
        if ok:
            return L
    return 0


def local_periods_stream(buf, n, cap):
    # local_period_stream at every position 1..n, all positions at once.
    # Square case (L <= i): round h tests L in [h, 2h) for every position with
    # no shorter square, through names of the factors of length h
    # (Karp-Miller-Rosenberg: equal names iff equal factors), so a square is
    # two name comparisons. Overhang case (L > i): positions with no square
    # of length <= min(i, cap) look for the length-i prefix at an offset
    # L in (i, cap], scanning the offsets that still match the prefix.
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
    overhang = []
    h = 1
    while True:
        # every square length <= min(i, cap) is tested once min(i, cap) < h
        spent = np.minimum(todo, cap) < h
        overhang.append(todo[spent])
        todo = todo[~spent]
        if todo.size == 0:
            break
        if h > 1:
            # names of length h from pairs of names of length h/2
            # the base exceeds every name of length h/2, those the second
            # half reads included, so distinct pairs get distinct keys
            k = m - h + 1
            key = names[m:m + k].astype(np.int64) * (int(names.max()) + 1)
            key += names[m + h // 2:m + h // 2 + k]
            names = np.zeros(2 * m, np.int32)
            names[m:m + k] = np.unique(key, return_inverse=True)[1]
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
    pos = np.sort(np.concatenate(overhang))
    pos = pos[pos < cap]  # from i = cap on, (i, cap] is empty: out stays 0
    # cand holds the offsets L > pos[k] whose buf[L:L+have] equals buf[:have]
    cand = np.arange(1, cap + 1, dtype=np.int64)
    have = 0
    k = 0
    while k < pos.size:
        cand = cand[np.searchsorted(cand, pos[k], "right"):]
        if cand.size == 0:
            break
        w = min(max(1, _BLOCK // cand.size), int(pos[-1]) - have)
        match = buf[cand[:, None] + np.arange(have, have + w)] == buf[have:have + w]
        # length of the prefix each offset repeats, known up to have + w
        ell = have + np.where(match.all(1), w, match.argmin(1))
        have += w
        j = int(np.searchsorted(pos, have, "right"))
        if j > k:
            i = pos[k:j, None]
            ok = (cand > i) & (ell >= i)
            first = ok.argmax(1)
            out[pos[k:j] - 1] = np.where(ok[np.arange(j - k), first], cand[first], 0)
            k = j
        cand = cand[ell >= have]
    return out


def oracle_local_period(w, i, nletters):
    # reference answer by brute force: enumerate every candidate word r of
    # each length L and test the two comparability conditions verbatim.
    n = w.shape[0]
    lv = n - i
    rr = np.empty(n, np.uint8)
    for L in range(1, n + 1):
        total = 1
        for _ in range(L):
            total *= nletters
        for code in range(total):
            c = code
            for t in range(L - 1, -1, -1):
                rr[t] = c % nletters
                c //= nletters
            ok = True
            if L <= i:
                for t in range(L):
                    if rr[t] != w[i - L + t]:
                        ok = False
                        break
            else:
                for t in range(i):
                    if w[t] != rr[L - i + t]:
                        ok = False
                        break
            if not ok:
                continue
            if L <= lv:
                for t in range(L):
                    if rr[t] != w[i + t]:
                        ok = False
                        break
            else:
                for t in range(lv):
                    if rr[t] != w[i + t]:
                        ok = False
                        break
            if ok:
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
    # p_w(i). Each step tests one (i, L) shape on the rows still open.
    rows, n = words.shape
    out = np.empty((rows, n), np.int64)
    for i in range(1, n + 1):
        lv = n - i
        col = np.full(rows, n, np.int64)  # L = n always matches
        todo = np.arange(rows)
        for L in range(1, n):
            if todo.size == 0:
                break
            w = words[todo]
            if L <= i and L <= lv:
                ok = (w[:, i - L:i] == w[:, i:i + L]).all(1)
            elif L <= lv:
                ok = (w[:, :i] == w[:, L:L + i]).all(1)
            elif L <= i:
                ok = (w[:, i:] == w[:, i - L:i - L + lv]).all(1)
            else:
                lo = max(L - i + 1, 1)
                ok = (w[:, i + lo - 1:] == w[:, lo - L + i - 1:lv - L + i]).all(1)
            col[todo[ok]] = L
            todo = todo[~ok]
        out[:, i - 1] = col
    return out


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
    # oracle_local_period at every position of every row. For each L it
    # enumerates all nletters^L candidate words r and tests the two
    # comparability conditions letter by letter against every open row, in
    # (letters x rows x candidates) blocks of about _BLOCK elements; it never
    # reads the scan. L = n is not enumerated: the oracle answers n either way.
    rows, n = words.shape
    out = np.empty((rows, n), np.int64)
    # letters first, so each block reduces over its leading axis
    wt = np.ascontiguousarray(words.T)
    cands = [None] + [np.ascontiguousarray(word_matrix(L, nletters).T) for L in range(1, n)]
    for i in range(1, n + 1):
        lv = n - i
        col = np.full(rows, n, np.int64)
        todo = np.arange(rows)
        for L in range(1, n):
            if todo.size == 0:
                break
            # r ends with u = w[:i] (or u ends with r), and r starts with
            # v = w[i:] (or v starts with r)
            a = max(0, L - i)
            b = max(0, i - L)
            m = min(L, lv)
            r = cands[L][:, None]
            k = r.shape[2]
            cstep = max(1, _BLOCK // L)
            rstep = max(1, _BLOCK // (min(k, cstep) * L))
            hit = np.zeros(todo.size, bool)
            for s in range(0, todo.size, rstep):
                w = wt[:, todo[s:s + rstep], None]
                for c in range(0, k, cstep):
                    rc = r[:, :, c:c + cstep]
                    ok = (rc[a:] == w[b:i]).all(0)
                    ok &= (rc[:m] == w[i:i + m]).all(0)
                    hit[s:s + rstep] |= ok.any(1)
            col[todo[hit]] = L
            todo = todo[~hit]
        out[:, i - 1] = col
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
    # all 0-based offsets where z occurs in s
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


def max_power(v, s):
    # largest e with v repeated e times in a row somewhere in s (0 if absent)
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


def max_run_exponent(s, p_max):
    # max over periods p <= p_max of the largest integer power v^e with |v| = p;
    # a run of r agreements at shift p yields e = r // p + 1
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


def least_rotation_index(w):
    # index of the lexicographically least rotation (stable on ties)
    n = w.shape[0]
    best = 0
    for c in range(1, n):
        for t in range(n):
            a = w[(c + t) % n]
            b = w[(best + t) % n]
            if a < b:
                best = c
                break
            if a > b:
                break
    return best

