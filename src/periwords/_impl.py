"""Scan kernels over uint8 letter arrays.

Every function here except local_periods_stream is written in the
numba-compatible subset (plain loops, no strings, no dicts) so the same
source serves both backends: interpreted as the pure-Python fallback, or
compiled in place by kernels.numba_kernels(). local_periods_stream is
vectorized numpy code outside that subset; both backends run it as it is.
Positions handed to these functions are 1-based, matching the library API.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# element budget of one 2-D comparison block in local_periods_stream
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


def oracle_sweep(maxlen, nletters):
    # exhaustive agreement run: scan vs oracle at every position of every word
    # up to maxlen, plus the critical-position identity max_i p_w(i) == p(w).
    # out = (checks, scan/oracle mismatches, identity failures, bad_n, bad_code, bad_i)
    out = np.zeros(6, np.int64)
    out[3] = -1
    out[4] = -1
    out[5] = -1
    w = np.empty(maxlen, np.uint8)
    for n in range(1, maxlen + 1):
        total = 1
        for _ in range(n):
            total *= nletters
        for code in range(total):
            c = code
            for t in range(n - 1, -1, -1):
                w[t] = c % nletters
                c //= nletters
            ww = w[:n]
            per = period_of(ww)
            maxlp = 0
            for i in range(1, n + 1):
                a = local_period_finite(ww, i)
                b = oracle_local_period(ww, i, nletters)
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
    return out


def cft_sweep(maxlen, nletters):
    # identity max_i p_w(i) == p(w) alone, scan route only
    # out = (words, failures, bad_n, bad_code)
    out = np.zeros(4, np.int64)
    out[2] = -1
    out[3] = -1
    w = np.empty(maxlen, np.uint8)
    for n in range(1, maxlen + 1):
        total = 1
        for _ in range(n):
            total *= nletters
        for code in range(total):
            c = code
            for t in range(n - 1, -1, -1):
                w[t] = c % nletters
                c //= nletters
            ww = w[:n]
            per = period_of(ww)
            maxlp = 0
            for i in range(1, n + 1):
                a = local_period_finite(ww, i)
                if a > maxlp:
                    maxlp = a
            out[0] += 1
            if maxlp != per:
                out[1] += 1
                if out[2] < 0:
                    out[2] = n
                    out[3] = code
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

