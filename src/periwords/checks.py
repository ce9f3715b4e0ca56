"""One checker per desk-verifiable claim, each producing a VerificationReport.

Status vocabulary:
  pass          -- the claim instance set is finite and every instance held
  windowed-pass -- every checked instance held, but the claim quantifies over
                   an infinite set and only a finite window was examined
  fail          -- a concrete counterexample was found; the payload carries
                   enough to re-run the cited operation and reproduce it
  inconclusive  -- a precondition of the claim could not be established from
                   the window (e.g. a search cap too small), so nothing was
                   refuted and nothing was confirmed

windowed-pass is never upgraded to pass.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernels
from .errors import InsufficientWindowError
from .factorize import (
    ReturnFactorization,
    alpha_chain,
    dyadic_factorization,
    occurrences,
    repetition_exponent_estimate,
    return_factorization,
    return_words,
)
from .periods import (
    CapExceeded,
    is_lyndon,
    is_unbordered,
    local_period_infinite,
    local_period_table,
    period,
    profile,
)
from .words import (
    HOLE,
    HolubParams,
    WordSource,
    anchor_length,
    holub_letter,
    holub_letters,
    holub_toeplitz,
    holub_u,
    holub_word,
    predicted_peak_period,
    predicted_witness,
)

PASS = "pass"
FAIL = "fail"
WINDOWED = "windowed-pass"
INCONCLUSIVE = "inconclusive"

DEFAULT_SEED = 90407
# random trials drawn and scored at a time, so a trial checker's memory stays
# bounded whatever its trial count; the default 10,000 trials are one block
TRIAL_BLOCK = 1 << 14


@dataclass
class VerificationReport:
    """Structured outcome of one claim checker."""

    claim: str
    params: dict
    instances: int
    status: str
    counterexample: dict | None = None
    notes: str = ""
    details: list = field(default_factory=list)

    def fail(self, counterexample: dict) -> None:
        """Mark the claim refuted; the first counterexample found is the one kept."""
        self.status = FAIL
        if self.counterexample is None:
            self.counterexample = counterexample

    def undecided(self, note: str) -> None:
        """Mark the claim undecided, unless it already failed; notes collect every reason."""
        if self.status != FAIL:
            self.status = INCONCLUSIVE
        self.notes = "; ".join(filter(None, (self.notes, note)))

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "instances": self.instances,
            "status": self.status,
            "counterexample": self.counterexample,
            "notes": self.notes,
            "details": self.details,
        }


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _mean(lps) -> Fraction:
    # h of a word from its row of local periods
    return Fraction(int(lps.sum()), lps.size)


# ---------------------------------------------------------------------------
# peak local periods of the parametrized family


def check_peak_periods(params: HolubParams, depth: int = 3, cap: int | None = None) -> VerificationReport:
    """At each anchor position the local period equals (n_j+1) * block_length(j-1).

    Each level also runs a sharpness probe: with the search cap one below the
    predicted value, the scan must come back cap-exceeded, certifying that no
    shorter repetition word exists.  A user cap below the prediction makes the
    level inconclusive rather than failed.
    """
    source = holub_word(params)
    report = VerificationReport(
        "big", {"word": source.descriptor, "depth": depth, "cap": cap}, 0, PASS
    )
    for j in range(1, depth + 1):
        d = anchor_length(params, j)
        expected = predicted_peak_period(params, j)
        use_cap = cap if cap is not None else expected + 1
        got = local_period_infinite(source, d, use_cap)
        row = {"j": j, "position": d, "expected": expected, "cap": use_cap}
        report.instances += 1
        if isinstance(got, CapExceeded):
            if use_cap < expected:
                row["outcome"] = "cap below prediction"
                report.undecided(f"cap {use_cap} < predicted {expected} at level {j}")
                report.details.append(row)
                continue
            report.fail({
                "op": "local_period_infinite",
                "word": source.descriptor,
                "position": d,
                "cap": use_cap,
                "expected": expected,
                "actual": f"> {use_cap}",
            })
            row["outcome"] = f"local period exceeds {use_cap}"
            report.details.append(row)
            continue
        pred_r = predicted_witness(params, j)
        probe = local_period_infinite(source, d, expected - 1)
        row["actual"] = got.length
        row["witness"] = got.word
        row["witness_expected"] = pred_r
        row["sharp"] = isinstance(probe, CapExceeded)
        ok = got.length == expected and got.word == pred_r and row["sharp"]
        row["outcome"] = "ok" if ok else "mismatch"
        if not ok:
            report.fail({
                "op": "local_period_infinite",
                "word": source.descriptor,
                "position": d,
                "cap": use_cap,
                "expected": expected,
                "actual": got.length,
                "expected_witness": pred_r,
                "actual_witness": got.word,
            })
        report.details.append(row)
    return report


def check_peak_witness(params: HolubParams, depth: int = 3) -> VerificationReport:
    """The minimal repetition word at anchor j is the predicted conjugate.

    Builds the conjugate by stripping the anchor from the front of
    u_(j-1) a (u_(j-1) b)^n_j and appending it at the back; a failed strip is
    itself a counterexample.
    """
    source = holub_word(params)
    report = VerificationReport(
        "peak-witness", {"word": source.descriptor, "depth": depth}, 0, PASS
    )
    for j in range(1, depth + 1):
        report.instances += 1
        d = anchor_length(params, j)
        expected_len = predicted_peak_period(params, j)
        try:
            pred = predicted_witness(params, j)
        except ValueError as e:
            report.fail({"op": "predicted_witness", "j": j, "error": str(e)})
            break
        got = local_period_infinite(source, d, expected_len + 1)
        row = {"j": j, "position": d, "length": expected_len, "witness": pred}
        ok = (
            len(pred) == expected_len
            and not isinstance(got, CapExceeded)
            and got.length == expected_len
            and got.word == pred
        )
        row["outcome"] = "ok" if ok else "mismatch"
        if not ok:
            report.fail({
                "op": "local_period_infinite",
                "word": source.descriptor,
                "position": d,
                "cap": expected_len + 1,
                "expected_witness": pred,
                "actual": "cap-exceeded" if isinstance(got, CapExceeded) else got.word,
            })
        report.details.append(row)
    return report


def check_block_closure(params: HolubParams, depth: int = 4) -> VerificationReport:
    """u_i a and u_i b decompose exactly into blocks u_(i-1)a / u_(i-1)b."""
    report = VerificationReport(
        "block-closure", {"word": f"holub:{params.descriptor_body()}", "depth": depth}, 0, PASS
    )
    for i in range(1, depth + 1):
        prev = holub_u(params, i - 1)
        blocks = {prev + "a", prev + "b"}
        step = len(prev) + 1
        for last in ("a", "b"):
            report.instances += 1
            w = holub_u(params, i) + last
            decode = []
            ok = len(w) % step == 0
            for t in range(0, len(w), step):
                chunk = w[t:t + step]
                if chunk not in blocks:
                    ok = False
                    break
                decode.append(chunk[-1])
            if not ok:
                report.fail({
                    "op": "check_block_closure",
                    "i": i,
                    "word": w,
                    "offset": t,
                    "chunk": w[t:t + step],
                    "expected_blocks": sorted(blocks),
                })
                continue
            report.details.append({"i": i, "last": last, "decode": "".join(decode)})
    return report


def check_occurrence_rigidity(
    params: HolubParams, depth: int = 3, horizon: int = 10_000
) -> VerificationReport:
    """Every occurrence of u_i in the prefix starts at a multiple of |u_i|+1.

    The full claim ranges over the infinite word, so a clean window yields
    windowed-pass.  Level 0 is vacuous (the empty word) and excluded.
    """
    source = holub_word(params)
    report = VerificationReport(
        "occurrence-rigidity",
        {"word": source.descriptor, "depth": depth, "horizon": horizon},
        0,
        WINDOWED,
    )
    for i in range(1, depth + 1):
        u = holub_u(params, i)
        occ = occurrences(u, source, horizon)
        report.instances += len(occ)
        bad = [o for o in occ if o % (len(u) + 1) != 0]
        if bad:
            report.fail({
                "op": "occurrences",
                "word": source.descriptor,
                "factor_level": i,
                "offset": bad[0],
                "modulus": len(u) + 1,
            })
        report.details.append(
            {"i": i, "count": len(occ), "modulus": len(u) + 1, "violations": len(bad)}
        )
    return report


def check_letter_formula(params: HolubParams, n: int = 10_000) -> VerificationReport:
    """The congruence formula and the nested recursion give the same letters."""
    source = holub_word(params)
    recursion = source.prefix(n)
    report = VerificationReport(
        "letter-formula", {"word": source.descriptor, "n": n}, n, PASS
    )
    formula = holub_letters(params, n)
    if formula != recursion:
        i = next(t for t in range(n) if formula[t] != recursion[t]) + 1
        report.fail({
            "op": "holub_letter",
            "word": source.descriptor,
            "position": i,
            "expected": recursion[i - 1],
            "actual": holub_letter(params, i),
        })
    return report


def check_toeplitz_stages(
    params: HolubParams, n: int = 10_000, stage: int | None = None
) -> VerificationReport:
    """Iterated hole-filling agrees with the recursion on a hole-free prefix.

    The stage defaults to the first whose block structure covers n letters,
    so the compared prefix contains no leftover holes.
    """
    if stage is None:
        stage = 1
        while params.block_length(stage) - 1 < n:
            stage += 1
    source = holub_word(params)
    top = holub_toeplitz(params, stage)
    span = min(n, params.block_length(stage) - 1)
    got = top.prefix(span)
    want = source.prefix(span)
    report = VerificationReport(
        "toeplitz-stages",
        {"word": source.descriptor, "n": n, "stage": stage},
        span,
        PASS,
    )
    if HOLE in got:
        report.fail({
            "op": "holub_toeplitz",
            "stage": stage,
            "position": got.index(HOLE) + 1,
            "error": "hole inside the supposedly determined prefix",
        })
        return report
    if got != want:
        k = next(t for t in range(span) if got[t] != want[t])
        report.fail({
            "op": "holub_toeplitz",
            "stage": stage,
            "position": k + 1,
            "expected": want[k],
            "actual": got[k],
        })
    return report


def check_return_time_bound(
    params: HolubParams,
    depth: int = 2,
    horizon: int | None = None,
    max_factor_len: int | None = None,
) -> VerificationReport:
    """Factors of the prefix u_i recur within |u_i|+1 letters (windowed)."""
    source = holub_word(params)
    report = VerificationReport(
        "return-time-bound",
        {
            "word": source.descriptor,
            "depth": depth,
            "horizon": horizon,
            "max_factor_len": max_factor_len,
        },
        0,
        WINDOWED,
    )
    for i in range(1, depth + 1):
        u = holub_u(params, i)
        bound = len(u) + 1
        hz = horizon if horizon is not None else max(256, 24 * bound)
        cut = len(u) if max_factor_len is None else min(max_factor_len, len(u))
        factors = {u[a:b] for a in range(len(u)) for b in range(a + 1, min(len(u), a + cut) + 1)}
        worst = 0
        for z in sorted(factors):
            occ = occurrences(z, source, hz)
            if len(occ) < 2:
                raise InsufficientWindowError(
                    f"factor {z!r} has {len(occ)} occurrence(s) in horizon {hz}"
                )
            gap = max(b - a for a, b in zip(occ, occ[1:]))
            worst = max(worst, gap)
            report.instances += 1
            if gap > bound:
                report.fail({
                    "op": "occurrences",
                    "word": source.descriptor,
                    "factor": z,
                    "max_gap": gap,
                    "bound": bound,
                    "horizon": hz,
                })
        report.details.append(
            {"i": i, "factors": len(factors), "bound": bound, "max_gap_seen": worst}
        )
    return report


# ---------------------------------------------------------------------------
# the minimal-return chain and its gain step


def check_lexmin_return_words(
    source: WordSource,
    depth: int = 2,
    horizon: int = 10_000,
    repetition_bound: int | None = None,
) -> VerificationReport:
    """Chain words are lexicographic minima and their return words are Lyndon.

    Per level k: alpha_k is the least factor of its length in the window,
    every observed return word to alpha_k^e_k is Lyndon (hence unbordered),
    the power is a prefix of each return word, and the previous power prefixes
    alpha_k.
    """
    chain = alpha_chain(source, depth, horizon, repetition_bound)
    report = VerificationReport(
        "min-return-chain",
        {
            "word": source.descriptor,
            "depth": depth,
            "horizon": horizon,
            "repetition_bound": repetition_bound,
        },
        0,
        WINDOWED,
    )
    text = source.prefix(horizon)
    alphabet = source.alphabet
    for k in range(1, depth + 1):
        entry = chain.level(k)
        a, e = entry.alpha, entry.exponent
        z = a * e
        row = {"k": k, "alpha": a, "exponent": e}
        windows = dict.fromkeys(text[t:t + len(a)] for t in range(len(text) - len(a) + 1))
        lexmin = min(windows, key=alphabet.sort_key)
        rws, _ = return_words(z, source, horizon)
        not_lyndon = [w for w in rws if not is_lyndon(w, alphabet)]
        bordered = [w for w in rws if not is_unbordered(w)]
        no_prefix = [w for w in rws if not w.startswith(z)]
        nest_ok = k == 1 or a.startswith(chain.power(k - 1))
        row.update(
            {
                "lexmin_factor": lexmin,
                "return_words": len(rws),
                "lyndon_violations": len(not_lyndon),
            }
        )
        report.instances += len(rws) + 1
        if lexmin != a or not_lyndon or bordered or no_prefix or not nest_ok:
            report.fail({
                "op": "alpha_chain",
                "word": source.descriptor,
                "k": k,
                "alpha": a,
                "lexmin_factor": lexmin,
                "not_lyndon": not_lyndon[:3],
                "bordered": bordered[:3],
                "missing_power_prefix": no_prefix[:3],
                "nested": nest_ok,
            })
        report.details.append(row)
    return report


def _constituents(fact_lo: ReturnFactorization, fact_hi: ReturnFactorization, j: int):
    """Level-lo blocks composing the j-th level-hi block, or None if the
    hi boundaries are not a subset of the lo boundaries there."""
    lo_b = fact_lo.boundaries()
    hi_b = fact_hi.boundaries()
    start, stop = hi_b[j - 1], hi_b[j]
    if start not in lo_b or stop not in lo_b:
        return None
    s, t = lo_b.index(start), lo_b.index(stop)
    return fact_lo.returns[s:t]


def return_gain_step(
    fact_lo: ReturnFactorization,
    fact_hi: ReturnFactorization,
    window: int = 8,
    claim: str = "return-gain",
    params: dict | None = None,
) -> VerificationReport:
    """Per-block inequality chain for nested return factorizations.

    For each high-level block w' made of low-level constituents c_0..c_t,
    with l the constituent holding the smallest critical position of w':

        sum_lp(w') >= sum_i sum_lp(c_i) + |w'| - |c_l|              (exact)
        h(w')      >= min_i h(c_i) + 1 - |c_l|/|w'|                 (exact)
        h(w')      >= min_i h(c_i) + 1/2        (needs mu_hi > 2 m_lo)

    The first two are exact facts about computed values; the last is only
    asserted when the windowed length condition holds, and the report says
    which case applied.
    """
    m_lo = fact_lo.max_return_time
    mu_hi = fact_hi.min_return_length
    condition = mu_hi > 2 * m_lo
    report = VerificationReport(claim, params or {}, 0, WINDOWED, notes=(
        f"windowed m_lo={m_lo}, mu_hi={mu_hi}; length condition "
        f"{'holds' if condition else 'FAILS'} in this window"
    ))
    if len(fact_hi.returns) < window:
        raise InsufficientWindowError(
            f"only {len(fact_hi.returns)} high-level blocks, wanted {window}"
        )
    blocks = fact_hi.returns[:window]
    constituents = [_constituents(fact_lo, fact_hi, j) for j in range(1, window + 1)]
    table = local_period_table(blocks + [c for parts in constituents if parts for c in parts])
    for j, (w, parts) in enumerate(zip(blocks, constituents), 1):
        report.instances += 1
        if parts is None or "".join(parts) != w:
            report.fail({
                "op": "return_gain_step",
                "j": j,
                "block": w,
                "error": "high-level block boundaries do not refine low-level ones",
                "z_lo": fact_lo.z,
                "z_hi": fact_hi.z,
            })
            return report
        # the first critical position: the first local period equal to the period
        crit = table[w].tolist().index(period(w)) + 1
        off = 0
        ell = parts[0]
        for c in parts:
            if off < crit <= off + len(c):
                ell = c
                break
            off += len(c)
        min_h = min(_mean(table[c]) for c in parts)
        lhs = int(table[w].sum())
        rhs = sum(int(table[c].sum()) for c in parts) + len(w) - len(ell)
        hw = Fraction(lhs, len(w))
        bound_b = min_h + 1 - Fraction(len(ell), len(w))
        row = {
            "j": j,
            "length": len(w),
            "constituents": len(parts),
            "critical": crit,
            "ell_length": len(ell),
            "sum_lp": lhs,
            "sum_bound": rhs,
            "h": _frac(hw),
            "h_bound": _frac(bound_b),
            "gain": _frac(hw - min_h),
        }
        ok = is_unbordered(w) and lhs >= rhs and hw >= bound_b
        if condition:
            ok = ok and hw >= min_h + Fraction(1, 2)
        if not ok:
            report.fail({
                "op": "return_gain_step",
                "j": j,
                "block": w,
                "unbordered": is_unbordered(w),
                "sum_lp": lhs,
                "sum_bound": rhs,
                "h": _frac(hw),
                "h_bound": _frac(bound_b),
                "half_gain_required": condition,
            })
        report.details.append(row)
    if not condition:
        report.undecided("+1/2 corollary not asserted, pick a higher level")
    return report


def build_gain_pair(
    source: WordSource,
    k: int,
    horizon: int,
    repetition_bound: int | None = None,
    max_depth: int = 6,
) -> tuple[ReturnFactorization, ReturnFactorization, int]:
    """Find the first chain level whose blocks are long enough for the
    half-gain step over level k, and return both factorizations."""
    chain = alpha_chain(source, max_depth, horizon, repetition_bound)
    fact_lo = return_factorization(
        source, chain.power(k), horizon, exponent=chain.level(k).exponent,
        assert_block_prefix=True,
    )
    for kp in range(k + 1, max_depth + 1):
        fact_hi = return_factorization(
            source, chain.power(kp), horizon, exponent=chain.level(kp).exponent,
            assert_block_prefix=True,
        )
        if fact_hi.min_return_length > 2 * fact_lo.max_return_time:
            return fact_lo, fact_hi, kp
    raise InsufficientWindowError(
        f"no level up to {max_depth} satisfies the length condition over level {k}"
    )


def check_return_gain(
    source: WordSource,
    k: int = 1,
    kprime: int | None = None,
    window: int = 8,
    horizon: int = 20_000,
    repetition_bound: int | None = None,
) -> VerificationReport:
    """Run the per-block gain chain on nested minimal-return factorizations."""
    params = {
        "word": source.descriptor,
        "k": k,
        "kprime": kprime,
        "window": window,
        "horizon": horizon,
        "repetition_bound": repetition_bound,
    }
    if kprime is None:
        fact_lo, fact_hi, kp = build_gain_pair(source, k, horizon, repetition_bound)
        params["kprime"] = kp
    else:
        chain = alpha_chain(source, kprime, horizon, repetition_bound)
        fact_lo = return_factorization(
            source, chain.power(k), horizon, exponent=chain.level(k).exponent,
            assert_block_prefix=True,
        )
        fact_hi = return_factorization(
            source, chain.power(kprime), horizon, exponent=chain.level(kprime).exponent,
            assert_block_prefix=True,
        )
    return return_gain_step(fact_lo, fact_hi, window, params=params)


# ---------------------------------------------------------------------------
# dyadic blocks


def check_dyadic_gain(
    source: WordSource,
    k: int = 1,
    kprime: int = 4,
    window: int = 8,
    horizon: int | None = None,
    repetition_bound: int | None = None,
) -> VerificationReport:
    """Per-block period/complexity chain for power-of-two tilings.

    Requires 2^kprime >= e * 2^(k+1) where e bounds integer powers in the
    word.  A caller-supplied bound is treated as certified; otherwise a
    windowed estimate is used and shortfalls downgrade to inconclusive
    instead of fail (the estimate may undershoot the true supremum).
    """
    if horizon is None:
        horizon = 2 ** kprime * (window + 2)
    params = {
        "word": source.descriptor,
        "k": k,
        "kprime": kprime,
        "window": window,
        "horizon": horizon,
        "repetition_bound": repetition_bound,
    }
    certified = repetition_bound is not None
    e = repetition_bound if certified else repetition_exponent_estimate(source, horizon)
    report = VerificationReport("dyadic-gain", params, 0, WINDOWED,
                                notes=f"e={e} ({'certified' if certified else 'windowed estimate'})")
    if 2 ** kprime < e * 2 ** (k + 1):
        report.undecided(f"2^{kprime} < {e} * 2^{k + 1}, level gap too small for this exponent")
        return report
    hi = dyadic_factorization(source, kprime, horizon)
    lo = dyadic_factorization(source, k, horizon)
    if len(hi.blocks) < window + 1:
        raise InsufficientWindowError(
            f"horizon {horizon} holds {len(hi.blocks)} blocks of 2^{kprime}, wanted {window + 1}"
        )
    ratio = 2 ** (kprime - k)
    blen = 2 ** kprime
    table = local_period_table(hi.blocks[1:window + 1] + lo.blocks[ratio:(window + 1) * ratio])
    for j in range(1, window + 1):
        z = hi.blocks[j]
        parts = lo.blocks[j * ratio:(j + 1) * ratio]
        report.instances += 1
        if "".join(parts) != z:
            report.fail({
                "op": "dyadic_factorization",
                "j": j,
                "error": "tiling identity violated",
            })
            return report
        p = period(z)
        s = blen // p
        own_min = min(_mean(table[c]) for c in parts)
        hz = _mean(table[z])
        bound = own_min + Fraction(s * (p - 2 ** k), blen)
        row = {
            "j": j,
            "period": p,
            "s": s,
            "h": _frac(hz),
            "h_bound": _frac(bound),
        }
        period_ok = p * e >= blen and p >= 2 ** (k + 1)
        count_ok = s * p > blen // 2
        h_ok = hz >= bound
        if not (period_ok and count_ok and h_ok):
            payload = {
                "op": "check_dyadic_gain",
                "word": source.descriptor,
                "j": j,
                "block": z,
                "period": p,
                "s": s,
                "e": e,
                "certified": certified,
                "h": _frac(hz),
                "h_bound": _frac(bound),
            }
            # s*p > 2^(kprime-1) is a fact about p and s alone; the other two
            # lean on e, and an undershot estimate voids the preconditions
            # rather than refuting anything
            if certified or not count_ok:
                report.fail(payload)
            else:
                report.undecided(f"block {j} misses a bound under the estimated exponent")
            row["outcome"] = "violation"
        report.details.append(row)
    return report


# ---------------------------------------------------------------------------
# randomized inequality trials and exhaustive small-word sweeps


def _random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ab") for _ in range(n))


def check_factor_bound(
    trials: int = 10_000, maxlen: int = 14, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Local periods of a factor never exceed those of the enclosing word.

    Compared at corresponding positions, over random short binary words.
    """
    rng = random.Random(seed)
    report = VerificationReport(
        "factor-bound", {"trials": trials, "maxlen": maxlen, "seed": seed}, 0, PASS
    )
    for start in range(0, trials, TRIAL_BLOCK):
        drawn = []
        for _ in range(min(TRIAL_BLOCK, trials - start)):
            n = rng.randint(3, maxlen)
            w = _random_word(rng, n)
            a = rng.randint(0, n - 1)
            b = rng.randint(a + 1, n)
            drawn.append((w, a, w[a:b]))
        table = local_period_table(x for w, _, v in drawn for x in (w, v))
        for w, a, v in drawn:
            pw, pv = table[w], table[v]
            report.instances += 1
            over = pv > pw[a:a + len(v)]
            if over.any():
                i = int(over.argmax()) + 1
                report.fail({
                    "op": "local_period",
                    "word": w,
                    "factor": v,
                    "offset": a,
                    "i": i,
                    "factor_lp": int(pv[i - 1]),
                    "word_lp": int(pw[a + i - 1]),
                })
                return report
    return report


def check_superadditivity(
    trials: int = 10_000, maxlen: int = 14, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """|uv| h(uv) >= |u| h(u) + |v| h(v), as exact integer sums."""
    rng = random.Random(seed)
    report = VerificationReport(
        "superadditivity", {"trials": trials, "maxlen": maxlen, "seed": seed}, 0, PASS
    )
    for start in range(0, trials, TRIAL_BLOCK):
        drawn = []
        for _ in range(min(TRIAL_BLOCK, trials - start)):
            n = rng.randint(2, maxlen)
            w = _random_word(rng, n)
            drawn.append((w, rng.randint(1, n - 1)))
        words = (x for w, c in drawn for x in (w, w[:c], w[c:]))
        sums = {x: int(lps.sum()) for x, lps in local_period_table(words).items()}
        for w, c in drawn:
            s_w, s_u, s_v = sums[w], sums[w[:c]], sums[w[c:]]
            report.instances += 1
            if s_w < s_u + s_v:
                report.fail({
                    "op": "local_period_sum",
                    "word": w,
                    "split": c,
                    "whole": s_w,
                    "left": s_u,
                    "right": s_v,
                })
                return report
    return report


def _decode_word(n: int, code: int, letters: str = "ab") -> str:
    # row `code` of the sweeps' own letter matrix, so the order cannot drift
    row = kernels.active.word_matrix(n, len(letters), code, code + 1)[0]
    return "".join(letters[r] for r in row)


def check_critical_exhaustive(alphabet_size: int = 2, maxlen: int = 12) -> VerificationReport:
    """Every short word attains its period as a local period somewhere."""
    if alphabet_size > 3 or maxlen > 12:
        raise ValueError("exhaustive sweep is limited to alphabet <= 3, length <= 12")
    words, failures, bad_n, bad_code = (
        int(x) for x in kernels.active.cft_sweep(maxlen, alphabet_size)
    )
    report = VerificationReport(
        "critical-exhaustive",
        {"alphabet_size": alphabet_size, "maxlen": maxlen},
        words,
        PASS,
    )
    if failures:
        letters = "abc"[:alphabet_size]
        report.fail({
            "op": "critical_positions",
            "word": _decode_word(bad_n, bad_code, letters),
            "failures": failures,
        })
    return report


def check_oracle_equivalence(alphabet_size: int = 2, maxlen: int = 12) -> VerificationReport:
    """The incremental scan agrees with the brute-force candidate enumeration.

    Checked on every word up to maxlen, at every position.
    """
    if alphabet_size > 3 or maxlen > 12:
        raise ValueError("exhaustive sweep is limited to alphabet <= 3, length <= 12")
    checks, mismatches, cft_fails, bad_n, bad_code, bad_i = (
        int(x) for x in kernels.active.oracle_sweep(maxlen, alphabet_size)
    )
    report = VerificationReport(
        "oracle-equivalence",
        {"alphabet_size": alphabet_size, "maxlen": maxlen},
        checks,
        PASS,
        notes=f"{checks} position checks",
    )
    if mismatches or cft_fails:
        letters = "abc"[:alphabet_size]
        report.fail({
            "op": "local_period_oracle",
            "word": _decode_word(bad_n, bad_code, letters) if bad_n >= 0 else None,
            "position": bad_i,
            "mismatches": mismatches,
            "cft_failures": cft_fails,
        })
    return report


# ---------------------------------------------------------------------------
# divergence trends


def divergence_report(
    source: WordSource,
    checkpoints: tuple[int, ...] = tuple(2 ** t for t in range(4, 13)),
    cap: int | None = None,
    trend_from: int = 64,
) -> VerificationReport:
    """Running complexity at checkpoints; windowed-pass when nondecreasing.

    An empirical trend table, never a proof: the report says so, and entries
    whose local-period scan hit the cap are flagged rather than guessed.
    """
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    pts = sorted(set(checkpoints))
    n = pts[-1]
    prof = profile(source, n=n, cap=cap)
    report = VerificationReport(
        "divergence",
        {
            "word": source.descriptor,
            "checkpoints": pts,
            "cap": prof.cap,
            "trend_from": trend_from,
        },
        len(pts),
        WINDOWED,
        notes="empirical trend over a finite window; not evidence of a limit",
    )
    rows = []
    for i in pts:
        h = prof.h_at(i)
        rows.append(
            {
                "i": i,
                "h_numerator": None if h is None else h.numerator,
                "h_denominator": None if h is None else h.denominator,
                "h_approx": None if h is None else float(h),
                "capped": h is None,
            }
        )
    report.details = rows
    if any(r["capped"] for r in rows):
        report.undecided("some checkpoints hit the scan cap")
        return report
    trend = [(r["i"], Fraction(r["h_numerator"], r["h_denominator"])) for r in rows if r["i"] >= trend_from]
    for (i1, h1), (i2, h2) in zip(trend, trend[1:]):
        if h2 < h1:
            report.fail({
                "op": "profile",
                "word": source.descriptor,
                "from": i1,
                "to": i2,
                "h_from": _frac(h1),
                "h_to": _frac(h2),
            })
            break
    return report


def check_peak_average(params: HolubParams, depth: int = 3, cap: int | None = None) -> VerificationReport:
    """Strict inequality h(d_j) > p(d_j)/d_j at every anchor position.

    Computed with exact rationals from the actual profile, so an anchor where
    the two sides coincide is reported as the counterexample it is.
    """
    source = holub_word(params)
    top = anchor_length(params, depth)
    use_cap = cap if cap is not None else predicted_peak_period(params, depth) + 1
    prof = profile(source, n=top, cap=use_cap)
    report = VerificationReport(
        "peak-average",
        {"word": source.descriptor, "depth": depth, "cap": use_cap},
        0,
        PASS,
    )
    for j in range(1, depth + 1):
        d = anchor_length(params, j)
        h = prof.h_at(d)
        p = prof.local_periods[d - 1]
        report.instances += 1
        if h is None or p is None:
            report.undecided(f"scan cap {use_cap} hit before anchor {j}")
            continue
        bound = Fraction(p, d)
        row = {"j": j, "position": d, "h": _frac(h), "peak_over_d": _frac(bound), "strict": h > bound}
        if not h > bound:
            report.fail({
                "op": "profile",
                "word": source.descriptor,
                "position": d,
                "h": _frac(h),
                "bound": _frac(bound),
                "claimed": "h strictly greater",
            })
        report.details.append(row)
    return report
