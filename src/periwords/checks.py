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

windowed-pass is never upgraded to pass, and a pass that checked no instance
decides nothing: it is reported inconclusive.

Each checker declares its claim with ``@_claim``, which registers it in
``CLAIMS``; a report records the call that made it, plus what the checker
resolved.
"""

import functools
import inspect
import random
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import kernels
from .errors import InsufficientWindowError
from .factorize import (
    ReturnFactorization,
    _chain_walk,
    _dyadic_length,
    _least_row,
    _quote,
    dyadic_factorization,
    occurrences,
    repetition_exponent_estimate,
    return_factorization,
)
from .periods import (
    CapExceeded,
    factor_local_periods,
    h_of_row,
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
    _check_size,
    holub_letters,
    holub_toeplitz,
    holub_u,
    holub_word,
    parse_descriptor,
    predicted_witness,
    random_binary_words,
)

PASS = "pass"
FAIL = "fail"
WINDOWED = "windowed-pass"
INCONCLUSIVE = "inconclusive"

DEFAULT_SEED = 90407
# random trials drawn and scored at a time, and the most letters one block's
# (trials x maxlen) letter matrix may hold, so a trial checker's memory stays
# bounded whatever its trial count and maxlen; the default 10,000 trials of
# up to 14 letters are one block
TRIAL_BLOCK = 1 << 14
TRIAL_LETTERS = 1 << 18


@dataclass
class VerificationReport:
    """Structured outcome of one claim checker.

    A checker puts in ``params`` only the values it resolved itself; the claim
    declaration stamps ``claim`` and records the call's arguments.
    """

    claim: str = ""
    params: dict = field(default_factory=dict)
    instances: int = 0
    status: str = PASS
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
        return asdict(self)


# ---------------------------------------------------------------------------
# the claim registry


@dataclass(frozen=True)
class ClaimSpec:
    """A claim and the name of the checker in this module that verifies it.

    Everything else is read off the checker's signature by ``_claim``.  The
    checker is looked up by name on every run, so whatever this module holds
    under that name at the time (a traced wrapper, say) is what runs.
    """

    claim_id: str
    checker: str
    subject: type | None  # HolubParams, WordSource or None: what the first parameter takes
    params: dict  # name -> (annotation, default) of every parameter after the subject

    def run(self, params: dict, word: str | None) -> VerificationReport:
        """Run the checker on the subject the descriptor ``word`` names."""
        checker = globals()[self.checker]
        if self.subject is None:
            return checker(**params)
        if not word:
            raise ValueError(f"claim {self.claim_id!r} needs a word (field 'word', flag --word)")
        source = parse_descriptor(word)
        if self.subject is HolubParams:
            holub = getattr(source, "params", None)
            if holub is None:
                raise ValueError(f"this claim needs a holub-family word, got {source.descriptor}")
            return checker(holub, **params)
        source.refuse_holes(f"check {self.claim_id} on")
        return checker(source, **params)


CLAIMS: dict[str, ClaimSpec] = {}


def _claim(claim_id: str):
    """Declare the decorated checker as the one that verifies ``claim_id``.

    Every report it returns gets the claim id, and its ``params`` record the
    call: the subject's descriptor as ``word``, every other argument under
    its own name, then whatever the checker resolved itself.  A negative int
    argument other than a seed is refused, and a pass that checked no
    instance becomes inconclusive.
    """

    def declare(checker):
        signature = inspect.signature(checker, eval_str=True)
        first, *rest = signature.parameters.values()
        subject = first.annotation if first.annotation in (HolubParams, WordSource) else None
        if subject is None:
            rest = [first, *rest]
        CLAIMS[claim_id] = ClaimSpec(claim_id, checker.__name__, subject,
                                     {p.name: (p.annotation, p.default) for p in rest})

        @functools.wraps(checker)
        def declared(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            for name, value in call.arguments.items():
                # every int parameter counts or bounds something, except a seed
                if type(value) is int and value < 0 and name != "seed":
                    raise ValueError(f"{name} must not be negative, got {value}")
            report = checker(*args, **kwargs)
            recorded = dict(call.arguments)
            if subject is not None:
                recorded = {"word": recorded.pop(first.name).descriptor, **recorded}
            report.claim = claim_id
            report.params = {**recorded, **report.params}
            if report.status in (PASS, WINDOWED) and report.instances == 0:
                report.undecided("no instance was checked")
            return report

        return declared

    return declare


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# peak local periods of the parametrized family


def _anchors(params: HolubParams, depth: int, cap: int | None) -> list[tuple[int, int, int, int]]:
    # for each level j up to depth: j, the anchor d_j, the predicted peak at
    # it and the scan cap, the given one or one above the peak. The levels
    # are walked once with a running block length, and a depth is refused
    # before any scan at the first level whose scan reads d_j + cap letters
    # past MAX_PREFIX; d_j and the caps only grow with j
    levels, d, block = [], 1, 1
    for j in range(1, depth + 1):
        peak = (params.n(j) + 1) * block
        use_cap = peak + 1 if cap is None else cap
        _check_size(d + use_cap, f"depth {depth} is out of reach: the scan at level {j}")
        levels.append((j, d, peak, use_cap))
        block *= params.m(j)
        d += block
    return levels


def _anchor_scans(params: HolubParams, source: WordSource, depth: int, cap: int | None = None):
    # each level of _anchors with the scan of source at d_j under its cap
    for j, d, peak, use_cap in _anchors(params, depth, cap):
        yield j, d, peak, use_cap, local_period_infinite(source, d, use_cap)


@_claim("big")
def check_peak_periods(params: HolubParams, depth: int = 3, cap: int | None = None) -> VerificationReport:
    """At each anchor position the local period equals (n_j+1) * block_length(j-1).

    Each level also runs a sharpness probe: with the search cap one below the
    predicted value, the scan must come back cap-exceeded, certifying that no
    shorter repetition word exists.  A user cap below the prediction makes the
    level inconclusive rather than failed.
    """
    source = holub_word(params)
    report = VerificationReport()
    for j, d, expected, use_cap, got in _anchor_scans(params, source, depth, cap):
        report.instances += 1
        row = {"j": j, "position": d, "expected": expected, "cap": use_cap}
        cited = {"op": "local_period_infinite", "word": source.descriptor, "position": d,
                 "cap": use_cap, "expected": expected}
        if isinstance(got, CapExceeded) and use_cap < expected:
            row["outcome"] = "cap below prediction"
            report.undecided(f"cap {use_cap} < predicted {expected} at level {j}")
        elif isinstance(got, CapExceeded):
            report.fail({**cited, "actual": f"> {use_cap}"})
            row["outcome"] = f"local period exceeds {use_cap}"
        else:
            pred_r = predicted_witness(params, j)
            probe = local_period_infinite(source, d, expected - 1)
            row["actual"] = got.length
            row["witness"] = got.word
            row["witness_expected"] = pred_r
            row["sharp"] = isinstance(probe, CapExceeded)
            ok = got.length == expected and got.word == pred_r and row["sharp"]
            row["outcome"] = "ok" if ok else "mismatch"
            if not ok:
                report.fail({**cited, "actual": got.length, "expected_witness": pred_r,
                             "actual_witness": got.word})
        report.details.append(row)
    return report


@_claim("peak-witness")
def check_peak_witness(params: HolubParams, depth: int = 3) -> VerificationReport:
    """The minimal repetition word at anchor j is the predicted conjugate.

    Builds the conjugate by stripping the anchor from the front of
    u_(j-1) a (u_(j-1) b)^n_j and appending it at the back; a failed strip is
    itself a counterexample.
    """
    source = holub_word(params)
    report = VerificationReport()
    # _anchors refuses a depth whose scans would pass MAX_PREFIX before any
    # witness is built, and a scan's prefix is longer than its witness
    for j, d, expected_len, cap, got in _anchor_scans(params, source, depth):
        report.instances += 1
        try:
            pred = predicted_witness(params, j)
        except ValueError as e:
            report.fail({"op": "predicted_witness", "j": j, "error": str(e)})
            break
        ok = not isinstance(got, CapExceeded) and got.length == expected_len and got.word == pred
        if not ok:
            report.fail({
                "op": "local_period_infinite",
                "word": source.descriptor,
                "position": d,
                "cap": cap,
                "expected_witness": pred,
                "actual": "cap-exceeded" if isinstance(got, CapExceeded) else got.word,
            })
        report.details.append({"j": j, "position": d, "length": expected_len, "witness": pred,
                               "outcome": "ok" if ok else "mismatch"})
    return report


@_claim("block-closure")
def check_block_closure(params: HolubParams, depth: int = 4) -> VerificationReport:
    """u_i a and u_i b decompose exactly into blocks u_(i-1)a / u_(i-1)b."""
    report = VerificationReport()
    for i in range(1, depth + 1):
        prev = holub_u(params, i - 1)
        blocks = {prev + "a", prev + "b"}
        step = len(prev) + 1
        for last in ("a", "b"):
            report.instances += 1
            w = holub_u(params, i) + last
            # a short last chunk is in no block, so this checks the length too
            bad = next((t for t in range(0, len(w), step) if w[t:t + step] not in blocks), None)
            if bad is not None:
                report.fail({
                    "op": "check_block_closure",
                    "i": i,
                    "word": w,
                    "offset": bad,
                    "chunk": w[bad:bad + step],
                    "expected_blocks": sorted(blocks),
                })
                continue
            report.details.append({"i": i, "last": last, "decode": w[step - 1::step]})
    return report


@_claim("occurrence-rigidity")
def check_occurrence_rigidity(
    params: HolubParams, depth: int = 3, horizon: int = 10_000
) -> VerificationReport:
    """Every occurrence of u_i in the prefix starts at a multiple of |u_i|+1.

    The full claim ranges over the infinite word, so a clean window yields
    windowed-pass.  Level 0 is vacuous (the empty word) and excluded.
    """
    source = holub_word(params)
    report = VerificationReport(status=WINDOWED)
    for i in range(1, depth + 1):
        u = holub_u(params, i)
        occ = np.asarray(occurrences(u, source, horizon), np.int64)
        report.instances += occ.size
        bad = occ[occ % (len(u) + 1) != 0]
        if bad.size:
            report.fail({
                "op": "occurrences",
                "word": source.descriptor,
                "factor_level": i,
                "offset": int(bad[0]),
                "modulus": len(u) + 1,
            })
        report.details.append(
            {"i": i, "count": occ.size, "modulus": len(u) + 1, "violations": bad.size}
        )
    return report


def _first_difference(a: str, b: str) -> int:
    # the first index at which two words of one length differ
    return next(t for t, (x, y) in enumerate(zip(a, b)) if x != y)


@_claim("letter-formula")
def check_letter_formula(params: HolubParams, n: int = 10_000) -> VerificationReport:
    """The congruence formula and the nested recursion give the same letters."""
    source = holub_word(params)
    recursion = source.prefix(n)
    report = VerificationReport(instances=n)
    formula = holub_letters(params, n)
    if formula != recursion:
        i = _first_difference(formula, recursion) + 1
        report.fail({
            "op": "holub_letter",
            "word": source.descriptor,
            "position": i,
            "expected": recursion[i - 1],
            "actual": formula[i - 1],
        })
    return report


@_claim("toeplitz-stages")
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
    report = VerificationReport(params={"stage": stage}, instances=span)
    if HOLE in got:
        report.fail({
            "op": "holub_toeplitz",
            "stage": stage,
            "position": got.index(HOLE) + 1,
            "error": "hole inside the supposedly determined prefix",
        })
        return report
    if got != want:
        k = _first_difference(got, want)
        report.fail({
            "op": "holub_toeplitz",
            "stage": stage,
            "position": k + 1,
            "expected": want[k],
            "actual": got[k],
        })
    return report


@_claim("return-time-bound")
def check_return_time_bound(
    params: HolubParams,
    depth: int = 2,
    horizon: int | None = None,
    max_factor_len: int | None = None,
) -> VerificationReport:
    """Factors of the prefix u_i recur within |u_i|+1 letters (windowed)."""
    source = holub_word(params)
    report = VerificationReport(status=WINDOWED)
    for i in range(1, depth + 1):
        u = holub_u(params, i)
        bound = len(u) + 1
        hz = horizon if horizon is not None else max(256, 24 * bound)
        cut = len(u) if max_factor_len is None else min(max_factor_len, len(u))
        # one row (L, a, count, gap) per distinct factor u[a:a+L], L <= cut
        # (no row, and no window read, when cut is 0); a message names the
        # least factor among its failing rows
        ranks = source.alphabet.encode(u)
        L, a, count, gap = kernels.active.factor_return_times(
            ranks, source.ranks(hz if cut else 0), cut).T
        rare = np.flatnonzero(count < 2)
        if rare.size:
            t = _least_row(ranks, a, L, rare)
            raise InsufficientWindowError(
                f"factor {_quote(u[a[t]:a[t] + L[t]])} has {count[t]} occurrence(s) in horizon {hz}"
            )
        over = np.flatnonzero(gap > bound)
        if over.size:
            t = _least_row(ranks, a, L, over)
            report.fail({"op": "occurrences", "word": source.descriptor, "factor": u[a[t]:a[t] + L[t]],
                         "max_gap": int(gap[t]), "bound": bound, "horizon": hz})
        report.instances += L.size
        report.details.append(
            {"i": i, "factors": L.size, "bound": bound, "max_gap_seen": int(gap.max(initial=0))}
        )
    return report


# ---------------------------------------------------------------------------
# the minimal-return chain and its gain step


def _least_factor(source: WordSource, m: int, horizon: int) -> str:
    # the least factor of length m in the window, in the alphabet's order
    start = np.arange(horizon - m + 1)
    t = _least_row(source.ranks(horizon), start, np.broadcast_to(m, start.shape), start)
    return source.prefix(horizon)[t:t + m]


@_claim("min-return-chain")
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
    levels = list(_chain_walk(source, depth, horizon, repetition_bound))
    report = VerificationReport(status=WINDOWED)
    alphabet = source.alphabet
    prev = ""
    for k, (a, e, markers) in enumerate(levels, 1):
        z = a * e
        lexmin = _least_factor(source, len(a), horizon)
        rws = sorted(set(return_factorization(source, z, horizon, occ=markers.tolist()).returns))
        not_lyndon = [w for w in rws if not is_lyndon(w, alphabet)]
        bordered = [w for w in rws if not is_unbordered(w)]
        no_prefix = [w for w in rws if not w.startswith(z)]
        nest_ok = a.startswith(prev)
        prev = z
        row = {"k": k, "alpha": a, "exponent": e, "lexmin_factor": lexmin,
               "return_words": len(rws), "lyndon_violations": len(not_lyndon)}
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


def _tiled_blocks(report: VerificationReport, blocks: list[str], constituents: list, misfit):
    # each block j >= 1 with its constituents, a local period table holding
    # them all, the block's h and the least h of its constituents, one
    # instance each; the first block its constituents (None where there are
    # none) do not spell fails the report with misfit(j, block) and ends the walk
    table = local_period_table(blocks + [c for parts in constituents if parts for c in parts])
    for j, (w, parts) in enumerate(zip(blocks, constituents), 1):
        report.instances += 1
        if parts is None or "".join(parts) != w:
            report.fail(misfit(j, w))
            return
        yield j, w, parts, table, h_of_row(table[w]), min(h_of_row(table[c]) for c in parts)


def return_gain_step(
    fact_lo: ReturnFactorization,
    fact_hi: ReturnFactorization,
    window: int = 8,
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
    which case applied.  The report carries ``params`` as given; it gets its
    claim id when ``check_return_gain`` makes it.
    """
    m_lo = fact_lo.max_return_time
    mu_hi = fact_hi.min_return_length
    condition = mu_hi > 2 * m_lo
    report = VerificationReport(params=params or {}, status=WINDOWED, notes=(
        f"windowed m_lo={m_lo}, mu_hi={mu_hi}; length condition "
        f"{'holds' if condition else 'FAILS'} in this window"
    ))
    if len(fact_hi.returns) < window:
        raise InsufficientWindowError(
            f"only {len(fact_hi.returns)} high-level blocks, wanted {window}"
        )
    blocks = fact_hi.returns[:window]
    # the level-lo blocks between the two ends of each level-hi block, or None
    # where the hi boundaries are not lo boundaries
    at = {b: k for k, b in enumerate(fact_lo.boundaries())}
    hi_b = fact_hi.boundaries()
    constituents = [fact_lo.returns[at[s]:at[t]] if s in at and t in at else None
                    for s, t in zip(hi_b, hi_b[1:window + 1])]
    tiled = _tiled_blocks(report, blocks, constituents, lambda j, w: {
        "op": "return_gain_step", "j": j, "block": w,
        "error": "high-level block boundaries do not refine low-level ones",
        "z_lo": fact_lo.z, "z_hi": fact_hi.z})
    for j, w, parts, table, hw, min_h in tiled:
        # the first critical position: the first local period equal to the period
        crit = table[w].tolist().index(period(w)) + 1
        ell = parts[bisect_left(list(accumulate(map(len, parts))), crit)]
        lhs = int(table[w].sum())
        rhs = sum(int(table[c].sum()) for c in parts) + len(w) - len(ell)
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
        unbordered = is_unbordered(w)
        ok = unbordered and lhs >= rhs and hw >= bound_b
        if condition:
            ok = ok and hw >= min_h + Fraction(1, 2)
        if not ok:
            report.fail({
                "op": "return_gain_step",
                "j": j,
                "block": w,
                "unbordered": unbordered,
                "sum_lp": lhs,
                "sum_bound": rhs,
                "h": _frac(hw),
                "h_bound": _frac(bound_b),
                "half_gain_required": condition,
            })
        report.details.append(row)
    # a block its constituents do not spell ends the walk without a row
    if not condition and len(report.details) == report.instances:
        report.undecided("+1/2 corollary not asserted, pick a higher level")
    return report


def build_gain_pair(
    source: WordSource,
    k: int,
    horizon: int,
    repetition_bound: int | None = None,
    max_depth: int = 6,
    kprime: int | None = None,
) -> tuple[ReturnFactorization, ReturnFactorization, int]:
    """Find the first chain level whose blocks are long enough for the
    half-gain step over level k, and return both factorizations.

    A given kprime is the only level tried, and it is returned whether or
    not its blocks are long enough; the step's report says which.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if kprime is not None and 0 < kprime <= k:
        raise ValueError(f"k must be below kprime, got k={k}, kprime={kprime}")
    levels = list(_chain_walk(source, max_depth if kprime is None else kprime, horizon,
                              repetition_bound))
    if k > len(levels):
        raise ValueError(f"level {k} outside 1..{len(levels)}")

    def cut(level: int) -> ReturnFactorization:
        # the window cut at the level's chain power alpha^e, at the offsets
        # the walk found
        alpha, e, markers = levels[level - 1]
        return return_factorization(source, alpha * e, horizon, e, assert_block_prefix=True,
                                    occ=markers.tolist())

    fact_lo = cut(k)
    for kp in range(k + 1, max_depth + 1) if kprime is None else (kprime,):
        fact_hi = cut(kp)
        if kprime is not None or fact_hi.min_return_length > 2 * fact_lo.max_return_time:
            return fact_lo, fact_hi, kp
    raise InsufficientWindowError(
        f"no level up to {max_depth} satisfies the length condition over level {k}"
    )


@_claim("return-gain")
def check_return_gain(
    source: WordSource,
    k: int = 1,
    kprime: int | None = None,
    window: int = 8,
    horizon: int = 20_000,
    repetition_bound: int | None = None,
) -> VerificationReport:
    """Run the per-block gain chain on nested minimal-return factorizations."""
    fact_lo, fact_hi, kprime = build_gain_pair(source, k, horizon, repetition_bound,
                                               kprime=kprime)
    return return_gain_step(fact_lo, fact_hi, window, params={"kprime": kprime})


# ---------------------------------------------------------------------------
# dyadic blocks


@_claim("dyadic-gain")
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
    if k >= kprime:
        raise ValueError(f"k must be below kprime, got k={k}, kprime={kprime}")
    blen = _dyadic_length(kprime, "kprime")
    if horizon is None:
        horizon = blen * (window + 2)
    certified = repetition_bound is not None
    e = repetition_bound if certified else repetition_exponent_estimate(source, horizon)
    report = VerificationReport(params={"horizon": horizon}, status=WINDOWED,
                                notes=f"e={e} ({'certified' if certified else 'windowed estimate'})")
    if blen < e * 2 ** (k + 1):
        report.undecided(f"2^{kprime} < {e} * 2^{k + 1}, level gap too small for this exponent")
        return report
    hi = dyadic_factorization(source, kprime, horizon)
    lo = dyadic_factorization(source, k, horizon)
    if len(hi.blocks) < window + 1:
        raise InsufficientWindowError(
            f"horizon {horizon} holds {len(hi.blocks)} blocks of 2^{kprime}, wanted {window + 1}"
        )
    ratio = 2 ** (kprime - k)
    constituents = [lo.blocks[j * ratio:(j + 1) * ratio] for j in range(1, window + 1)]
    tiled = _tiled_blocks(report, hi.blocks[1:window + 1], constituents, lambda j, z: {
        "op": "dyadic_factorization", "j": j, "error": "tiling identity violated"})
    for j, z, _, _, hz, own_min in tiled:
        p = period(z)
        s = blen // p
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


def _spell(row: np.ndarray, letters: str = "ab") -> str:
    # a row of letter codes as a word
    return "".join(letters[r] for r in row.tolist())


def _trial_blocks(trials: int, maxlen: int):
    # the trials of each block: TRIAL_BLOCK, fewer when their (trials x
    # maxlen) letter matrix would pass TRIAL_LETTERS
    block = max(1, min(TRIAL_BLOCK, TRIAL_LETTERS // maxlen))
    for start in range(0, trials, block):
        yield min(block, trials - start)


def _below(u: np.ndarray, m, maxlen: int) -> np.ndarray:
    # each 32-bit draw scaled into [0, m) by multiply-shift, in the least signed
    # type that holds maxlen (int8 up to 127); its bias is below m / 2^32
    return ((u * np.asarray(m, np.uint64)) >> 32).astype(np.min_scalar_type(-maxlen - 1))


def _factor_bound_draws(rng: random.Random, rows: int, maxlen: int):
    # words of 3..maxlen letters and a factor w[a:b] of each, 0 <= a < b <= n
    letters, (un, ua, ub) = random_binary_words(rng, rows, maxlen, 3)
    n = 3 + _below(un, maxlen - 2, maxlen)
    a = _below(ua, n, maxlen)
    return letters, n, a, a + 1 + _below(ub, n - a, maxlen)


def _superadditivity_draws(rng: random.Random, rows: int, maxlen: int):
    # words of 2..maxlen letters and a split 1 <= c < n of each
    letters, (un, uc) = random_binary_words(rng, rows, maxlen, 2)
    n = 2 + _below(un, maxlen - 1, maxlen)
    return letters, n, 1 + _below(uc, n - 1, maxlen)


@_claim("factor-bound")
def check_factor_bound(
    trials: int = 10_000, maxlen: int = 14, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Local periods of a factor never exceed those of the enclosing word.

    Compared at corresponding positions, over random binary words of 3 to
    maxlen letters.
    """
    if maxlen < 3:
        raise ValueError(f"maxlen must be at least 3, got {maxlen}")
    rng = random.Random(seed)
    report = VerificationReport()
    for rows in _trial_blocks(trials, maxlen):
        letters, n, a, b = _factor_bound_draws(rng, rows, maxlen)
        whole, part = factor_local_periods(
            letters, np.concatenate([np.zeros_like(a), a]), np.concatenate([n, b - a])
        ).reshape(2, rows, maxlen)
        over = part > whole
        bad = np.flatnonzero(over.any(1))
        if not bad.size:
            report.instances += rows
            continue
        r = int(bad[0])
        w, lo, hi = _spell(letters[r, :n[r]]), int(a[r]), int(b[r])
        col = int(over[r].argmax())
        report.instances += r + 1
        report.fail({
            "op": "local_period",
            "word": w,
            "factor": w[lo:hi],
            "offset": lo,
            "i": col - lo + 1,
            "factor_lp": int(part[r, col]),
            "word_lp": int(whole[r, col]),
        })
        return report
    return report


@_claim("superadditivity")
def check_superadditivity(
    trials: int = 10_000, maxlen: int = 14, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """|uv| h(uv) >= |u| h(u) + |v| h(v), as exact integer sums.

    Over random binary words of 2 to maxlen letters, split in two nonempty parts.
    """
    if maxlen < 2:
        raise ValueError(f"maxlen must be at least 2, got {maxlen}")
    rng = random.Random(seed)
    report = VerificationReport()
    for rows in _trial_blocks(trials, maxlen):
        letters, n, c = _superadditivity_draws(rng, rows, maxlen)
        zeros = np.zeros_like(c)
        whole, left, right = factor_local_periods(
            letters, np.concatenate([zeros, zeros, c]), np.concatenate([n, c, n - c])
        ).reshape(3, rows, maxlen).sum(2, dtype=np.int64)
        bad = np.flatnonzero(whole < left + right)
        if not bad.size:
            report.instances += rows
            continue
        r = int(bad[0])
        report.instances += r + 1
        report.fail({
            "op": "local_periods",
            "word": _spell(letters[r, :n[r]]),
            "split": int(c[r]),
            "whole": int(whole[r]),
            "left": int(left[r]),
            "right": int(right[r]),
        })
        return report
    return report


def _decode_word(n: int, code: int, letters: str = "ab") -> str:
    # row `code` of the sweeps' own letter matrix, so the order cannot drift
    return _spell(kernels.active.word_matrix(n, len(letters), code, code + 1)[0], letters)


def _sweep_limits(alphabet_size: int, maxlen: int) -> None:
    if not 1 <= alphabet_size <= 3 or maxlen > 12:
        raise ValueError("exhaustive sweep is limited to 1 <= alphabet_size <= 3, maxlen <= 12, "
                         f"got alphabet_size {alphabet_size}, maxlen {maxlen}")


@_claim("critical-exhaustive")
def check_critical_exhaustive(alphabet_size: int = 2, maxlen: int = 12) -> VerificationReport:
    """Every short word attains its period as a local period somewhere."""
    _sweep_limits(alphabet_size, maxlen)
    words, failures, bad_n, bad_code = (
        int(x) for x in kernels.active.cft_sweep(maxlen, alphabet_size)
    )
    report = VerificationReport(instances=words)
    if failures:
        letters = "abc"[:alphabet_size]
        report.fail({
            "op": "critical_positions",
            "word": _decode_word(bad_n, bad_code, letters),
            "failures": failures,
        })
    return report


@_claim("oracle-equivalence")
def check_oracle_equivalence(alphabet_size: int = 2, maxlen: int = 12) -> VerificationReport:
    """The incremental scan agrees with the brute-force candidate enumeration.

    Checked on every word up to maxlen, at every position.
    """
    _sweep_limits(alphabet_size, maxlen)
    checks, mismatches, cft_fails, bad_n, bad_code, bad_i = (
        int(x) for x in kernels.active.oracle_sweep(maxlen, alphabet_size)
    )
    report = VerificationReport(instances=checks, notes=f"{checks} position checks")
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


@_claim("divergence")
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
    if pts[0] < 1:
        raise ValueError(f"checkpoints must be >= 1, got {pts[0]}")
    n = pts[-1]
    prof = profile(source, n=n, cap=cap)
    report = VerificationReport(
        params={"checkpoints": pts, "cap": prof.cap},
        instances=len(pts),
        status=WINDOWED,
        notes="empirical trend over a finite window; not evidence of a limit",
    )
    hs = [prof.h_at(i) for i in pts]
    report.details = [
        {
            "i": i,
            "h_numerator": None if h is None else h.numerator,
            "h_denominator": None if h is None else h.denominator,
            "h_approx": None if h is None else float(h),
            "capped": h is None,
        }
        for i, h in zip(pts, hs)
    ]
    if None in hs:
        report.undecided("some checkpoints hit the scan cap")
        return report
    trend = [(i, h) for i, h in zip(pts, hs) if i >= trend_from]
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


@_claim("peak-average")
def check_peak_average(params: HolubParams, depth: int = 3, cap: int | None = None) -> VerificationReport:
    """Strict inequality h(d_j) > p(d_j)/d_j at every anchor position.

    Computed with exact rationals from the actual profile, so an anchor where
    the two sides coincide is reported as the counterexample it is.
    """
    if depth < 1:
        raise ValueError("levels are 1-based")
    source = holub_word(params)
    levels = _anchors(params, depth, cap)
    _, top, _, use_cap = levels[-1]
    prof = profile(source, n=top, cap=use_cap)
    report = VerificationReport(params={"cap": use_cap})
    for j, d, _, _ in levels:
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
