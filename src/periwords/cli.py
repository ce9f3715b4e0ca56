"""Command-line frontend: generate words, profile, factorize, verify, batch.

Exit codes: 0 when everything requested passed (windowed-pass counts, with a
warning on stderr), 2 when a verification failed, 3 when the only non-passes
were inconclusive, 1 for usage/descriptor/output/window errors -- each with
its own diagnostic prefix so scripts can tell them apart.
"""

import argparse
import csv
import inspect
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from . import checks
from .checks import DEFAULT_SEED, VerificationReport
from .errors import DescriptorError, InsufficientWindowError
from .factorize import alpha_chain, dyadic_factorization, return_factorization
from .periods import local_period_table, profile
from .words import HOLE, HolubParams, WordSource, parse_descriptor

LINE = 64  # letters per text line when rendering word prefixes


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """One runnable experiment; serializes losslessly with explicit defaults."""

    action: str
    word: str | None = None
    text: str | None = None
    claim: str | None = None
    params: dict = field(default_factory=dict)
    format: str = "text"
    out: str | None = None
    seed: int = DEFAULT_SEED

    def to_json(self) -> dict:
        return {
            "action": self.action,
            "word": self.word,
            "text": self.text,
            "claim": self.claim,
            "params": dict(self.params),
            "format": self.format,
            "out": self.out,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise TypeError(f"a run takes an object, got {data!r}")
        known = {"action", "word", "text", "claim", "params", "format", "out", "seed"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        if "action" not in data:
            raise ValueError("config needs an 'action' field")
        if not isinstance(data["action"], str):
            raise TypeError(f"field 'action' takes a string, got {data['action']!r}")
        for name in ("word", "text", "claim", "out"):
            if not isinstance(data.get(name), (str, type(None))):
                raise TypeError(f"field {name!r} takes a string or null, got {data[name]!r}")
        if not isinstance(data.get("params") or {}, dict):
            raise TypeError(f"field 'params' takes an object, got {data['params']!r}")
        if data.get("format", "text") not in _EXT:
            raise ValueError(f"field 'format' takes one of {list(_EXT)}, got {data['format']!r}")
        if not _admits(int, data.get("seed", DEFAULT_SEED)):
            raise TypeError(f"field 'seed' takes an int, got {data['seed']!r}")
        return cls(
            action=data["action"],
            word=data.get("word"),
            text=data.get("text"),
            claim=data.get("claim"),
            params=dict(data.get("params") or {}),
            format=data.get("format", "text"),
            out=data.get("out"),
            seed=data.get("seed", DEFAULT_SEED),
        )

    def resolved(self) -> "ExperimentConfig":
        """Copy with every applicable default written out explicitly.

        Raises ValueError for a parameter the action or claim does not take,
        and TypeError for a value its checker's annotation does not admit.
        """
        spec = None  # the claim whose checker takes the parameters, if any
        if self.action == "verify":
            spec = _claim_spec(self.claim)
        elif self.action == "report":
            spec = CLAIMS["divergence"]
        elif self.action not in _ACTION_DEFAULTS:
            raise ValueError(f"unknown action {self.action!r}")
        defaults = dict(_ACTION_DEFAULTS[self.action] if spec is None else spec.defaults)
        if "seed" in defaults:
            defaults["seed"] = self.seed
        owner = self.claim if self.action == "verify" else self.action
        unknown = sorted(set(self.params) - set(defaults))
        if unknown:
            raise ValueError(f"unknown parameters for {owner}: {unknown}")
        if spec is not None:
            types = dict(spec.types)
            for name, value in self.params.items():
                if not _admits(types[name], value):
                    raise TypeError(f"parameter {name!r} of {owner} takes "
                                    f"{inspect.formatannotation(types[name])}, got {value!r}")
        return replace(self, params={**defaults, **self.params})


# the parameters of the actions that do not run a checker; verify takes the
# claim's, report the divergence claim's
_ACTION_DEFAULTS: dict[str, dict] = {
    "generate": {"n": 64},
    "profile": {"n": 64, "cap": None},
    "factorize": {"z": None, "mode": "return", "level": 1, "horizon": 4096,
                  "exponent": None, "alpha_power": False},
    "alpha": {"depth": 2, "horizon": 10_000, "repetition_bound": None},
}


def _admits(annotation, value) -> bool:
    # the checkers' parameters are int, int | None or tuple[int, ...] (a test
    # keeps it so); a JSON list stands for a tuple, and a bool is not an int
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if annotation == int | None:
        return value is None or _admits(int, value)
    return isinstance(value, (list, tuple)) and all(_admits(int, v) for v in value)


# ---------------------------------------------------------------------------
# claim registry


@dataclass(frozen=True)
class ClaimSpec:
    """A claim and the checker in ``checks`` that verifies it.

    Everything else is read off the checker's signature by ``_claim``.  The
    checker is looked up by name on every run, so whatever ``checks`` holds
    under that name at the time (a traced wrapper, say) is what runs.
    """

    claim_id: str
    checker: str
    kind: str  # "holub" | "source" | "none": what the first parameter takes
    defaults: tuple  # (name, default) of every parameter after the subject
    types: tuple  # (name, annotation) of the same parameters
    help: str  # first line of the checker's docstring

    def run(self, params: dict, source: WordSource | None) -> VerificationReport:
        """Run the checker; a pass that checked no instance decides nothing."""
        rep = self._check(params, source)
        if rep.status in (checks.PASS, checks.WINDOWED) and rep.instances == 0:
            rep.status = checks.INCONCLUSIVE
            rep.notes = "; ".join(filter(None, (rep.notes, "no instance was checked")))
        return rep

    def _check(self, params: dict, source: WordSource | None) -> VerificationReport:
        checker = getattr(checks, self.checker)
        if self.kind == "none":
            return checker(**params)
        if self.kind == "holub":
            return checker(_holub_params(source), **params)
        if source.has_holes:
            raise ValueError(f"cannot check {self.claim_id} on {source.descriptor}: "
                             f"it has holes ({HOLE!r})")
        return checker(source, **params)


def _holub_params(source: WordSource | None):
    params = getattr(source, "params", None)
    if params is None:
        name = source.descriptor if source is not None else "(none)"
        raise ValueError(f"this claim needs a holub-family word, got {name}")
    return params


_SUBJECT_KINDS = {HolubParams: "holub", WordSource: "source"}


def _claim(claim_id: str, checker: str) -> ClaimSpec:
    fn = getattr(checks, checker)
    params = list(inspect.signature(fn, eval_str=True).parameters.values())
    kind = _SUBJECT_KINDS.get(params[0].annotation, "none")
    if kind != "none":
        params = params[1:]
    defaults = tuple((p.name, p.default) for p in params)
    types = tuple((p.name, p.annotation) for p in params)
    help_ = (fn.__doc__ or "").strip().split("\n")[0]
    return ClaimSpec(claim_id, checker, kind, defaults, types, help_)


CLAIMS = {spec.claim_id: spec for spec in (
    _claim("big", "check_peak_periods"),
    _claim("peak-witness", "check_peak_witness"),
    _claim("block-closure", "check_block_closure"),
    _claim("occurrence-rigidity", "check_occurrence_rigidity"),
    _claim("letter-formula", "check_letter_formula"),
    _claim("toeplitz-stages", "check_toeplitz_stages"),
    _claim("return-time-bound", "check_return_time_bound"),
    _claim("min-return-chain", "check_lexmin_return_words"),
    _claim("return-gain", "check_return_gain"),
    _claim("dyadic-gain", "check_dyadic_gain"),
    _claim("factor-bound", "check_factor_bound"),
    _claim("superadditivity", "check_superadditivity"),
    _claim("critical-exhaustive", "check_critical_exhaustive"),
    _claim("oracle-equivalence", "check_oracle_equivalence"),
    _claim("divergence", "divergence_report"),
    _claim("peak-average", "check_peak_average"),
)}


def _claim_spec(claim: str | None) -> ClaimSpec:
    spec = CLAIMS.get(claim or "")
    if spec is None:
        known = ", ".join(sorted(CLAIMS))
        raise ValueError(f"unknown claim {claim!r}; known claims: {known}")
    return spec


# ---------------------------------------------------------------------------
# rendering


def _atomic_write(path: str, data: str) -> None:
    # a fresh temp file beside path, so no two writers ever share one
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                               dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(data)
        # mkstemp makes the file 0o600; give it the mode open(path, "w") gives
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(cfg: ExperimentConfig, data: str) -> None:
    if cfg.out:
        _atomic_write(cfg.out, data)
    else:
        sys.stdout.write(data)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _ruler(letters: str, start: int = 1) -> str:
    lines = []
    for t in range(0, len(letters), LINE):
        lines.append(f"{start + t:>8}  {letters[t:t + LINE]}")
    return "\n".join(lines) + "\n"


def _report_text(rep: VerificationReport) -> str:
    lines = [
        f"claim:     {rep.claim}",
        f"status:    {rep.status}",
        f"instances: {rep.instances}",
    ]
    if rep.notes:
        lines.append(f"notes:     {rep.notes}")
    for row in rep.details:
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
    if rep.counterexample is not None:
        lines.append("counterexample:")
        for k, v in rep.counterexample.items():
            lines.append(f"  {k}: {v}")
    return "\n".join(lines) + "\n"


def _status_exit(status: str) -> int:
    if status == checks.FAIL:
        return 2
    if status == checks.INCONCLUSIVE:
        return 3
    return 0


# ---------------------------------------------------------------------------
# actions


def _run_generate(cfg: ExperimentConfig) -> tuple[int, str | None]:
    source = parse_descriptor(cfg.word or "")
    n = cfg.params["n"]
    letters = source.prefix(n)
    if cfg.format == "json":
        _emit(cfg, _json_text({"descriptor": source.descriptor, "n": n, "letters": letters}))
    elif cfg.format == "csv":
        _emit(cfg, _csv_text(["index", "letter"], [[i + 1, c] for i, c in enumerate(letters)]))
    else:
        _emit(cfg, _ruler(letters))
    return 0, None


def _run_profile(cfg: ExperimentConfig) -> tuple[int, str | None]:
    if cfg.text is not None:
        prof = profile(cfg.text)
    else:
        source = parse_descriptor(cfg.word or "")
        prof = profile(source, n=cfg.params["n"], cap=cfg.params["cap"])
    if cfg.format == "json":
        _emit(cfg, _json_text(prof.to_json()))
    elif cfg.format == "csv":
        rows = [
            [r["index"], r["local_period"], r["h_numerator"], r["h_denominator"], r["h_approx"]]
            for r in prof.rows()
        ]
        _emit(cfg, _csv_text(
            ["index", "local_period", "h_numerator", "h_denominator", "h_approx"], rows))
    else:
        body = [f"subject: {prof.descriptor}", f"{'i':>6} {'p(i)':>8} {'h(i)':>12}"]
        for r in prof.rows():
            h = "-" if r["h_numerator"] is None else f"{r['h_numerator']}/{r['h_denominator']}"
            body.append(f"{r['index']:>6} {str(r['local_period']):>8} {h:>12}")
        _emit(cfg, "\n".join(body) + "\n")
    return 0, None


def _run_factorize(cfg: ExperimentConfig) -> tuple[int, str | None]:
    source = parse_descriptor(cfg.word or "")
    p = cfg.params
    if p["mode"] == "dyadic":
        dy = dyadic_factorization(source, p["level"], p["horizon"])
        # the csv table numbers dyadic blocks from 0 and return blocks from 1
        blocks, first, offsets = dy.blocks, 0, range(0, dy.horizon, dy.block_length)
    else:
        if not p["z"]:
            raise ValueError("factorize needs --z for return mode")
        fact = return_factorization(
            source, p["z"], p["horizon"], exponent=p["exponent"],
            assert_block_prefix=p["alpha_power"],
        )
        blocks, first, offsets = fact.returns, 1, fact.boundaries()
    if cfg.format == "csv":
        # length, h numerator and h denominator of each distinct block
        cols = {}
        for w, lps in local_period_table(blocks).items():
            h = Fraction(int(lps.sum()), lps.size)
            cols[w] = (len(w), h.numerator, h.denominator)
        rows = [[j, offset, *cols[b]] for j, (offset, b) in enumerate(zip(offsets, blocks), first)]
        _emit(cfg, _csv_text(["index", "offset", "length", "h_num", "h_den"], rows))
    elif p["mode"] == "dyadic":
        _emit(cfg, _json_text(dy.to_json()))
    elif cfg.format == "json":
        _emit(cfg, _json_text(fact.to_json()))
    else:
        data = fact.to_json()
        body = [f"{k}: {data[k]}" for k in ("z", "e", "preamble", "m_k", "mu_k", "horizon")]
        body.append(f"returns ({len(fact.returns)}):")
        body.extend(f"  {w}" for w in fact.returns[:40])
        if len(fact.returns) > 40:
            body.append(f"  ... {len(fact.returns) - 40} more")
        _emit(cfg, "\n".join(body) + "\n")
    return 0, None


def _run_alpha(cfg: ExperimentConfig) -> tuple[int, str | None]:
    source = parse_descriptor(cfg.word or "")
    chain = alpha_chain(source, **cfg.params)
    if cfg.format == "csv":
        rows = [[e_.alpha, e_.exponent, e_.horizon] for e_ in chain.entries]
        _emit(cfg, _csv_text(["alpha", "exponent", "horizon"], rows))
    elif cfg.format == "json":
        _emit(cfg, _json_text(chain.to_json()))
    else:
        body = [f"alphabet: {chain.alphabet}",
                f"exponents certified: {chain.exponents_certified}"]
        for t, e_ in enumerate(chain.entries, 1):
            body.append(f"  level {t}: alpha={e_.alpha!r} exponent={e_.exponent}")
        _emit(cfg, "\n".join(body) + "\n")
    return 0, None


def _run_verify(cfg: ExperimentConfig) -> tuple[int, str | None]:
    spec = _claim_spec(cfg.claim)
    source = None
    if spec.kind != "none":
        if not cfg.word:
            raise ValueError(f"claim {spec.claim_id!r} needs --word")
        source = parse_descriptor(cfg.word)
    rep = spec.run(cfg.params, source)
    if cfg.format == "json":
        _emit(cfg, _json_text(rep.to_json()))
    elif cfg.format == "csv":
        _emit(cfg, _csv_text(
            ["claim", "status", "instances", "notes"],
            [[rep.claim, rep.status, rep.instances, rep.notes]]))
    else:
        _emit(cfg, _report_text(rep))
    if rep.status == checks.WINDOWED:
        print(
            f"warning: claim {rep.claim!r} verified over a finite window only",
            file=sys.stderr,
        )
    return _status_exit(rep.status), rep.status


def _run_report(cfg: ExperimentConfig) -> tuple[int, str | None]:
    source = parse_descriptor(cfg.word or "")
    rep = checks.divergence_report(source, **cfg.params)
    if cfg.format == "csv":
        rows = [
            [r["i"], r["h_numerator"], r["h_denominator"], r["h_approx"], r["capped"]]
            for r in rep.details
        ]
        _emit(cfg, _csv_text(["i", "h_numerator", "h_denominator", "h_approx", "capped"], rows))
    elif cfg.format == "json":
        _emit(cfg, _json_text(rep.to_json()))
    else:
        _emit(cfg, _report_text(rep))
    if rep.status == checks.WINDOWED:
        print("warning: trend observed over a finite window only", file=sys.stderr)
    return _status_exit(rep.status), rep.status


_RUNNERS = {
    "generate": _run_generate,
    "profile": _run_profile,
    "factorize": _run_factorize,
    "alpha": _run_alpha,
    "verify": _run_verify,
    "report": _run_report,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one resolved config; returns the process exit code."""
    cfg = cfg.resolved()
    code, _ = _RUNNERS[cfg.action](cfg)
    return code


# file extension of each --format choice
_EXT = {"text": "txt", "json": "json", "csv": "csv"}


def run_batch(config_path: str, out_dir: str) -> int:
    """Run every entry of a batch file; one entry's error never stops the rest."""
    with open(config_path, encoding="utf-8") as f:
        data = json.load(f)
    runs = data.get("runs")
    if runs is None:
        raise ValueError("batch config needs a top-level 'runs' list")
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    statuses = []
    for idx, entry in enumerate(runs):
        named = entry if isinstance(entry, dict) else {}
        row = {"index": idx, "action": named.get("action"), "word": named.get("word"),
               "claim": named.get("claim"), "status": None, "out": None, "error": None}
        try:
            cfg = ExperimentConfig.from_json(entry).resolved()
            out_name = cfg.out or f"{idx:03d}-{cfg.action}.{_EXT[cfg.format]}"
            cfg = replace(cfg, out=os.path.join(out_dir, out_name))
            _, status = _RUNNERS[cfg.action](cfg)
            row["status"] = status or "ok"
            row["out"] = os.path.basename(cfg.out)
        except (DescriptorError, InsufficientWindowError, ValueError, TypeError, OSError) as e:
            # TypeError: a parameter of the wrong type, e.g. "depth": "3"
            row["status"] = "error"
            row["error"] = f"{type(e).__name__}: {e}"
        summary.append(row)
        statuses.append(row["status"])
    _atomic_write(os.path.join(out_dir, "summary.json"), _json_text({"runs": summary}))
    if any(s == "fail" for s in statuses):
        return 2
    if any(s == "error" for s in statuses):
        return 1
    if any(s == "inconclusive" for s in statuses):
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2 (2 means "fail")
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_or_none(text: str):
    return None if text.lower() in ("none", "auto") else int(text)


def _checkpoint_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _build_parser() -> _Parser:
    top = _Parser(prog="periwords",
                  description="local periods and periodicity complexity toolkit")
    sub = top.add_subparsers(dest="action", required=True)

    def common(p, word=True):
        if word:
            p.add_argument("--word", help="word descriptor, e.g. fibonacci, holub:n=2,2;tail=repeat")
        p.add_argument("--format", choices=list(_EXT), default="text")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    def param_flags(p, names):
        # no defaults here: resolved() fills in every parameter not given
        for name in names:
            flags = ["--J", "--I", "--K"] if name == "depth" else []
            p.add_argument(*flags, "--" + name.replace("_", "-"), dest=name,
                           type=_checkpoint_list if name == "checkpoints" else _int_or_none)

    g = sub.add_parser("generate", help="print a prefix of a word")
    common(g)
    g.add_argument("--n", type=int)

    pr = sub.add_parser("profile", help="local periods and running complexity")
    common(pr)
    pr.add_argument("--text", help="literal finite word instead of --word")
    pr.add_argument("--n", type=int)
    pr.add_argument("--cap", type=_int_or_none)

    fa = sub.add_parser("factorize", help="return-word or power-of-two factorization")
    common(fa)
    fa.add_argument("--z", help="marker factor for return mode")
    fa.add_argument("--mode", choices=["return", "dyadic"])
    fa.add_argument("--level", type=int, help="dyadic level (block length 2^level)")
    fa.add_argument("--horizon", type=int)
    fa.add_argument("--exponent", type=_int_or_none)
    fa.add_argument("--alpha-power", action="store_true", default=None, dest="alpha_power",
                    help="assert the marker prefixes every return word")

    al = sub.add_parser("alpha", help="minimal-return chain")
    common(al)
    al.add_argument("--K", "--depth", dest="depth", type=int)
    al.add_argument("--horizon", type=int)
    al.add_argument("--repetition-bound", dest="repetition_bound", type=_int_or_none)

    ve = sub.add_parser("verify", help="run one claim checker")
    common(ve)
    ve.add_argument("--claim", required=True, help=", ".join(sorted(CLAIMS)))
    # the config's own --seed stands for a checker's seed parameter
    param_flags(ve, dict.fromkeys(
        name for spec in CLAIMS.values() for name, _ in spec.defaults if name != "seed"))

    re_ = sub.add_parser("report", help="complexity trend at checkpoints")
    common(re_)
    param_flags(re_, [name for name, _ in CLAIMS["divergence"].defaults])

    ba = sub.add_parser("batch", help="run a JSON list of configs")
    ba.add_argument("--config", required=True)
    ba.add_argument("--out-dir", dest="out_dir", default=".")
    return top


def _config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    """The config fields from their flags; every other flag given is a parameter."""
    names = {f.name for f in fields(ExperimentConfig)}
    args = vars(ns)
    params = {k: v for k, v in args.items() if k not in names and v is not None}
    return ExperimentConfig(params=params, **{k: v for k, v in args.items() if k in names})


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        if ns.action == "batch":
            return run_batch(ns.config, ns.out_dir)
        return run(_config_from_args(ns))
    except DescriptorError as e:
        print(f"descriptor error: {e}", file=sys.stderr)
        return 1
    except InsufficientWindowError as e:
        print(f"window error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
