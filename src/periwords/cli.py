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
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from types import UnionType
from typing import Literal, get_args, get_origin

from . import checks
from .checks import CLAIMS, VerificationReport
from .errors import DescriptorError, InsufficientWindowError
from .factorize import alpha_chain, dyadic_factorization, return_factorization
from .periods import PeriodProfile, h_of_row, local_period_table, profile
from .words import parse_descriptor

LINE = 64  # letters per text line when rendering word prefixes


# ---------------------------------------------------------------------------
# configuration


# file extension of each --format choice
_EXT = {"text": "txt", "json": "json", "csv": "csv"}


@dataclass
class ExperimentConfig:
    """One runnable experiment; serializes losslessly with explicit defaults.

    The field annotations are the types from_json admits.
    """

    action: str
    word: str | None = None
    text: str | None = None
    claim: str | None = None
    params: dict = field(default_factory=dict)
    format: Literal[tuple(_EXT)] = "text"
    out: str | None = None

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise TypeError(f"a run takes an object, got {data!r}")
        annotations = {f.name: f.type for f in fields(cls)}
        extra = set(data) - set(annotations)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        if "action" not in data:
            raise ValueError("config needs an 'action' field")
        # a null params object means no parameters
        data = {**data, "params": {} if data.get("params") is None else data["params"]}
        for name, annotation in annotations.items():
            if name in data:
                _check_type(f"field {name!r}", annotation, data[name])
        return cls(**{**data, "params": dict(data["params"])})

    def resolved(self) -> "ExperimentConfig":
        """Copy with every parameter the run reads, its default written out.

        Raises ValueError for a parameter or subject field the action or
        claim does not take, or that this run does not read, and TypeError
        for a value its declared annotation does not admit.
        """
        if self.action == "verify":
            spec = CLAIMS.get(self.claim or "")
            if spec is None:
                known = ", ".join(sorted(CLAIMS))
                raise ValueError(f"unknown claim {self.claim!r}; known claims: {known}")
            owner, table = self.claim, spec.params
        elif self.action in _ACTIONS:
            owner, table = self.action, _ACTIONS[self.action][1]
        else:
            raise ValueError(f"unknown action {self.action!r}")
        unknown = sorted(set(self.params) - set(table))
        if unknown:
            raise ValueError(f"unknown parameters for {owner}: {unknown}")
        for name, value in self.params.items():
            _check_type(f"parameter {name!r} of {owner}", table[name][0], value)
        if self.claim is not None and self.action != "verify":
            raise ValueError(f"field 'claim' is read by verify only, not by {self.action}")
        if self.text is not None and self.action != "profile":
            raise ValueError(f"field 'text' is read by profile only, not by {self.action}")
        if self.text is not None and self.word is not None:
            raise ValueError("fields 'text' and 'word' both name the subject; give one")
        if self.word is not None and self.action == "verify" and spec.subject is None:
            raise ValueError(f"field 'word' is not read by claim {self.claim!r}, "
                             "which takes no word")
        unread, where = set(), ""
        if self.action == "factorize":
            mode = self.params.get("mode", table["mode"][1])
            unread, where = _UNREAD_IN_MODE[mode], f"in {mode} mode"
        elif self.action == "profile" and self.text is not None:
            unread, where = {"n", "cap"}, "with field 'text'"
        given = sorted(unread & set(self.params))
        if given:
            raise ValueError(f"parameters {given} are not read {where}")
        defaults = {name: default for name, (_, default) in table.items() if name not in unread}
        return replace(self, params={**defaults, **self.params})


# action -> (help line, name -> (annotation, default) of its parameters).
# verify's table is every claim's parameters, for its flags only: a verify
# run takes its claim's own; report takes the divergence claim's.
_ACTIONS: dict[str, tuple[str, dict]] = {
    "generate": ("print a prefix of a word", {"n": (int, 64)}),
    "profile": ("local periods and running complexity",
                {"n": (int, 64), "cap": (int | None, None)}),
    "factorize": ("return-word or power-of-two factorization",
                  {"z": (str | None, None), "mode": (Literal["return", "dyadic"], "return"),
                   "level": (int, 1), "horizon": (int, 4096), "exponent": (int | None, None),
                   "alpha_power": (bool, False)}),
    "alpha": ("minimal-return chain",
              {"depth": (int, 2), "horizon": (int, 10_000), "repetition_bound": (int | None, None)}),
    "verify": ("run one claim checker",
               {name: entry for spec in CLAIMS.values() for name, entry in spec.params.items()}),
    "report": ("complexity trend at checkpoints", CLAIMS["divergence"].params),
}
# mode -> the factorize parameters that only the other mode reads
_UNREAD_IN_MODE = {"return": {"level"}, "dyadic": {"z", "exponent", "alpha_power"}}


def _admits(annotation, value) -> bool:
    """Whether a JSON value has the annotated type.

    A JSON list stands for a tuple, and a bool is not an int.
    """
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is UnionType:
        return any(_admits(a, value) for a in args)
    if origin is Literal:
        return any(type(value) is type(a) and value == a for a in args)
    if origin is tuple:  # tuple[T, ...]
        return isinstance(value, (list, tuple)) and all(_admits(args[0], v) for v in value)
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, annotation)


def _check_type(what: str, annotation, value) -> None:
    if not _admits(annotation, value):
        raise TypeError(f"{what} takes {inspect.formatannotation(annotation)}, got {value!r}")


# ---------------------------------------------------------------------------
# rendering


def _atomic_write(path: str, data: str) -> None:
    # a fresh temp file beside path, so no two writers ever share one; "x"
    # creates it with the mode open(path, "w") gives, under the umask
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            f.write(data)
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


# _json_text(prof.to_json()) row by row, here for capped rows and in _profile_json
# for live ones: keys sorted, h_approx as float.__repr__
_PROFILE_JSON_CAPPED = (
    '    {\n      "h_approx": null,\n      "h_denominator": null,\n      "h_numerator": null,\n'
    '      "index": %d,\n      "local_period": %s\n    }'
)


def _profile_json(prof: PeriodProfile) -> str:
    live, capped = prof.split()
    rows = [f'    {{\n      "h_approx": {a / b!r},\n      "h_denominator": {b},\n'
            f'      "h_numerator": {a},\n      "index": {i},\n      "local_period": {p}\n    }}'
            for i, p, a, b in live]
    rows += [_PROFILE_JSON_CAPPED % (i, '"CAP"' if p is None else p) for i, p in capped]
    head = (f'{{\n  "cap": {json.dumps(prof.cap)},\n  "descriptor": {json.dumps(prof.descriptor)},\n'
            f'  "n": {json.dumps(prof.n)},\n  "rows": ')
    if not rows:
        return head + "[]\n}\n"
    # one join: adding head and tail to the joined rows would copy the document
    rows[0] = head + "[\n" + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n".join(rows)


def _profile_csv(prof: PeriodProfile) -> str:
    # csv.writer writes a float with repr and None as an empty cell; no cell needs quotes
    live, capped = prof.split()
    lines = ["index,local_period,h_numerator,h_denominator,h_approx\n"]
    lines += [f"{i},{p},{a},{b},{a / b!r}\n" for i, p, a, b in live]
    lines += ["%d,%s,,,\n" % (i, "CAP" if p is None else p) for i, p in capped]
    return "".join(lines)


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


# exit code of each outcome that is not a pass, in order of priority: a batch
# exits with the code of the first outcome any of its runs produced
_EXIT = {checks.FAIL: 2, "error": 1, checks.INCONCLUSIVE: 3}

# the expected errors and the diagnostic prefix of each, in the order they
# are matched: DescriptorError is a ValueError, and a TypeError is a
# parameter of the wrong type, e.g. "depth": "3"
_ERRORS = {
    DescriptorError: "descriptor error",
    InsufficientWindowError: "window error",
    OSError: "output error",
    ValueError: "parameter error",
    TypeError: "parameter error",
}


# ---------------------------------------------------------------------------
# actions


def _run_generate(cfg: ExperimentConfig) -> None:
    source = parse_descriptor(cfg.word or "")
    n = cfg.params["n"]
    letters = source.prefix(n)
    if cfg.format == "json":
        _emit(cfg, _json_text({"descriptor": source.descriptor, "n": n, "letters": letters}))
    elif cfg.format == "csv":
        _emit(cfg, _csv_text(["index", "letter"], [[i + 1, c] for i, c in enumerate(letters)]))
    else:
        _emit(cfg, _ruler(letters))


def _run_profile(cfg: ExperimentConfig) -> None:
    if cfg.text is not None:
        prof = profile(cfg.text)
    else:
        source = parse_descriptor(cfg.word or "")
        prof = profile(source, n=cfg.params["n"], cap=cfg.params["cap"])
    if cfg.format == "json":
        _emit(cfg, _profile_json(prof))
    elif cfg.format == "csv":
        _emit(cfg, _profile_csv(prof))
    else:
        body = [f"subject: {prof.descriptor}", f"{'i':>6} {'p(i)':>8} {'h(i)':>12}"]
        live, capped = prof.split()
        body += [f"{i:>6} {p:>8} {f'{a}/{b}':>12}" for i, p, a, b in live]
        body += [f"{i:>6} {'CAP' if p is None else p:>8} {'-':>12}" for i, p in capped]
        _emit(cfg, "\n".join(body) + "\n")


def _run_factorize(cfg: ExperimentConfig) -> None:
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
        # the "length,h_num,h_den" cells of each distinct block, rendered once
        cells = {}
        for w, lps in local_period_table(blocks).items():
            h = h_of_row(lps)
            cells[w] = f"{len(w)},{h.numerator},{h.denominator}"
        lines = ["index,offset,length,h_num,h_den\n"]
        lines += [f"{j},{offset},{cells[b]}\n"
                  for j, (offset, b) in enumerate(zip(offsets, blocks), first)]
        _emit(cfg, "".join(lines))
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


def _run_alpha(cfg: ExperimentConfig) -> None:
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


def _run_verify(cfg: ExperimentConfig) -> str:
    rep = CLAIMS[cfg.claim].run(cfg.params, cfg.word)
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
    return rep.status


def _run_report(cfg: ExperimentConfig) -> str:
    rep = CLAIMS["divergence"].run(cfg.params, cfg.word)
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
    return rep.status


# action -> runner; a runner returns the status of the claim it checked, or None
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
    return _EXIT.get(_RUNNERS[cfg.action](cfg), 0)


def _resolve_entry(idx: int, entry):
    """A batch entry resolved, its out set to its artifact name (its own out,
    else NNN-action.ext), or the error that keeps it from running."""
    try:
        cfg = ExperimentConfig.from_json(entry).resolved()
    except tuple(_ERRORS) as e:
        return e
    return replace(cfg, out=cfg.out or f"{idx:03d}-{cfg.action}.{_EXT[cfg.format]}")


def _check_out(out: str, names: list[str]) -> None:
    # a batch run's own out: a plain file name that no other artifact takes
    if "/" in out or "\\" in out or out in (".", "..", "summary.json"):
        raise ValueError(f"out {out!r} must be a plain file name, "
                         "without a separator and not '.', '..' or 'summary.json'")
    if names.count(out) > 1:
        raise ValueError(f"out {out!r} names the artifact of another run")


def run_batch(config_path: str, out_dir: str) -> int:
    """Run every entry of a batch file; one entry's error never stops the rest."""
    with open(config_path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise TypeError(f"a batch file holds an object with a 'runs' list, got {data!r}")
    runs = data.get("runs")
    if runs is None:
        raise ValueError("batch config needs a top-level 'runs' list")
    _check_type("field 'runs'", list, runs)
    os.makedirs(out_dir, exist_ok=True)
    cfgs = [_resolve_entry(idx, entry) for idx, entry in enumerate(runs)]
    names = [cfg.out for cfg in cfgs if isinstance(cfg, ExperimentConfig)]
    summary = []
    for idx, (entry, cfg) in enumerate(zip(runs, cfgs)):
        named = entry if isinstance(entry, dict) else {}
        row = {"index": idx, "action": named.get("action"), "word": named.get("word"),
               "claim": named.get("claim"), "status": None, "out": None, "error": None}
        try:
            if isinstance(cfg, Exception):
                raise cfg
            if named.get("out"):
                _check_out(cfg.out, names)
            status = _RUNNERS[cfg.action](replace(cfg, out=os.path.join(out_dir, cfg.out)))
            row["status"] = status or "ok"
            row["out"] = cfg.out
        except tuple(_ERRORS) as e:
            row["status"] = "error"
            row["error"] = f"{type(e).__name__}: {e}"
        summary.append(row)
    _atomic_write(os.path.join(out_dir, "summary.json"), _json_text({"runs": summary}))
    statuses = {row["status"] for row in summary}
    return next((code for status, code in _EXIT.items() if status in statuses), 0)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2 (2 means "fail")
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def _parse_optional(self, arg_string):
        # argparse takes a value starting with "-" for an option unless it is
        # one plain number; a number list such as "-3,5" is a value too
        if re.fullmatch(r"-\d[\d,]*", arg_string):
            return None
        return super()._parse_optional(arg_string)


def _int_or_none(text: str):
    return None if text.lower() in ("none", "auto") else int(text)


def _checkpoint_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _flag_reader(annotation) -> dict:
    """How a parameter flag reads a value of the annotated type."""
    if annotation is bool:
        return {"action": "store_true", "default": None}
    if get_origin(annotation) is Literal:
        return {"choices": get_args(annotation)}
    if get_origin(annotation) is tuple:
        return {"type": _checkpoint_list}
    return {"type": str if str in get_args(annotation) else _int_or_none}


def _build_parser() -> _Parser:
    top = _Parser(prog="periwords",
                  description="local periods and periodicity complexity toolkit")
    sub = top.add_subparsers(dest="action", required=True)

    for action, (help_, params) in _ACTIONS.items():
        p = sub.add_parser(action, help=help_)
        p.add_argument("--word", help="word descriptor, e.g. fibonacci, holub:n=2,2;tail=repeat")
        p.add_argument("--format", choices=list(_EXT), default="text")
        p.add_argument("--out", help="output path (default stdout)")
        if action == "profile":
            p.add_argument("--text", help="literal finite word instead of --word")
        if action == "verify":
            p.add_argument("--claim", required=True, help=", ".join(sorted(CLAIMS)))
        # no defaults here: resolved() fills in every parameter not given
        for name, (annotation, _) in params.items():
            flags = ["--J", "--I", "--K"] if name == "depth" else []
            p.add_argument(*flags, "--" + name.replace("_", "-"), dest=name,
                           **_flag_reader(annotation))

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
    except tuple(_ERRORS) as e:
        prefix = next(p for t, p in _ERRORS.items() if isinstance(e, t))
        print(f"{prefix}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
