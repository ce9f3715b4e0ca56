"""In-memory spans around the layer boundaries of periwords.

``Tracer.install`` swaps ``kernels.active`` for a proxy that times every
kernel called through it (calls from one kernel to another inside ``_impl``
stay unwrapped), and wraps the public functions of ``words``, ``periods``,
``factorize``, ``checks`` and ``cli`` wherever the package refers to them,
plus a few methods (``WordSource.prefix``, each source's ``_generate``,
``PeriodProfile.h_values``/``rows``) and the per-action runners of ``cli``.
``uninstall`` puts every original back.

Each span records its name, start, end, parent span and op id in flat
arrays.  Self time (a span's duration minus its child spans) and call
counts are summed per name as spans close.
"""

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("words", "kernels", "periods", "factorize", "checks", "cli")
# the dead smaller_than_proper_suffixes kernel is never called
LIVE_KERNELS = (
    "border_table", "period_of", "shortest_border_length", "local_period_finite",
    "local_periods_finite", "local_period_stream", "local_periods_stream",
    "oracle_local_period", "oracle_sweep", "cft_sweep", "occurrence_list",
    "max_power", "max_run_exponent", "least_rotation_index",
)
# the live kernels some workload calls; the rest still count in kernels.self_s
REPORTED_KERNELS = tuple(
    k for k in LIVE_KERNELS
    if k not in ("border_table", "local_period_finite", "oracle_local_period")
)
CLAIM_CHECKERS = (
    "check_peak_periods", "check_peak_witness", "check_block_closure",
    "check_occurrence_rigidity", "check_letter_formula", "check_toeplitz_stages",
    "check_return_time_bound", "check_lexmin_return_words", "check_return_gain",
    "check_dyadic_gain", "check_factor_bound", "check_superadditivity",
    "check_critical_exhaustive", "check_oracle_equivalence", "divergence_report",
)
# called once per letter; their time stays in the calling span
PER_LETTER = ("holub_letter",)


# counters fed by result hooks (and cli.bytes_written, by the harness)
HOOK_COUNTS = (
    "kernels.local_periods_stream.positions", "kernels.local_periods_stream.cap_hits",
    "kernels.occurrence_list.letters", "words.letters", "factorize.blocks",
    "checks.instances", "cli.bytes_written",
)


def _count_metrics():
    return list(HOOK_COUNTS) + ["periods.h_of.calls"] + [f"kernels.{k}.calls" for k in REPORTED_KERNELS]


def _time_metrics():
    return (
        [f"{layer}.self_s" for layer in LAYERS]
        + [f"kernels.{k}.s" for k in REPORTED_KERNELS]
        + ["words.prefix.s", "words.generate.s", "words.parse.s",
           "periods.profile.self_s", "periods.h_values.s", "periods.rows.s",
           "cli.run.self_s"]
        + [f"checks.{c.removeprefix('check_')}.self_s" for c in CLAIM_CHECKERS]
    )


# (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER = (
    [("trace_overhead_s", "s", "lower"), ("setup.import_s", "s", "lower")]
    + [(m, "s", "lower") for m in _time_metrics()]
    + [(m, "count", "higher" if m == "checks.instances" else "lower")
       for m in _count_metrics()]
)


class _KernelProxy:
    """Stands in for a kernel table; hands out timed copies of its kernels."""

    def __init__(self, tracer, table):
        self._table = table
        self._wrapped = {
            name: tracer.wrap(f"kernels.{name}", getattr(table, name), _KERNEL_COUNTERS.get(name))
            for name in LIVE_KERNELS
        }

    def __getattr__(self, name):
        fn = self._wrapped.get(name)
        return fn if fn is not None else getattr(self._table, name)


def _stream_counts(tracer, args, result):
    tracer.counts["kernels.local_periods_stream.positions"] += int(args[1])
    tracer.counts["kernels.local_periods_stream.cap_hits"] += int((result == 0).sum())


def _occurrence_counts(tracer, args, result):
    tracer.counts["kernels.occurrence_list.letters"] += len(args[1])


_KERNEL_COUNTERS = {
    "local_periods_stream": _stream_counts,
    "occurrence_list": _occurrence_counts,
}


def _letters(tracer, args, result):
    tracer.counts["words.letters"] += len(result)


def _blocks(tracer, args, result):
    tracer.counts["factorize.blocks"] += len(getattr(result, "returns", None) or result.blocks)


def _instances(tracer, args, result):
    tracer.counts["checks.instances"] += result.instances


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.reset()
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Drop all spans and totals (the patches stay installed)."""
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = dict.fromkeys(HOOK_COUNTS, 0)
        self.op_id = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def wrap(self, name: str, fn, on_result=None):
        ix = self._name_ix.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = len(self.span_start)
            self.span_name.append(ix)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_end[span] = t1
                dur = t1 - t0
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    # -- installing and removing the wrappers ------------------------------

    def _set(self, owner, attr, value):
        old = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def install(self) -> None:
        from periwords import checks, cli, factorize, kernels, periods, words

        self._set(kernels, "active", _KernelProxy(self, kernels.active))
        hooks = {
            "return_factorization": _blocks,
            "dyadic_factorization": _blocks,
            **{c: _instances for c in CLAIM_CHECKERS},
        }
        package = [m for n, m in sys.modules.items() if n == "periwords" or n.startswith("periwords.")]
        for mod in (words, periods, factorize, checks, cli):
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or name in PER_LETTER or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn, hooks.get(name))
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, attr, traced)
        self._set(words.WordSource, "prefix", self.wrap("words.prefix", words.WordSource.prefix))
        todo = [words.WordSource]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "_generate" in vars(cls) and cls is not words.WordSource:
                self._set(cls, "_generate", self.wrap("words.generate", vars(cls)["_generate"], _letters))
        for meth in ("h_values", "rows"):
            self._set(periods.PeriodProfile, meth,
                      self.wrap(f"periods.{meth}", getattr(periods.PeriodProfile, meth)))
        runners = dict(cli._RUNNERS)
        self._undo.append(lambda: cli._RUNNERS.update(runners))
        cli._RUNNERS.update({a: self._runner(f"cli.{a}", r) for a, r in runners.items()})

    def _runner(self, name, runner):
        traced = self.wrap(name, runner)

        def next_op(*args, **kwargs):
            self.op_id += 1
            return traced(*args, **kwargs)

        return next_op

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, per-name times and the work counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                (v for k, v in self.self_s.items() if k.startswith(layer + ".")), 0.0)
        for k in REPORTED_KERNELS:
            out[f"kernels.{k}.s"] = self.total_s.get(f"kernels.{k}", 0.0)
            out[f"kernels.{k}.calls"] = self.calls.get(f"kernels.{k}", 0)
        out["words.prefix.s"] = self.total_s.get("words.prefix", 0.0)
        out["words.generate.s"] = self.total_s.get("words.generate", 0.0)
        out["words.parse.s"] = self.total_s.get("words.parse_descriptor", 0.0)
        out["periods.profile.self_s"] = self.self_s.get("periods.profile", 0.0)
        out["periods.h_values.s"] = self.total_s.get("periods.h_values", 0.0)
        out["periods.rows.s"] = self.total_s.get("periods.rows", 0.0)
        out["periods.h_of.calls"] = self.calls.get("periods.h_of", 0)
        out["cli.run.self_s"] = out["cli.self_s"]
        for c in CLAIM_CHECKERS:
            out[f"checks.{c.removeprefix('check_')}.self_s"] = self.self_s.get(f"checks.{c}", 0.0)
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Dump the spans as one JSON object of parallel columns."""
        data = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f, separators=(",", ":"))
