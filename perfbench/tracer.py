"""Traced `shiftlab run`: spans and work counters around each layer.

Run as a script, it imports shiftlab from `src/`, wraps the public
functions of every layer module, runs the batch through `shiftlab.cli.main`
and writes one JSON file holding the spans and counters:

    python3 perfbench/tracer.py DOCUMENT OUT_DIR TRACE_JSON

A span is (name, start, end, parent index, request id); the request id is
the name of the document run being executed, or "-" outside any run.
Spans live in a list until the batch ends.  Counter bookkeeping that needs
real work (hashing a table to recognize a repeated profile) runs inside a
`trace.hook` span, so it is charged to the tracer and not to the layer.

The wrappers replace each function both in its defining module and in
every shiftlab module that imported it by name, because callers look the
name up in their own module.  Leaf calls made once per table row or per
search edge (`apply_to_word`, `GroupModel.multiply`) are left unwrapped;
their time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import weakref
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("shiftlang", "blockcode", "spacetime", "grouplab", "trends", "audit", "config", "corpus")
UNSPANNED = {"apply_to_word"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = "-"
        self.counters: Counter = Counter()
        self.distinct: dict = {}
        self.hooking = False
        self._certificates: dict = {}
        self._word_results: dict = {}

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.hooking:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, tracer.request]
            if hook:
                tracer.run_hook(hook, args, kwargs, result)
            return result

        return traced

    def run_hook(self, hook, args, kwargs, result):
        self.hooking = True
        parent = self.stack[-1] if self.stack else -1
        start = perf_counter()
        try:
            hook(args, kwargs, result)
        finally:
            self.spans.append(["trace.hook", start, perf_counter(), parent, self.request])
            self.hooking = False

    def count(self, key, amount=1):
        self.counters[key] += amount

    def see(self, family, key):
        self.distinct.setdefault(family, set()).add(key)

    # -- installation ----------------------------------------------------------

    def install(self):
        from shiftlab import blockcode, cli, grouplab, shiftlang, spacetime

        modules = {name: sys.modules[f"shiftlab.{name}"] for name in (*LAYERS, "cli")}
        hooks = self._hooks(blockcode, spacetime)
        replaced = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in UNSPANNED
                ):
                    hook = hooks.get(attr)
                    replaced[fn] = self.wrap(fn, f"{layer}.{attr}", hook)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])

        self._install_methods(shiftlang, grouplab, cli)

    def _install_methods(self, shiftlang, grouplab, cli):
        base = shiftlang.ShiftPresentation
        base.words_of_length = self.wrap(
            base.words_of_length, "shiftlang.words_of_length", self._words_hook
        )
        for cls in (base, *base.__subclasses__()):
            if "count_words" in vars(cls):
                cls.count_words = self.wrap(
                    cls.count_words, "shiftlang.count_words", self._counter_hook("count_calls")
                )
        grouplab.WordExpr.evaluate = self._wrap_evaluate(grouplab.WordExpr.evaluate)

        context = cli.RunContext
        original_init = context.__init__

        def init(ctx, *args, **kwargs):
            self.count("context_builds")
            original_init(ctx, *args, **kwargs)

        context.__init__ = init
        for prop in ("shifts", "codes", "groups"):
            getter = vars(context)[prop].fget
            setattr(context, prop, property(self.wrap(getter, f"cli.context.{prop}")))
        cli.execute_config = self.wrap(cli.execute_config, "cli.execute_config")
        cli._execute_run = self._wrap_run(cli._execute_run)
        cli.main = self.wrap(cli.main, "cli.main")

    def _wrap_run(self, fn):
        spanned = self.wrap(fn, "cli.run")

        def execute_run(config, base_dir, run):
            self.request = run.name
            try:
                return spanned(config, base_dir, run)
            finally:
                self.request = "-"

        return execute_run

    def _wrap_evaluate(self, fn):
        plain = self.wrap(fn, "grouplab.evaluate")
        certificate = self.wrap(fn, "grouplab.evaluate_certificate")

        def evaluate(word, *args, **kwargs):
            if self._certificates.get(id(word)) is word:
                self.count("certificate_tokens", len(word.tokens))
                return certificate(word, *args, **kwargs)
            return plain(word, *args, **kwargs)

        return evaluate

    # -- counter hooks -----------------------------------------------------------

    def _counter_hook(self, key):
        def hook(args, kwargs, result):
            self.count(key)

        return hook

    def _words_hook(self, args, kwargs, result):
        """A call that returns the very tuple an earlier call on the same
        presentation and length returned is a cache hit."""
        shift, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        self.count("words_calls")
        entry = self._word_results.get(id(shift))
        if entry is None or entry[0]() is not shift:
            entry = (weakref.ref(shift), {})
            self._word_results[id(shift)] = entry
        if entry[1].get(n) == id(result):
            self.count("word_cache_hits")
        else:
            entry[1][n] = id(result)
            self.count("words_emitted", len(result))

    def _hooks(self, blockcode, spacetime):
        def bound(fn, args, kwargs):
            b = inspect.signature(fn).bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        def compose(args, kwargs, result):
            self.count("compose_calls")
            self.count("rows_built", len(result.rule.table))

        def minimized(args, kwargs, result):
            if result is not args[0]:
                self.count("rows_built", len(result.rule.table))

        def range_profile(args, kwargs, result):
            a = bound(blockcode.range_profile, args, kwargs)
            self.count("range_profile_calls")
            self.count("truncated_profiles", result.truncated_at is not None)
            self.see("range_profile", (code_key(a["code"]), a["max_power"], a["table_budget"]))

        def build_patches(args, kwargs, result):
            a = bound(spacetime.build_patches, args, kwargs)
            self.count("build_patches_calls")
            self.count("patches_kept", len(result))
            self.count("generating_words", a["domain"].count_words(len(result[0].source_word)))
            self.see(
                "patch_family",
                (code_key(a["code"]), a["n"], a["k"], a["word_budget"]),
            )

        def cayley_ball(args, kwargs, result):
            self.count("cayley_ball_calls")
            self.count("bfs_states", len(result))

        def certificate(args, kwargs, result):
            self._certificates[id(result)] = result

        return {
            "compose": compose,
            "minimized": minimized,
            "range_profile": range_profile,
            "build_patches": build_patches,
            "cayley_ball": cayley_ball,
            "bs_horner_certificate": certificate,
            "base_q_certificate": certificate,
            "heisenberg_square_certificate": certificate,
            "fit_trend": self._counter_hook("fit_calls"),
        }

    def dump(self, path: Path):
        distinct = {family: len(keys) for family, keys in self.distinct.items()}
        path.write_text(
            json.dumps({"spans": self.spans, "counters": self.counters, "distinct": distinct})
        )


# -- derived metrics -----------------------------------------------------------

COUNTS = {
    "shiftlang.words_emitted": "words_emitted",
    "shiftlang.count_calls": "count_calls",
    "blockcode.compose_calls": "compose_calls",
    "blockcode.rows_built": "rows_built",
    "blockcode.range_profile_calls": "range_profile_calls",
    "blockcode.truncated_profiles": "truncated_profiles",
    "spacetime.build_patches_calls": "build_patches_calls",
    "spacetime.generating_words": "generating_words",
    "spacetime.patches_kept": "patches_kept",
    "grouplab.cayley_ball_calls": "cayley_ball_calls",
    "grouplab.bfs_states": "bfs_states",
    "grouplab.certificate_tokens": "certificate_tokens",
    "trends.fit_calls": "fit_calls",
    "cli.context_builds": "context_builds",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(trace) -> dict:
    """Per-layer metrics of one traced batch, as {name: value}.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    spans, counters, distinct = trace["spans"], trace["counters"], trace["distinct"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    metrics = {f"{layer}.self_s": 0.0 for layer in (*LAYERS, "cli")}
    metrics.update({"grouplab.certificate_eval_s": 0.0, "cli.context_build_s": 0.0,
                    "config.parse_s": 0.0, "trace.hook_s": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        layer = name.split(".")[0]
        if layer == "trace":
            metrics["trace.hook_s"] += duration
        else:
            metrics[f"{layer}.self_s"] += duration - covered[i]
        if name == "grouplab.evaluate_certificate":
            metrics["grouplab.certificate_eval_s"] += duration
        elif name == "config.parse_config":
            metrics["config.parse_s"] += duration
        elif name.startswith("cli.context.") and not (
            parent >= 0 and spans[parent][0].startswith("cli.context.")
        ):
            metrics["cli.context_build_s"] += duration
    for metric, key in COUNTS.items():
        metrics[metric] = counters.get(key, 0)
    metrics["shiftlang.word_cache_hit_ratio"] = _ratio(
        counters.get("word_cache_hits", 0), counters.get("words_calls", 0)
    )
    metrics["blockcode.range_profile_repeat_ratio"] = _ratio(
        counters.get("range_profile_calls", 0), distinct.get("range_profile", 0)
    )
    metrics["spacetime.patch_yield"] = _ratio(
        counters.get("patches_kept", 0), counters.get("generating_words", 0)
    )
    metrics["spacetime.patch_family_repeat_ratio"] = _ratio(
        counters.get("build_patches_calls", 0), distinct.get("patch_family", 0)
    )
    metrics["trace.spans"] = len(spans)
    return metrics


def code_key(code) -> str:
    """Content digest of a code: its domain and its whole table."""
    text = repr((code.domain.descriptor(), code.rule.radius, sorted(code.rule.table.items())))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    document, out_dir, trace_path = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    tracer.install()
    from shiftlab import cli

    status = cli.main(["run", document, "--out-dir", out_dir])
    tracer.dump(Path(trace_path))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
