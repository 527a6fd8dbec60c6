"""Instrumentation of every qmlab layer boundary for one traced command.

Tracer.install() wraps qmlab in place; Tracer.summary() returns what was
recorded:

- L0 (`galois`): call counters on FieldCtx.add/mul/inv/pow/trace and the
  time spent constructing FieldCtx objects.  No span per call.
- L1-L2 (`residues`, `rscode`, `charsum`, `qm`, `pqm`, `linleak`,
  `shamir7`): a span around every public function, except the per-element
  helpers in PER_ELEMENT, whose call volume would swamp the trace.
- L3 (`cli`): a `cli.command` span around each `cmd_*` handler and a
  `cli.render` span around report rendering.

Spans stay in memory as (name, start, end, parent) and are reduced to
per-name calls, self time and total time when the command ends.  Wrappers
replace every binding of a function, so `from .rscode import bucket_eval`
in another module is traced as well as the defining module's own name.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time

from spans import summarize

TRACED_MODULES = ("residues", "rscode", "charsum", "qm", "pqm", "linleak", "shamir7")
# Called once per line, point or bit; a span each would cost more than the work.
PER_ELEMENT = frozenset(
    {
        "rscode.make_line",
        "rscode.line_eval",
        "rscode.g_line",
        "rscode.h_line",
        "qm.leak_bit",
        "linleak.trace_leak",
    }
)
COUNTED_OPS = ("add", "mul", "inv", "pow", "trace")


class Tracer:
    """Owns the spans and counters of one traced command."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTED_OPS, 0)
        self.field_setup_s = 0.0
        self.rounds_played = 0
        self.caches = {}  # span name -> the lru_cache object it wraps

    # -- wrappers -------------------------------------------------------

    def spanned(self, name: str, fn):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf(), parent)
                stack.pop()

        return wrapper

    def counted(self, op: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[op] += 1
            return fn(*args)

        return wrapper

    def timed_init(self, fn):
        tracer = self

        def __init__(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                fn(self, *args, **kwargs)
            finally:
                tracer.field_setup_s += time.perf_counter() - start

        return __init__

    def rounds_hook(self, fn):
        def wrapper(*args, **kwargs):
            record = fn(*args, **kwargs)
            self.rounds_played += record["rounds_played"]
            return record

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import qmlab
        from qmlab import cli, galois

        modules = [qmlab] + [
            importlib.import_module(f"qmlab.{info.name}")
            for info in pkgutil.iter_modules(qmlab.__path__)
            if not info.name.startswith("_")
        ]
        replace = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"qmlab.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in PER_ELEMENT
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches[name] = obj
                wrapped = self.spanned(name, obj)
                if name == "pqm.play_game":
                    wrapped = self.rounds_hook(wrapped)
                replace[id(obj)] = wrapped
        for attr, obj in vars(cli).items():
            if attr.startswith("cmd_") and inspect.isfunction(obj) and attr != "cmd_dispatch":
                replace[id(obj)] = self.spanned("cli.command", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])

        report = cli.RunReport
        report.to_json = self.spanned("cli.render", report.to_json)
        report.to_text = self.spanned("cli.render", report.to_text)
        ctx_cls = galois.FieldCtx
        for op in COUNTED_OPS:
            setattr(ctx_cls, op, self.counted(op, getattr(ctx_cls, op)))
        ctx_cls.__init__ = self.timed_init(ctx_cls.__init__)

    # -- output ---------------------------------------------------------

    def summary(self) -> dict:
        caches = {}
        for name, obj in self.caches.items():
            info = obj.cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "spans": summarize(self.spans),
            "counts": self.counts,
            "field_setup_s": self.field_setup_s,
            "rounds_played": self.rounds_played,
            "caches": caches,
        }

