"""Span tracing of wgcalc's layers, installed from outside the engine.

``Tracer.install`` wraps the functions of each layer module on every
module attribute the engine calls through: ``exact`` reaches the linear
solver as ``ratfunc.solve_linear_exact``, ``moments`` calls its own
imported ``wg_*`` names, ``bounds`` its imported table solvers, and so on.
Nothing under ``src/`` is edited; ``uninstall`` restores every attribute.

A call from one layer into another opens a span (name, start, end, parent
span, job id).  A call from a layer into itself, such as ``count_paths``
recursion, only increments counters.  Spans stay in memory until ``dump``.
A layer's self time is its spans' duration minus the time their child spans
cover.  Two kinds of boundary crossing are accounted without a span record,
because there are millions of them: ``symcore`` element methods, and single
steps of a generator.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "exact", "ratfunc", "graphs", "symcore", "bounds", "moments", "mc", "cache")

# private functions behind a per-layer counter (degree hypotheses tried)
_PRIVATE = {"ratfunc": ("_fit",)}
# symcore methods left unwrapped: the dataclass-generated dunders (properties
# such as ``level`` are skipped too)
_SKIP_METHODS = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
                 "__delattr__", "__getstate__", "__setstate__"}


class Tracer:
    def __init__(self, engine):
        self.engine = engine
        self.modules = {name: importlib.import_module(f"wgcalc.{name}") for name in LAYERS}
        self.stack: list[list] = []  # [layer, span id, start, child seconds]
        self.spans: list[tuple] = []  # (id, parent id, job, layer, start, end)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, int] = defaultdict(int)
        self.job = -1
        self._next_id = 0
        self._saved: list[tuple] = []

    # ---- installation -------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and name != "clear_caches"
                        and (not name.startswith("_") or name in _PRIVATE.get(layer, ()))):
                    originals[obj] = self._wrap(layer, f"{layer}.{name}",
                                                self._special(layer, name, obj),
                                                leaf=layer == "symcore")
        # replace every module-level reference, including names imported by other layers
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._set(mod, name, originals[obj])
        sc = self.modules["symcore"]
        for cls in (sc.Permutation, sc.PairPartition):
            for name, raw in list(vars(cls).items()):
                if name in _SKIP_METHODS or isinstance(raw, property):
                    continue
                if isinstance(raw, classmethod):
                    self._set(cls, name, classmethod(self._wrap("symcore", f"symcore.{name}",
                                                                raw.__func__, leaf=True)))
                elif inspect.isfunction(raw):
                    self._set(cls, name, self._wrap("symcore", f"symcore.{name}", raw, leaf=True))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    def _set(self, owner, name, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _special(self, layer, name, fn):
        """Argument-level counters that need more than the call itself."""
        if (layer, name) != ("ratfunc", "reconstruct"):
            return fn
        singular = self.engine.exact.SingularSystemError
        count = self.count

        @functools.wraps(fn)
        def reconstruct(evaluate, *args, **kwargs):
            def counted(d):
                count["ratfunc.points_evaluated"] += 1
                try:
                    return evaluate(d)
                except singular:
                    count["ratfunc.points_skipped"] += 1
                    raise
            return fn(counted, *args, **kwargs)

        return reconstruct

    # ---- the wrapper --------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn, leaf: bool = False):
        tracer = self
        stack = self.stack
        count = self.count
        on_return = _HOOKS.get(qualname)
        timed = qualname in _TIMED
        singular = self.engine.exact.SingularSystemError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[qualname] += 1
            count[layer] += 1
            if stack and stack[-1][0] == layer:
                caller = layer
                if timed:
                    t0 = perf_counter()
                    result = fn(*args, **kwargs)
                    tracer.seconds[qualname] += perf_counter() - t0
                else:
                    result = fn(*args, **kwargs)
            else:
                parent = stack[-1] if stack else None
                caller = parent[0] if parent else None
                count[qualname + "@entry"] += 1
                frame = [layer, tracer._new_id(), perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                except singular:
                    if layer == "exact":
                        count["exact.singular_raised"] += 1
                    raise
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer._close(frame, parent, end, record=not leaf)
                    if timed:
                        tracer.seconds[qualname] += end - frame[2]
                if inspect.isgenerator(result):
                    return tracer._steps(layer, qualname, result)
            if on_return is not None:
                on_return(tracer, args, result, caller)
            return result

        return wrapper

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _close(self, frame, parent, end, record: bool) -> None:
        layer = frame[0]
        dur = end - frame[2]
        self.self_s[layer] += dur - frame[3]
        if parent is not None:
            parent[3] += dur
            self.seconds[f"{parent[0]}>{layer}"] += dur
            self.count[f"{parent[0]}>{layer}"] += 1
        else:
            self.count[f"root>{layer}"] += 1
            self.seconds[f"root>{layer}"] += dur
        if record:
            self.spans.append((frame[1], parent[1] if parent else None, self.job, layer,
                               frame[2], end))

    def _steps(self, layer, qualname, gen):
        """Account each step of a generator to ``layer``, in whoever consumes it."""
        stack = self.stack
        count = self.count
        while True:
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                try:
                    item = next(gen)
                except StopIteration:
                    return
            else:
                frame = [layer, 0, perf_counter(), 0.0]
                stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    self._close(frame, parent, end, record=False)
            count[f"{qualname}.items"] += 1
            yield item

    # ---- results ------------------------------------------------------

    def dump(self, path, header: dict) -> None:
        """Write the spans as gzipped JSON lines, one header line first."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": ["id", "parent", "job", "layer",
                                                      "start_s", "end_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _solve_returned(tracer, args, result, caller):
    n = len(args[0])
    tracer.count["ratfunc.solve_unknowns"] += n
    tracer.maxima["ratfunc.solve_max_unknowns"] = max(tracer.maxima["ratfunc.solve_max_unknowns"], n)
    if result is None:
        tracer.count["ratfunc.solve_singular"] += 1
    if caller == "exact":
        tracer.count["exact.level_solves"] += 1


def _reconstruct_returned(tracer, args, result, caller):
    tracer.count["ratfunc.fits_accepted"] += 1


def _paths_listed(tracer, args, result, caller):
    tracer.count["graphs.paths_listed"] += len(result)


def _estimate_returned(tracer, args, result, caller):
    tracer.count["mc.samples"] += args[2]


def _compare_returned(tracer, args, result, caller):
    tracer.count["mc.ztests"] += len(result)
    tracer.count["mc.ztests_passed"] += sum(1 for r in result if r.passed)


def _report_rows(tracer, args, result, caller):
    if caller != "bounds" and hasattr(result, "rows"):
        tracer.count["bounds.rows"] += len(result.rows)


def _export_returned(tracer, args, result, caller):
    tracer.count["cache.records_written"] += result


def _verify_returned(tracer, args, result, caller):
    tracer.count["cache.records_checked"] += result[0]


_HOOKS = {
    "ratfunc.solve_linear_exact": _solve_returned,
    "ratfunc.reconstruct": _reconstruct_returned,
    "graphs.enumerate_paths": _paths_listed,
    "mc.estimate_moments": _estimate_returned,
    "mc.compare_many": _compare_returned,
    "cache.export": _export_returned,
    "cache.verify": _verify_returned,
}
_HOOKS.update({f"bounds.{name}": _report_rows for name in (
    "certify_unitary_bounds", "certify_wg_ratio_unitary", "certify_orthogonal_bounds",
    "certify_sp_ratio", "certify_orthogonal_ratio", "neighborhood_certify",
    "easy_injection_check")})
# functions whose inclusive time is a metric even when called from their own layer
_TIMED = {"ratfunc.solve_linear_exact", "ratfunc.reconstruct", "mc.estimate_moments"}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, factorization_hits: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    c, s = tr.count, tr.seconds
    solves = c["ratfunc.solve_linear_exact"]
    scanned = c["graphs.enumerate_monotone_factorizations.items"]
    return {
        "ratfunc.solve_calls": solves,
        "ratfunc.solve_unknowns": c["ratfunc.solve_unknowns"],
        "ratfunc.solve_max_unknowns": tr.maxima["ratfunc.solve_max_unknowns"],
        "ratfunc.solve_s": s["ratfunc.solve_linear_exact"],
        "ratfunc.singular_ratio": _ratio(c["ratfunc.solve_singular"], solves),
        "ratfunc.reconstruct_calls": c["ratfunc.reconstruct"],
        "ratfunc.reconstruct_s": s["ratfunc.reconstruct"],
        "ratfunc.fit_solves": c["ratfunc._fit"],
        "ratfunc.fit_yield": _ratio(c["ratfunc.fits_accepted"], c["ratfunc._fit"]),
        "ratfunc.points_evaluated": c["ratfunc.points_evaluated"],
        "ratfunc.points_skipped": c["ratfunc.points_skipped"],
        "exact.calls": c["exact"],
        "exact.self_s": tr.self_s["exact"],
        "exact.level_solves": c["exact.level_solves"],
        "exact.singular_raised": c["exact.singular_raised"],
        "graphs.count_calls": c["graphs.count_paths"] + c["graphs.count_paths_refined"],
        "graphs.top_calls": c["graphs.count_paths@entry"] + c["graphs.count_paths_refined@entry"],
        "graphs.self_s": tr.self_s["graphs"],
        "graphs.paths_listed": c["graphs.paths_listed"],
        "graphs.factorizations_scanned": scanned,
        "graphs.factorization_hit_ratio": _ratio(factorization_hits, scanned),
        "symcore.elements_built": c["symcore.__post_init__"],
        "symcore.self_s": tr.self_s["symcore"],
        "bounds.calls": c["bounds"],
        "bounds.rows": c["bounds.rows"],
        "bounds.self_s": tr.self_s["bounds"],
        "moments.calls": c["moments"],
        "moments.terms": c["moments>exact"],
        "moments.self_s": tr.self_s["moments"],
        "moments.lookup_s": s["moments>exact"],
        "mc.calls": c["mc"],
        "mc.samples": c["mc.samples"],
        "mc.sample_s": s["mc.estimate_moments"],
        "mc.samples_per_s": _ratio(c["mc.samples"], s["mc.estimate_moments"]),
        "mc.exact_s": s["mc>moments"],
        "mc.ztest_pass_ratio": _ratio(c["mc.ztests_passed"], c["mc.ztests"]),
        "cache.calls": c["cache"],
        "cache.self_s": tr.self_s["cache"],
        "cache.records_written": c["cache.records_written"],
        "cache.records_checked": c["cache.records_checked"],
        "cli.calls": c["cli.run"],
        "cli.self_s": tr.self_s["cli"],
    }


def layer_table(tr: Tracer, metrics: dict[str, float], total_s: float) -> str:
    """Plain-text table: one row per layer with its entries from other layers,
    self time, share of the traced job time and its metrics."""
    lines = [f"{'layer':<8} {'entries':>8} {'self_s':>9} {'share':>6}  metrics"]
    entries = Counter()
    for key, n in tr.count.items():
        if ">" in key:
            entries[key.split(">")[1]] += n
    for layer in LAYERS:
        own = {k.split(".", 1)[1]: v for k, v in metrics.items() if k.startswith(f"{layer}.")}
        text = ", ".join(f"{k}={_fmt(v)}" for k, v in own.items()
                         if not k.endswith("self_s"))
        self_s = tr.self_s[layer]
        lines.append(f"{layer:<8} {entries[layer]:>8} {self_s:>9.4f} "
                     f"{_ratio(self_s, total_s):>6.1%}  {text}")
    return "\n".join(lines)


def _fmt(v) -> str:
    return f"{v:.4g}" if isinstance(v, float) else str(v)
