"""Spans and counts at the program's module boundaries, for the traced run.

``Tracer.install`` replaces each traced public function at every name it is
bound to in the ``joinopt`` package (``expert_plan`` is bound in
``simulator``, ``trainer`` and ``transfer``; ``expert_baseline`` reaches it
through ``simulator``'s global).  Each call records a span: the traced
function, the span that was open when it was called, start, end, and one
count (rows, buffer entries or experiences) or, for ``expert_plan``, the
query id.  Spans stay in memory until
``report`` writes them out and reduces them to the per-layer metrics.

A traced name that no longer exists, or that records no call, raises
``TraceError``, so a renamed function fails the traced run instead of
reading zero.
"""

import importlib
import time

MODULES = (
    "catalog",
    "plans",
    "simulator",
    "model",
    "features",
    "retention",
    "transfer",
    "metrics",
    "trainer",
    "workload_gen",
    "cli",
)


def _rows(args, kwargs, result):
    features = kwargs.get("features", args[1] if len(args) > 1 else None)
    return len(features)


def _buffer_len(args, kwargs, result):
    return len(kwargs.get("buffer", args[0] if args else None))


def _returned_len(args, kwargs, result):
    return len(result)


def _query_id(args, kwargs, result):
    return (kwargs.get("query") or args[0]).id


# (span name, defining module, function, modules whose binding is wrapped
# (None: every module binding the same object), count taken per call)
TARGETS = (
    ("simulator.expert_plan", "simulator", "expert_plan", None, _query_id),
    ("simulator.execute", "simulator", "execute", None, None),
    ("transfer.select_partitioning", "transfer", "select_partitioning", None, None),
    ("transfer.maml_outer", "transfer", "maml_outer", None, None),
    ("trainer.build_meta_tasks", "trainer", "build_meta_tasks", None, None),
    ("trainer.plan_search", "trainer", "plan_search", None, None),
    ("trainer.evaluate_queries", "trainer", "evaluate_queries", None, None),
    ("retention.sample_replay", "retention", "sample_replay", None, _buffer_len),
    ("retention.extract_experiences", "retention", "extract_experiences", None, _returned_len),
    ("model.predict_batch", "model", "predict_batch", None, _rows),
    ("model.sgd_step", "model", "sgd_step", ("trainer",), None),
    ("model.batch_grad", "model", "batch_grad", ("trainer",), None),
    ("catalog.load_catalog", "catalog", "load_catalog", None, None),
)


class TraceError(RuntimeError):
    """A traced name is missing, or recorded no call."""


class Tracer:
    def __init__(self):
        self.spans = []  # (target index, parent span index or -1, start, end, count)
        self._open = []  # indices of the spans currently open, innermost last
        self._patched = []  # (module, attribute, original)

    def _wrap(self, index, fn, count):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
            qty = count(args, kwargs, result) if count is not None else 0
            spans[slot] = (index, parent, start, end, qty)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {
            name: importlib.import_module(f"joinopt.{name}") for name in MODULES
        }
        for index, (span, home, attr, where, count) in enumerate(TARGETS):
            original = getattr(modules[home], attr, None)
            if original is None:
                raise TraceError(f"{span}: joinopt.{home}.{attr} does not exist")
            wrapper = self._wrap(index, original, count)
            names = where or modules
            for name in names:
                if getattr(modules[name], attr, None) is original:
                    setattr(modules[name], attr, wrapper)
                    self._patched.append((modules[name], attr, original))
                elif where is not None:
                    raise TraceError(f"{span}: joinopt.{name}.{attr} is not bound")

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def report(self, spans_path):
        """Write every span to ``spans_path`` (CSV) and return the
        per-layer metrics plus per-span-name call counts and self time."""
        names = [t[0] for t in TARGETS]
        calls = [0] * len(TARGETS)
        qty = [0] * len(TARGETS)
        total_s = [0.0] * len(TARGETS)
        child_s = [0.0] * len(TARGETS)
        rows_in_search = 0
        expert_queries = set()
        search = names.index("trainer.plan_search")
        predict = names.index("model.predict_batch")
        expert = names.index("simulator.expert_plan")
        lines = ["span,name,parent,start_us,end_us,count"]
        for i, span in enumerate(self.spans):
            if span is None:  # the call raised
                continue
            index, parent, start, end, count = span
            calls[index] += 1
            duration = end - start
            parent_index = self.spans[parent][0] if parent >= 0 else -1
            # Nested calls of one function add to its count, not its time.
            if parent_index != index:
                total_s[index] += duration
            if parent_index >= 0:
                child_s[parent_index] += duration
            if index == expert:
                expert_queries.add(count)  # the query id
            else:
                qty[index] += count
            if index == predict and parent_index == search:
                rows_in_search += count
            lines.append(
                f"{i},{names[index]},{parent},{start * 1e6:.1f},{end * 1e6:.1f},{count}"
            )
        missing = [names[i] for i in range(len(TARGETS)) if calls[i] == 0]
        if missing:
            raise TraceError(f"traced functions recorded no call: {missing}")
        spans_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        def ms(name):
            return total_s[names.index(name)] * 1000.0

        def n(name):
            return calls[names.index(name)]

        def q(name):
            return qty[names.index(name)]

        replay_s = total_s[names.index("retention.sample_replay")]
        metrics = {
            "simulator.expert_plan.calls": (n("simulator.expert_plan"), "count"),
            "simulator.expert_plan.ms": (ms("simulator.expert_plan"), "ms"),
            "simulator.expert_plan.distinct_share": (
                len(expert_queries) / n("simulator.expert_plan"),
                "ratio",
            ),
            "transfer.select_partitioning.ms": (ms("transfer.select_partitioning"), "ms"),
            "transfer.maml_outer.ms": (ms("transfer.maml_outer"), "ms"),
            "trainer.build_meta_tasks.ms": (ms("trainer.build_meta_tasks"), "ms"),
            "trainer.plan_search.calls": (n("trainer.plan_search"), "count"),
            "trainer.plan_search.ms": (ms("trainer.plan_search"), "ms"),
            "trainer.plan_search.rows_scored": (rows_in_search, "count"),
            "trainer.evaluate_queries.ms": (ms("trainer.evaluate_queries"), "ms"),
            "retention.sample_replay.calls": (n("retention.sample_replay"), "count"),
            "retention.sample_replay.ms": (ms("retention.sample_replay"), "ms"),
            "retention.sample_replay.buffer_mean": (
                q("retention.sample_replay") / n("retention.sample_replay"),
                "count",
            ),
            "retention.sample_replay.us_per_entry": (
                replay_s * 1e6 / q("retention.sample_replay"),
                "us",
            ),
            "retention.extract_experiences.calls": (
                n("retention.extract_experiences"),
                "count",
            ),
            "retention.extract_experiences.ms": (ms("retention.extract_experiences"), "ms"),
            "retention.extract_experiences.experiences": (
                q("retention.extract_experiences"),
                "count",
            ),
            "simulator.execute.ms": (ms("simulator.execute"), "ms"),
            "model.sgd.steps": (n("model.sgd_step"), "count"),
            "model.sgd.ms": (ms("model.sgd_step") + ms("model.batch_grad"), "ms"),
            "model.predict_batch.calls": (n("model.predict_batch"), "count"),
            "model.predict_batch.rows": (q("model.predict_batch"), "count"),
            "model.predict_batch.ms": (ms("model.predict_batch"), "ms"),
            "catalog.load.ms": (ms("catalog.load_catalog"), "ms"),
        }
        by_span = {
            names[i]: {
                "calls": calls[i],
                "ms": total_s[i] * 1000.0,
                "self_ms": (total_s[i] - child_s[i]) * 1000.0,
            }
            for i in range(len(TARGETS))
        }
        return {"metrics": metrics, "spans": by_span}
