"""Span tracer that hooks the program's public functions from outside.

Each hook rebinds one module-level function of ``uglm`` to a wrapper that
records a span: name, start, end, parent and an optional work amount. The
same object is also rebound wherever another ``uglm`` module imported it
by name (``uglm.pretrain.task_representation`` and so on), so calls made
through imported names are seen too. The one exception is
``uglm.gradcheck``: the finite-difference oracle calls the encoder and the
losses thousands of times per check, so only its four check functions are
hooked there, their spans time the oracle as a whole, and spans under the
gradcheck command count toward no other metric.

Spans stay in memory. A span's self time is its duration minus the part of
that interval its child spans cover; worker-thread spans started inside a
``runtime.ordered_map`` call are children of that call.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time

HOOKS = (
    "graphdata.load_dataset",
    "graphdata.save_dataset",
    "encoder.task_representation",
    "encoder.encoder_backward",
    "runtime.ordered_map",
    "pretrain.compute_domain_centers",
    "pretrain.build_domain_weights",
    "pretrain.dr_clip_loss",
    "pretrain.pretrain_loop",
    "pretrain.evaluate_retrieval",
    "numcore.optimizer_step",
    "numcore.row_cosine_similarity",
    "align.align_loop",
    "align.align_step",
    "align.instance_loss",
    "align.domain_mean_gradient",
    "align.update_difficulty",
    "align.curriculum_weights",
    "align.evaluate_classification",
    "persist.save_checkpoint",
    "persist.load_checkpoint",
    "persist.export_metrics",
    "persist.export_loss_log",
    "gradcheck.check_encoder_gradients",
    "gradcheck.check_contrastive_gradients",
    "gradcheck.check_instance_loss_gradients",
    "gradcheck.check_weighted_objective_gradients",
    "synthgen.generate_domain",
)

# Work recorded with a span, computed from the call's arguments (and, for
# writers, from the file the call left behind).
_WORK_BEFORE = {
    "encoder.task_representation": lambda args: len(args[0].edges),
    "graphdata.load_dataset": lambda args: os.path.getsize(args[0]) + os.path.getsize(args[1]),
}
_WORK_AFTER = {
    "persist.save_checkpoint": lambda args: os.path.getsize(args[1]),
    "persist.export_metrics": lambda args: os.path.getsize(args[1]),
    "persist.export_loss_log": lambda args: os.path.getsize(args[1]),
}


# Root span of the gradcheck command; see Summary._rows.
GRADCHECK_STAGE = "cli.gradcheck"


class Absent(Exception):
    """A metric needs a hook whose target no longer exists."""


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[int, tuple] = {}  # id -> (name, start, end, parent, work)
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, work: float = 0.0):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        cell = [work]
        try:
            yield cell
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = (name, start, end, parent, cell[0])

    def _wrap(self, name: str, fn):
        before = _WORK_BEFORE.get(name)
        after = _WORK_AFTER.get(name)
        tracer = self

        if name == "runtime.ordered_map":

            @functools.wraps(fn)
            def mapped(task, items):
                items = list(items)  # ordered_map materializes them too
                with tracer.span(name, len(items)):
                    parent = tracer._stack()[-1]

                    def run_item(item):  # worker threads start with an empty stack
                        stack = tracer._stack()
                        stack.append(parent)
                        try:
                            return task(item)
                        finally:
                            stack.pop()

                    return fn(run_item, items)

            return mapped

        def measure(work, args) -> float:
            try:
                return work(args)
            except (IndexError, AttributeError, TypeError, OSError):  # the signature changed
                tracer.missing.add(f"{name}#work")
                return 0.0

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with tracer.span(name) as cell:
                if before:
                    cell[0] = measure(before, args)
                result = fn(*args, **kwargs)
                if after:
                    cell[0] = measure(after, args)
            return result

        return wrapped

    @contextlib.contextmanager
    def hooked(self):
        """Install every hook for the duration of the block.

        The caller imports ``uglm.cli`` first, so every module is loaded.
        """
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "uglm" or name.startswith("uglm.")
        }
        for hook in HOOKS:
            mod_name, attr = hook.split(".")
            home = sys.modules.get(f"uglm.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.missing.add(hook)
                continue
            wrapper = self._wrap(hook, original)
            for name, mod in modules.items():
                if name == "uglm.gradcheck" and mod is not home:
                    continue
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            while self._saved:
                mod, attr, original = self._saved.pop()
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid in sorted(self.spans):
                name, start, end, parent, work = self.spans[sid]
                fh.write(json.dumps([sid, parent, name, start, end, work]) + "\n")

    # ------------------------------------------------------------- analysis

    def summary(self) -> "Summary":
        return Summary(self.spans, self.missing)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Summary:
    """Per-name totals of calls, self time and work, by top-level stage.

    A span's stage is the name of its root span (the benchmark opens one
    ``cli.<command>`` root span around each CLI command).
    """

    def __init__(self, spans: dict[int, tuple], missing: set[str]):
        self.missing = missing
        self.span_count = len(spans)
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in spans.values():
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        roots: dict[int, str] = {}

        def root_of(sid: int) -> str:
            chain = []
            while sid not in roots:
                parent = spans[sid][3]
                if parent is None:
                    roots[sid] = spans[sid][0]
                    break
                chain.append(sid)
                sid = parent
            for c in chain:
                roots[c] = roots[sid]
            return roots[sid]

        # (name, stage) -> [calls, self seconds, work, inclusive seconds]
        self.table: dict[tuple[str, str], list[float]] = {}
        for sid, (name, start, end, _, work) in spans.items():
            own = end - start - _covered(start, end, children.get(sid, []))
            row = self.table.setdefault((name, root_of(sid)), [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += work
            row[3] += end - start

    def _rows(self, names, stage):
        """Rows of these names under ``stage``; by default, under every stage
        but the gradcheck command, whose finite differences call the losses
        and the encoder through module globals thousands of times."""
        names = (names,) if isinstance(names, str) else names
        for name in names:
            if name in self.missing:
                raise Absent(name)
        return [
            row
            for (name, st), row in self.table.items()
            if name in names and (st == stage if stage else st != GRADCHECK_STAGE)
        ]

    def calls(self, names, stage=None) -> int:
        return int(sum(r[0] for r in self._rows(names, stage)))

    def self_s(self, names, stage=None) -> float:
        return sum(r[1] for r in self._rows(names, stage))

    def work(self, names, stage=None) -> float:
        names = (names,) if isinstance(names, str) else names
        if any(f"{name}#work" in self.missing for name in names):
            raise Absent(names)
        return sum(r[2] for r in self._rows(names, stage))

    def inclusive_s(self, names, stage=None) -> float:
        return sum(r[3] for r in self._rows(names, stage))


def layer_metrics(s: Summary) -> dict[str, float]:
    """Per-layer metrics; a metric whose hook target is gone is left out."""
    fwd, bwd = "encoder.task_representation", "encoder.encoder_backward"
    align_stage, gc = "cli.align", GRADCHECK_STAGE
    table = {
        "encoder.forward_calls": lambda: s.calls(fwd),
        "encoder.forward_s": lambda: s.self_s(fwd),
        "encoder.backward_calls": lambda: s.calls(bwd),
        "encoder.backward_s": lambda: s.self_s(bwd),
        "encoder.edges_per_s": lambda: s.work(fwd) / s.self_s((fwd, bwd)),
        "runtime.map_calls": lambda: s.calls("runtime.ordered_map"),
        "runtime.map_items": lambda: s.work("runtime.ordered_map"),
        "runtime.map_self_s": lambda: s.self_s("runtime.ordered_map"),
        "pretrain.centers_s": lambda: s.self_s(
            ("pretrain.compute_domain_centers", "pretrain.build_domain_weights")
        ),
        "pretrain.drclip_calls": lambda: s.calls("pretrain.dr_clip_loss"),
        "pretrain.drclip_s": lambda: s.self_s("pretrain.dr_clip_loss"),
        "pretrain.loop_self_s": lambda: s.self_s("pretrain.pretrain_loop"),
        "pretrain.retrieval_s": lambda: s.self_s("pretrain.evaluate_retrieval"),
        "numcore.optimizer_calls": lambda: s.calls("numcore.optimizer_step"),
        "numcore.optimizer_s": lambda: s.self_s("numcore.optimizer_step"),
        "numcore.cosine_calls": lambda: s.calls("numcore.row_cosine_similarity"),
        "numcore.cosine_s": lambda: s.self_s("numcore.row_cosine_similarity"),
        "align.encoder_forward_calls": lambda: s.calls(fwd, align_stage),
        "align.representation_s": lambda: s.self_s(fwd, align_stage),
        "align.head_loss_s": lambda: s.self_s("align.instance_loss", align_stage),
        "align.projector_grad_s": lambda: s.self_s("align.domain_mean_gradient"),
        "align.tracker_s": lambda: s.self_s(("align.update_difficulty", "align.curriculum_weights")),
        "align.step_self_s": lambda: s.self_s("align.align_step"),
        "align.loop_self_s": lambda: s.self_s("align.align_loop"),
        "align.classify_s": lambda: s.self_s("align.evaluate_classification"),
        "graphdata.load_calls": lambda: s.calls("graphdata.load_dataset"),
        "graphdata.load_s": lambda: s.self_s("graphdata.load_dataset"),
        "graphdata.bytes_read": lambda: s.work("graphdata.load_dataset"),
        "graphdata.save_s": lambda: s.self_s("graphdata.save_dataset"),
        "persist.save_s": lambda: s.self_s(
            ("persist.save_checkpoint", "persist.export_metrics", "persist.export_loss_log")
        ),
        "persist.load_s": lambda: s.self_s("persist.load_checkpoint"),
        "persist.bytes_written": lambda: s.work(
            ("persist.save_checkpoint", "persist.export_metrics", "persist.export_loss_log")
        ),
        "gradcheck.encoder_s": lambda: s.inclusive_s("gradcheck.check_encoder_gradients", gc),
        "gradcheck.contrastive_s": lambda: s.inclusive_s("gradcheck.check_contrastive_gradients", gc),
        "gradcheck.instance_loss_s": lambda: s.inclusive_s("gradcheck.check_instance_loss_gradients", gc),
        "gradcheck.weighted_objective_s": lambda: s.inclusive_s(
            "gradcheck.check_weighted_objective_gradients", gc
        ),
        "synthgen.generate_s": lambda: s.self_s("synthgen.generate_domain"),
    }
    for command in ("gradcheck", "pretrain", "align", "eval_retrieval", "eval_classification"):
        table[f"cli.{command}_s"] = functools.partial(s.inclusive_s, f"cli.{command}", f"cli.{command}")
    metrics = {}
    for name, compute in table.items():
        try:
            metrics[name] = compute()
        except (Absent, ZeroDivisionError):
            pass
    metrics["trace.spans"] = s.span_count
    return metrics
