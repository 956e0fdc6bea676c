"""Outside-in tracing of the sevreg package.

The tracer replaces module attributes with timing wrappers at every call site
that refers to a traced function (``sevreg.pipeline.forward_batch`` and
``sevreg.nn.forward_batch`` are the same function bound in two modules), and
puts the originals back on removal. Nothing inside the program changes.

Spans are kept in memory as tuples ``(id, parent, pass_id, name, start, end,
self)``; self time is the span's duration minus the durations of the child
spans it covers. Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs, named by the module that defines the function.
TRACED = (
    ("nn", "forward_batch"),
    ("nn", "backward_batch"),
    ("nn", "linear_forward"),
    ("nn", "linear_backward"),
    ("nn", "stats_pool"),
    ("nn", "stats_pool_backward"),
    ("nn", "dropout_mask"),
    ("nn", "huber_loss_batch"),
    ("contrastive", "build_batch"),
    ("contrastive", "positive_pairs"),
    ("contrastive", "ntxent_loss"),
    ("contrastive", "variance_reg"),
    ("augment", "make_views"),
    ("optim", "optimizer_step"),
    ("data", "normalize_frames"),
    ("data", "load_corpus"),
    ("data", "save_corpus"),
    ("pipeline", "train_regression"),
    ("pipeline", "train_stage2"),
    ("pipeline", "train_stage3"),
    ("pipeline", "pseudo_label"),
    ("pipeline", "evaluate"),
    ("pipeline", "save_checkpoint"),
    ("evaluation", "evaluate_scores"),
    ("evaluation", "write_results_csv"),
    ("experiments", "run_single"),
    ("experiments", "run_all"),
    ("synthetic", "build_world"),
    ("cli", "main"),
)

TRACED_NAMES = tuple(f"{m}.{f}" for m, f in TRACED)

WRAPPED_MARK = "__bench_traced__"
PACKAGE = "sevreg"


def _forward_rows(counts, args, kwargs, result):
    seqs = args[1] if len(args) > 1 else kwargs["seqs"]
    rows = sum(s.shape[0] for s in seqs)
    counts["nn.forward_batch.rows"] += rows
    counts["nn.forward_batch.shape", len(seqs), rows] += 1


def _ntxent_anchors(counts, args, kwargs, result):
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    counts["contrastive.ntxent_loss.anchors"] += len(pairs)
    counts["contrastive.ntxent_loss.active"] += sum(1 for p in pairs if len(p) > 0)


def _positives(counts, args, kwargs, result):
    counts["contrastive.positive_pairs.anchors"] += len(result)
    counts["contrastive.positive_pairs.positives"] += sum(len(p) for p in result)


# Work counters taken at the same boundaries as the spans.
COUNTERS = {
    "nn.forward_batch": _forward_rows,
    "contrastive.ntxent_loss": _ntxent_anchors,
    "contrastive.positive_pairs": _positives,
}


class Tracer:
    """Wraps the traced functions of an imported sevreg package."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._pass_counts: dict[str, Counter] = defaultdict(Counter)
        self.pass_id = ""
        self.counts = self._pass_counts[""]
        self._stack: list[list] = []  # [span id, start, child time]
        self._patched: list[tuple] = []  # (module, attribute, original)
        self.call_sites = 0

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for mod_name, fn_name in TRACED:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        self.call_sites = len(self._patched)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def leftover_wrappers(self) -> list[str]:
        """Module attributes that are still tracing wrappers (should be none)."""
        return [
            f"{m.__name__}.{attr}"
            for m in self._modules()
            for attr, value in vars(m).items()
            if getattr(value, WRAPPED_MARK, False)
        ]

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append(
                    (span_id, parent, self.pass_id, name, frame[1], end,
                     duration - frame[2])
                )
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        setattr(traced, WRAPPED_MARK, True)
        return traced

    # -- summaries ----------------------------------------------------------

    def totals(self, pass_ids) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds and self seconds over the
        given pass ids."""
        wanted = set(pass_ids)
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in TRACED_NAMES}
        for _, _, pid, name, start, end, self_s in self.spans:
            if pid in wanted:
                row = out[name]
                row["calls"] += 1
                row["s"] += end - start
                row["self_s"] += self_s
        return out

    def calls_under(self, name: str, parent: str, pass_ids) -> int:
        """Calls of `name` made directly from `parent`."""
        wanted = set(pass_ids)
        names = {span[0]: span[3] for span in self.spans if span[2] in wanted}
        return sum(
            1 for span in self.spans
            if span[2] in wanted and span[3] == name and names.get(span[1]) == parent
        )

    def counts_for(self, pass_ids) -> Counter:
        merged: Counter = Counter()
        for pid in pass_ids:
            merged.update(self._pass_counts.get(pid, {}))
        return merged

    def begin(self, pass_id: str) -> None:
        """Attribute the spans and counters that follow to ``pass_id``."""
        self.pass_id = pass_id
        self.counts = self._pass_counts[pass_id]
