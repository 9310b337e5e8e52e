"""Spans around calls into the layers' public functions, recorded from outside.

`Tracer.install()` rebinds every traced function in every loaded `elps.*`
module that holds it (so `elps.semantics.stable_models` is wrapped as well as
`elps.objective.stable_models`), and `uninstall()` puts the originals back.
Spans are kept in memory as parallel lists (name, start, end, parent, tag)
and aggregated at the end; self time is a span's duration minus the time of
its child spans.  Hot helpers such as `modal_satisfies` are not wrapped.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path


def _size(args, kwargs, result):
    return len(result)


def _truth(args, kwargs, result):
    return bool(result)


def _is_none(args, kwargs, result):
    return result is None


def _semantics(args, kwargs, result):
    return str(args[1] if len(args) > 1 else kwargs["semantics"])


# module -> function -> tag taken from a completed call (None: no tag)
TARGETS = {
    "syntax": {"load_program": None},
    "engine": {"compute_world_views": _semantics},
    "objective": {"stable_models": _truth},
    "semantics": {"semantics_reduct": None, "world_views": _size, "s17_world_views": None},
    "foundedness": {"is_founded": _truth},
    "modal": {"subjective_reduct": None},
    "eht": {
        "equilibrium_eht_models": None,
        "equilibrium_countermodel": _is_none,
        "models_star": None,
    },
    "splitting": {
        "enumerate_epistemic_splitting_sets": None,
        "epistemic_split": None,
        "check_epistemic_splitting": None,
        "check_constraint_monotonicity": None,
    },
    "harness": {"require_fixtures": None},
}

RAISED = "raised"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list[object] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, tag):
        names, starts, ends, parents, tags, stack = (
            self.names, self.starts, self.ends, self.parents, self.tags, self._stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            tags.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tags[idx] = RAISED
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if tag is not None:
                tags[idx] = tag(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import elps.harness  # noqa: F401  (load every traced module)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "elps" or n.startswith("elps.")]
        for short, functions in TARGETS.items():
            home = sys.modules[f"elps.{short}"]
            for fname, tag in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original, tag)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: Path):
        """Spans as tab-separated lines: index, name, start, end, parent, tag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\ttag\n")
            for i, (n, s, e, p, t) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.tags)
            ):
                out.write(f"{i}\t{n}\t{s!r}\t{e!r}\t{p}\t{t}\n")

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and the tags seen."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tags": defaultdict(int)}
        )
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
            entry["tags"][self.tags[i]] += 1
        return stats

    def total_by_tag(self, name: str) -> dict[object, float]:
        totals: dict[object, float] = defaultdict(float)
        for i, n in enumerate(self.names):
            if n == name:
                totals[self.tags[i]] += self.ends[i] - self.starts[i]
        return totals


SEMANTICS = ("g91", "g11", "k15", "s17", "f15", "c19")

# (metric name, unit); the base of each ratio is the `.calls` metric after it
LAYER_METRICS = (
    [
        ("syntax.load_program.calls", "count"),
        ("syntax.load_program.self_s", "s"),
        ("engine.compute_world_views.calls", "count"),
        ("engine.compute_world_views.total_s", "s"),
    ]
    + [(f"engine.compute_world_views.{s}.total_s", "s") for s in SEMANTICS]
    + [
        ("objective.stable_models.calls", "count"),
        ("objective.stable_models.self_s", "s"),
        ("objective.stable_models.nonempty_ratio", "ratio"),
        ("semantics.semantics_reduct.calls", "count"),
        ("semantics.semantics_reduct.self_s", "s"),
        ("semantics.world_views.self_s", "s"),
        ("semantics.accept_ratio", "ratio"),
        ("semantics.s17_world_views.self_s", "s"),
        ("foundedness.is_founded.calls", "count"),
        ("foundedness.is_founded.self_s", "s"),
        ("foundedness.reject_ratio", "ratio"),
        ("modal.subjective_reduct.calls", "count"),
        ("modal.subjective_reduct.self_s", "s"),
        ("eht.equilibrium_eht_models.self_s", "s"),
        ("eht.equilibrium_countermodel.calls", "count"),
        ("eht.equilibrium_countermodel.self_s", "s"),
        ("eht.models_star.calls", "count"),
        ("eht.models_star.self_s", "s"),
        ("eht.equilibrium_ratio", "ratio"),
        ("splitting.enumerate_epistemic_splitting_sets.self_s", "s"),
        ("splitting.epistemic_split.calls", "count"),
        ("splitting.split_ratio", "ratio"),
        ("splitting.check_epistemic_splitting.self_s", "s"),
        ("splitting.check_constraint_monotonicity.self_s", "s"),
        ("harness.require_fixtures.calls", "count"),
        ("harness.require_fixtures.self_s", "s"),
        ("trace.op_ref_s.p50", "ref_s"),
        ("trace.untraced_op_ref_s.p50", "ref_s"),
        ("trace.overhead_ref_s", "ref_s"),
    ]
)

# ratio -> (numerator description, base metric)
RATIO_BASES = {
    "objective.stable_models.nonempty_ratio": ("calls with at least one model", "objective.stable_models.calls"),
    "semantics.accept_ratio": ("world views accepted", "semantics.semantics_reduct.calls"),
    "foundedness.reject_ratio": ("views found unfounded", "foundedness.is_founded.calls"),
    "eht.equilibrium_ratio": ("candidates with no countermodel", "eht.equilibrium_countermodel.calls"),
    "splitting.split_ratio": ("candidate sets that split", "splitting.epistemic_split.calls"),
}


_NO_SPANS = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tags": {}}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_METRICS value except the trace.* ones, from the spans."""
    stats = tracer.aggregate()

    def entry(name: str) -> dict:
        return stats.get(name, _NO_SPANS)

    per_semantics = tracer.total_by_tag("engine.compute_world_views")
    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        if metric.startswith("trace.") or metric in RATIO_BASES:
            continue
        layer, stat = metric.rsplit(".", 1)
        if layer.startswith("engine.compute_world_views."):
            out[metric] = per_semantics.get(layer.rsplit(".", 1)[1], 0.0)
        else:
            out[metric] = entry(layer)[stat]
    views = entry("semantics.world_views")["tags"]
    split = entry("splitting.epistemic_split")
    numerators = {
        "objective.stable_models.nonempty_ratio": entry("objective.stable_models")["tags"].get(True, 0),
        "semantics.accept_ratio": sum(size * n for size, n in views.items() if size != RAISED),
        "foundedness.reject_ratio": entry("foundedness.is_founded")["tags"].get(False, 0),
        "eht.equilibrium_ratio": entry("eht.equilibrium_countermodel")["tags"].get(True, 0),
        "splitting.split_ratio": split["calls"] - split["tags"].get(RAISED, 0),
    }
    for metric, (_desc, base) in RATIO_BASES.items():
        out[metric] = numerators[metric] / out[base] if out[base] else 0.0
    return out
