"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``install`` replaces
module attributes of the ``regsync`` package with wrappers, at the place
where each function is looked up, and restores them afterwards. The
package source is never changed.

A span is (name, start, end, parent). Spans are appended when they start,
so every span comes after its parent and after its earlier siblings; the
self-time arithmetic relies on that order. Hot leaf functions are counted,
not timed, so their cost stays inside the caller's self time.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

ROOT = "bench.rep"

# (span name, [(module, attribute), ...]) for the timed layers, and the same
# shape for the counted leaves.
TIMED = [
    ("modelcheck.run_modelcheck", [("modelcheck", "run_modelcheck")]),
    ("engine.sync", [("engine", "sync")]),
    ("engine.lock", [("engine", "acquire_lock"), ("engine", "release_lock")]),
    ("engine.update_all_chains", [("engine", "update_all_chains")]),
    ("engine.to_json_dict", [("engine", "to_json_dict")]),
    ("engine.canonical_dumps", [("engine", "canonical_dumps")]),
    ("engine.valid_state", [("engine", "valid_state")]),
    ("preservation.sync_all", [("modelcheck", "sync_all")]),
    ("regulatory.reg_machine_spec", [("modelcheck", "reg_machine_spec")]),
    ("priority.select_highest", [("liveness", "select_highest")]),
    ("liveness.step_epoch", [("liveness", "step_epoch")]),
    ("scenario.parse_scenario", [("scenario", "parse_scenario")]),
]
COUNTED = [
    ("regulatory.reg_transition", [("engine", "reg_transition"), ("modelcheck", "reg_transition")]),
    ("priority.priority_key", [("priority", "priority_key")]),
    ("sm_core.transition_of", [("preservation", "transition_of")]),
]


class Tracer:
    """In-memory span store plus counters for the wrapped layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def timed(self, name: str, fn, on_result=None):
        nid = self._id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spans(self):
        for i in range(len(self.name_id)):
            yield self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line: index, name, start_ns,
        end_ns, parent index (-1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")


def self_times(spans) -> tuple[dict[str, int], dict[str, int]]:
    """Per-name self time and call count from (name, start, end, parent) spans.

    Self time is a span's duration minus its children's durations. Spans
    must be listed in start order, each child inside its parent and after
    its previous sibling, as a single-threaded stack of spans records them;
    anything else raises ValueError.
    """
    spans = list(spans)
    children_ns = [0] * len(spans)
    free_from = [start for _, start, _, _ in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            continue
        if not free_from[parent] <= start <= end <= spans[parent][2]:
            raise ValueError(f"span {i} ({name}) does not nest in span {parent}")
        children_ns[parent] += end - start
        free_from[parent] = end
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        self_ns[name] += (end - start) - children_ns[i]
        calls[name] += 1
    return dict(self_ns), dict(calls)


@contextmanager
def install(mods: SimpleNamespace, tracer: Tracer, stats: Counter):
    """Patch every traced layer of ``mods`` for the duration of the block.

    ``stats`` receives the outcome counts the plain span record cannot
    give: sync outcomes per reason, select_highest candidates and
    canonical_dumps output bytes.
    """

    def on_sync(_args, result):
        stats["engine.sync.ok" if result.ok else f"engine.sync.fail.{result.reason.value}"] += 1

    def on_select(args, _result):
        stats["priority.candidates"] += len(args[0])

    def on_dumps(_args, result):
        stats["engine.canonical_dumps.bytes"] += len(result)

    hooks = {
        "engine.sync": on_sync,
        "priority.select_highest": on_select,
        "engine.canonical_dumps": on_dumps,
    }
    saved = []
    try:
        for name, sites in TIMED:
            for module, attr in sites:
                owner = getattr(mods, module)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.timed(name, original, hooks.get(name)))
        for name, sites in COUNTED:
            for module, attr in sites:
                owner = getattr(mods, module)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.counted(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
