"""In-memory spans and counts around the public functions of each module.

The benchmark's own wrappers replace every public function of the layer
modules, in the defining module and under every name another cycleflow
module bound to it with `from .x import y` (the CLI calls most of them that
way).  Nothing in the package changes; `uninstall` puts the originals back.

A span is (layer, name, start, end, parent, command).  A layer's self time is
the duration of its spans minus the part their direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("graph", "cycles", "lifted", "commgraph", "clustering", "modularity")
ALL_LAYERS = LAYERS + ("cli",)
# Called once per closed cycle inside the decomposers: a span per call would
# cost more than the call and swamp the trace, so their time stays with the caller.
UNWRAPPED = {"canonical_cycle", "reverse_cycle"}


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    command: str = ""


def _span_name(name, args, kwargs):
    # maximize runs twice per pass with different objectives and costs
    if name == "maximize":
        return f"maximize_{args[0] if args else kwargs['objective']}"
    return name


def _count(counts, name, args, kwargs, result):
    """Work counts recorded at the layer boundary, from arguments and results."""
    if name == "simulate":
        counts["graph.steps"] += int(args[2] if len(args) > 2 else kwargs["length"])
    elif name in ("sample_decomposition", "iterative_decomposition"):
        counts["cycles.decompositions_built"] += 1
        counts["cycles.n_cycles"] = len(result.weights)
        if name == "sample_decomposition":
            counts["cycles.steps"] += int(result.T)
    elif name == "node_to_cycle_matrix":
        counts["lifted.node_to_cycle_calls"] += 1
        counts["lifted.b_bytes_computed"] += result.shape[0] * result.shape[1] * 8
    elif name == "communication_graph":
        counts["commgraph.intensity_nnz"] = int(np.count_nonzero(result.intensity))
    elif name == "find_cores":
        counts["clustering.m"] = result.m
        counts["clustering.transition_size"] = len(result.transition)
    elif name == "maximize":
        objective = args[0] if args else kwargs["objective"]
        counts[f"modularity.merges_{objective}"] = len(result[2])


class Tracer:
    """Records spans and counts while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._command = ""
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    def begin(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, name, time.perf_counter(), parent=parent,
                               command=self._command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, name: str):
        """Span for one CLI command; every span inside it carries its name."""
        self._command = name
        idx = self.begin("cli", f"command:{name}")
        try:
            yield
        finally:
            self.end(idx)
            self._command = ""

    def _wrap(self, layer: str, fn, name: str | None = None):
        name = name or fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(layer, _span_name(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            _count(self.counts, name, args, kwargs, result)
            return result

        return traced

    # ---------------------------------------------------------- patching
    def install(self) -> None:
        import cycleflow.cli as cli

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cycleflow.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and attr not in UNWRAPPED):
                    wrappers[fn] = self._wrap(layer, fn)
        wrappers[cli._load_pipeline] = self._wrap("cli", cli._load_pipeline, "load_pipeline")
        modules = [importlib.import_module("cycleflow")]
        modules += [importlib.import_module(f"cycleflow.{m}") for m in ALL_LAYERS]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # ----------------------------------------------------------- summary
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (summed over the pass) and counts, by metric name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for layer in ALL_LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            out[f"{s.layer}.self_s"] += dur - child[i]
            if not s.name.startswith("command:"):
                out[f"{s.layer}.{s.name}_s"] += dur
        out.update(self.counts)
        return dict(out)

    def command_breakdown(self) -> dict[str, dict[str, float]]:
        """Per command: its duration ("total") and each function's summed time."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            key = "total" if s.name.startswith("command:") else f"{s.layer}.{s.name}"
            out[s.command][key] += s.end - s.start
        return {cmd: dict(d) for cmd, d in out.items()}
