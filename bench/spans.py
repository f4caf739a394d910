"""Per-layer timing taken from outside the program.

The program has no timers of its own, so the traced run replaces module-level
names that the program looks up at call time (for example
``symkge.training.sample_negatives``) with timing wrappers, and puts the
originals back afterwards. Nothing under ``src/`` is edited.

Spans nest: a wrapper called while another is running is that span's child,
and a span's self time is its duration minus the time of its children.
Spans are aggregated by name in memory (calls, inclusive time, child time),
because the finest ones run thousands of times per batch.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Iterator

import symkge.graph
import symkge.losses
import symkge.training

# (module, attribute path, span name). Several attributes may share a span
# name. Paths are looked up when tracing starts; one the program no longer
# defines is listed in Tracer.missing, and the benchmark counts that as a
# failed operation, since its time would otherwise land unnoticed in the
# caller's self time.
TARGETS = (
    (symkge.graph, "read_triple_file", "graph.read"),
    (symkge.graph, "intern_graph", "graph.intern"),
    (symkge.graph, "_extend_vocab", "graph.intern"),
    (symkge.graph, "_to_id_triples", "graph.intern"),
    (symkge.training, "sample_negatives", "training.sample_negatives"),
    (symkge.training, "combined_gradients", "losses.combined_gradients"),
    (symkge.losses, "_task_forward_backward", "losses.task_fwd_bwd"),
    (symkge.losses, "_contrastive_forward_backward", "losses.align_fwd_bwd"),
    (symkge.losses, "sample_positives", "mining.sample_positives"),
    (symkge.training, "Adam.step", "training.adam_step"),
)


class Tracer:
    """Aggregated spans: name -> [calls, inclusive seconds, child seconds]."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.missing: list[str] = []  # "module.path" targets the program lacks
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = spans.get(name)
                if entry is None:
                    entry = spans[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += children[0]

        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        _, inclusive, children = self.spans.get(name, (0, 0.0, 0.0))
        return inclusive - children


def _owner(module, path: str):
    """The object that holds the last name of path, or None if any is missing."""
    owner = module
    for name in path.split(".")[:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return owner


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Install wrappers on every target; restore them on exit."""
    tracer = Tracer()
    saved = []
    try:
        for module, path, name in TARGETS:
            owner = _owner(module, path)
            attr = path.rsplit(".", 1)[-1]
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                tracer.missing.append(f"{module.__name__}.{path}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
