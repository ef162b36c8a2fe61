"""Span tracing of the public ``fgqa`` functions, applied from outside.

A :class:`Tracer` wraps each listed function in every module namespace
that bound it (``from``-imports make copies of the binding, so patching
only the defining module would miss those calls), records one span per
call in memory and restores every binding on exit.  Spans are
``[name, start, end, parent, instance]`` lists: ``parent`` is the index
of the enclosing span (-1 at top level) and ``instance`` the id of the
benchmark operation that was running.  Self time is a span's duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every traced public function; module
# names are relative to the package.
TRACED = (
    ("annealing", "evolve"),
    ("annealing", "apply_hamiltonian"),
    ("annealing", "diagonal_energies"),
    ("annealing", "brute_force_ground_state"),
    ("annealing", "success_probability"),
    ("annealing", "measure"),
    ("annealing", "fg_grid_model"),
    ("cells", "build_network"),
    ("cells", "cell_from_coupling_ratio"),
    ("charging", "reduce_network"),
    ("charging", "ising_parameters"),
    ("charging", "minimize_charge_oracle"),
    ("charging", "parabola_family"),
    ("tunneling", "tunnel_amplitude"),
    ("tunneling", "TunnelBarrier.from_stack"),
    ("tunneling", "classify"),
    ("decoherence", "p_coherent"),
    ("decoherence", "p_incoherent"),
    ("decoherence", "coherence_time"),
    ("cli", "main"),
)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging children never drive a self time below zero.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = stats[span[0]]
        entry["calls"] += 1
        entry["s"] += span[2] - span[1]
        entry["self_s"] += own
    return dict(stats)


class Tracer:
    """Patches the traced functions of ``package`` while active.

    ``on_call`` maps a span name to a hook called with ``counts`` and
    the call's positional and keyword arguments, for counts taken at
    the boundary (such as the step count of an anneal).
    """

    def __init__(self, package: str, targets=TRACED, on_call=None):
        self.package = package
        self.targets = targets
        self.on_call = dict(on_call or {})
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        hook = self.on_call.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer.counts, args, kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.instance]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
        return traced

    def _namespaces(self):
        prefix = self.package + "."
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == self.package or key.startswith(prefix))]

    def __enter__(self) -> "Tracer":
        self.absent = []
        namespaces = self._namespaces()
        for module, attr in self.targets:
            name = f"{module}.{attr}"
            defining = sys.modules.get(f"{self.package}.{module}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(defining, owner_name, None) if owner_name else defining
            if owner is None or method not in vars(owner):
                self.absent.append(name)
                continue
            if owner_name:
                # a classmethod is patched on the class itself, so every
                # reference through the class sees the wrapper
                original = vars(owner)[method]
                self._patch(owner, method, classmethod(self._wrap(name, original.__func__)))
                continue
            original = vars(owner)[method]
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)
        return self

    def _patch(self, obj, key, value) -> None:
        self._restore.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def __exit__(self, *exc) -> None:
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()
        self._stack.clear()
