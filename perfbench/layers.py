"""Layer spans for the traced run: wrappers, recorder and self-time arithmetic.

The traced run times every call into each layer's public entry points from
outside the program: class methods are patched on their class, module
functions are patched in every ``repro`` module that has them bound (so
``from repro.flink.iterators import apply_map`` sites are covered too), and
generator entry points (``Exchange.run``, ``Network.transfer``,
``HDFS.read_block``, ...) get one span per resume, since their work runs
each time the simulation steps them.

A span is (layer, start, end, parent).  A layer's self time is the span's
duration minus the time its child spans cover.  A call from a layer into
itself opens no span and is not counted, so spans and call counts mark
layer boundaries only.

``simclock`` spans wrap ``Environment.step``.  Its self time is the step
time no other layer's span covers, which includes the code of simulation
processes (workload drivers, GPU stream loops, chaos injector) outside the
wrapped entry points, not only event-heap work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Pseudo-layer of the root span: the benchmark's own code and the
#: simulator's run loop between steps.
OTHER = "other"

#: Layer -> modules whose public functions and class methods it owns.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "simclock": ("repro.common.simclock",),
    "iterators": ("repro.flink.iterators",),
    "shuffle": ("repro.flink.shuffle",),
    "columnar": ("repro.flink.columnar",),
    "network": ("repro.common.network",),
    "resources": ("repro.common.resources",),
    "hdfs": ("repro.hdfs.filesystem", "repro.hdfs.datanode",
             "repro.hdfs.namenode"),
    "executor": ("repro.flink.jobmanager", "repro.flink.pipeline"),
    "gpu": ("repro.core.channels", "repro.gpu.runtime", "repro.core.gstream"),
    "gmemory": ("repro.core.gmemory",),
    "obs": ("repro.obs.trace", "repro.obs.metrics", "repro.obs.monitor",
            "repro.obs.flightrecorder", "repro.obs.profile",
            "repro.obs.export", "repro.obs.anomaly"),
}

#: The only simclock entry point: one span per processed event.  The event
#: objects' own methods (succeed, fail, ...) run inside other layers' code
#: and would only add spans.
SIMCLOCK_ENTRY = "Environment.step"

#: Private methods that are nonetheless a layer's public protocol: the
#: context-manager half of ``Tracer.span``.
EXTRA_ENTRIES = {"repro.obs.trace": {"_Span": ("__enter__", "__exit__")}}


class SpanRecorder:
    """In-memory span store with a stack of open spans.

    Columns are flat typed arrays (24 bytes a span) so a run with a million
    spans stays small; :meth:`dump` writes them out once at the end.
    """

    def __init__(self, layers: Sequence[str]):
        self.layers: List[str] = list(layers)
        self.entries: List[str] = []
        self.entry_layer: List[int] = []
        self.calls: List[int] = []
        self._istack = [-1]
        #: Layer of the innermost open span (-1 at top level).  Wrappers
        #: hold this list, so it is only ever changed in place.
        self.current = [-1]
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and call counts; no span may be open."""
        if self._istack != [-1]:
            raise RuntimeError("reset() with spans still open")
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls[:] = [0] * len(self.entries)

    def entry(self, name: str, layer: str) -> int:
        """Register an entry point; returns its call-counter index."""
        self.entries.append(name)
        self.entry_layer.append(self.layers.index(layer))
        self.calls.append(0)
        return len(self.entries) - 1

    def open(self, lid: int) -> int:
        i = len(self.start)
        self.layer.append(lid)
        self.parent.append(self._istack[-1])
        self._istack.append(i)
        self.current.append(lid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._istack.pop()
        self.current.pop()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {"layer": np.frombuffer(self.layer, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def dump(self, path) -> None:
        """Write every span and the layer names to ``path`` (.npz)."""
        np.savez_compressed(path, layers=np.array(self.layers),
                            **self.arrays())

    def calls_by_entry(self) -> Dict[str, int]:
        return dict(zip(self.entries, self.calls))


def self_times(layer: np.ndarray, parent: np.ndarray, start: np.ndarray,
               end: np.ndarray, n_layers: int) -> np.ndarray:
    """Per-layer self time: each span's duration minus its children's.

    ``parent`` holds the index of the enclosing span, or -1 for a root.
    Children lie inside their parent, so the self times of a tree sum to
    its root's duration.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return np.bincount(layer, weights=dur - child, minlength=n_layers)


# -- wrappers ----------------------------------------------------------------
def _wrap_call(fn: Callable, lid: int, eid: int, rec: SpanRecorder):
    current = rec.current

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if current[-1] == lid:
            return fn(*args, **kwargs)
        rec.calls[eid] += 1
        i = rec.open(lid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
    return wrapper


def _resumes(gen, lid: int, rec: SpanRecorder):
    """Drive ``gen`` as ``yield from`` would, one span per resume."""
    current = rec.current
    value, exc = None, None
    while True:
        i = -1 if current[-1] == lid else rec.open(lid)
        try:
            out = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            if i >= 0:
                rec.close(i)
        try:
            value, exc = (yield out), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # re-raised into gen on resume
            value, exc = None, thrown


def _wrap_generator(fn: Callable, lid: int, eid: int, rec: SpanRecorder):
    current = rec.current

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if current[-1] != lid:
            rec.calls[eid] += 1
        gen = fn(*args, **kwargs)
        timed = _resumes(gen, lid, rec)
        # Processes are named after their generator.
        timed.__name__ = gen.__name__
        timed.__qualname__ = gen.__qualname__
        return timed
    return wrapper


def _wrap(fn: Callable, lid: int, eid: int, rec: SpanRecorder):
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(fn, lid, eid, rec)
    return _wrap_call(fn, lid, eid, rec)


class LayerPatch:
    """Installs the wrappers for the chosen layers; :meth:`remove` undoes it.

    Use as a context manager around cluster construction and the run, so
    that bound methods captured at construction are the wrapped ones.
    """

    def __init__(self, rec: SpanRecorder, layers: Sequence[str]):
        self.rec = rec
        self.layers = list(layers)
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "LayerPatch":
        rec = self.rec
        functions: Dict[Callable, Callable] = {}
        for layer in self.layers:
            lid = rec.layers.index(layer)
            for modname in LAYERS[layer]:
                module = importlib.import_module(modname)
                for qualname, owner, name, raw in _entry_points(module,
                                                                layer):
                    method = isinstance(raw, (staticmethod, classmethod))
                    fn = raw.__func__ if method else raw
                    wrapped = _wrap(fn, lid, rec.entry(qualname, layer), rec)
                    if owner is module:
                        functions[fn] = wrapped
                    else:
                        self._set(owner, name,
                                  type(raw)(wrapped) if method else wrapped)
        # Module functions: patch every binding, including by-name imports.
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro") or module is None:
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in functions:
                    self._set(module, name, functions[value])
        return self

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def __enter__(self) -> "LayerPatch":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def _entry_points(module, layer: str):
    """(qualname, owner, attribute name, raw attribute) of each entry."""
    modname = module.__name__
    extra = EXTRA_ENTRIES.get(modname, {})
    for name, value in sorted(vars(module).items()):
        if not inspect.isclass(value) or value.__module__ != modname:
            continue
        if name.startswith("_") and name not in extra:
            continue
        for attr, raw in sorted(vars(value).items()):
            qualname = f"{name}.{attr}"
            if layer == "simclock" and qualname != SIMCLOCK_ENTRY:
                continue
            public = not attr.startswith("_") and not name.startswith("_")
            if not (public or attr in extra.get(name, ())):
                continue
            if inspect.isfunction(getattr(raw, "__func__", raw)):
                yield qualname, value, attr, raw
    if layer == "simclock":
        return
    for name, value in sorted(vars(module).items()):
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == modname):
            yield name, module, name, value
