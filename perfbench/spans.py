"""In-memory span log and the runtime wrappers that feed it.

A span is one timed call: its name, start, end and the span that was open
when it began (its parent).  Spans of one run share the log's ``run_id``.
They are appended to flat typed arrays while the run executes and only
summarised or written out after it ends, so recording a span costs a few
appends and two clock reads.

Wrappers are installed by :class:`Patcher`, which replaces an attribute of a
module or class and puts the original object back on ``restore``.  A name is
wrapped where it is looked up: a function imported into another module's
namespace is a separate binding there and must be patched there as well.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

_clock = time.perf_counter


class SpanLog:
    """Append-only span store with an explicit stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._open_layer = [""]
        self.counts: Counter = Counter()

    def name_index(self, name: str, layer: str) -> int:
        """Id of ``name``; a name belongs to exactly one layer."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        elif self.layers[nid] != layer:
            raise ValueError(f"span {name!r} already belongs to layer "
                             f"{self.layers[nid]!r}")
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self._open_layer.append(self.layers[nid])
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        if self._open.pop() != i:
            raise RuntimeError("spans closed out of order")
        self._open_layer.pop()

    def arrays(self):
        """(name_id, parent, start, end) as numpy arrays."""
        if len(self._open) != 1:
            raise RuntimeError("spans are still open")
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path: Path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 layers=np.array(self.layers), name_id=name_id, parent=parent,
                 start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and close in stack order, so children never
    overlap one another and lie inside their parent: subtracting their
    summed durations leaves exactly the time the parent spent on its own.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


class SpanSummary:
    """Per-name totals of one span log."""

    def __init__(self, log: SpanLog):
        name_id, parent, start, end = log.arrays()
        n = len(log.names)
        self.names = log.names
        self.layers = log.layers
        self.n_spans = int(name_id.size)
        self_t = self_times(parent, start, end)
        self.calls = np.bincount(name_id, minlength=n)
        self.self_s = np.bincount(name_id, weights=self_t, minlength=n)
        self.total_s = np.bincount(name_id, weights=end - start, minlength=n)
        self.root_s = float(np.sum((end - start)[parent < 0]))
        self._index = {name: i for i, name in enumerate(self.names)}

    def _pick(self, values, names) -> float:
        return float(sum(values[self._index[n]] for n in names if n in self._index))

    def calls_of(self, *names: str) -> int:
        return int(self._pick(self.calls, names))

    def self_of(self, *names: str) -> float:
        return self._pick(self.self_s, names)

    def total_of(self, *names: str) -> float:
        return self._pick(self.total_s, names)

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, s in zip(self.layers, self.self_s):
            out[layer] = out.get(layer, 0.0) + float(s)
        return out

    def names_in(self, layer: str) -> list[str]:
        return [n for n, lay in zip(self.names, self.layers) if lay == layer]


class Patcher:
    """Replaces attributes and restores the originals, last in first out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, owner, attr: str, make_wrapper) -> bool:
        """Set ``owner.attr = make_wrapper(original)``; False if absent.

        The original is read from the owner's own ``__dict__``, so a class
        attribute is restored as the raw function it was, never as a bound
        or inherited one.
        """
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        original = vars(owner)[attr]
        setattr(owner, attr, make_wrapper(original))
        self._saved.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def span_wrapper(log: SpanLog, fn, name: str, layer: str, *,
                 fold: bool = False, after=None):
    """Wrap ``fn`` so each call records one span.

    With ``fold`` a call made while a span of the same layer is open runs
    unrecorded: calls inside a layer are that layer's own work, and only
    the calls that enter it from outside are counted and timed.  ``after``
    receives (args, kwargs, result) once the span is closed.
    """
    nid = log.name_index(name, layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if fold and log._open_layer[-1] == layer:
            return fn(*args, **kwargs)
        i = log.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            log.close(i)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def generator_wrapper(log: SpanLog, fn, name: str, layer: str, *, after=None):
    """Wrap a generator function so that producing each item is one span.

    The consumer's work between items stays outside the spans; ``after``
    receives each item as it is handed on.
    """
    nid = log.name_index(name, layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            i = log.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                log.close(i)
            if after is not None:
                after(item)
            yield item

    return wrapper
