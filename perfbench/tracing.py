"""Span tracer for the benchmark's traced run.

Wrappers installed from this file time the calls into each layer's
public entry points; nothing inside ``src/repro`` is instrumented and
``repro.obs`` stays off.  A span is (layer name, start, end, parent span,
op or label id).  Spans are kept in flat in-memory arrays while the run
executes and written out once, after the timed region.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children, so the self times of all
layers add up exactly to the duration of the outermost spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Patches", "Tracer"]

_clock = time.perf_counter


class Patches:
    """Attributes replaced on classes or modules, restored on uninstall."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr = new`` until :meth:`uninstall`; an attribute
        *owner* only inherits is deleted again instead of restored."""
        if isinstance(owner, type) and attr not in owner.__dict__:
            self._undo.append((owner, attr, None))
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


class Tracer(Patches):
    """Collects spans from wrapped callables; undo with :meth:`uninstall`."""

    def __init__(self) -> None:
        super().__init__()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.ident: List[Any] = []
        self._stack: List[int] = [-1]

    # -- installing wrappers ------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn: Callable, name: str,
             ident: Optional[Callable[..., Any]] = None) -> Callable:
        """Return *fn* wrapped so each call records one span."""
        nid = self._name_id(name)
        name_of, start, end, parent = (self.name_of, self.start, self.end,
                                       self.parent)
        idents, stack = self.ident, self._stack

        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            idents.append(ident(*args, **kwargs) if ident is not None
                          else None)
            end.append(0.0)
            stack.append(index)
            start.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = _clock()
                stack.pop()

        return traced

    def wrap(self, owner: Any, attr: str, name: str,
             ident: Optional[Callable[..., Any]] = None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        traced version; :meth:`uninstall` restores the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace descriptor {owner}.{attr}")
        self.replace(owner, attr, functools.update_wrapper(
            self.span(original, name, ident), original))

    # -- analysis -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self, within: Optional[str] = None) -> Dict[str, float]:
        """Host seconds per span name, children excluded; with *within*,
        only spans nested in (or being) a span of that name count."""
        n = len(self.start)
        start, end, parent, name_of = (self.start, self.end, self.parent,
                                       self.name_of)
        root = self._name_ids.get(within, -2) if within else -1
        inside = [within is None] * n
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                if inside[p]:
                    inside[i] = True
            if name_of[i] == root:
                inside[i] = True
        out: Dict[str, float] = {}
        names = self.names
        for i in range(n):
            if inside[i]:
                name = names[name_of[i]]
                out[name] = out.get(name, 0.0) + (end[i] - start[i]
                                                  - child[i])
        return out

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        start, end, name_of = self.start, self.end, self.name_of
        return sum(end[i] - start[i] for i in range(len(start))
                   if name_of[i] == nid)

    def count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            return 0
        return sum(1 for i in self.name_of if i == nid)

    def write(self, path) -> None:
        """One tab-separated line per span: index, name, start and end
        (seconds from the first span), parent index (-1 at top), id."""
        if not len(self):
            base = 0.0
        else:
            base = self.start[0]
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tid\n")
            for i in range(len(self.start)):
                ident = self.ident[i]
                out.write(f"{i}\t{names[self.name_of[i]]}\t"
                          f"{self.start[i] - base:.7f}\t"
                          f"{self.end[i] - base:.7f}\t{self.parent[i]}\t"
                          f"{'' if ident is None else ident}\n")
