"""Spans around calls into sheafmod's public functions, recorded from the
benchmark's own code: no file under ``src/`` is edited.

``Tracer.install`` rebinds each traced function in every ``sheafmod`` module
that holds it (methods are replaced on their class), and ``uninstall`` puts
the originals back.  A span records its layer name, start, end, parent span
and the item it belongs to; spans stay in compact arrays until ``write``.
A layer's self time is the span's duration minus the time of the traced
spans directly inside it.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

from sheafmod import bundles, cli, goldens, polymatrix, regions, registry, stability

# (module, function names, layer)
FUNCTIONS = [
    (regions, ("solve_halfplanes",), "regions.solve"),
    (regions, ("admissible_region",), "regions.admissible"),
    (regions, ("classify_shapes", "enumerate_shapes"), "regions.classify"),
    (bundles, ("parse_resolution_spec",), "bundles.parse"),
    (goldens, ("expected_codim", "expected_region", "expected_region_vertices"), "goldens"),
    (cli, ("main",), "cli"),
    (polymatrix, ("poly_gcd", "poly_gcd_list"), "polymatrix.gcd"),
    (polymatrix, ("determinant", "maximal_minors"), "polymatrix.minors"),
    (polymatrix, ("kernel_line",), "polymatrix.kernel_line"),
    (polymatrix, ("linearly_independent",), "polymatrix.linind"),
    (stability, ("search_destabilizer",), "stability.search"),
    (stability, ("verify_witness",), "stability.verify"),
    (stability, ("check_case",), "stability.flags"),
    (stability, ("koszul_test",), "stability.koszul"),
]

# (class, method names, layer)
METHODS = [
    (registry.CaseSpec, ("region", "codim", "resolution", "sample_polarization"), "registry"),
    (
        polymatrix.HomogeneousPoly,
        ("__add__", "__sub__", "__mul__", "__neg__", "scale", "divexact"),
        "polymatrix.form_ops",
    ),
]

# counted, not timed: called about a million times per verdicts cycle
COUNTED = [(polymatrix.HomogeneousPoly, "as_dict", "polymatrix.as_dict")]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.active = False
        self.item = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self._restore: list[tuple[object, str, object]] = []
        self.observers: dict[str, Callable] = {}
        self.t0 = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> list:
        idx = len(self.span_start)
        now = time.perf_counter()
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_start.append(now)
        self.span_end.append(now)
        frame = [idx, now, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str) -> float:
        now = time.perf_counter()
        self._stack.pop()
        idx, start, child = frame
        dur = now - start
        self.span_end[idx] = now
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def span(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a root span of the given name."""
        nid = self._id(name)
        frame = self._enter(nid)
        try:
            return fn(*args)
        finally:
            self._exit(frame, name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(frame, name)
            observe = tracer.observers.get(name)
            if observe is not None:
                observe(fn, args, kwargs, out, dur)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "sheafmod"]
        for mod, names, layer in FUNCTIONS:
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._wrap(layer, orig)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._rebind(m, attr, wrapped)
        for cls, names, layer in METHODS:
            for mname in names:
                self._rebind(cls, mname, self._wrap(layer, cls.__dict__[mname]))
        for cls, mname, layer in COUNTED:
            self._rebind(cls, mname, self._count(layer, cls.__dict__[mname]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\titem\tname\tstart_s\tend_s\n")
            names, t0 = self.names, self.t0
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_item[i]}\t"
                    f"{names[self.span_name[i]]}\t{self.span_start[i] - t0:.9f}\t"
                    f"{self.span_end[i] - t0:.9f}\n"
                )
        return len(self.span_start)
