"""Span tracing of torusdep layers from outside the package.

The tracer replaces each layer named in ``layers.json`` by a wrapper that
records a span (name, parent, operation, start, end) in flat arrays. A
function is replaced on its own module and on every ``torusdep`` module
that imported it by name (``explorer`` calls ``relation_lattice`` through
its own global, for instance); a method is replaced on its class. Spans
stay in memory until :meth:`Tracer.write`. Self time is a span's duration
minus the durations of its direct children; calls are single-threaded,
so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

LAYERS_FILE = Path(__file__).with_name("layers.json")


def load_layers() -> dict:
    return json.loads(LAYERS_FILE.read_text())


def per_layer_names() -> List[str]:
    """Every per-layer metric the traced run reports, in report order."""
    spec = load_layers()
    names = []
    for layer in spec["layers"]:
        names += [layer["name"] + ".calls", layer["name"] + ".self_s"]
    return names + [d["name"] for d in spec["derived"]]


class Tracer:
    def __init__(self):
        spec = load_layers()
        self.layer_names = [layer["name"] for layer in spec["layers"]]
        self._targets = [(layer["module"], layer["attr"]) for layer in spec["layers"]]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1  # operation index, set by the runner before each call
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        self._hooks: Dict[str, Callable] = {
            "multdep.factor_rational": self._on_factor_rational,
            "explorer.scan_dependent": self._on_scan,
        }
        self.passes = 0
        self.factor_calls = 0
        self.factor_repeats = 0
        self._factor_seen: set = set()
        self.scan_dependent = 0
        self.scan_exceptional = 0

    # -- counters measured where the work happens -------------------------

    def _on_factor_rational(self, args, kwargs, result):
        x = args[0] if args else kwargs["x"]
        self.factor_calls += 1
        if x in self._factor_seen:
            self.factor_repeats += 1
        else:
            self._factor_seen.add(x)

    def _on_scan(self, args, kwargs, result):
        self.scan_dependent += len(result)
        self.scan_exceptional += sum(1 for r in result if r.fiber_character is None)

    # -- patching ---------------------------------------------------------

    def _wrap(self, nid: int, fn: Callable, hook: Optional[Callable]) -> Callable:
        name_a, parent_a, op_a = self.span_name, self.span_parent, self.span_op
        start_a, end_a, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            op_a.append(tracer.op)
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every layer; :meth:`uninstall` restores the originals."""
        self._factor_seen = set()  # repeats are counted within one pass
        self.passes += 1
        for nid, (modname, attr) in enumerate(self._targets):
            module = importlib.import_module(modname)
            hook = self._hooks.get(self.layer_names[nid])
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(nid, raw.__func__, hook))
                else:
                    new = self._wrap(nid, raw, hook)
                setattr(cls, meth, new)
                self._undo.append(functools.partial(setattr, cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(nid, original, hook)
            holders = [module] + [
                m
                for name, m in list(sys.modules.items())
                if (name == "torusdep" or name.startswith("torusdep.")) and m is not module
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append(functools.partial(setattr, holder, key, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------

    def per_layer(self) -> Dict[str, float]:
        """Calls and self seconds per traced pass for every layer, plus
        the derived counters and ratios."""
        n = len(self.span_start)
        child = [0.0] * n
        parent, start, end, name = self.span_parent, self.span_start, self.span_end, self.span_name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.layer_names)
        self_s = [0.0] * len(self.layer_names)
        # parameters the scan tested: relation_lattice calls made under
        # scan_dependent (a parent span always precedes its children)
        scan_id = self.layer_names.index("explorer.scan_dependent")
        lattice_id = self.layer_names.index("multdep.relation_lattice")
        in_scan = [False] * n
        scan_params = 0
        for i in range(n):
            calls[name[i]] += 1
            self_s[name[i]] += end[i] - start[i] - child[i]
            p = parent[i]
            in_scan[i] = p >= 0 and (name[p] == scan_id or in_scan[p])
            if in_scan[i] and name[i] == lattice_id:
                scan_params += 1
        passes = max(self.passes, 1)
        out: Dict[str, float] = {}
        for nid, layer in enumerate(self.layer_names):
            out[layer + ".calls"] = calls[nid] / passes
            out[layer + ".self_s"] = self_s[nid] / passes
        out["multdep.factor_rational.repeat_frac"] = (
            self.factor_repeats / self.factor_calls if self.factor_calls else 0.0
        )
        out["explorer.scan.params"] = scan_params / passes
        out["explorer.scan.dependent"] = self.scan_dependent / passes
        out["explorer.scan.exceptional"] = self.scan_exceptional / passes
        out["explorer.scan.dependent_frac"] = (
            self.scan_dependent / scan_params if scan_params else 0.0
        )
        return out

    def write(self, stem: Path):
        """Write the spans as ``<stem>.json`` (names, layout, count) and
        ``<stem>.bin`` (the five arrays, back to back, native byte order)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = [self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end]
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        header = {
            "names": self.layer_names,
            "count": len(self.span_start),
            "arrays": [
                {"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
                for f, a in zip(("name", "parent", "op", "start_s", "end_s"), arrays)
            ],
            "byteorder": sys.byteorder,
            "passes": self.passes,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
