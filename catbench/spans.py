"""Span recorder for the traced run.

Wraps the public functions of catlogic's layers from the outside: every
module attribute under `catlogic.*` bound to a traced function is replaced by
a wrapper for the traced phase and restored afterwards. That covers modules
that import a function by name (brain binds `check_adjunction` and `lang`, cli
binds `parse_file`) as well as modules that reach `_core` through the module
attribute.

Each span keeps name, start, end, parent span and item id in memory; `dump`
writes them out once the run ends. Self time (a span's duration minus the
time its child spans cover) is accumulated as spans close.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# layer module -> public functions timed as spans
TRACED = {
    "_core": ["search_tables", "scan_tables", "reduce_word", "hom_image_table", "check_hom_table"],
    "dsl": ["parse_file"],
    "kernel": ["check_well_formed"],
    "boolalg": ["lindenbaum_algebra", "enumerate_homs"],
    "stone": ["stone_space", "double_dual_iso"],
    "syncat": ["normalize", "detect_group_presentation", "check_category_laws", "syn_prop", "syn_eq"],
    "models": ["enumerate_models", "homs_equal_nat_trans"],
    "adjunction": ["check_adjunction", "transpose", "lang", "canonical_iso"],
    "brain": ["load_brain", "audit_adjunction", "mind_of_brain", "propagate"],
    "cli": ["main"],
}


def _hooks(counters: dict, theories: set):
    """Counters read off the public surface of a traced call: its arguments
    or its result, keyed by span name."""

    def add(name, value):
        counters[name] = counters.get(name, 0) + value

    def check_adjunction(args, kwargs, report):
        add("adjunction.left", report.left_count)
        add("adjunction.naturality.checked", report.naturality_checked)
        add("adjunction.naturality.total", report.naturality_total)

    def propagate(args, kwargs, trace):
        add("brain.propagate.steps", len(trace.steps))

    return {
        "core.reduce_word": lambda args, kwargs, out: add("core.reduce_word.letters", len(args[0])),
        "core.hom_image_table": lambda args, kwargs, out: add("core.hom_image_table.cells", 1 << args[1]),
        "models.enumerate_models": lambda args, kwargs, out: add("models.models_found", len(out)),
        "syncat.detect_group_presentation": lambda args, kwargs, out: theories.add(args[0].name),
        "adjunction.check_adjunction": check_adjunction,
        "brain.propagate": propagate,
    }


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.item = -1
        self.paused = False  # set while the harness checks a result
        self.hook_errors = 0
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counters: dict[str, float] = {}
        self.theories: set[str] = set()
        self.hooks = _hooks(self.counters, self.theories)
        self._stack: list[list] = []  # [span index, seconds covered by children]
        # one entry per span in start order; a span's id is its index
        self._span_name = array("H")
        self._span_parent = array("i")
        self._span_item = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.self_s.append(0.0)
        self.calls.append(0)
        hook = self.hooks.get(name)
        clock = time.perf_counter
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        names, parents, items = self._span_name, self._span_parent, self._span_item
        starts, ends = self._span_start, self._span_end

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                ends[sid] = t1
            if hook is not None:
                try:
                    hook(args, kwargs, out)
                except (LookupError, AttributeError, TypeError):
                    # a changed signature loses the counter, not the request
                    self.hook_errors += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "catlogic" or n.startswith("catlogic.")]
        for layer, functions in TRACED.items():
            home = sys.modules[f"catlogic.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                # metric names start with a letter: catlogic._core reports as core
                wrapper = self._wrap(f"{layer.lstrip('_')}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        # BoolHom constructions are counted, not timed
        from catlogic.boolalg import BoolHom

        post_init = BoolHom.__post_init__
        counters = self.counters

        def counted(hom):
            counters["boolalg.BoolHom.built"] = counters.get("boolalg.BoolHom.built", 0) + 1
            post_init(hom)

        self._patched.append((BoolHom, "__post_init__", post_init))
        BoolHom.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        return {n: (self.self_s[i], self.calls[i]) for i, n in enumerate(self.names)}

    def span_count(self) -> int:
        return len(self._span_name)

    def dump(self, path) -> None:
        """One JSON header line, then the span columns as raw arrays; span i
        is entry i of every column, and `parent` holds a span index or -1."""
        columns = {
            "name": self._span_name,
            "parent": self._span_parent,
            "item": self._span_item,
            "start": self._span_start,
            "end": self._span_end,
        }
        header = {
            "names": self.names,
            "count": self.span_count(),
            "columns": [[k, c.typecode, c.itemsize] for k, c in columns.items()],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in columns.values():
                column.tofile(fh)
