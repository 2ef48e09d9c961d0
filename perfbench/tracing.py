"""Spans recorded from outside the program, by wrapping its layer functions.

``Tracer.install`` replaces every binding of each wrapped function in every
loaded ``fanfree`` module (``from .crossings import compute_crossings``
leaves a second binding in the importing module, and patching only the
defining module would miss those calls).  ``uninstall`` puts the originals
back.  Spans stay in memory; a layer's self time is its span's duration
minus the durations of its child spans (calls nest on one thread, so the
children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# The entry points of each timed layer.  Inner predicates (``orient``,
# ``homogenize``, ``strictly_between``) run millions of times per audit and
# are left out: wrapping them would measure the wrapper, not the layer.
LAYERS = {
    "model": ("from_json_dict", "validate_graph", "validate_crossings"),
    "crossings": (
        "validate_simplicity",
        "compute_crossings",
        "find_k_fans",
        "crossings_of",
        "is_k_fan_free",
    ),
    "decompose": (
        "audit",
        "audit_abstract",
        "maximal_plane_subgraph",
        "trace_faces",
        "arrowize",
        "component_count",
    ),
    "constructions": (
        "gen_straight_extremal",
        "gen_grid",
        "gen_quad_extremal",
        "gen_kq_subdivision",
        "gen_tri_plus_dual",
    ),
    "star": ("max_arrows", "verify_base_cases"),
}


class Tracer:
    """Span recorder: (name, parent index, start, end) per call."""

    def __init__(self):
        self.spans: list[tuple[str, int | None, float, float] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, parent, t0, t1)

    def _wrap(self, name, fn):
        if name == "crossings.compute_crossings":

            @functools.wraps(fn)
            def traced(d):
                rel = self.call(name, fn, d)
                m = len(d.graph.edges)
                self.counts["crossings.edge_pairs"] += m * (m - 1) // 2
                self.counts["crossings.pairs_found"] += len(rel.pairs)
                return rel

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self):
        wrapped = {}
        for layer, names in LAYERS.items():
            mod = sys.modules[f"fanfree.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrapped[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "fanfree" or key.startswith("fanfree.")
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched = []

    def _self_durations(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _name, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [t1 - t0 - child[sid] for sid, (_n, _p, t0, t1) in enumerate(self.spans)]

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Total self time and call count per span name."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, _p, _t0, _t1), own in zip(self.spans, self._self_durations()):
            out[name][0] += own
            out[name][1] += 1
        return {name: (s, calls) for name, (s, calls) in out.items()}

    def child_self_time(self, parent_name: str, name: str) -> float:
        """Self time of the spans called ``name`` directly under the spans
        called ``parent_name``."""
        total = 0.0
        for (n, parent, _t0, _t1), own in zip(self.spans, self._self_durations()):
            if n == name and parent is not None and self.spans[parent][0] == parent_name:
                total += own
        return total

    def write(self, path):
        """One JSON object per span, start and end relative to the first."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_s": t0 - origin,
                            "end_s": t1 - origin,
                        }
                    )
                )
                fh.write("\n")
