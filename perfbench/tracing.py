"""Spans recorded around the calls into each layer of the oracle.

The hooks wrap module-level names that ``setrep.oracle`` (and, for
``classify``, ``setrep.theorems``) looks up at call time, so no file of the
package changes.  A hooked name that no longer exists is reported as a
missing layer instead of failing the run.

A span is ``(id, name, start, end, parent, call)``: ``parent`` is the id of
the span that was open when it started (``-1`` for a public call), and
``call`` is the index of the public call it belongs to.  Spans stay in
memory and are written out by the runner when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

# (module, attribute path, layer).  Every hook is optional: a name that is
# gone is reported as a missing layer.
HOOKS = (
    ("setrep.oracle", "enumerate_edge_partitions", "partitions.kernel"),
    ("setrep.oracle", "canonical_form", "representations.canonical_form"),
    ("setrep.oracle", "automorphisms", "oracle.symmetry"),
    ("setrep.oracle", "_symmetry_keyer", "oracle.symmetry"),
    ("setrep.oracle", "_solutions_at_level", "oracle.padding"),
    ("setrep.oracle", "_ClassKeyer.key", "oracle.keying"),
    ("setrep.theorems", "classify", "classify"),
)
# Counted, not spanned: it runs many thousand times per canonical form.
COUNTED = (("setrep.representations", "_refine", "representations.refine"),)

# The layer that the self time of each public call is charged to.
CALL_LAYERS = {
    "oracle_search": "oracle.self",
    "verify_dbe": "oracle.self",
    "classify": "classify",
    "theta_tau_complete": "theorems",
    "theta_tau_linegraph": "theorems",
    "witness_sd": "theorems",
    "witness_sa": "theorems",
}


class Tracer:
    """Keeps the spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._call = -1
        self._restore: list[tuple[object, str, object]] = []
        self._keys: dict[tuple[int, int], set] = defaultdict(set)

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (sid, name, start, end, parent, self._call)

    def call(self, index: int, api: str, fn, *args):
        """Run one public call as a root span."""
        self._call = index
        sid, start = self._open()
        try:
            return fn(*args)
        finally:
            self._close(sid, api, start)

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        for module, path, layer in HOOKS + COUNTED:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            if (module, path, layer) in COUNTED:
                wrapper = self._counted(original, layer)
            elif inspect.isgeneratorfunction(original):
                wrapper = self._generator(original, path, layer)
            else:
                wrapper = self._spanned(original, path, layer)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _counted(self, original, layer):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer + ".calls"] += 1
            return original(*args, **kwargs)
        return wrapper

    def _spanned(self, original, name, layer):
        tracer = self

        def wrapper(*args, **kwargs):
            sid, start = tracer._open()
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close(sid, name, start)
            tracer._tally(layer, args, out)
            return out
        return wrapper

    def _generator(self, original, name, layer):
        """Spans cover the time spent inside each ``next()``."""
        tracer = self
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            counter = bound.arguments.get("counter")
            before = counter.get("nodes", 0) if isinstance(counter, dict) else 0
            it = original(*args, **kwargs)
            kept = 0
            try:
                while True:
                    sid, start = tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid, name, start)
                    kept += 1
                    yield item
            finally:
                tracer.counts[layer + ".kept"] += kept
                if isinstance(counter, dict):
                    tracer.counts[layer + ".tried"] += \
                        counter.get("nodes", 0) - before
        return wrapper

    def _tally(self, layer, args, out) -> None:
        counts = self.counts
        if layer == "partitions.kernel" and isinstance(out, tuple) \
                and len(out) == 3:
            counts["partitions.kernel.calls"] += 1
            counts["partitions.kernel.nodes"] += out[1]
            counts["partitions.kernel.partitions"] += len(out[0])
        elif layer == "representations.canonical_form":
            counts["representations.canonical_form.calls"] += 1
        elif layer == "oracle.symmetry" and isinstance(out, list):
            counts["oracle.symmetry.perms"] += len(out)
        elif layer == "oracle.keying":
            counts["oracle.keying.keys"] += 1
            self._keys[(self._call, id(args[0]))].add(out)

    # -- summary -----------------------------------------------------------

    def _self_spans(self):
        """(layer, call, seconds) per span: its duration minus its children's."""
        layer_of = {path: layer for _m, path, layer in HOOKS}
        layer_of.update(CALL_LAYERS)
        child = defaultdict(float)
        for _sid, _name, start, end, parent, _call in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, name, start, end, _parent, call in self.spans:
            yield layer_of.get(name, "other"), call, end - start - child[sid]

    def layer_metrics(self) -> dict[str, float]:
        counts = dict(self.counts)
        counts["oracle.keying.classes"] = sum(len(k) for k in self._keys.values())
        tried = counts.get("oracle.padding.tried", 0)
        counts["oracle.padding.kept_ratio"] = (
            counts.get("oracle.padding.kept", 0) / tried if tried else 0.0)
        for layer, _call, seconds in self._self_spans():
            counts[layer + ".s"] = counts.get(layer + ".s", 0.0) + seconds
        return counts

    def by_call(self, names: list[str]) -> dict[str, dict[str, float]]:
        """Layer self times for each public call, keyed by its name."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for layer, call, seconds in self._self_spans():
            out[names[call]][layer + ".s"] += seconds
        return {api: dict(row) for api, row in out.items()}
