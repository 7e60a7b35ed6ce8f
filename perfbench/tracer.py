"""Per-layer call tracer for the probemax package, installed from outside it.

The layers are the modules under ``src/probemax``.  Every public function
defined in a layer module becomes a span: the wrapper records its start and
end, the span that called it, and its self time (duration minus the time its
child spans cover).  Public methods of the classes defined in
``distributions`` are called millions of times per op, so they are only
counted, never timed.

The package binds names with ``from .minmax import rho`` and similar, so
patching only the defining module would miss most calls.  The tracer
therefore rebinds every attribute of every loaded ``probemax.*`` module that
*is* one of the original function objects, and puts the originals back when
it is deactivated.  A function a later version of the package removes or
renames simply has no metrics; nothing here fails on it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "probemax"
LAYERS = (
    "instance_io", "distributions", "minmax", "gap2", "gap_continuous",
    "policy_eval", "oracles", "cli",
)

# Quantities read off a span's arguments or result:
# span name -> {what: (combine over calls, extract(arguments, result))}.
HOOKS = {
    "minmax.minimize_hmax": {"iterations": (sum, lambda a, r: r.iterations)},
    "gap2.tie_class_at": {"tied_max": (max, lambda a, r: len(r.tied))},
    # alpha in {0, 1}: the calibrated solution fell back to an integral one.
    "gap_continuous.compute_psi_star": {
        "clamped": (sum, lambda a, r: int(r.alpha in (0.0, 1.0))),
    },
    "policy_eval.evaluate": {"entries": (sum, lambda a, r: len(a["policy"].entries))},
    "policy_eval.simulate": {"trials": (sum, lambda a, r: a["trials"])},
    "oracles.static_optimum_enum": {
        "subsets": (sum, lambda a, r: math.comb(a["inst"].n, a["inst"].k)),
    },
}


class Tracer:
    """Spans and counts for the calls made while the tracer is active."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, self_s)
        self.counts: Counter = Counter()
        self.extras: dict[tuple[str, str], list] = defaultdict(list)
        self.op = ""  # label stored with each span, so one op's spans share it
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._span_names: list[str] = []
        self._count_names: list[str] = []
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        patches = []
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    self._span_names.append(name)
                    wrapped[id(obj)] = (obj, self._spanned(name, obj))
                elif (layer == "distributions" and isinstance(obj, type)
                      and obj.__module__ == mod.__name__):
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            name = f"distributions.{meth}"
                            if name not in self._count_names:
                                self._count_names.append(name)
                            patches.append((obj, meth, fn, self._counted(name, fn)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))
        return patches

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn):
        hooks = HOOKS.get(name, {})
        signature = inspect.signature(fn) if hooks else None
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, self.op, name, start, end,
                              end - start - frame[1]))
            if hooks:
                self._record_hooks(name, hooks, signature, args, kwargs, result)
            return result

        return wrapper

    def _record_hooks(self, name, hooks, signature, args, kwargs, result) -> None:
        try:
            arguments = signature.bind(*args, **kwargs).arguments
        except TypeError:
            return
        for what, (_, extract) in hooks.items():
            try:
                self.extras[(name, what)].append(extract(arguments, result))
            except (AttributeError, KeyError, TypeError):
                pass  # signature or result changed: this metric goes absent

    @contextmanager
    def active(self, op: str = ""):
        """Route calls through the wrappers for the duration of the block."""
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def inclusive_s(self, name: str) -> float:
        """Total duration of the spans of one function, children included."""
        return sum(end - start for _, _, _, n, start, end, _ in self.spans if n == name)

    def summary(self) -> dict[str, float]:
        """``<module>.<function>.<what>`` -> value, zero for functions never called."""
        out: dict[str, float] = {}
        for name in self._span_names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for _, _, _, name, _, _, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
        for name in self._count_names:
            out[f"{name}.calls"] = self.counts[name]
        for name, hooks in HOOKS.items():
            for what, (combine, _) in hooks.items():
                values = self.extras.get((name, what))
                if values:
                    out[f"{name}.{what}"] = combine(values)
                elif name in self._span_names and not out[f"{name}.calls"]:
                    out[f"{name}.{what}"] = 0
        return out

    def write_spans(self, handle, pass_no: int) -> None:
        """One JSON line per span, tagged with the traced pass it belongs to."""
        for span_id, parent, op, name, start, end, self_s in self.spans:
            handle.write(json.dumps({
                "pass": pass_no, "id": span_id, "parent": parent, "op": op, "name": name,
                "start": start, "end": end, "self_s": self_s,
            }) + "\n")
