"""In-memory span tracer for the traced run.

``Tracer.install()`` wraps, from outside, every public function of every
loaded ``qact.*`` module at each place it is bound: the defining module,
every other ``qact`` module that imported the name, and the package
namespace.  Patching ``qact.linalg.det`` alone would miss the copy that
``qact.action`` imported.  Each wrapped call records a span (id, parent id,
name, start, end) in memory; ``write()`` dumps those of the first traced
pass at the end of the run (later passes repeat the same calls).

Scalar and matrix arithmetic runs millions of times per pass, so those
methods get lighter wrappers on the class attributes: they count calls and
time but store no span.  Every wrapper keeps a stack of open frames, so a
layer's self time (its duration minus the time its children cover) is
accumulated as calls return.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Arithmetic wrapped on the class: (module, class, counter key, attribute names).
# Leaf methods call nothing that is wrapped; inner ones do (Mat.__mul__ calls
# Scalar.__mul__), so they keep a frame to separate their own time.  Names
# bound to one function (Scalar.__radd__ = __add__) share one counter.
LEAF_METHODS = (
    ("scalars", "Scalar", "scalars.mul", ("__mul__", "__rmul__")),
    ("scalars", "Scalar", "scalars.add", ("__add__", "__radd__")),
    ("scalars", "Scalar", "scalars.sub", ("__sub__",)),
    ("scalars", "Scalar", "scalars.neg", ("__neg__",)),
    ("scalars", "Scalar", "scalars.inv", ("inv",)),
)
INNER_METHODS = (
    ("linalg", "Mat", "linalg.mat_mul", ("__mul__",)),
    ("linalg", "Mat", "linalg.mat_add", ("__add__",)),
    ("linalg", "Mat", "linalg.mat_sub", ("__sub__",)),
    ("linalg", "Mat", "linalg.mat_scale", ("scale",)),
)


def _record_verdict(counters, verdict) -> None:
    counters["action.witnesses"] += verdict.equivalent
    counters["action.candidates_tried"] += getattr(verdict, "candidates_tried", 0)


def _record_search(counters, found) -> None:
    counters["linalg.invertible_element_in.found"] += found is not None


# Counters read off return values, for layers that can waste work.
RESULT_HOOKS = {
    "action.decide_equivalence": _record_verdict,
    "linalg.invertible_element_in": _record_search,
}


def qact_modules() -> dict[str, object]:
    return {name: mod for name, mod in sys.modules.items() if name == "qact" or name.startswith("qact.")}


def public_functions() -> dict[int, tuple[object, str, str]]:
    """id(function) -> (function, layer name, module) for every public callable."""
    found = {}
    for mod_name, mod in qact_modules().items():
        short = mod_name.partition(".")[2]
        if not short:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod_name:
                found[id(obj)] = (obj, f"{short}.{attr}", short)
    return found


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # this pass: (id, parent id, name, start, end)
        self.kept: list[tuple] = []  # the first pass's spans
        self._next_id = 1
        self._stack: list[list] = [[0, 0.0]]  # open frames [span id, child time]
        self._patched: list[tuple[object, str, object]] = []
        self._methods: dict[str, list] = {}  # arithmetic key -> [calls, self seconds]
        self.reset()

    # -- accounting ----------------------------------------------------------------

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self._depth = defaultdict(int)
        for acc in self._methods.values():
            acc[:] = [0, 0.0]

    def begin_pass(self) -> None:
        self.reset()
        self.spans.clear()
        self._root = [self._new_id(), 0.0]
        self._stack[:] = [self._root]
        self._t0 = perf_counter()

    def end_pass(self) -> dict:
        """Per-layer totals of the pass that just ran."""
        t1 = perf_counter()
        self.spans.append((self._root[0], 0, "pass", self._t0, t1))
        if not self.kept:
            self.kept = list(self.spans)
        calls = dict(self.calls)
        self_time = dict(self.self_time)
        for key, (n, seconds) in self._methods.items():
            calls[key] = n
            module = key.partition(".")[0]
            self_time[module] = self_time.get(module, 0.0) + seconds
        return {
            "pass_s": t1 - self._t0,
            "calls": calls,
            "inclusive": dict(self.inclusive),
            "self_time": self_time,
            "counters": dict(self.counters),
        }

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id = sid + 1
        return sid

    # -- wrappers ----------------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, module: str):
        stack = self._stack
        spans = self.spans
        hook = RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [self._new_id(), 0.0]
            stack.append(frame)
            self._depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self.counters, result)
                return result
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                parent[1] += dt
                self.calls[name] += 1
                self._depth[name] -= 1
                if not self._depth[name]:  # outermost call of a recursion only
                    self.inclusive[name] += dt
                self.self_time[module] += dt - frame[1]
                spans.append((frame[0], parent[0], name, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, fn, acc: list):
        stack = self._stack

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                acc[0] += 1
                acc[1] += dt
                stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _inner_wrapper(self, fn, acc: list):
        stack = self._stack

        def wrapper(*args):
            frame = [stack[-1][0], 0.0]  # spans opened inside belong to the caller's span
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dt
                acc[0] += 1
                acc[1] += dt - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = qact_modules()
        wrappers = {}
        for key, (fn, name, module) in public_functions().items():
            wrappers[key] = self._span_wrapper(fn, name, module)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for table, make in ((LEAF_METHODS, self._leaf_wrapper), (INNER_METHODS, self._inner_wrapper)):
            for module, cls_name, key, names in table:
                cls = getattr(modules.get(f"qact.{module}"), cls_name, None)
                if cls is None:
                    continue
                acc = self._methods.setdefault(key, [0, 0.0])
                by_function = {}
                for attr in names:
                    fn = cls.__dict__.get(attr)
                    if fn is None:
                        continue
                    if id(fn) not in by_function:
                        by_function[id(fn)] = make(fn, acc)
                    self._patch(cls, attr, by_function[id(fn)])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON array per line; the first line names the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["id", "parent", "name", "start", "end"]) + "\n")
            for span in self.kept:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
