"""Tracing mmtlab from outside: rebind its functions to timing wrappers.

Nothing under ``src/`` knows about this module. :class:`Patcher` rebinds
a function at every place the package holds it: the defining module, each
``from ... import`` copy in another mmtlab module, and dict values such as
the CLI's command table. :class:`Tracer` installs span-recording wrappers
through a patcher and turns the spans into per-layer metrics.

Autodiff ops also get their backward closure timed: after an op returns,
the ``_backward`` of the node it recorded is swapped for a timed copy, so
``fwd_s`` and ``bwd_s`` are measured separately. A node is claimed by the
innermost op that made it; composite ops such as ``cross_entropy`` return
a node some inner op already claimed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYER_MODULES = (
    "synthdata",
    "tokenizer",
    "rng",
    "autodiff",
    "model",
    "missing",
    "optim",
    "training",
    "mae",
    "protocol",
    "cli",
)

BACKWARD_SUFFIX = ":backward"  # span name suffix of a timed backward closure

# public methods traced besides every public module-level function
METHODS = {
    "autodiff": ("Tape.backward",),
    "optim": ("AdamW.step",),
    "rng": ("Stream.shuffle",),
    "protocol": ("MetricsTable.has", "MetricsTable.save"),
}


# metrics computed from spans or hooks rather than named after one function
DERIVED_FROM = {
    "autodiff.tape_nodes_per_step": "autodiff.Tape.backward",
    "training.step.forward_ms": "autodiff.Tape.backward",
    "training.step.backward_ms": "autodiff.Tape.backward",
    "training.step.optimizer_ms": "optim.AdamW.step",
    "synthdata.samples_rendered": "synthdata.generate",
    "synthdata.useful_ratio": "synthdata.generate",
}


def mmtlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("mmtlab.") and m]


def binding_snapshot() -> dict:
    """Every module global, dict value and class attribute in mmtlab.

    Compared with ``is`` before and after tracing to prove the patcher put
    back exactly what it found.
    """
    snap = {}
    for mod in mmtlab_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if type(value) is dict:
                for key, item in value.items():
                    snap[(mod.__name__, attr, key)] = item
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    snap[(mod.__name__, attr, "." + name)] = member
    return snap


_ABSENT = object()


def snapshot_changes(before: dict, after: dict) -> list:
    """Keys whose binding differs (by identity) between two snapshots."""
    keys = set(before) | set(after)
    return sorted(
        str(k) for k in keys if before.get(k, _ABSENT) is not after.get(k, _ABSENT)
    )


class Patcher:
    """Rebinds attributes and dict entries; :meth:`restore` undoes all."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, owner, name, value) -> None:
        if type(owner) is dict:
            self._saved.append((owner, name, owner[name]))
            owner[name] = value
        else:
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, value)

    def replace_function(self, original, replacement) -> None:
        """Rebind ``original`` wherever an mmtlab module holds it."""
        for mod in mmtlab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self.set(value, key, replacement)

    def replace_method(self, cls, name: str, wrap) -> None:
        """Swap ``cls.name`` for ``wrap(function)``."""
        self.set(cls, name, wrap(vars(cls)[name]))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if type(owner) is dict:
                owner[name] = original
            else:
                setattr(owner, name, original)


class Tracer:
    """Spans kept in memory as (name, start, end, parent index) tuples."""

    def __init__(self):
        self.wrapped: set[str] = set()  # span names of the installed wrappers
        self.spans: list = []
        self._stack: list[int] = []
        self.tape_nodes: list[int] = []
        self.forward_s = 0.0
        self._tape_entered = None
        self.rendered = 0
        self._rendered_keys: dict[tuple, int] = {}
        self._generate_sig = None

    # -- wrappers ---------------------------------------------------------

    def _traced(self, name: str, fn, before=None, claim_backward: bool = False):
        """Plain span-recording wrapper; cheap enough to make per node."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        bwd_name = name + BACKWARD_SUFFIX

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserved now so children get later indices
            stack.append(index)
            start = clock()
            try:
                if before is not None:
                    before(args, kwargs)
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if claim_backward:
                bwd = getattr(out, "_backward", None)
                if bwd is not None and not hasattr(bwd, "traced_op"):
                    out._backward = self._traced(bwd_name, bwd)
                    out._backward.traced_op = name
            return out

        return traced

    def _wrap(self, name: str, fn, before=None, claim_backward: bool = False):
        self.wrapped.add(name)
        return functools.wraps(fn)(self._traced(name, fn, before, claim_backward))

    def _before_backward(self, args, kwargs):
        tape = args[0]
        self.tape_nodes.append(len(tape.nodes))
        if self._tape_entered is not None:
            self.forward_s += time.perf_counter() - self._tape_entered
            self._tape_entered = None

    def _before_generate(self, args, kwargs):
        bound = self._generate_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        seed, n, split = bound.arguments["seed"], bound.arguments["n"], bound.arguments["split"]
        self.rendered += n
        key = (seed, split)
        self._rendered_keys[key] = max(self._rendered_keys.get(key, 0), n)

    def install(self, patcher: Patcher) -> None:
        """Wrap every public function of the layer modules, then methods."""
        import mmtlab.cli  # noqa: F401  (imports every layer module)

        for short in LAYER_MODULES:
            mod = sys.modules[f"mmtlab.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                before = None
                if (short, attr) == ("synthdata", "generate"):
                    self._generate_sig = inspect.signature(fn)
                    before = self._before_generate
                wrapped = self._wrap(f"{short}.{attr}", fn, before, claim_backward=short == "autodiff")
                patcher.replace_function(fn, wrapped)
            for qual in METHODS.get(short, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                before = self._before_backward if qual == "Tape.backward" else None
                patcher.replace_method(
                    cls, meth, functools.partial(self._wrap, f"{short}.{qual}", before=before)
                )
        tape_cls = sys.modules["mmtlab.autodiff"].Tape
        patcher.replace_method(tape_cls, "__enter__", self._mark_tape_enter)

    def _mark_tape_enter(self, fn):
        @functools.wraps(fn)
        def enter(tape):
            self._tape_entered = time.perf_counter()
            return fn(tape)

        return enter

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = agg[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(agg)

    def layer_metrics(self) -> dict:
        """Flat ``<module>.<function>.<stat>`` numbers from the spans.

        For autodiff ops ``fwd_s`` is the forward self time (nested ops
        excluded) and ``bwd_s`` the time in the closures the op recorded.
        """
        agg = self.aggregate()
        out: dict[str, float] = {}
        for name, row in agg.items():
            if name.endswith(BACKWARD_SUFFIX):
                out[name[: -len(BACKWARD_SUFFIX)] + ".bwd_s"] = row["self_s"]
                continue
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.total_s"] = row["total_s"]
            out[f"{name}.self_s"] = row["self_s"]
            if name.startswith("autodiff.") and name.count(".") == 1:
                out[f"{name}.fwd_s"] = row["self_s"]
        steps = agg.get("optim.AdamW.step", {}).get("calls", 0)
        if steps:
            out["training.step.forward_ms"] = 1000.0 * self.forward_s / steps
            out["training.step.backward_ms"] = (
                1000.0 * agg.get("autodiff.Tape.backward", {}).get("total_s", 0.0) / steps
            )
            out["training.step.optimizer_ms"] = 1000.0 * agg["optim.AdamW.step"]["total_s"] / steps
        if self.tape_nodes:
            out["autodiff.tape_nodes_per_step"] = sum(self.tape_nodes) / len(self.tape_nodes)
        out["synthdata.samples_rendered"] = self.rendered
        if self.rendered:
            out["synthdata.useful_ratio"] = sum(self._rendered_keys.values()) / self.rendered
        return out

    def unwrapped(self, names) -> list[str]:
        """Metric names whose source function or method has no wrapper.

        Such a metric would read 0, which looks like a perfect speed-up;
        it happens when mmtlab renames or privatises a traced function.
        """
        return [n for n in names if DERIVED_FROM.get(n, n.rsplit(".", 1)[0]) not in self.wrapped]

    def span_records(self) -> list:
        """Spans as [name, start, end, parent index], times from the first start."""
        origin = min((s[1] for s in self.spans), default=0.0)
        return [
            [name, round(start - origin, 9), round(end - origin, 9), parent]
            for name, start, end, parent in self.spans
        ]

