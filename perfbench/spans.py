"""Tracing for the traced benchmark run: spans around ramstruct's public
functions, kept in memory, and the per-layer numbers derived from them.

`Tracer.install` wraps every public function and public method defined in
each layer module and rebinds it in every `ramstruct` namespace that holds
it, the package included (`quotient`, for instance, is imported by name into
both `oracle` and `constructors`). Per-element group methods (`mul`, `inv`,
`order_of`, `power`, ...) are never wrapped: there the wrapper would cost
more than the call. `Tracer.uninstall` puts every original back.

A span is [function, start, end, parent span, op id]. A span's self time is
its duration minus the durations of its direct children, so nested and
recursive calls (`construct_any` calls itself on each Sylow factor) are
counted once. Every operation has a root span, and the self times of all
spans of a round add up to the round's operation time.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from ramstruct.structures import RamFailure

LAYERS = (
    "cli",
    "parsing",
    "groups",
    "invariants",
    "structures",
    "theory",
    "oracle",
    "constructors",
    "catalog",
)

PER_ELEMENT = frozenset(
    {
        "mul",
        "inv",
        "order_of",
        "power",
        "powers_mask",
        "conjugate",
        "commutator",
        "check_index",
        "elements",
        "vector",
        "index_of",
        "generator",
        "triple",
        "pair",
        "name_of",
        "embed",
        "project",
        "section",
        "coset_mask",
        "multiply",
        "element_order",
    }
)

ROOT = "bench.op"


def _public_callables(module):
    """(owner, attribute, function) for every public function and public
    method defined in the module, except per-element methods."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and name not in PER_ELEMENT:
            yield module, name, obj
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not inspect.isfunction(fn) or attr in PER_ELEMENT:
                    continue
                public = not attr.startswith("_")
                # a dataclass __init__ only stores fields; its checks run in
                # __post_init__, inside the caller's span
                init = attr == "__init__" and not dataclasses.is_dataclass(obj)
                if public or init:
                    yield obj, attr, fn


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int = -1
        self._root: list = []
        self.counters: Counter = Counter()
        self._depth: Counter = Counter()
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        if not self._bindings:
            self._bindings = self._bind()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _bind(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every rebinding."""
        bindings = []
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"ramstruct.{layer}"]
            for owner, attr, fn in list(_public_callables(module)):
                wrapper = self._wrap(fn, f"{layer}.{fn.__qualname__}")
                wrappers[id(fn)] = wrapper
                if inspect.isclass(owner):
                    bindings.append((owner, attr, fn, wrapper))
        for name, module in list(sys.modules.items()):
            if name != "ramstruct" and not name.startswith("ramstruct."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    bindings.append((module, attr, value, wrapper))
        return bindings

    def _open(self, name_id: int) -> list:
        span = [name_id, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, label: str):
        name_id = len(self.names)
        self.names.append(label)
        hook = _HOOKS.get(label)
        depth = self._depth
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        span = tracer._open(name_id)
                        span[1] = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            span[2] = perf_counter()
                            tracer.stack.pop()
                        yield item
                finally:
                    gen.close()

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            span = tracer._open(name_id)
            depth[name_id] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
                depth[name_id] -= 1
            if hook is not None and not depth[name_id]:
                hook(tracer.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- operations ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._root = self._open(0)
        self._root[1] = perf_counter()

    def end_op(self) -> None:
        self._root[2] = perf_counter()
        self.stack.pop()
        self.op = -1

    def begin_round(self) -> int:
        """Clear the counters; the returned span index marks the round start."""
        self.counters.clear()
        return len(self.spans)

    def round_totals(self, start: int) -> dict:
        """Self time and span count per layer, and the counters, for the round
        whose spans begin at `start`."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= start:
                child[span[3] - start] += span[2] - span[1]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for span, inner in zip(spans, child):
            layer = self.names[span[0]].split(".", 1)[0]
            self_s[layer] += span[2] - span[1] - inner
            calls[layer] += 1
        return {"self_s": self_s, "calls": calls, "counters": Counter(self.counters)}

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": self.names,
                    "spans": self.spans,
                },
                separators=(",", ":"),
            )
        )


# -- counters read from return values, at the outermost call only -------------


def _count_search(counters: Counter, stats) -> None:
    counters["oracle.nodes"] += stats.candidates
    counters["oracle.t1_candidates"] += stats.t1_candidates
    counters["oracle.partner_searches"] += stats.partner_searches
    counters["oracle.undecided"] += not stats.exhausted


def _count_check(counters: Counter, result) -> None:
    counters["structures.checks"] += 1
    counters["structures.rejects"] += isinstance(result, RamFailure)


def _count_construct(counters: Counter, result) -> None:
    counters["constructors.results"] += 1
    counters["constructors.ok"] += result.status == "ok"
    counters["constructors.search"] += result.method == "search"


_HOOKS = {
    "oracle.find_structure": lambda c, r: _count_search(c, r.stats),
    "oracle.size_set_up_to": lambda c, r: _count_search(c, r.stats),
    "oracle.enumerate_structures": lambda c, r: _count_search(c, r[1]),
    "structures.check_ramification": _count_check,
    "constructors.construct_any": _count_construct,
}
