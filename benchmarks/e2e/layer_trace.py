"""In-memory span tracer and the wrappers that attribute time to layers.

The traced run times calls *into* each layer from the benchmark's own
files; nothing under ``src/`` is edited.  Three placements cover the
layers a FedML run crosses:

* module names rebound in every ``repro.*`` module that imported them
  (:data:`MODULE_WRAPS`) — ``grad`` (split into the second-order
  ``grad_hvp`` and the first-order ``grad``), the MAML primitives and the
  Wasserstein ascent;
* instance attributes shadowing a method on the objects a workload built
  (:meth:`Tracer.wrap_method`) — strategy, executor and fleet internals;
* objects passed in through constructors — the workloads' ``Platform``
  subclass (its ``aggregate`` shadowed like any method) and a
  ``ShardFactory`` proxy whose ``make`` is traced.

A span is ``[name, layer, start, end, parent]``.  Self time is the span's
duration minus the time its child spans cover; because the run is one
thread, children nest strictly, so the layers' self times partition the
root span exactly (up to the wrappers' own overhead).
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: layers a span can be attributed to, named after ``repro`` subpackages
LAYERS = (
    "data", "engine", "strategies", "maml", "autodiff", "attacks",
    "platform", "fleet",
)
#: the benchmark's own spans (calibration probes); excluded from the layers
OBS_LAYER = "obs"

#: (source module, function name, span name, layer) rebound in every
#: ``repro.*`` module holding the original object
MODULE_WRAPS = (
    ("repro.core.maml", "meta_gradient", "meta_gradient", "maml"),
    ("repro.core.maml", "inner_adapt", "inner_adapt", "maml"),
    ("repro.core.maml", "meta_loss", "meta_loss", "maml"),
    ("repro.attacks.wasserstein", "wasserstein_ascent",
     "wasserstein_ascent", "attacks"),
)

Span = List[Any]


class Tracer:
    """Records nested spans in memory; :meth:`write_jsonl` at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self, name: str, layer: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as one span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_grad(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``autodiff.grad`` split by ``create_graph`` into two span names."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            create_graph = kwargs.get(
                "create_graph", args[3] if len(args) > 3 else False
            )
            index = self._open("grad_hvp" if create_graph else "grad", "autodiff")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_method(
        self, obj: Any, method: str, name: str, layer: str
    ) -> None:
        """Shadow ``obj.method`` with a traced instance attribute."""
        setattr(obj, method, self.wrap(name, layer, getattr(obj, method)))

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        index = self._open(name, layer)
        try:
            yield
        finally:
            self._close(index)

    def install_module_wraps(self) -> None:
        """Rebind :data:`MODULE_WRAPS` and ``grad`` across ``repro.*``.

        Call it after every module the workload uses is imported.
        """
        # ``repro.autodiff.tensor`` the module, not the re-exported
        # ``tensor()`` constructor of the same name.
        tensor_mod = sys.modules["repro.autodiff.tensor"]
        targets: List[Tuple[Any, Callable[..., Any]]] = [
            (tensor_mod.grad, self.wrap_grad(tensor_mod.grad))
        ]
        for module_name, attr, name, layer in MODULE_WRAPS:
            original = getattr(sys.modules[module_name], attr)
            targets.append((original, self.wrap(name, layer, original)))
        for module_name in sorted(sys.modules):
            if not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                for original, wrapper in targets:
                    if value is original:
                        setattr(module, attr, wrapper)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, layer, start, end, parent) in enumerate(
                self.spans
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": index, "name": name, "layer": layer,
                            "start": start, "end": end, "parent": parent,
                        }
                    )
                    + "\n"
                )


def _descendants(spans: Sequence[Span], root: int) -> List[int]:
    """Indices of ``root`` and every span nested under it."""
    inside = [False] * len(spans)
    inside[root] = True
    members = [root]
    # Children always follow their parent in recording order.
    for index in range(root + 1, len(spans)):
        parent = spans[index][4]
        if parent >= 0 and inside[parent]:
            inside[index] = True
            members.append(index)
    return members


def layer_breakdown(
    spans: Sequence[Span], root: int
) -> Dict[str, Dict[str, float]]:
    """Per-layer self time and per-name inclusive time/calls under ``root``.

    Returns ``{"self_s": {layer: s}, "inclusive_s": {name: s},
    "calls": {name: n}}``.  Inclusive time counts a name once per
    outermost call, so recursion never double-counts.
    """
    members = _descendants(spans, root)
    child_time: Dict[int, float] = {}
    for index in members:
        parent = spans[index][4]
        if index != root and parent >= 0:
            duration = spans[index][3] - spans[index][2]
            child_time[parent] = child_time.get(parent, 0.0) + duration
    self_s = {layer: 0.0 for layer in LAYERS}
    inclusive: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    open_names: Dict[int, Tuple[str, ...]] = {}
    for index in members:
        name, layer, start, end, parent = spans[index]
        duration = end - start
        self_s[layer] = self_s.get(layer, 0.0) + duration - child_time.get(
            index, 0.0
        )
        ancestors = open_names.get(parent, ()) if index != root else ()
        open_names[index] = ancestors + (name,)
        calls[name] = calls.get(name, 0.0) + 1
        if name not in ancestors:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return {"self_s": self_s, "inclusive_s": inclusive, "calls": calls}


def find_root(spans: Sequence[Span], name: str) -> Optional[int]:
    for index, span in enumerate(spans):
        if span[0] == name and span[4] == -1:
            return index
    return None
