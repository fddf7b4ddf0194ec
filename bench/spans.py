"""Span recording around the public functions of each cartanlim layer.

A traced pass replaces every module attribute (and two methods) that holds a
layer's public function with a recorder, runs the operations, and restores the
originals.  Spans carry name, start, end, parent index and op id; they stay in
memory and are written once when the benchmark ends.  The library source is
never touched: the wrappers live only in the benchmark process.

Because `cli`, `limits`, `jsonio` and the package `__init__` bind names with
`from .x import y`, a function is replaced in every cartanlim module that holds
the same object, not only in the module that defines it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("cli", "jsonio", "projgeo", "exactq", "limits", "obstruct", "converge", "bounds")

# Scalar conversions run once per matrix entry or coordinate.  Wrapping them
# would cost more than the work they do, so, like QMatrix/ProjPoint
# construction and matvec, their time stays in the caller's self time.
UNWRAPPED = frozenset({"exactq.rational", "exactq.parse_rational", "exactq.format_rational"})

# (layer, class, method, span name): methods recorded as layer spans.
METHODS = (
    ("exactq", "QMatrix", "__mul__", "exactq.matmul"),
    ("obstruct", "PolyParamGroup", "evaluate", "obstruct.evaluate"),
)

SETUP_OP = -1

# Shapes reported by the per-shape projgeo metrics (n x m).
PROJ_SHAPES = ((2, 4), (2, 5), (2, 6), (3, 5), (3, 6))
ELIMINATIONS = ("solve", "inverse", "det", "rank")
OBSTRUCT_CALLS = ("flatness_check", "tier", "has_tier_one_element", "flag_tier_profile")


def _shape(points) -> tuple[int, int]:
    pts = points.points if hasattr(points, "points") else list(points)
    return pts[0].n, len(pts)


# Extra facts recorded on a span from its arguments and result.
HOOKS: dict[str, Callable] = {
    "projgeo.unordered_cross_ratio": lambda args, result: (*_shape(args[0]), len(result)),
    "projgeo.projectively_equivalent": lambda args, result: (*_shape(args[0]), result is not None),
    "jsonio.dumps": lambda args, result: len(result.encode("utf-8")),
    "obstruct.flatness_check": lambda args, result: (result.hull_dim, result.sample_size),
}


class Target:
    """One recorded function: its span name, the original object, and every
    (owner, attribute) pair that held it when the targets were discovered."""

    __slots__ = ("name", "original", "homes")

    def __init__(self, name: str, original, homes: list[tuple[object, str]]):
        self.name = name
        self.original = original
        self.homes = homes


def discover(package: str = "cartanlim") -> list[Target]:
    """The public functions of every layer, with all the places they are bound."""
    layer_modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    modules = [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]
    targets: dict[int, Target] = {}
    for layer, module in layer_modules.items():
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__ or attr.startswith("_"):
                continue
            name = f"{layer}.{obj.__name__}"
            if name not in UNWRAPPED and id(obj) not in targets:
                targets[id(obj)] = Target(name, obj, [])
    for module in modules:
        for attr, obj in vars(module).items():
            target = targets.get(id(obj))
            if target is not None and target.original is obj:
                target.homes.append((module, attr))
    found = list(targets.values())
    for layer, cls_name, method, name in METHODS:
        cls = getattr(layer_modules[layer], cls_name)
        found.append(Target(name, cls.__dict__[method], [(cls, method)]))
    return found


def assert_unwrapped(targets: list[Target]) -> None:
    """Fail unless every home of every target holds the original function."""
    for target in targets:
        for owner, attr in target.homes:
            if getattr(owner, attr) is not target.original:
                raise RuntimeError(f"{target.name} is still wrapped at {owner!r}.{attr}")


class Tracer:
    """Installs span recorders for one traced pass at a time."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Optional[tuple]] = []
        self.op = SETUP_OP
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, tracer.op, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            info = hook(args, result) if hook is not None else None
            spans[index] = (name, start, end, parent, tracer.op, info)
            return result

        return recorded

    def install(self) -> None:
        for target in self.targets:
            wrapper = self._wrap(target.name, target.original, HOOKS.get(target.name))
            for owner, attr in target.homes:
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for target in self.targets:
            for owner, attr in target.homes:
                setattr(owner, attr, target.original)
        assert_unwrapped(self.targets)

    def write(self, path: Path) -> None:
        """Write every span once, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[name, start, end, parent, op] for name, start, end, parent, op, _ in self.spans]
        doc = {"fields": ["name", "start", "end", "parent", "op"], "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _heads(n: int, m: int) -> int:
    return math.factorial(m) // math.factorial(m - n - 1)


def layer_metrics(spans: list[tuple], ops: int, traced_wall: float, setup_inputs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced passes and traced set-up.

    `ops` and `traced_wall` are the number and summed wall time of traced
    operations; `setup_inputs` is the number of operation inputs built during
    the traced set-up.  Returns name -> (value, unit).
    """
    n_spans = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n_spans
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)

    layer_self: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    inclusive: dict[str, float] = defaultdict(float)
    setup_gp = 0.0
    for i, (name, _, _, parent, op, _) in enumerate(spans):
        if op == SETUP_OP:
            if name == "projgeo.general_position" and (parent < 0 or spans[parent][0] != name):
                setup_gp += dur[i]
            continue
        layer_self[name.split(".", 1)[0]] += dur[i] - child_time[i]
        calls[name] += 1
        inclusive[name] += dur[i]

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = (1000 * _per(layer_self[layer], ops), "ms/op")
        out[f"{layer}.self_frac"] = (_per(layer_self[layer], traced_wall), "frac")

    def ms_per_call(name: str) -> float:
        return 1000 * _per(inclusive[name], calls[name])

    dumps_bytes = sum(s[5] for s in spans if s[0] == "jsonio.dumps" and s[4] != SETUP_OP)
    read_time = sum(
        dur[i]
        for i, s in enumerate(spans)
        if s[4] != SETUP_OP
        and s[0].startswith("jsonio.read_")
        and (s[3] < 0 or not spans[s[3]][0].startswith("jsonio."))
    )
    out["jsonio.dumps.bytes_per_op"] = (_per(dumps_bytes, ops), "B/op")
    out["jsonio.read.ms_per_op"] = (1000 * _per(read_time, ops), "ms/op")

    uc_time: dict[tuple, float] = defaultdict(float)
    uc_calls: Counter = Counter()
    pe_time: dict[tuple, float] = defaultdict(float)
    pe_calls: Counter = Counter()
    uc_heads = uc_returned = uc_generated = 0
    pe_heads = pe_tried = pe_possible = 0
    conj_verify = 0.0
    growth_hull = growth_points = 0
    for i, (name, _, _, _, op, info) in enumerate(spans):
        if op == SETUP_OP:
            continue
        if name == "projgeo.unordered_cross_ratio" and info is not None:
            n, m, returned = info
            uc_time[(n, m)] += dur[i]
            uc_calls[(n, m)] += 1
            uc_heads += sum(1 for c in children[i] if spans[c][0] == "projgeo.basis_transform")
            uc_returned += returned
            uc_generated += math.factorial(m)
        elif name == "projgeo.projectively_equivalent" and info is not None:
            n, m, found = info
            key = (n, m, "pos" if found else "neg")
            pe_time[key] += dur[i]
            pe_calls[key] += 1
            heads = sum(1 for c in children[i] if spans[c][0] == "projgeo.basis_transform")
            pe_heads += heads
            pe_tried += heads - 1  # the first transform normalizes the left head
            pe_possible += _heads(n, m)
        elif name == "limits.are_conjugate":
            search = sum(
                dur[c]
                for c in children[i]
                if spans[c][0] in ("projgeo.projectively_equivalent", "limits.exceptional_dual_basis")
            )
            conj_verify += dur[i] - search
        elif name == "obstruct.flatness_check" and info is not None:
            growth_hull += info[0]
            growth_points += info[1]

    for n, m in PROJ_SHAPES:
        out[f"projgeo.unordered_cross_ratio.ms_per_call.{n}x{m}"] = (
            1000 * _per(uc_time[(n, m)], uc_calls[(n, m)]),
            "ms/call",
        )
        for kind in ("pos", "neg"):
            key = (n, m, kind)
            out[f"projgeo.projectively_equivalent.ms_per_call.{n}x{m}.{kind}"] = (
                1000 * _per(pe_time[key], pe_calls[key]),
                "ms/call",
            )
    out["projgeo.uc.heads_per_call"] = (_per(uc_heads, sum(uc_calls.values())), "count/call")
    out["projgeo.equiv.heads_per_call"] = (_per(pe_heads, sum(pe_calls.values())), "count/call")
    out["projgeo.equiv.heads_frac"] = (_per(pe_tried, pe_possible), "frac")
    out["projgeo.uc.distinct_frac"] = (_per(uc_returned, uc_generated), "frac")
    out["projgeo.general_position.ms_per_op"] = (1000 * _per(setup_gp, setup_inputs), "ms/op")
    out["projgeo.basis_transform.ms_per_call"] = (ms_per_call("projgeo.basis_transform"), "ms/call")

    for kind in ELIMINATIONS:
        out[f"exactq.{kind}.calls_per_op"] = (_per(calls[f"exactq.{kind}"], ops), "count/op")
    out["exactq.elim.calls_per_op"] = (_per(sum(calls[f"exactq.{k}"] for k in ELIMINATIONS), ops), "count/op")
    for kind in ELIMINATIONS:
        out[f"exactq.{kind}.ms_per_call"] = (ms_per_call(f"exactq.{kind}"), "ms/call")
    out["exactq.matmul.calls_per_op"] = (_per(calls["exactq.matmul"], ops), "count/op")
    out["exactq.matmul.ms_per_call"] = (ms_per_call("exactq.matmul"), "ms/call")

    out["limits.are_conjugate.ms_per_call"] = (ms_per_call("limits.are_conjugate"), "ms/call")
    out["limits.are_conjugate.verify_ms_per_call"] = (
        1000 * _per(conj_verify, calls["limits.are_conjugate"]),
        "ms/call",
    )
    out["limits.rho.calls_per_op"] = (_per(calls["limits.rho"], ops), "count/op")
    out["limits.element_params.calls_per_op"] = (_per(calls["limits.element_params"], ops), "count/op")

    for name in OBSTRUCT_CALLS:
        out[f"obstruct.{name}.ms_per_call"] = (ms_per_call(f"obstruct.{name}"), "ms/call")
    out["obstruct.evaluate.calls_per_op"] = (_per(calls["obstruct.evaluate"], ops), "count/op")
    out["obstruct.flatness.growth_frac"] = (_per(growth_hull, growth_points), "frac")

    out["converge.convergence_report.ms_per_call"] = (ms_per_call("converge.convergence_report"), "ms/call")
    out["bounds.verify_bounds.ms_per_call"] = (ms_per_call("bounds.verify_bounds"), "ms/call")
    return out
