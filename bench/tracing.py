"""Per-layer tracing applied from outside the program.

``Tracer.install`` replaces every selected cohkit function, in every
namespace that binds it (``coherence`` imports ``luders`` and
``_basis_matrix`` by name, ``dilation`` imports ``classify``), with a wrapper
that records a span. Spans are aggregated in memory by call path: one node
per distinct path, with its own id, its parent's id, an exact call count,
inclusive seconds and child seconds, so self time is inclusive minus child.
``uninstall`` restores the original bindings, so untraced passes run the
program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = (
    "linalg", "states", "instruments", "coherence", "channels",
    "dilation", "serialize", "cli", "verify",
)
# private helpers that another module imports, or that a metric names
PRIVATE = {"instruments._basis_matrix", "linalg._relative_entropy_core", "cli._round_trip_residual"}


class Node:
    __slots__ = ("id", "parent", "name", "calls", "total", "child", "kids")

    def __init__(self, id_: int, parent: int | None, name: str):
        self.id, self.parent, self.name = id_, parent, name
        self.calls, self.total, self.child = 0, 0.0, 0.0
        self.kids: dict[str, Node] = {}


def _selected(name: str) -> bool:
    leaf = name.rsplit(".", 1)[1]
    return not leaf.startswith("_") or name in PRIVATE or name.startswith("cli._cmd_")


class Tracer:
    def __init__(self):
        self.nodes: list[Node] = []
        self._stack: list[Node] = []
        self.bytes = {"read": 0, "written": 0}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new span tree (one per traced pass)."""
        self.nodes.clear()
        self._stack.clear()
        root = Node(0, None, "pass")
        self.nodes.append(root)
        self._stack.append(root)
        self.bytes.update(read=0, written=0)

    def _wrap(self, fn, name: str):
        stack, nodes, clock = self._stack, self.nodes, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent.kids.get(name)
            if node is None:
                node = Node(len(nodes), parent.id, name)
                nodes.append(node)
                parent.kids[name] = node
            stack.append(node)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node.calls += 1
                node.total += dt
                parent.child += dt

        return traced

    def _count_bytes(self, fn, key: str, before: bool):
        counts = self.bytes

        def size(path) -> int:
            try:
                return os.path.getsize(path)
            except OSError:  # the wrapped call reports a missing file itself
                return 0

        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            if before:
                counts[key] += size(path)
            out = fn(path, *args, **kwargs)
            if not before:
                counts[key] += size(path)
            return out

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [importlib.import_module(f"cohkit.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}

        def wrapper_for(fn, name):
            if id(fn) not in wrappers:
                inner = fn
                if name == "serialize.load":
                    inner = self._count_bytes(fn, "read", before=True)
                elif name == "serialize.save":
                    inner = self._count_bytes(fn, "written", before=False)
                wrappers[id(fn)] = self._wrap(inner, name)
            return wrappers[id(fn)]

        for ns in [importlib.import_module("cohkit"), *mods]:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val.__module__.startswith("cohkit."):
                    name = f"{val.__module__.split('.', 1)[1]}.{val.__qualname__}"
                    if _selected(name):
                        self._patch(ns, attr, wrapper_for(val, name))
                elif inspect.isclass(val) and val.__module__ == ns.__name__:
                    home = ns.__name__.split(".", 1)[1]
                    for mattr, mval in list(vars(val).items()):
                        if inspect.isfunction(mval) and not mattr.startswith("_"):
                            # methods count under their module: states.Observable.block_basis
                            self._patch(val, mattr, wrapper_for(mval, f"{home}.{val.__qualname__}.{mattr}"))
        verify = importlib.import_module("cohkit.verify")
        self._patch(verify, "REGISTRY", tuple(
            self._wrap(check, "verify.prop." + check.__name__.removeprefix("_check_"))
            for check in verify.REGISTRY
        ))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def tree(self) -> list[dict]:
        return [
            {"id": n.id, "parent": n.parent, "name": n.name, "calls": n.calls,
             "s": n.total, "self_s": n.total - n.child}
            for n in self.nodes[1:]
        ]


def outermost(nodes: list[Node], names) -> tuple[int, float]:
    """Calls and inclusive seconds of spans named in ``names`` that are not
    nested inside another span of the same set (so recursion through the
    group is not counted twice)."""
    names = set(names)
    inside = {0: False}
    calls, secs = 0, 0.0
    for n in nodes[1:]:
        covered = inside[n.parent]
        if n.name in names and not covered:
            calls += n.calls
            secs += n.total
        inside[n.id] = covered or n.name in names
    return calls, secs


def self_time(nodes: list[Node], prefix: str) -> float:
    return sum(n.total - n.child for n in nodes[1:] if n.name.startswith(prefix))


# span groups behind the per-layer metrics; each group is a layer boundary
GROUPS = {
    "linalg.hermitian_eig": ["linalg.hermitian_eig"],
    "linalg.as_matrix": ["linalg.as_matrix"],
    "linalg.entropy": [
        "linalg.von_neumann_entropy", "linalg.relative_entropy",
        "linalg.shannon_entropy", "linalg._relative_entropy_core",
    ],
    "states.block_basis": ["states.Observable.block_basis"],
    "states.validate": [
        "states.validate_density", "states.DensityMatrix.validate", "states.Observable.validate",
    ],
    "instruments.luders": ["instruments.luders"],
    "instruments.optimal_fine_grain": ["instruments.optimal_fine_grain"],
    "channels.commutant": ["channels.commutant"],
    "channels.classify": ["channels.classify"],
    "channels.io_completeness_check": ["channels.io_completeness_check"],
    "channels.kraus_channel": ["channels.kraus_channel"],
    "channels.apply_to_operator": ["channels.apply_to_operator"],
    "channels.evolve_path": ["channels.evolve_path"],
    "dilation.dilate": ["dilation.dilate"],
    "dilation.extend_to_unitary": ["dilation.extend_to_unitary"],
    "dilation.extract_kraus": ["dilation.extract_kraus"],
    "serialize.load": ["serialize.load"],
    "serialize.save": ["serialize.save"],
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    nodes = tracer.nodes
    out: dict[str, float] = {}
    for group, names in GROUPS.items():
        calls, secs = outermost(nodes, names)
        out[f"{group}.calls"] = calls
        out[f"{group}.s"] = secs
    for module in MODULES:
        out[f"{module}.self_s"] = self_time(nodes, module + ".")
    out["cli.round_trip_s"] = outermost(nodes, ["cli._round_trip_residual"])[1]
    # argparse work: cli.main minus the subcommand it dispatches to
    out["cli.parse_s"] = sum(
        n.total - sum(k.total for k in n.kids.values() if k.name.startswith("cli._cmd_"))
        for n in nodes[1:] if n.name == "cli.main"
    )
    out["serialize.bytes_read"] = tracer.bytes["read"]
    out["serialize.bytes_written"] = tracer.bytes["written"]
    for n in nodes[1:]:
        if n.name.startswith("verify.prop."):
            out[n.name + ".s"] = out.get(n.name + ".s", 0.0) + n.total
    return out
