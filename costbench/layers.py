"""Fold a ``cProfile`` run of the simulator into the benchmark's layer table.

A layer is a set of ``src/repro`` modules (``LAYERS``).  A function defined
in one of them bills its self time and calls to that layer.  Every other
frame -- C builtins such as ``heapq.heappush``, standard-library and NumPy
Python code, and ``repro`` modules outside the table such as
``errors.py`` -- bills the layer that called it, split over its callers in
the proportions the profiler recorded, and followed up the call graph when
the caller is itself such a frame.  Time that reaches no layer (the
benchmark's own driving loop) is *unattributed*.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Dict, Optional, Tuple

#: Layer name -> modules under ``src/repro`` (package directory or file).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.core": ("sim/core.py", "sim/rng.py", "sim/__init__.py"),
    "sim.events": ("sim/events.py",),
    "sim.processor": ("sim/processor.py",),
    "sim.resources": ("sim/resources.py",),
    "sim.calqueue": ("sim/calqueue.py",),
    "ntier.server": (
        "ntier/server.py", "ntier/apache.py", "ntier/tomcat.py",
        "ntier/mysql.py", "ntier/request.py", "ntier/contention.py",
        "ntier/__init__.py",
    ),
    "ntier.pools": (
        "ntier/threadpool.py", "ntier/connpool.py", "ntier/softconfig.py",
    ),
    "ntier.balancer": ("ntier/balancer.py", "ntier/topology.py"),
    "ntier.cache": ("ntier/cache.py",),
    "ntier.sharding": ("ntier/sharding.py",),
    "workload": ("workload",),
    "monitor": ("monitor",),
    "broker": ("broker",),
    "control": ("control", "model"),
    "cluster": ("cluster",),
    "faults": ("faults",),
    "check": ("check",),
    "scenario": ("scenario",),
}

_BY_MODULE = {mod: layer for layer, mods in LAYERS.items() for mod in mods}

Func = Tuple[str, int, str]  # pstats key: (filename, line, name)


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` outside the table."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return None
    rel = parts[len(parts) - parts[::-1].index("repro"):]
    if not rel:
        return None
    return _BY_MODULE.get("/".join(rel)) or _BY_MODULE.get(rel[0])


def fold(stats: dict) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """Fold ``pstats.Stats.stats`` into per-layer self seconds and calls.

    Returns ``(self_s, calls, unattributed_s)``; ``self_s`` and ``calls``
    have an entry for every layer in ``LAYERS``.
    """
    owner = {func: layer_of(func[0]) for func in stats}
    memo: Dict[Tuple[Func, int], Dict[Optional[str], float]] = {}
    active = set()

    def shares(func: Func, edge: int) -> Dict[Optional[str], float]:
        """How ``func``'s cost splits over layers, weighting its caller
        edges ``(nc, cc, tt, ct)`` by field ``edge``."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        key = (func, edge)
        if key in memo:
            return memo[key]
        callers = stats[func][4] if func in stats else {}
        total = sum(c[edge] for c in callers.values())
        if total <= 0.0 or key in active:  # a root, or a recursion cycle
            return {None: 1.0}
        active.add(key)
        out: Dict[Optional[str], float] = {}
        for caller, c in callers.items():
            # A caller's own attribution splits by inclusive time.
            for lay, share in shares(caller, 3).items():
                out[lay] = out.get(lay, 0.0) + share * c[edge] / total
        active.discard(key)
        memo[key] = out
        return out

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, share in shares(func, 2).items():
            if layer is None:
                unattributed += tt * share
            else:
                self_s[layer] += tt * share
        for layer, share in shares(func, 0).items():
            if layer is not None:
                calls[layer] += nc * share
    return self_s, calls, unattributed


def call_count(stats: dict, module: str, name: str) -> int:
    """Total profiled calls of function ``name`` defined in ``module``."""
    return sum(
        nc for (filename, _line, fname), (_cc, nc, *_rest) in stats.items()
        if fname == name and PurePath(filename).as_posix().endswith(module)
    )
