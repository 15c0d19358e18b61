"""Layer-boundary spans for the traced benchmark run.

The tracer replaces the names that callers bind (``cli``'s imports from
``rectified``, ``rectified``'s imports from ``exact``, and so on) with
wrappers that record one span per call: name, start, end and parent.  It
never wraps the name an ``lru_cache`` function recurses through: the oracle
recursion looks up ``polytope_number`` and ``interior_number`` in its own
module globals, so ``cli`` gets a proxy of the ``oracle`` module instead,
and extra frames never move the recursion limit.

Spans live in flat arrays in memory and are written out once, when the run
ends.  ``self_times`` turns them into per-layer self time: a span's duration
minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from types import ModuleType

# (span name, module that binds the name, bound name, extra), one row per
# boundary.  A bound name "mod.fn" means the caller reaches fn through its
# binding of module mod; that binding gets a proxy.  extra is "distinct" to
# count distinct argument tuples, or "tally" to add result.total to a count.
BOUNDARIES = (
    ("regular", "polytopenums.cli", "simplex_number", None),
    ("regular", "polytopenums.cli", "simplex_interior", None),
    ("regular", "polytopenums.cli", "cross_polytope_number", None),
    ("regular", "polytopenums.cli", "hypercube_number", None),
    ("regular", "polytopenums.rectified", "simplex_number", None),
    ("regular", "polytopenums.rectified", "simplex_interior", None),
    ("rectified.closed_form", "polytopenums.cli", "rectified_simplex_number", None),
    ("rectified.closed_form", "polytopenums.cli", "rectified_simplex_interior", None),
    ("rectified.shift_decomposition", "polytopenums.cli", "shift_decomposition", "distinct"),
    ("rectified.shift_decomposition", "polytopenums.rectified", "shift_decomposition",
     "distinct"),
    ("rectified.shift_decomposition_gf", "polytopenums.cli", "shift_decomposition_gf", None),
    ("rectified.eval_shift_identity", "polytopenums.cli", "eval_shift_identity", None),
    ("rectified.decomposition", "polytopenums.cli", "rectified_decomposition", None),
    ("rectified.decomposition", "polytopenums.cli", "rectified_decomposition_gbinom", None),
    ("exact.gbinomial", "polytopenums.rectified", "gbinomial", "distinct"),
    ("exact.poly_mul", "polytopenums.rectified", "poly_mul", None),
    ("exact.poly_mul", "polytopenums.exact", "poly_mul", None),
    ("exact.binomial", "polytopenums.cli", "binomial", None),
    ("exact.binomial", "polytopenums.regular", "binomial", None),
    ("exact.binomial", "polytopenums.rectified", "binomial", None),
    ("exact.binomial", "polytopenums.oracle", "binomial", None),
    ("exact.binomial", "polytopenums.identities", "binomial", None),
    ("oracle.polytope_number", "polytopenums.cli", "oracle.polytope_number", None),
    ("oracle.interior_number", "polytopenums.cli", "oracle.interior_number", None),
    ("oracle.faces_of", "polytopenums.cli", "oracle.faces_of", "distinct"),
    ("oracle.faces_of", "polytopenums.oracle", "faces_of", "distinct"),
    ("identities.run_suite", "polytopenums.cli", "identities.run_suite", "tally"),
)

# The span the op runner opens around each `cli.main` call.
ROOT = "cli"


class _ModuleProxy:
    """Stands in for a module binding; overridden names win, the rest delegate."""

    def __init__(self, module: ModuleType):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.distinct: dict[str, set] = {}
        self.tallies: dict[str, int] = {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, extra: str | None = None):
        """Return fn wrapped so that every call records a span called name."""
        nid = self._id(name)
        ids, starts, ends, parents, stack = (self.name_id, self.start, self.end,
                                             self.parent, self._stack)
        clock = time.perf_counter_ns
        seen = self.distinct.setdefault(name, set()) if extra == "distinct" else None
        tallies = self.tallies
        if extra == "tally":
            tallies.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if seen is not None:
                seen.add(args)
            elif extra == "tally":
                tallies[name] += result.total
            return result

        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary that exists; record the ones that do not."""
        proxies: dict[tuple[str, str], _ModuleProxy] = {}
        for name, module_name, bound, extra in boundaries:
            label = f"{module_name}:{bound}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(label)
                continue
            attr = bound
            if "." in bound:
                via, attr = bound.split(".", 1)
                target = getattr(owner, via, None)
                if not isinstance(target, (ModuleType, _ModuleProxy)):
                    self.missing.append(label)
                    continue
                key = (module_name, via)
                if key not in proxies:
                    proxies[key] = _ModuleProxy(target)
                    self._undo.append((owner, via, target))
                    setattr(owner, via, proxies[key])
                owner = proxies[key]
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(label)
                continue
            if not isinstance(owner, _ModuleProxy):
                self._undo.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, extra))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw arrays in order."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name_id", "H"], ["start_ns", "q"], ["end_ns", "q"],
                             ["parent", "q"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.start, self.end, self.parent):
                column.tofile(handle)

    def layer_totals(self, groups: list[str] | None = None) -> dict:
        """Per span name: calls, self seconds and, where tracked, distinct args.

        With groups (one label per root span, in order), also the self
        seconds of every span name within the roots of each label.
        """
        own = self_times(self.start, self.end, self.parent)
        totals = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        by_group: dict[str, dict[str, float]] = {}
        root_of = array("q")  # per span: ordinal of the root span above it
        roots_seen = 0
        for i, (nid, value, p) in enumerate(zip(self.name_id, own, self.parent)):
            name = self.names[nid]
            totals[name]["calls"] += 1
            totals[name]["self_s"] += value / 1e9
            if p < 0:
                root_of.append(roots_seen)
                roots_seen += 1
            else:
                root_of.append(root_of[p])
            if groups is not None:
                group = by_group.setdefault(groups[root_of[i]], {})
                group[name] = group.get(name, 0.0) + value / 1e9
        for name, seen in self.distinct.items():
            totals[name]["distinct"] = len(seen)
        for name, tally in self.tallies.items():
            totals[name]["tally"] = tally
        return {"layers": totals, "by_group": by_group}


def self_times(start, end, parent) -> array:
    """Self time of every span: duration minus the part its children cover.

    Spans are in start order and a child starts after its parent.  Child
    intervals are clipped to the parent's interval and overlaps between
    children are counted once, so the result is never negative.
    """
    own = array("q", (e - s for s, e in zip(start, end)))
    cover_end = array("q", start)
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], cover_end[p])
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            cover_end[p] = hi
    return own
