"""Span recorder for the traced benchmark run, installed from outside the package.

Each traced name is rebound in every ``lamptwist`` module that holds it,
its own module included, so calls between functions of one module (such as
``realized_periods`` -> ``matrix_order``) nest as child spans.  The three hot
methods are counted without spans.  Spans stay in memory and are written out
once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "lattice", "reidemeister", "wreath", "finite_oracle")

SPANS = (
    "cli.main",
    "cli.spec_from_json",
    "lattice.det",
    "lattice.smith_normal_form",
    "lattice.solve",
    "lattice.matrix_order",
    "lattice.kernel_rank",
    "lattice.realized_periods",
    "lattice.point_period",
    "lattice.IntMatrix.inverse",
    "reidemeister.reidemeister_number",
    "reidemeister.classify_sigma",
    "reidemeister.unit_order",
    "reidemeister.are_twisted_conjugate_sigma",
    "reidemeister.are_twisted_conjugate_full",
    "wreath.twisted_transform",
    "wreath.WreathAutomorphism.apply_base",
    "wreath.parse_element",
    "finite_oracle.twisted_classes_bruteforce",
    "finite_oracle.irreps_little_group",
    "finite_oracle.phi_hat_fixed_count",
    "finite_oracle.induce_automorphism",
    "finite_oracle.oracle_report",
)

COUNTED = (
    "lattice.IntMatrix.__mul__",
    "wreath.WreathElement.__mul__",
    "finite_oracle.FiniteWreathGroup.multiply",
)


def metric_name(target: str) -> str:
    return target.replace("__mul__", "mul")


def _budget(args, kwargs) -> int:
    from lamptwist.reidemeister import DEFAULT_SEARCH_BUDGET

    if "budget" in kwargs:
        return kwargs["budget"]
    return args[3] if len(args) > 3 else DEFAULT_SEARCH_BUDGET


class Tracer:
    """Records spans and counts while ``active`` is set, for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.active = False
        self.query = -1
        self.k = 0
        # (span id, parent id, name, start, end, self seconds, query, k)
        self.spans: list[tuple] = []
        self.counts: dict[str, list[int]] = {}
        self.notes: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._matrix_order = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import lamptwist.cli  # noqa: F401  (loads every module of the package)
        from lamptwist import lattice

        self._matrix_order = lattice.matrix_order  # the lru_cache object itself
        notes = {
            "reidemeister.are_twisted_conjugate_full": self._note_search,
            "finite_oracle.twisted_classes_bruteforce": self._note_bruteforce,
            "finite_oracle.irreps_little_group": self._note_irreps,
        }
        for target in SPANS:
            self._rebind(target, lambda name, fn: self._span(name, fn, notes.get(name)))
        for target in COUNTED:
            self._rebind(target, self._counter)

    def _rebind(self, target: str, make) -> None:
        module_name, *path = target.split(".")
        module = sys.modules[f"lamptwist.{module_name}"]
        if len(path) == 2:  # a method: patch the class
            cls = getattr(module, path[0])
            setattr(cls, path[1], make(metric_name(target), cls.__dict__[path[1]]))
            return
        original = getattr(module, path[0])
        wrapper = make(target, original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "lamptwist" and not name.startswith("lamptwist."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    # -- recording ----------------------------------------------------------

    def begin_query(self, index: int, k: int) -> None:
        self.query, self.k = index, k
        self.active = True

    def end_query(self) -> None:
        self.active = False

    def _span(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((span_id, parent[0] if parent else None, name, start, end,
                              end - start - frame[1], self.query, self.k))
            if note is not None:
                note(args, kwargs, result, end - start)
            return result

        return wrapper

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            if self.active:
                cell[0] += 1
            return fn(*args)

        return wrapper

    def _note_search(self, args, kwargs, result, seconds) -> None:
        if result.status == "unknown":
            self.notes["bfs_seconds"] += seconds
            self.notes["bfs_nodes"] += _budget(args, kwargs)

    def _note_bruteforce(self, args, kwargs, result, seconds) -> None:
        self.notes["bruteforce_elements"] += args[0].size

    def _note_irreps(self, args, kwargs, result, seconds) -> None:
        self.notes["irrep_labels"] += len(result)

    # -- output -------------------------------------------------------------

    def cache_info(self):
        return self._matrix_order.cache_info()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, self_s, query, k in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "start": start,
                    "end": end, "self_s": self_s, "query": query, "k": k,
                    "workload": self.workload,
                }) + "\n")

    def summary(self, cache_before, cache_after) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        by_k: dict[str, float] = defaultdict(float)
        for _, _, name, _, _, self_s, _, k in self.spans:
            calls[name] += 1
            self_ms[name] += self_s * 1e3
            by_k[f"{name}.self_ms.k{k}"] += self_s * 1e3
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_ms[name], "ms")
        for name in ("lattice.det", "lattice.smith_normal_form", "lattice.matrix_order",
                     "lattice.kernel_rank", "lattice.realized_periods",
                     "reidemeister.classify_sigma"):
            for k in (2, 4, 8, 12, 16):
                key = f"{name}.self_ms.k{k}"
                out[key] = (by_k[key], "ms")
        for target in COUNTED:
            name = metric_name(target)
            out[f"{name}.calls"] = (self.counts.get(name, [0])[0], "count")
        total = sum(self_ms.values())
        for layer in LAYERS:
            layer_ms = sum(v for n, v in self_ms.items() if n.startswith(layer + "."))
            out[f"{layer}.self_ms"] = (layer_ms, "ms")
            out[f"{layer}.self_share"] = (layer_ms / total if total else 0.0, "ratio")
        hits = cache_after.hits - cache_before.hits
        misses = cache_after.misses - cache_before.misses
        out["lattice.matrix_order.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        notes = self.notes
        out["reidemeister.bfs.us_per_node"] = (
            notes["bfs_seconds"] * 1e6 / notes["bfs_nodes"] if notes["bfs_nodes"] else 0.0, "us")
        elements = notes["bruteforce_elements"]
        out["finite_oracle.twisted_classes_bruteforce.us_per_element"] = (
            self_ms["finite_oracle.twisted_classes_bruteforce"] * 1e3 / elements
            if elements else 0.0, "us")
        out["finite_oracle.irreps_little_group.labels"] = (int(notes["irrep_labels"]), "count")
        return out
