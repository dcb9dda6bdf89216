"""Span tracer for the traced benchmark run.

Wraps the public functions of the propval modules from outside the program:
each wrapper records calls, total time and self time (its span minus the
spans of the wrapped functions it called). Aliases made by ``from ... import``
in other propval modules are rebound too, so calls between modules are seen.
Spans stay in memory; ``install`` and ``uninstall`` restore the program
exactly, so untraced and traced blocks can alternate in one process.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

MODULES = ("timevalue", "recurrence", "capitalization", "amortization", "render", "projects")


class Tracer:
    def __init__(self) -> None:
        # "module.function" -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - children
                if stack:
                    stack[-1] += span

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        originals = {}
        for short in MODULES:
            module = sys.modules.get(f"propval.{short}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "propval" or mod_name.startswith("propval."):
                for attr, value in list(vars(module).items()):
                    wrapper = originals.get(id(value))
                    if wrapper is not None:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0,))[0]

    def merge(self, stats: dict) -> None:
        """Add stats recorded elsewhere (a CLI child process)."""
        for key, (calls, total, self_time) in stats.items():
            stat = self.stats.setdefault(key, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += self_time

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics, named as in BENCHMARK.json."""
        ops = max(ops, 1)

        def pick(prefix: str, names=None):
            rows = [
                v for k, v in self.stats.items()
                if k.startswith(prefix + ".") and (names is None or k.split(".", 1)[1] in names)
            ]
            return (sum(r[0] for r in rows), sum(r[1] for r in rows), sum(r[2] for r in rows))

        ms = 1000.0 / ops
        irr_calls, _, irr_self = pick("projects", {"irr_all"})
        npv_calls, npv_total, _ = pick("projects", {"npv"})
        _, compare_total, _ = pick("projects", {"compare_pairwise"})
        _, _, report_self = pick(
            "projects", {"analysis_to_dict", "analysis_table", "comparison_to_dict", "comparison_table"}
        )
        _, _, projects_self = pick("projects")
        _, _, build_self = pick("amortization", {"level_schedule", "generalized_schedule", "sinking_fund_schedule"})
        _, verify_total, _ = pick("amortization", {"verify_main_theorem"})
        _, _, serialize_self = pick("amortization", {"schedule_to_csv", "schedule_to_dict", "schedule_to_json"})
        fmt_calls, fmt_total, _ = pick("render", {"format_fixed"})
        _, align_total, _ = pick("render", {"align_table"})
        out = {
            "projects.irr_all_calls": irr_calls / ops,
            "projects.irr_all_self_ms": irr_self * ms,
            "projects.npv_calls": npv_calls / ops,
            "projects.npv_ms": npv_total * ms,
            "projects.compare_ms": compare_total * ms,
            "projects.report_self_ms": report_self * ms,
            "projects.self_ms": projects_self * ms,
            "amortization.build_self_ms": build_self * ms,
            "amortization.verify_ms": verify_total * ms,
            "amortization.serialize_self_ms": serialize_self * ms,
            "render.format_fixed_calls": fmt_calls / ops,
            "render.format_fixed_ms": fmt_total * ms,
            "render.us_per_format": fmt_total * 1e6 / fmt_calls if fmt_calls else 0.0,
            "render.align_table_ms": align_total * ms,
        }
        for short in ("capitalization", "recurrence", "timevalue"):
            calls, _, self_time = pick(short)
            out[f"{short}.calls"] = calls / ops
            out[f"{short}.self_ms"] = self_time * ms
        return out
