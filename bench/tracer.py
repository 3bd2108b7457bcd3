"""Span tracing of kahler_lab's public functions, from outside the package.

`Tracer.install` wraps each function in TARGETS and rebinds it in every
loaded `kahler_lab.*` module namespace that holds it, because the package
imports its kernels by name (`from .geometry import make_metric` binds a
separate reference in energies, continuity, flow, families and scenarios).

Each wrapped call records one span: id, name, scenario-run id, parent span
id, start, end and whether it raised.  Spans stay in memory until
`write_spans`.  Alongside the spans the tracer keeps additive per-name
totals (calls, self time, inclusive time, errors, make_metric calls below
the span, and per-function counts read from return values), from which the
per-layer metrics are derived.

Self time is a span's duration minus the durations of its direct children.
The harness runs scenarios with one job, so child spans never overlap and
that difference is exactly the part of the span no child covers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

MAKE_METRIC = "geometry.make_metric"

# span name -> (module, attribute)
TARGETS = {
    "geometry.fs_background": ("kahler_lab.geometry", "fs_background"),
    MAKE_METRIC: ("kahler_lab.geometry", "make_metric"),
    "geometry.potential_from_density": ("kahler_lab.geometry", "potential_from_density"),
    "geometry.laplacian_matrix": ("kahler_lab.geometry", "laplacian_matrix"),
    "geometry.ricci_potential": ("kahler_lab.geometry", "ricci_potential"),
    "geometry.wedge_density": ("kahler_lab.geometry", "wedge_density"),
    "energies.e_k_path": ("kahler_lab.energies", "e_k_path"),
    "energies.e_k_closed": ("kahler_lab.energies", "e_k_closed"),
    "energies.i_and_j": ("kahler_lab.energies", "i_and_j"),
    "energies.futaki_k": ("kahler_lab.energies", "futaki_k"),
    "continuity.solve_aubin_path": ("kahler_lab.continuity", "solve_aubin_path"),
    "continuity.solve_yau_path": ("kahler_lab.continuity", "solve_yau_path"),
    "continuity.lambda1_radial": ("kahler_lab.continuity", "lambda1_radial"),
    "continuity.path_monitors": ("kahler_lab.continuity", "path_monitors"),
    "continuity.check_lemma_3_4": ("kahler_lab.continuity", "check_lemma_3_4"),
    "continuity.check_lemma_4_1": ("kahler_lab.continuity", "check_lemma_4_1"),
    "continuity.check_section5": ("kahler_lab.continuity", "check_section5"),
    "flow.run_flow": ("kahler_lab.flow", "run_flow"),
    "families.generate_probe": ("kahler_lab.families", "generate_probe"),
    "scenarios.run_scenario": ("kahler_lab.scenarios", "run_scenario"),
    "exact.run_all": ("kahler_lab.exact", "run_all"),
}

CHECK_SUITES = ("continuity.check_lemma_3_4", "continuity.check_lemma_4_1",
                "continuity.check_section5")


def _polish_hook(totals, args, kwargs, result):
    polish = kwargs.get("polish", args[2] if len(args) > 2 else 0)
    totals["polished_calls"] += polish > 0


def _e_k_path_hook(totals, args, kwargs, result):
    totals["accepted_nodes"] += result.intervals


def _aubin_hook(totals, args, kwargs, result):
    totals["points"] += len(result.points)
    totals["newton_iters"] += sum(p.iterations for p in result.points)
    totals["stalled"] += not result.completed


def _flow_hook(totals, args, kwargs, result):
    totals["steps"] += result.steps
    totals["halvings"] += result.halvings


HOOKS = {
    "geometry.potential_from_density": _polish_hook,
    "energies.e_k_path": _e_k_path_hook,
    "continuity.solve_aubin_path": _aubin_hook,
    "flow.run_flow": _flow_hook,
}


class _Frame:
    __slots__ = ("span_id", "start", "child_s", "mm", "mm_rejected")

    def __init__(self, span_id: int, start: float):
        self.span_id = span_id
        self.start = start
        self.child_s = 0.0
        self.mm = 0            # make_metric spans strictly below this one
        self.mm_rejected = 0   # ... of which raised


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._next_id = 0
        self._stack: list[_Frame] = []
        self._patched: list[tuple] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        self.totals = defaultdict(lambda: defaultdict(float))

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(name, frame, ok)
            if hook is not None:
                hook(self.totals[name], args, kwargs, result)
            return result

        return wrapper

    def _open(self) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: _Frame, ok: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        self.spans.append((frame.span_id, name, self.run_id,
                           parent.span_id if parent else 0,
                           frame.start, end, ok))
        totals = self.totals[name]
        totals["calls"] += 1
        totals["self_s"] += duration - frame.child_s
        totals["incl_s"] += duration
        totals["errors"] += not ok
        totals["make_metric_below"] += frame.mm
        totals["make_metric_rejected_below"] += frame.mm_rejected
        if parent is not None:
            parent.child_s += duration
            is_mm = name == MAKE_METRIC
            parent.mm += frame.mm + is_mm
            parent.mm_rejected += frame.mm_rejected + (is_mm and not ok)

    def install(self) -> None:
        """Rebind every target in every loaded kahler_lab module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, _ in TARGETS.values():
            importlib.import_module(module_name)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "kahler_lab" or key.startswith("kahler_lab.")]
        for name, (module_name, attr) in TARGETS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,run,parent,start,end,ok\n")
            for span in sorted(self.spans):
                sid, name, run, parent, start, end, ok = span
                handle.write(f"{sid},{name},{run},{parent},{start!r},{end!r},{int(ok)}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals) -> dict[str, float]:
    """Per-layer metrics of one pass from its additive totals."""
    def get(name, key):
        return float(totals.get(name, {}).get(key, 0.0))

    out: dict[str, float] = {}
    for name in ("geometry.fs_background", "geometry.laplacian_matrix",
                 "geometry.wedge_density", "energies.e_k_closed",
                 "energies.i_and_j", "energies.futaki_k",
                 "continuity.lambda1_radial"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")

    mm_calls = get(MAKE_METRIC, "calls")
    out[f"{MAKE_METRIC}.calls"] = mm_calls
    out[f"{MAKE_METRIC}.self_s"] = get(MAKE_METRIC, "self_s")
    out[f"{MAKE_METRIC}.us_per_call"] = 1e6 * _ratio(get(MAKE_METRIC, "self_s"), mm_calls)
    out[f"{MAKE_METRIC}.reject_share"] = _ratio(get(MAKE_METRIC, "errors"), mm_calls)

    pfd = "geometry.potential_from_density"
    out[f"{pfd}.calls"] = get(pfd, "calls")
    out[f"{pfd}.polished_calls"] = get(pfd, "polished_calls")
    out[f"{pfd}.self_s"] = get(pfd, "self_s")
    out["geometry.ricci_potential.self_s"] = get("geometry.ricci_potential", "self_s")

    ekp = "energies.e_k_path"
    nodes = get(ekp, "make_metric_below")
    out[f"{ekp}.calls"] = get(ekp, "calls")
    out[f"{ekp}.self_s"] = get(ekp, "self_s")
    out[f"{ekp}.nodes_per_call"] = _ratio(nodes, get(ekp, "calls"))
    out[f"{ekp}.node_waste_share"] = _ratio(nodes - get(ekp, "accepted_nodes"), nodes)

    aubin = "continuity.solve_aubin_path"
    out[f"{aubin}.self_s"] = get(aubin, "self_s")
    out[f"{aubin}.points"] = get(aubin, "points")
    out[f"{aubin}.newton_iters_per_point"] = _ratio(get(aubin, "newton_iters"),
                                                    get(aubin, "points"))
    out[f"{aubin}.stalled"] = get(aubin, "stalled")
    out["continuity.solve_yau_path.self_s"] = get("continuity.solve_yau_path", "self_s")
    out["continuity.path_monitors.self_s"] = get("continuity.path_monitors", "self_s")
    out["continuity.checks.self_s"] = sum(get(name, "self_s") for name in CHECK_SUITES)

    flow = "flow.run_flow"
    out[f"{flow}.calls"] = get(flow, "calls")
    out[f"{flow}.self_s"] = get(flow, "self_s")
    out[f"{flow}.steps"] = get(flow, "steps")
    out[f"{flow}.halvings"] = get(flow, "halvings")
    out[f"{flow}.steps_per_s"] = _ratio(get(flow, "steps"), get(flow, "incl_s"))

    probe = "families.generate_probe"
    out[f"{probe}.calls"] = get(probe, "calls")
    out[f"{probe}.self_s"] = get(probe, "self_s")
    out[f"{probe}.rejected_draws"] = get(probe, "make_metric_rejected_below")

    out["scenarios.run_scenario.self_s"] = get("scenarios.run_scenario", "self_s")
    out["exact.run_all.self_s"] = get("exact.run_all", "self_s")
    return out


def total_self_s(totals) -> float:
    return sum(fields.get("self_s", 0.0) for fields in totals.values())
