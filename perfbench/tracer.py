"""Tracing of the polycycles layers from outside the package.

`Tracer` replaces functions at the module attributes their callers look
up (for example `pipeline.dulac_coefficients`, which `build_corners`
calls) and restores the originals when it is closed.  Two kinds of hook:

- a span hook records one span per call: name, op id, parent span, start
  and end.  A span's self time is its duration minus its children's.
- a probe hook sits on a hot leaf (`saddle.quad`, `flow.integrate`,
  `flow.solve_ivp`).  It opens no span, so its time stays in its
  caller's self time, and it adds its work counts to the innermost open
  span.

Spans stay in memory until `write_spans`.  A hooked name the package no
longer has is skipped and listed in `missing`; its metrics then read 0.
"""
from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (module, attribute the caller looks up, span name)
SPAN_HOOKS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_model", "model.load_model"),
    ("cli", "analyze", "pipeline.analyze"),
    ("cli", "oracle_dulac", "pipeline.oracle_dulac"),
    ("cli", "oracle_return", "pipeline.oracle_return"),
    ("cli", "oracle_cycles", "pipeline.oracle_cycles"),
    ("cli", "scan", "pipeline.scan"),
    ("cli", "run_compose_check", "composecheck.run_compose_check"),
    ("cli", "dumps", "resultdoc.dumps"),
    ("cli", "render_csv", "resultdoc.render_csv"),
    ("pipeline", "bind", "model.bind"),
    ("pipeline", "build_corners", "pipeline.build_corners"),
    ("pipeline", "normalize_saddle", "saddle.normalize_saddle"),
    ("pipeline", "dulac_coefficients", "saddle.dulac_coefficients"),
    ("saddle", "mellin_hat", "saddle.mellin_hat"),
    ("pipeline", "return_expansion", "calculus.return_expansion"),
    ("pipeline", "displacement_expansion", "calculus.displacement_expansion"),
    ("composecheck", "compose_pair", "calculus.compose_pair"),
    ("composecheck", "inverse_dulac", "calculus.inverse_dulac"),
    ("composecheck", "oracle_compose", "composecheck.oracle_compose"),
    ("composecheck", "oracle_inverse", "composecheck.oracle_inverse"),
    ("pipeline", "gradient", "cyclicity.gradient"),
    ("pipeline", "not_identity_probe", "cyclicity.not_identity_probe"),
    ("pipeline", "verdict", "cyclicity.verdict"),
    ("pipeline", "numeric_return", "flow.numeric_return"),
    ("pipeline", "numeric_dulac", "flow.numeric_dulac"),
    ("pipeline", "fit_expansion", "flow.fit_expansion"),
    ("pipeline", "count_limit_cycles", "flow.count_limit_cycles"),
    ("flow", "crossing_map", "flow.crossing_map"),
)

# (module, attribute, probe kind); model.bind integrates too, through its own name
PROBE_HOOKS = (
    ("saddle", "quad", "quad"),
    ("flow", "integrate", "integrate"),
    ("model", "integrate", "integrate"),
    ("flow", "solve_ivp", "solve_ivp"),
)

# Per-layer metrics of a traced run: name -> unit.
LAYER_METRICS = {
    "saddle.mellin_hat.calls": "count",
    "saddle.mellin_hat.self_s": "s",
    "saddle.quad.calls": "count",
    "saddle.quad.integrand_evals": "count",
    "saddle.dulac_coefficients.calls": "count",
    "saddle.dulac_coefficients.self_s": "s",
    "saddle.normalize_saddle.self_s": "s",
    "cyclicity.gradient.calls": "count",
    "cyclicity.gradient.self_s": "s",
    "cyclicity.gradient.chain_evals": "count",
    "cyclicity.gradient.accepted_frac": "frac",
    "pipeline.build_corners.calls": "count",
    "pipeline.build_corners.self_s": "s",
    "cyclicity.not_identity_probe.self_s": "s",
    "cyclicity.verdict.self_s": "s",
    "flow.integrate.calls": "count",
    "flow.solve_ivp.rhs_evals": "count",
    "flow.crossing_map.calls": "count",
    "flow.crossing_map.self_s": "s",
    "flow.crossing_map.integrations_per_call": "count",
    "flow.numeric_return.calls": "count",
    "flow.numeric_return.self_s": "s",
    "flow.numeric_dulac.calls": "count",
    "flow.numeric_dulac.self_s": "s",
    "flow.fit_expansion.self_s": "s",
    "flow.count_limit_cycles.self_s": "s",
    "flow.count_limit_cycles.returns_per_root": "count",
    "composecheck.oracle_compose.calls": "count",
    "composecheck.oracle_compose.self_s": "s",
    "composecheck.oracle_inverse.calls": "count",
    "composecheck.oracle_inverse.self_s": "s",
    "calculus.compose_pair.self_s": "s",
    "calculus.inverse_dulac.self_s": "s",
    "calculus.return_expansion.self_s": "s",
    "calculus.displacement_expansion.self_s": "s",
    "model.bind.calls": "count",
    "model.bind.self_s": "s",
    "resultdoc.dumps.self_s": "s",
    "resultdoc.render_csv.self_s": "s",
    "cli.main.self_s": "s",
}

# Work counters that must repeat exactly across traced runs of one seed.
WORK_COUNTERS = (
    "saddle.quad.calls",
    "saddle.quad.integrand_evals",
    "flow.integrate.calls",
    "flow.solve_ivp.rhs_evals",
    "cyclicity.gradient.chain_evals",
    "flow.count_limit_cycles.returns_per_root",
)

# span record fields
NAME, OP, PARENT, START, END, COUNTS, EXTRA = range(7)


class Tracer:
    """Installs the hooks on enter and removes them on exit."""

    def __init__(self) -> None:
        self.op = -1  # id of the op being run; the caller sets it
        self.spans: list[list[Any]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._loose: dict[str, int] = {}  # counts made outside every span
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod, attr, name in SPAN_HOOKS:
            self._replace(mod, attr, lambda fn, name=name: self._span(name, fn))
        probes = {"quad": self._quad, "integrate": self._integrate,
                  "solve_ivp": self._solve_ivp}
        for mod, attr, kind in PROBE_HOOKS:
            self._replace(mod, attr, probes[kind])
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, mod: str, attr: str, make: Callable[[Any], Any]) -> None:
        module = importlib.import_module(f"polycycles.{mod}")
        if not hasattr(module, attr):
            self.missing.append(f"{mod}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    # -- recording --------------------------------------------------------

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        after = _AFTER.get(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rec = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                rec[EXTRA] = after(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, n: int = 1) -> None:
        if self._stack:
            rec = self.spans[self._stack[-1]]
            if rec[COUNTS] is None:
                rec[COUNTS] = {}
            counts = rec[COUNTS]
        else:
            counts = self._loose
        counts[key] = counts.get(key, 0) + n

    def _quad(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def quad(func: Callable[..., float], a: float, b: float, *args: Any, **kwargs: Any):
            n = 0

            def counted(*xs: Any) -> float:
                nonlocal n
                n += 1
                return func(*xs)

            try:
                return fn(counted, a, b, *args, **kwargs)
            finally:
                self._count("saddle.quad.calls")
                self._count("saddle.quad.integrand_evals", n)

        return quad

    def _integrate(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def integrate(*args: Any, **kwargs: Any) -> Any:
            self._count("flow.integrate.calls")
            return fn(*args, **kwargs)

        return integrate

    def _solve_ivp(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def solve_ivp(*args: Any, **kwargs: Any) -> Any:
            res = fn(*args, **kwargs)
            self._count("flow.solve_ivp.rhs_evals", int(res.nfev))
            return res

        return solve_ivp

    # -- reports ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "op": rec[OP], "parent": rec[PARENT], "name": rec[NAME],
                    "start": rec[START], "end": rec[END], "counts": rec[COUNTS] or {},
                    "extra": rec[EXTRA]}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS entry, summed over the traced ops."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counts = dict(self._loose)
        for sid, rec in enumerate(spans):
            name = rec[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (rec[END] - rec[START]) - child_time[sid]
            for key, n in (rec[COUNTS] or {}).items():
                counts[key] = counts.get(key, 0) + n

        def ancestor(sid: int, name: str) -> int:
            parent = spans[sid][PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            return parent

        chain_evals = sum(1 for sid, rec in enumerate(spans)
                          if rec[NAME] == "pipeline.build_corners"
                          and ancestor(sid, "cyclicity.gradient") >= 0)
        entries = accepted = 0
        grid_returns = roots = 0
        returns = 0
        for sid, rec in enumerate(spans):
            if rec[NAME] == "cyclicity.gradient" and rec[EXTRA]:
                entries += rec[EXTRA]["entries"]
                accepted += rec[EXTRA]["accepted"]
            elif rec[NAME] == "flow.count_limit_cycles" and rec[EXTRA]:
                grid_returns += rec[EXTRA]["samples"]
                roots += rec[EXTRA]["roots"]
            elif (rec[NAME] == "flow.numeric_return"
                  and ancestor(sid, "flow.count_limit_cycles") >= 0):
                returns += 1
        crossing_integrations = sum((rec[COUNTS] or {}).get("flow.integrate.calls", 0)
                                    for rec in spans if rec[NAME] == "flow.crossing_map")

        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "calls" and layer in calls:
                out[metric] = calls[layer]
            elif field == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            else:
                out[metric] = counts.get(metric, 0)
        out["cyclicity.gradient.chain_evals"] = chain_evals
        out["cyclicity.gradient.accepted_frac"] = _ratio(accepted, entries)
        out["flow.crossing_map.integrations_per_call"] = _ratio(
            crossing_integrations, calls.get("flow.crossing_map", 0))
        out["flow.count_limit_cycles.returns_per_root"] = _ratio(returns - grid_returns, roots)
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0


def _gradient_after(fn, args, kwargs, result) -> dict[str, int]:
    return {"entries": len(result),
            "accepted": sum(1 for v in result.values() if v is not None)}


def _cycles_after(fn, args, kwargs, result) -> dict[str, int]:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"samples": int(bound.arguments["samples"]), "roots": len(result.cycles)}


_AFTER = {
    "cyclicity.gradient": _gradient_after,
    "flow.count_limit_cycles": _cycles_after,
}
