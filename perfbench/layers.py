"""Per-layer tracing of gwlab from outside the package.

The tracer wraps gwlab's callables in place: a function is replaced at every
name it is reached through in every loaded ``gwlab`` module (for example
both ``gwlab.metrics.prohorov`` and ``gwlab.lab.prohorov``), and a method is
replaced on its class.  Each call made while the tracer is active records a
span ``[id, parent, layer, start, end, work, error]`` in memory; spans are
written out once, at the end of the run.  A target that no longer exists is
reported as an absent layer instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

SPAN_FIELDS = ("id", "parent", "layer", "start", "end", "work", "error")
ID, PARENT, LAYER, START, END, WORK, ERROR = range(len(SPAN_FIELDS))


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


# (layer, module, attribute path, work measure).  The work measure maps the
# call's arguments and result to counts by metric name; it runs after the
# span has ended.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("offspring.build", "gwlab.offspring", "build", None),
    ("measures.tv", "gwlab.measures", "tv_distance", None),
    (
        "engine.power_get",
        "gwlab.engine",
        "PowerCache.get",
        lambda a, k, out: {"engine.power_get.out_len": len(out[0])},
    ),
    ("engine.generation", "gwlab.engine", "Propagator._advance", None),
    (
        "engine.joint",
        "gwlab.engine",
        "Propagator.joint",
        lambda a, k, out: {"engine.joint.rows": len(out.prev)},
    ),
    (
        "estimator.law",
        "gwlab.estimator",
        "estimator_law",
        lambda a, k, out: {"estimator.law.atoms": len(out.law)},
    ),
    ("estimator.consistency", "gwlab.estimator", "consistency_probability", None),
    (
        "metrics.prohorov",
        "gwlab.metrics",
        "prohorov",
        lambda a, k, out: {
            "metrics.prohorov.pair_atoms": len(_arg(a, k, 0, "a")) * len(_arg(a, k, 1, "b"))
        },
    ),
    ("metrics.bounded_lipschitz", "gwlab.metrics", "bounded_lipschitz", None),
    ("maxflow.solve", "gwlab.maxflow", "BandFlow.solve", None),
    ("simplex.maximize", "gwlab.simplex", "maximize", None),
    (
        "montecarlo.simulate",
        "gwlab.montecarlo",
        "simulate_paths",
        lambda a, k, out: {
            "montecarlo.simulate.replications": _arg(a, k, 1, "cfg").replications,
            "montecarlo.excluded": int(out.excluded.sum()),
        },
    ),
    ("montecarlo.tabulate", "gwlab.montecarlo", "empirical_estimator_law", None),
    ("montecarlo.tabulate", "gwlab.lab", "binned_estimator_law", None),
    ("lab.modulus", "gwlab.lab", "robustness_modulus", None),
    ("lab.suite", "gwlab.lab", "run_default_suite", None),
)

# Every count a work measure above can report, so that a layer never called
# still reports zero.
WORK_COUNTS = (
    "engine.power_get.out_len",
    "engine.joint.rows",
    "estimator.law.atoms",
    "metrics.prohorov.pair_atoms",
    "montecarlo.simulate.replications",
    "montecarlo.excluded",
)


class Tracer:
    """Spans of gwlab calls, recorded only while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target; record targets that cannot be found."""
        for layer, module_name, path, work in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{layer}:{module_name}.{path}")
                continue
            wrapper = self._wrap(layer, original, work)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "gwlab" and not name.startswith("gwlab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, layer: str, fn: Callable, work: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else None, layer, 0.0, 0.0, None, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, out)
            return out

        return traced

    def absent_layers(self) -> set[str]:
        return {a.split(":", 1)[0] for a in self.absent}

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def top_level_self_s(self) -> float:
        """Summed self time of spans that no other span encloses."""
        own = self._self_times()
        return sum(own[s[ID]] for s in self.spans if s[PARENT] is None)

    def summarize(self) -> dict[str, float]:
        """Per-layer calls, self time and work counts over all spans."""
        own = self._self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        for s in self.spans:
            layer = s[LAYER]
            calls[layer] += 1
            self_s[layer] += own[s[ID]]
            for key, value in (s[WORK] or {}).items():
                counts[key] += value
            if s[ERROR] is not None:
                failed[layer] += 1

        # Route per horizon, from public boundaries: under a sweep, every
        # exact horizon makes one estimator_law call and every Monte Carlo
        # horizon one binned_estimator_law call.
        under_modulus: list[bool] = []
        for s in self.spans:  # parents precede children
            parent = s[PARENT]
            under_modulus.append(
                parent is not None
                and (under_modulus[parent] or self.spans[parent][LAYER] == "lab.modulus")
            )
        route = defaultdict(int)
        for s in self.spans:
            if under_modulus[s[ID]]:
                route[s[LAYER]] += 1

        out: dict[str, float] = {}
        for layer in sorted({t[0] for t in TARGETS}):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for key in WORK_COUNTS:
            out[key] = counts[key]
        out["metrics.bounded_lipschitz.failed"] = failed["metrics.bounded_lipschitz"]
        out["maxflow.probes_per_prohorov"] = (
            calls["maxflow.solve"] / calls["metrics.prohorov"] if calls["metrics.prohorov"] else 0.0
        )
        out["lab.route.exact_horizons"] = route["estimator.law"]
        out["lab.route.mc_horizons"] = route["montecarlo.tabulate"]
        return out
