"""Per-layer spans around the public entry points of foliationlab.

The tracer replaces each entry point with a timing wrapper for the length of
one traced pass and puts the originals back afterwards.  A function that other
modules bound with ``from .x import y`` is replaced in every foliationlab
module that holds it, and a method in every class attribute that aliases it
(``__radd__ = __add__``), so no call slips past the span.

Self time is a span's duration minus the time covered by nested spans of
other wrapped calls.  Inclusive time is counted only at the outermost open
span of a group, so recursive calls (``poly_gcd``) are not counted twice.
"""
from __future__ import annotations

import importlib
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "foliationlab"

# (module, attribute path, span name, inclusive-time group)
TARGETS = (
    ("field", "FieldElement.__add__", "field.add", "field.arith"),
    ("field", "FieldElement.__sub__", "field.sub", "field.arith"),
    ("field", "FieldElement.__mul__", "field.mul", "field.arith"),
    ("field", "FieldElement.__truediv__", "field.truediv", "field.arith"),
    ("field", "FieldElement.inverse", "field.inverse", "field.arith"),
    ("poly", "Polynomial.__add__", "poly.add", "poly.arith"),
    ("poly", "Polynomial.__sub__", "poly.sub", "poly.arith"),
    ("poly", "Polynomial.__mul__", "poly.mul", "poly.arith"),
    ("poly", "Polynomial.__pow__", "poly.pow", "poly.arith"),
    ("poly", "Polynomial.substitute", "poly.substitute", "poly.substitute"),
    ("poly", "Polynomial.shift", "poly.shift", "poly.substitute"),
    ("poly", "Polynomial.set_var", "poly.set_var", "poly.substitute"),
    ("poly", "Polynomial.exact_div", "poly.exact_div", "poly.exact_div"),
    ("poly", "poly_gcd", "poly.gcd", "poly.gcd"),
    ("poly", "gcd_many", "poly.gcd_many", "poly.gcd"),
    ("poly", "parse_polynomial", "poly.parse", "poly.parse"),
    ("forms", "saturate", "forms.saturate", "forms.saturate"),
    ("blowup", "BlowupAtlas.blow_up", "blowup.blow_up", "blowup.blow_up"),
    ("blowup", "BlowupAtlas.exceptional_residue", "blowup.exceptional_residue",
     "blowup.exceptional_residue"),
    ("blowup", "transform_form", "blowup.transform", "blowup.transform"),
    ("blowup", "detect_dicritical", "blowup.dicritical", "blowup.dicritical"),
    ("classify", "classify_point", "classify.classify_point", "classify.classify_point"),
    ("reduce2d", "reduce", "reduce2d.reduce", "reduce2d.reduce"),
    ("reduce2d", "first_blowup_index_sum", "reduce2d.first_blowup_index_sum",
     "reduce2d.first_blowup_index_sum"),
    ("reduce2d", "verdict_generalized_curve", "reduce2d.verdict", "reduce2d.verdict"),
    ("reduce2d", "ReductionTree.cs_sum_audit", "reduce2d.cs_sum_audit",
     "reduce2d.cs_sum_audit"),
    ("reduce2d", "ReductionTree.nodal_separators", "reduce2d.nodal_separators",
     "reduce2d.nodal_separators"),
    ("solve", "univariate_roots", "solve.roots", "solve.roots"),
    ("solve", "_sympy_linear_roots", "solve.sympy", "solve.sympy"),
    ("divisorgraph", "from_atlas", "divisorgraph.from_atlas", "divisorgraph.from_atlas"),
    ("divisorgraph", "DivisorGraph.validate", "divisorgraph.validate",
     "divisorgraph.validate"),
    ("holonomy", "lift_path", "holonomy.lift", "holonomy.lift"),
    ("holonomy", "saturation_probe", "holonomy.probe", "holonomy.probe"),
    ("holonomy", "nodal_first_integral_drift", "holonomy.drift", "holonomy.drift"),
    ("holonomy", "lemma4_reach_check", "holonomy.lemma4", "holonomy.lemma4"),
    ("cli", "parse_form", "cli.parse_form", "cli.parse"),
    ("cli", "parse_center", "cli.parse_center", "cli.parse"),
    ("cli", "render_report", "cli.render_report", "cli.report"),
    ("cli", "_jsonable", "cli.jsonable", "cli.report"),
    ("cli", "run_scenario", "cli.run_scenario", "cli.run_scenario"),
)

# Per-layer metrics of a traced pass, in report order, with unit and direction.
# Which end-to-end metric each layer should move, on which workload:
#   field         items_per_s, item_p50_ms on exact_blowups and plane_reduction;
#                 no change on corpus
#   poly          items_per_s on exact_blowups; item_tail_ms, fail_frac on
#                 plane_reduction
#   forms         items_per_s on exact_blowups, less on plane_reduction
#                 (saturate_monomial_frac is the hit rate of a monomial fast path)
#   blowup        items_per_s on exact_blowups and plane_reduction
#   classify      item_p50_ms on exact_blowups
#   reduce2d      items_per_s on plane_reduction
#   solve         item_tail_ms, setup_s on plane_reduction
#   divisorgraph  item_p50_ms on exact_blowups
#   holonomy      wall_s, items_per_s on corpus
#   cli           wall_s on corpus
# A ratio with a zero base (no probe ran, say) is reported as 0.
PER_LAYER = (
    ("field.calls", "count", "lower"),
    ("field.self_s", "s", "lower"),
    ("poly.mul_calls", "count", "lower"),
    ("poly.substitute_calls", "count", "lower"),
    ("poly.gcd_calls", "count", "lower"),
    ("poly.gcd_s", "s", "lower"),
    ("poly.self_s", "s", "lower"),
    ("poly.max_terms", "count", "lower"),
    ("forms.saturate_calls", "count", "lower"),
    ("forms.saturate_s", "s", "lower"),
    ("forms.saturate_monomial_frac", "fraction", "higher"),
    ("blowup.blow_up_calls", "count", "lower"),
    ("blowup.charts", "count", "lower"),
    ("blowup.transform_calls", "count", "lower"),
    ("blowup.transform_s", "s", "lower"),
    ("blowup.dicritical_s", "s", "lower"),
    ("classify.calls", "count", "lower"),
    ("classify.s", "s", "lower"),
    ("reduce2d.blowups", "count", "lower"),
    ("reduce2d.leaves", "count", "lower"),
    ("reduce2d.max_depth", "count", "lower"),
    ("reduce2d.self_s", "s", "lower"),
    ("solve.roots_calls", "count", "lower"),
    ("solve.sympy_calls", "count", "lower"),
    ("solve.sympy_s", "s", "lower"),
    ("divisorgraph.from_atlas_s", "s", "lower"),
    ("divisorgraph.validate_s", "s", "lower"),
    ("holonomy.lift_calls", "count", "lower"),
    ("holonomy.rk4_steps", "count", "lower"),
    ("holonomy.lift_s", "s", "lower"),
    ("holonomy.lift_fail_frac", "fraction", "lower"),
    ("holonomy.probe_s", "s", "lower"),
    ("holonomy.probe_accept_frac", "fraction", "higher"),
    ("holonomy.drift_s", "s", "lower"),
    ("holonomy.lemma4_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_terms = 0
        self.scenario_s = {}
        self._stack = []
        self._open = defaultdict(int)
        self._saved = []

    # -- installation ---------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        targets = [(importlib.import_module(f"{PACKAGE}.{mod_name}"), path, span, group)
                   for mod_name, path, span, group in TARGETS]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module, path, span, group in targets:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span, group)
            if inspect.isclass(owner):
                holders = [owner]
            else:
                holders = modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)

    def end_item(self):
        """Drop spans a deadline cut short: between items no span is open."""
        self._stack.clear()
        self._open.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ----------------------------------------------------------
    def _wrap(self, fn, span, group):
        stack, open_ = self._stack, self._open
        before = _BEFORE.get(span)
        after = _AFTER.get(span)
        signature = inspect.signature(fn) if before else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, signature.bind(*args, **kwargs))
            frame = [0.0]
            stack.append(frame)
            open_[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[span] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_[group] -= 1
                self.calls[span] += 1
                self.self_s[span] += dt - frame[0]
                if not open_[group]:
                    self.inclusive_s[group] += dt
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(self, args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- metrics --------------------------------------------------------
    def _sum(self, table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def metrics(self, overhead_frac):
        c, inc, cnt = self.calls, self.inclusive_s, self.counts
        values = {
            "field.calls": self._sum(c, "field."),
            "field.self_s": self._sum(self.self_s, "field."),
            "poly.mul_calls": c["poly.mul"],
            "poly.substitute_calls": c["poly.substitute"],
            "poly.gcd_calls": c["poly.gcd"],
            "poly.gcd_s": inc["poly.gcd"],
            "poly.self_s": self._sum(self.self_s, "poly."),
            "poly.max_terms": self.max_terms,
            "forms.saturate_calls": c["forms.saturate"],
            "forms.saturate_s": inc["forms.saturate"],
            "forms.saturate_monomial_frac": _ratio(cnt["saturate_monomial"],
                                                   c["forms.saturate"]),
            "blowup.blow_up_calls": c["blowup.blow_up"],
            "blowup.charts": cnt["charts"],
            "blowup.transform_calls": c["blowup.transform"],
            "blowup.transform_s": inc["blowup.transform"],
            "blowup.dicritical_s": inc["blowup.dicritical"],
            "classify.calls": c["classify.classify_point"],
            "classify.s": inc["classify.classify_point"],
            "reduce2d.blowups": cnt["reduce_blowups"],
            "reduce2d.leaves": cnt["reduce_leaves"],
            "reduce2d.max_depth": cnt["reduce_max_depth"],
            "reduce2d.self_s": self._sum(self.self_s, "reduce2d."),
            "solve.roots_calls": c["solve.roots"],
            "solve.sympy_calls": c["solve.sympy"],
            "solve.sympy_s": inc["solve.sympy"],
            "divisorgraph.from_atlas_s": inc["divisorgraph.from_atlas"],
            "divisorgraph.validate_s": inc["divisorgraph.validate"],
            "holonomy.lift_calls": c["holonomy.lift"],
            "holonomy.rk4_steps": cnt["rk4_steps"],
            "holonomy.lift_s": inc["holonomy.lift"],
            "holonomy.lift_fail_frac": _ratio(self.raised["holonomy.lift"],
                                              c["holonomy.lift"]),
            "holonomy.probe_s": inc["holonomy.probe"],
            "holonomy.probe_accept_frac": _ratio(cnt["probe_accepted"],
                                                 cnt["probe_lifts"]),
            "holonomy.drift_s": inc["holonomy.drift"],
            "holonomy.lemma4_s": inc["holonomy.lemma4"],
            "cli.parse_s": inc["cli.parse"],
            "cli.report_s": inc["cli.report"],
            "trace.overhead_frac": overhead_frac,
        }
        return {name: values[name] for name, _unit, _better in PER_LAYER}


# -- observers: counters read from arguments and results ------------------

def _before_lift(tracer, bound):
    """RK4 steps of one lift, by the step-count formula of lift_path."""
    bound.apply_defaults()
    args = bound.arguments
    if tracer._open["holonomy.probe"]:
        tracer.counts["probe_lifts"] += 1
    config = args["config"]
    length = sum(getattr(p, "length", 1.0) for p in args["paths"].values())
    if args["start"] == 0 or length > config.max_length:
        return
    tracer.counts["rk4_steps"] += max(16, int(math.ceil(max(length, 1.0) / config.step)))


def _after_probe(tracer, args, result, dt):
    tracer.counts["probe_accepted"] += sum(1 for r in result["records"] if r["reached"])


def _after_saturate(tracer, args, result, dt):
    tracer.counts["saturate_monomial"] += len(result[1].terms) == 1


def _after_blow_up(tracer, args, result, dt):
    tracer.counts["charts"] += len(result["children"])


def _after_reduce(tracer, args, tree, dt):
    tracer.counts["reduce_blowups"] += tree.blowups
    tracer.counts["reduce_leaves"] += len(tree.leaves)
    depth = max((len(leaf.path) for leaf in tree.leaves), default=0)
    tracer.counts["reduce_max_depth"] = max(tracer.counts["reduce_max_depth"], depth)


def _after_poly(tracer, args, result, dt):
    if result is not NotImplemented and len(result.terms) > tracer.max_terms:
        tracer.max_terms = len(result.terms)


def _after_run_scenario(tracer, args, result, dt):
    name = args[0].get("name", "unnamed")
    tracer.scenario_s[name] = tracer.scenario_s.get(name, 0.0) + dt


_BEFORE = {"holonomy.lift": _before_lift}
_AFTER = {
    "holonomy.probe": _after_probe,
    "forms.saturate": _after_saturate,
    "blowup.blow_up": _after_blow_up,
    "reduce2d.reduce": _after_reduce,
    "poly.mul": _after_poly,
    "poly.substitute": _after_poly,
    "poly.shift": _after_poly,
    "cli.run_scenario": _after_run_scenario,
}
