"""The benchmark's three workloads: seeded input generators, item runners and
reference checks.

Each workload is a list of items.  ``generate(seed)`` returns plain specs
(texts and numbers) built from the seed alone; ``prepare(spec)`` parses them
with the library; ``run(prepared)`` is the timed work and returns a canonical,
JSON-ready result; ``check(spec, result)`` compares that result with a
reference the generator worked out without the library, and returns a problem
string or None.

The library is reached through its modules (``reduce2d.reduce``), never
through names bound here, so the tracer's wrappers see every call.

Why each workload (BENCHMARK.json says the same in one line each):

* ``corpus`` is what users and the acceptance gate run.  The holonomy layer
  does nearly all of its work, so a holonomy change shows here and a symbolic
  change should not.
* ``exact_blowups`` is wide and shallow: many small logarithmic germs, one
  blow-up each, then classification, residues and (in 3-D) the divisor graph.
  Every saturation gcd is a monomial; field arithmetic dominates.
* ``plane_reduction`` is deep and narrow: full Seidenberg reduction with
  iterated blow-ups, growing degrees, off-origin shifts, non-monomial gcds
  and sympy root finding.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from foliationlab import blowup, classify, cli, forms, reduce2d

CORNER_KINDS = ("SimpleCHCorner", "PreSimpleCHCorner", "SeidenbergSimpleResonant")


@dataclass
class Workload:
    name: str
    deadline_s: float
    generate: object
    warmup: object
    prepare: object
    run: object
    check: object


def _frac_text(q):
    return f"({q.numerator}/{q.denominator})"


# ---------------------------------------------------------------------------
# corpus: the ten bundled scenarios through cli.run_corpus
# ---------------------------------------------------------------------------

def corpus_generate(seed):
    """One item per bundled scenario; the corpus is fixed, so the seed is unused."""
    specs = []
    for name, f in cli.corpus_files():
        scenario = json.loads(f.read_text())
        specs.append({"scenario": name,
                      "expect_exit": scenario.get("expect", {}).get("exit_code", 0)})
    return specs


def corpus_warmup():
    return corpus_generate(0)[0]


def corpus_prepare(spec):
    return spec["scenario"]


def corpus_run(name):
    summary, code, _text = cli.run_corpus(filter_text=name)
    return {"scenarios": summary["scenarios"], "all_matched": summary["all_matched"],
            "code": code}


def corpus_check(spec, result):
    codes = [r["exit_code"] for r in result["scenarios"] if r["scenario"] == spec["scenario"]]
    if not result["all_matched"]:
        return "scenario report did not match its expectations"
    if codes != [spec["expect_exit"]]:
        return f"exit codes {codes}, expected [{spec['expect_exit']}]"
    return None


# ---------------------------------------------------------------------------
# exact_blowups: one blow-up of a logarithmic germ sum lam_i dx_i / x_i
# ---------------------------------------------------------------------------

# Items per pass by (dimension, field discriminant, center kind).  Item costs
# cluster by stratum (2-D ~30 ms, 3-D axis ~180 ms, 3-D point ~260 ms), so the
# counts put the median inside the axis cluster and the 75th percentile inside
# the point cluster rather than in a gap between clusters, where it would jump.
EXACT_STRATA = {(2, 0, "point"): 10, (2, 2, "point"): 10,
                (3, 0, "axis"): 10, (3, 2, "axis"): 10,
                (3, 0, "point"): 12, (3, 2, "point"): 12}


def _residue(rng, d):
    """(rational part, sqrt(d) part) of a residue; both nonzero when d = 2."""
    def q():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return (q(), q() if d else Fraction(0))


def _exact_spec(n, d, center, lams):
    texts = [_frac_text(a) if not b else f"{_frac_text(a)} + {_frac_text(b)}*sqrt({d})"
             for a, b in lams]
    vs = range(n) if center == "point" else center
    expected = (sum(lams[v][0] for v in vs), sum(lams[v][1] for v in vs))
    return {"n": n, "d": d, "center": center, "coefficients": texts,
            "expected_residue": [str(expected[0]), "0", str(expected[1]), "0"]}


def exact_generate(seed):
    """Stratified draw: fixed counts per stratum, residues from the seed."""
    rng = random.Random(seed)
    specs = []
    strata = [key for key, count in EXACT_STRATA.items() for _ in range(count)]
    for n, d, kind in strata:
        center = "point" if kind == "point" else sorted(rng.sample(range(3), 2))
        vs = range(n) if center == "point" else center
        while True:  # a zero residue sum would make the blow-up dicritical
            lams = [_residue(rng, d) for _ in range(n)]
            if any(sum(lams[v][i] for v in vs) for i in (0, 1)):
                break
        specs.append(_exact_spec(n, d, center, lams))
    rng.shuffle(specs)
    return specs


def exact_warmup():
    return _exact_spec(3, 2, "point", [(Fraction(2), Fraction(1)), (Fraction(3), Fraction(-1)),
                                       (Fraction(-1, 2), Fraction(2))])


def exact_prepare(spec):
    n, d = spec["n"], spec["d"]
    center = ({"kind": "point"} if spec["center"] == "point"
              else {"kind": "curve", "axis": spec["center"]})
    scenario = {"dimension": n, "d": d,
                "form": {"coefficients": spec["coefficients"], "log": [True] * n},
                "script": [{"path": [], "center": center}]}
    return scenario, cli.parse_form(scenario), cli.parse_center(center, n, d)


def exact_run(prepared):
    scenario, form, center = prepared
    n = form.nvars
    atlas = blowup.BlowupAtlas(form)
    atlas.blow_up((), center)
    charts = []
    for chart in atlas.leaf_charts():
        cls = classify.classify_point(chart.form, divisor_vars=tuple(range(n)))
        res = atlas.exceptional_residue(chart.path)
        charts.append({
            "path": list(chart.path), "kind": cls.kind.value,
            "residues": [str(r) for _, r in cls.residues or ()],
            "exceptional_residue": (None if res is None
                                    else [str(c) for c in res.basis_coordinates()])})
    out = {"charts": charts}
    if n == 3:
        rep, _graph, violations = cli.analysis_graph(scenario, form)
        out["graph"] = {"violations": list(violations),
                        "verdict": rep.get("nodal_verdict", {}).get("verdict")}
    return out


def exact_check(spec, result):
    """Criterion 02 (residue additivity) and 03 (corners stay corners)."""
    for chart in result["charts"]:
        if chart["exceptional_residue"] != spec["expected_residue"]:
            return (f"chart {chart['path']}: exceptional residue "
                    f"{chart['exceptional_residue']} != {spec['expected_residue']}")
        if chart["kind"] not in CORNER_KINDS:
            return f"chart {chart['path']}: {chart['kind']} is not a corner"
        if not chart["residues"] or "0" in chart["residues"]:
            return f"chart {chart['path']}: corner residues {chart['residues']}"
    return None


# ---------------------------------------------------------------------------
# plane_reduction: Seidenberg reduction of plane germs
# ---------------------------------------------------------------------------

def cf_blowups(q, p):
    """Sum of the partial quotients of q/p: blow-ups to reduce y^p - c x^q."""
    total = 0
    while p:
        total += q // p
        q, p = p, q % p
    return total


SINGLE_PAIRS = tuple((p, q) for q in range(3, 13) for p in range(2, q) if math.gcd(p, q) == 1)


def _line(a):
    return (f"y - {_frac_text(a)}*x", f"-{_frac_text(a)}", "1")


def _cusp(p, q, b):
    return (f"y^{p} - ({b})*x^{q}", f"-{q}*({b})*x^{q - 1}", f"{p}*y^{p - 1}")


def _smooth(a, s):
    return (f"y - {_frac_text(a)}*x - {_frac_text(s)}*x^2",
            f"-{_frac_text(a)} - 2*{_frac_text(s)}*x", "1")


AXIS_X = ("x", "1", "0")
AXIS_Y = ("y", "0", "1")
F = Fraction

# Log-form shapes, one item each per pass: (name, branch count, slope
# magnitudes, branches from the signed slopes a).  The seed sets the slope
# signs, the residues and the field; shapes and magnitudes are fixed, so every
# seed asks for the same amount of work.  "three_lines" and "lines_tilted"
# have three distinct nonzero tangent directions, which sends root finding to
# sympy.  "slow_gcd" is the germ y^2 + x^3, y - 2x, y^2 - x^5 whose root
# saturation spends minutes in poly_gcd on coefficient growth, so it runs into
# the deadline every pass.  The other shapes stay under about 3 s, well inside
# the 5 s deadline.
LOG_SHAPES = (
    ("two_lines", 2, (1, 2), lambda a: [_line(a[0]), _line(a[1])]),
    ("line_cusp23", 2, (F(1, 2),), lambda a: [_line(a[0]), _cusp(2, 3, 1)]),
    ("smooth_cusp23", 2, (2,), lambda a: [_smooth(F(0), a[0]), _cusp(2, 3, 1)]),
    ("cusp23_pair", 2, (), lambda a: [_cusp(2, 3, 1), _cusp(2, 3, -1)]),
    ("line_cusp34", 2, (3,), lambda a: [_line(a[0]), _cusp(3, 4, 1)]),
    ("cusp25_cusp23", 2, (), lambda a: [_cusp(2, 5, 1), _cusp(2, 3, -1)]),
    ("axis_cusp25", 2, (), lambda a: [AXIS_X, _cusp(2, 5, 1)]),
    ("three_lines", 3, (1, 2, F(1, 2)), lambda a: [_line(a[0]), _line(a[1]), _line(a[2])]),
    ("lines_tilted", 3, (1, 3, 2), lambda a: [_line(a[0]), _line(a[1]), _smooth(a[2], F(1))]),
    ("axis_two_lines", 3, (1, 2), lambda a: [AXIS_Y, _line(a[0]), _line(a[1])]),
    ("lines_cusp23", 3, (1, F(1, 3)), lambda a: [_line(a[0]), _line(a[1]), _cusp(2, 3, 1)]),
    ("lines_cusp25", 3, (2, F(1, 2)), lambda a: [_line(a[0]), _line(a[1]), _cusp(2, 5, 1)]),
    ("axis_line_cusp34", 3, (F(1, 2),), lambda a: [AXIS_X, _line(a[0]), _cusp(3, 4, 1)]),
    ("line_smooth_cusp23", 3, (1, 2),
     lambda a: [_line(a[0]), _smooth(F(0), a[1]), _cusp(2, 3, 1)]),
    ("slow_gcd", 3, (), lambda a: [_cusp(2, 3, -1), _line(F(2)), _cusp(2, 5, 1)]),
)


def _log_form_texts(branches, lams):
    """Coefficients of sum_k lam_k (prod_{j != k} f_j) df_k."""
    dx, dy = [], []
    for k, (_f, fx, fy) in enumerate(branches):
        others = "".join(f"*({g[0]})" for j, g in enumerate(branches) if j != k)
        dx.append(f"({lams[k]}){others}*({fx})")
        dy.append(f"({lams[k]}){others}*({fy})")
    return [" + ".join(dx), " + ".join(dy)]


def _log_residues(rng, n, d):
    """n residues along distinct directions of the basis 1, i, sqrt(d).

    Rational multiples of distinct basis vectors are linearly independent
    over Q, so no resonance or dicritical blow-up can arise from them.
    """
    units = ["1", "i"] + ([f"sqrt({d})"] if d else [])
    picks = rng.sample(units, n)
    return [f"{_frac_text(rng.choice((-1, 1)) * Fraction(rng.randint(1, 3), rng.randint(1, 2)))}"
            f"*{u}" for u in picks]


def plane_generate(seed):
    """Every coprime single branch once, then every log shape once, shuffled."""
    rng = random.Random(seed)
    specs = []
    for p, q in SINGLE_PAIRS:
        d = rng.choice((0, 2, 3))
        c = rng.choice(("1", "2", "i") + ((f"sqrt({d})",) if d else ()))
        specs.append({"kind": "branch", "shape": f"y^{p} - c*x^{q}", "d": d,
                      "coefficients": [f"-{q}*({c})*x^{q - 1}", f"{p}*y^{p - 1}"],
                      "expected_blowups": cf_blowups(q, p)})
    for name, n, magnitudes, build in LOG_SHAPES:
        d = rng.choice((2, 3)) if n == 3 else rng.choice((0, 2, 3))
        branches = build([rng.choice((1, -1)) * F(m) for m in magnitudes])
        specs.append({"kind": "log", "shape": name, "d": d,
                      "coefficients": _log_form_texts(branches, _log_residues(rng, n, d)),
                      "expected_blowups": None})
    rng.shuffle(specs)
    return specs


def plane_warmup():
    branches = [_line(Fraction(1)), _line(Fraction(-1)), _line(Fraction(2))]
    return {"kind": "log", "shape": "three_lines", "d": 2,
            "coefficients": _log_form_texts(branches, ["1", "i", "sqrt(2)"]),
            "expected_blowups": None}


def plane_prepare(spec):
    return forms.OneForm.parse(spec["coefficients"], nvars=2, d=spec["d"])


def plane_run(form):
    tree = reduce2d.reduce(form)
    audit = tree.cs_sum_audit()
    seps = tree.nodal_separators()
    return {
        "blowups": tree.blowups,
        "depth": max((len(leaf.path) for leaf in tree.leaves), default=0),
        "leaves": len(tree.leaves),
        "verdict": reduce2d.verdict_generalized_curve(tree)["verdict"],
        "audit": {cid: [str(rep["sum"]), rep["self_intersection"], rep["ok"]]
                  for cid, rep in audit.items()},
        "separators": [[list(s["path"]), str(s["lambda"])] for s in seps],
    }


def plane_check(spec, result):
    bad = [cid for cid, (_s, _e, ok) in result["audit"].items() if not ok]
    if bad:
        return f"Camacho-Sad audit failed on {bad}"
    if spec["kind"] == "branch":
        if result["blowups"] != spec["expected_blowups"]:
            return f"{result['blowups']} blow-ups, expected {spec['expected_blowups']}"
        if result["verdict"] != "GeneralizedCurve":
            return f"verdict {result['verdict']}"
    return None


WORKLOADS = {
    "corpus": Workload("corpus", 60.0, corpus_generate, corpus_warmup,
                       corpus_prepare, corpus_run, corpus_check),
    "exact_blowups": Workload("exact_blowups", 5.0, exact_generate, exact_warmup,
                              exact_prepare, exact_run, exact_check),
    "plane_reduction": Workload("plane_reduction", 5.0, plane_generate, plane_warmup,
                                plane_prepare, plane_run, plane_check),
}
