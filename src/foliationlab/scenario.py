"""The scenario format: load a JSON scenario and check the whole document.

check() reads every section once, before any analysis runs, and returns a
Scenario of parsed values.  A malformed field is a ScenarioError naming its
JSON path, and every number in the document must be finite.  The analyses in
cli read only the Scenario.
"""
from __future__ import annotations

import cmath
import json
import math
import os
import sys
from typing import NamedTuple

from .blowup import CenterSpec
from .divisorgraph import DivisorGraph
from .errors import BadParameters, FoliationLabError, ScenarioError
from .field import is_square_free
from .forms import OneForm
from .holonomy import LinearModel, NumericConfig, circle_path, constant_path, spiral_path
from .poly import VARNAMES, parse_element, parse_polynomial

# Largest field discriminant d: the square-free test is trial division up to
# sqrt(d), which a scenario must not be able to make arbitrarily long.
MAX_D = 10 ** 6

# Largest probe grid (nx * ny points) and reach check (trials): the grid is
# built while the document is checked, and every point and trial is lifted.
MAX_GRID_POINTS = 10 ** 4
MAX_TRIALS = 10 ** 4

# Largest max_depth, the blow-up budget of reduce2d: 10 times the most blow-ups
# any bundled input needs, 12 (y^11 - c x^12 among the benchmark's plane germs).
MAX_DEPTH = 120

ANALYSES = ("classify", "dicritical", "reduce2d", "graph", "holonomy")


class Scenario(NamedTuple):
    """A checked scenario document, every section parsed."""
    doc: dict
    name: str
    form: OneForm | None
    divisor_vars: tuple
    dicritical_vars: tuple
    probe: tuple | None  # (lams, a, b)
    max_depth: int
    script: list  # (chart path, CenterSpec) per step
    graph: DivisorGraph | None
    flags: dict
    holonomy: tuple  # (NumericConfig, parsed blocks)
    analyses: list


def load(path):
    """The JSON object in the file at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")
    except ValueError as e:  # not UTF-8, or an integer with too many digits
        raise ScenarioError(f"{path}: {e}") from None
    except RecursionError:
        raise ScenarioError(f"{path}: nested too deeply") from None
    except OSError as e:
        raise ScenarioError(f"{path}: {e.strerror}") from None
    return _document(doc)


def _document(doc):
    if not isinstance(doc, dict):
        raise ScenarioError(f"a scenario must be a JSON object, not {type(doc).__name__}")
    return doc


def check(doc, analyses=None, form=None):
    """The Scenario of a document; a Scenario is returned as it is.

    `analyses`, when given, replaces the document's list (which is still
    checked), and `form` is the document's 1-form when the caller parsed
    it already.  Sections the analyses do not read are checked too.
    """
    if isinstance(doc, Scenario):
        return doc
    _document(doc)
    name = _field(doc, "name", (str,), "unnamed")
    if form is None and "form" in doc:
        form = parse_form(doc)
    nvars, d = (form.nvars, form.d) if form is not None else (0, 0)
    divisor_vars = _variables(doc, "divisor_vars", nvars)
    dicritical_vars = _variables(doc, "dicritical_vars", nvars)
    probe = _probe(doc.get("probe"), d)
    max_depth = _field(doc, "max_depth", (int,), 24)
    if not 0 <= max_depth <= MAX_DEPTH:
        raise ScenarioError(f"'max_depth' must be an integer from 0 to {MAX_DEPTH}, "
                            f"not {max_depth}")
    script = _script(_field(doc, "script", (list,), []), nvars, d)
    graph = _graph(doc["graph"]) if "graph" in doc else None
    flags = _flags(doc, "flags")
    holonomy = _holonomy(doc.get("holonomy", {}))
    listed = _analyses(_field(doc, "analyses", (list,), []))
    requested = _analyses(list(analyses)) if analyses else listed
    needs_form = {"classify", "dicritical", "reduce2d"} | ({"graph"} if graph is None else set())
    if form is None and needs_form.intersection(requested):
        raise ScenarioError("scenario has no 1-form")
    expectations(doc)
    _finite(doc)  # last, so a NaN a section refuses keeps that section's message
    return Scenario(doc, name, form, divisor_vars, dicritical_vars, probe, max_depth,
                    script, graph, flags, holonomy, requested)


# ---------------------------------------------------------------------------
# field helpers
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _field(rec, key, kinds=None, default=_REQUIRED, at=None):
    """rec[key], or default when it is absent; with kinds, a value of one of
    those types (a bool is a number only to kinds that name bool, and a
    number must fit a float).  `at` is the JSON path of rec, for messages."""
    where = f"{at}.{key}" if at else key
    if not isinstance(rec, dict):
        raise ScenarioError(f"expected an object, not {rec!r}")
    if key not in rec:
        if default is _REQUIRED:
            raise ScenarioError(f"missing {where!r}")
        return default
    v = rec[key]
    if kinds is not None and ((isinstance(v, bool) and bool not in kinds)
                              or not isinstance(v, kinds)):
        raise ScenarioError(f"{where!r} must be {' or '.join(k.__name__ for k in kinds)}, "
                            f"not {v!r}")
    if kinds is not None and float in kinds and not _is_real(v):
        raise ScenarioError(f"{where!r} is too large for a float: {v!r}")
    return v


def _is_real(v):
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                    and abs(v) <= sys.float_info.max)


def _object(v, where):
    if not isinstance(v, dict):
        raise ScenarioError(f"{where!r} must be an object, not {v!r}")
    return v


def _strings(rec, key, at, default=()):
    """rec[key]: a list of strings, `default` when absent."""
    v = _field(rec, key, (list,), default, at)
    if not all(isinstance(s, str) for s in v):
        raise ScenarioError(f"'{at}.{key}' must be a list of strings, not {v!r}")
    return v


def _parse_each(texts, where, parse):
    """parse(text) for each text; a parse error names where[j]."""
    out = []
    for j, text in enumerate(texts):
        try:
            out.append(parse(text))
        except FoliationLabError as e:
            raise ScenarioError(f"'{where}[{j}]': {e}") from None
    return out


def _finite(doc):
    """Refuse NaN and infinities anywhere in the document."""
    todo = [("", doc)]
    while todo:
        where, v = todo.pop()
        if isinstance(v, float) and not math.isfinite(v):
            raise ScenarioError(f"{where!r} must be a finite number, not {v!r}")
        if isinstance(v, dict):
            todo.extend((f"{where}.{k}" if where else k, x) for k, x in v.items())
        elif isinstance(v, list):
            todo.extend((f"{where}[{j}]", x) for j, x in enumerate(v))


# ---------------------------------------------------------------------------
# the 1-form and the exact sections
# ---------------------------------------------------------------------------

def parse_form(scenario):
    """The scenario's 1-form.  A malformed field is a ScenarioError naming it:
    'dimension' is an integer from 1 to 3 (default: the number of
    coefficients), 'd' a square-free integer from 0 to MAX_D (default 0),
    'form.coefficients' a list of that many polynomial strings and
    'form.log', when present, a list of that many booleans."""
    spec = scenario.get("form")
    if spec is None:
        raise ScenarioError("scenario has no 1-form")
    _object(spec, "form")
    coeffs = spec.get("coefficients")
    if not isinstance(coeffs, list):
        raise ScenarioError(f"'form.coefficients' must be a list of strings, not {coeffs!r}")
    nvars = _field(scenario, "dimension", (int,), len(coeffs))
    if not 1 <= nvars <= len(VARNAMES):
        raise ScenarioError(f"'dimension' must be from 1 to {len(VARNAMES)}, not {nvars}")
    if len(coeffs) != nvars:
        raise ScenarioError(f"'form.coefficients' needs {nvars} entries, not {len(coeffs)}")
    for i, c in enumerate(coeffs):
        if not isinstance(c, str):
            raise ScenarioError(f"'form.coefficients[{i}]' must be a string, not {c!r}")
    d = _field(scenario, "d", (int,), 0)
    if d > MAX_D:
        raise ScenarioError(f"'d' must be at most {MAX_D}, not {d}")
    if not is_square_free(d):
        raise ScenarioError(f"'d': discriminant {d} is not square-free (or is 1)")
    log = spec.get("log")
    if log is not None and not (isinstance(log, list) and len(log) == nvars
                                and all(isinstance(b, bool) for b in log)):
        raise ScenarioError(f"'form.log' must be a list of {nvars} booleans, not {log!r}")
    parsed = _parse_each(coeffs, "form.coefficients", lambda t: parse_polynomial(t, nvars, d))
    return OneForm(parsed, log=log)


def _variables(doc, key, nvars):
    """A list of variable indices of the form, [] when absent."""
    vs = _field(doc, key, (list,), [])
    for j, v in enumerate(vs):
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < nvars:
            raise ScenarioError(f"'{key}[{j}]' must be a variable index below {nvars}, "
                                f"not {v!r}")
    return tuple(vs)


def _probe(rec, d):
    """(lams, a, b) of the saddle-node probe, None when absent."""
    if rec is None:
        return None
    _object(rec, "probe")
    lams = _strings(rec, "lams", "probe", _REQUIRED)
    if not lams:
        raise ScenarioError("'probe.lams' must be a non-empty list of strings, not []")
    weights = []
    for key in ("a", "b"):
        w = _field(rec, key, (list,), at="probe")
        if len(w) != len(lams) or not all(isinstance(n, int) and not isinstance(n, bool)
                                          and n >= 0 for n in w):
            raise ScenarioError(f"'probe.{key}' must be a list of {len(lams)} "
                                f"non-negative integers, not {w!r}")
        weights.append(w)
    return (_parse_each(lams, "probe.lams", lambda t: parse_element(t, d)), *weights)


def parse_center(record, nvars, d):
    """A center record: {"kind": "point", "coords": [...]} (the origin when
    coords is absent) or {"kind": "curve", "axis": [a, b]}."""
    if not isinstance(record, dict):
        raise ScenarioError(f"center must be an object, not {record!r}")
    kind = record.get("kind", "point")
    if kind == "point":
        coords = record.get("coords")
        if coords is None:
            return CenterSpec.origin(nvars, d)
        if not (isinstance(coords, list) and len(coords) == nvars
                and all(isinstance(c, str) for c in coords)):
            raise ScenarioError(f"point center needs {nvars} 'coords', not {coords!r}")
        return CenterSpec("point", point=_parse_each(coords, "coords", lambda t: parse_element(t, d)))
    if kind != "curve":
        raise ScenarioError(f"unknown center kind {kind!r}; expected 'point' or 'curve'")
    axis = record.get("axis")
    if not (isinstance(axis, list) and len(axis) == 2 and axis[0] != axis[1]
            and all(isinstance(v, int) and 0 <= v < nvars for v in axis)):
        raise ScenarioError(f"curve center needs an 'axis' of two distinct variable "
                            f"indices below {nvars}, not {axis!r}")
    return CenterSpec.axis(*axis)


def _script(steps, nvars, d):
    """(chart path, center) of each blow-up step.

    A step is {"path": [chart labels], "center": center record}.
    """
    out = []
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise ScenarioError(f"script[{i}]: a step must be an object, not {step!r}")
        unknown = sorted(set(step) - {"path", "center"})
        if unknown:
            raise ScenarioError(f"script[{i}]: unknown keys {unknown}; "
                                "a step has only 'path' and 'center'")
        path = tuple(_strings(step, "path", f"script[{i}]"))
        try:
            center = parse_center(step.get("center", {}), nvars, d)
        except ScenarioError as e:
            raise ScenarioError(f"script[{i}]: {e}") from None
        out.append((path, center))
    return out


def _graph(rec):
    """The ingested divisor graph.  Components, curves and points are objects
    with a string 'id', unique in its list; their 'components' and 'curves'
    are lists of ids; 'fiber' is null or a list of objects whose 'curves'
    are ids."""
    _object(rec, "graph")
    for key in ("components", "curves", "points"):
        ids = set()
        for j, item in enumerate(_field(rec, key, (list,), [], "graph")):
            at = f"graph.{key}[{j}]"
            ident = _field(_object(item, at), "id", (str,), at=at)
            if ident in ids:
                raise ScenarioError(f"'{at}.id' repeats {ident!r}")
            ids.add(ident)
            _strings(item, "components", at)
            _strings(item, "curves", at)
    fiber = _field(rec, "fiber", (list, type(None)), None, "graph")
    for j, entry in enumerate(fiber or []):
        _strings(_object(entry, f"graph.fiber[{j}]"), "curves", f"graph.fiber[{j}]")
    _field(rec, "provenance", (str,), "Ingested", "graph")
    _flags(rec, "flags", "graph")
    return DivisorGraph.from_json_dict(rec)


def _flags(rec, key, at=None):
    """An object of named boolean flags, {} when absent."""
    where = f"{at}.{key}" if at else key
    flags = _field(rec, key, (dict,), {}, at)
    for name, v in flags.items():
        if not isinstance(v, bool):
            raise ScenarioError(f"'{where}.{name}' must be a boolean, not {v!r}")
    return flags


def _analyses(names):
    for j, name in enumerate(names):
        if not isinstance(name, str):
            raise ScenarioError(f"'analyses[{j}]' must be one of {', '.join(ANALYSES)}, "
                                f"not {name!r}")
        if name not in ANALYSES:
            raise ScenarioError(f"unknown analysis {name!r}")
    return names


def expectations(doc):
    """(exit code, {dotted report path: value}) of the document's "expect"."""
    expect = _field(doc, "expect", (dict,), {})
    return (_field(expect, "exit_code", (int,), 0, "expect"),
            _field(expect, "contains", (dict,), {}, "expect"))


# ---------------------------------------------------------------------------
# holonomy
# ---------------------------------------------------------------------------

def _complex(v):
    """A complex number written as a real or as [re, im]."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0]
    if not all(_is_real(c) for c in parts):
        raise ScenarioError(f"expected a number or [re, im], not {v!r}")
    return complex(*parts)


def _index(rec, key, tau):
    v = _field(rec, key, (int,))
    if not 0 <= v < tau:
        raise ScenarioError(f"{key!r} must be a coordinate index below {tau}, not {v}")
    return v


def _build_path(rec, tau):
    """(moving coordinate index, base path) of a path record."""
    index = _index(rec, "index", tau)
    kind = rec.get("kind", "circle")
    if kind == "circle":
        path = circle_path(_complex(_field(rec, "alpha")),
                           _field(rec, "turns", (int, float), 1))
    elif kind == "spiral":
        path = spiral_path(_complex(_field(rec, "start")), _complex(_field(rec, "end")),
                           _field(rec, "turns", (int, float), 0))
    elif kind == "constant":
        path = constant_path(_complex(_field(rec, "value")))
    else:
        raise ScenarioError(f"unknown path kind {kind!r}")
    return index, path


def _build_model(rec):
    if not isinstance(rec, dict) or not ("lam" in rec or "weights" in rec):
        raise ScenarioError(f"a model needs 'lam' or 'weights', not {rec!r}")
    delta = _field(rec, "delta", (int, float), 1.0)
    if "weights" in rec:
        weights = _field(rec, "weights", (list,))
        if not all(_is_real(r) for r in weights):
            raise ScenarioError(f"'weights' must be numbers, not {weights!r}")
        return LinearModel.nodal(weights, _field(rec, "split", (int,)), delta=delta)
    return LinearModel([_complex(l) for l in _field(rec, "lam", (list,))], delta=delta)


def _lift_args(blk):
    """(model, paths, fiber, start) of a lift or drift block."""
    model = _build_model(_field(blk, "model"))
    recs = _field(blk, "paths", (list,))
    paths = dict(_build_path(rec, model.tau) for rec in recs)
    if len(paths) != len(recs):
        raise ScenarioError("two paths move the same coordinate")
    fiber = _index(blk, "fiber", model.tau)
    if fiber in paths:
        raise ScenarioError(f"fiber {fiber} is also the index of a moving path")
    return model, paths, fiber, _complex(_field(blk, "start"))


def _grid(rec):
    nx, ny = _field(rec, "nx", (int,), 20), _field(rec, "ny", (int,), 20)
    if nx < 2 or ny < 2:
        raise ScenarioError(f"a grid needs at least 2 points a side, not {nx}x{ny}")
    if nx * ny > MAX_GRID_POINTS:
        raise ScenarioError(f"a grid has at most {MAX_GRID_POINTS} points, not {nx}x{ny}")
    x_min, x_max, y_min, y_max = (_field(rec, k, (int, float))
                                  for k in ("x_min", "x_max", "y_min", "y_max"))
    x_phase = _field(rec, "x_phase", (int, float), 0.0)
    y_phase = _field(rec, "y_phase", (int, float), 0.0)
    xs = [(x_min + (x_max - x_min) * (i / (nx - 1))) * cmath.exp(1j * x_phase * i)
          for i in range(nx)]
    ys = [(y_min + (y_max - y_min) * (j / (ny - 1))) * cmath.exp(1j * y_phase * j)
          for j in range(ny)]
    return [(x, y) for x in xs for y in ys]


def _block(blk):
    """The parsed values of one holonomy block, under the keys cli reads."""
    kind = _field(blk, "kind", (str,))
    if kind == "multiplier":
        return {"kind": kind, "lam": _complex(_field(blk, "lam")),
                "turns": _field(blk, "turns", (int, float), 1)}
    if kind == "lift":
        return {"kind": kind, "lift": _lift_args(blk),
                "closed_form": _complex(blk["closed_form"]) if "closed_form" in blk else None}
    if kind == "drift":
        return {"kind": kind, "lift": _lift_args(blk)}
    if kind == "lemma4":
        lam, rho, eps = (_field(blk, k, (int, float)) for k in ("lam", "rho", "eps"))
        trials = None
        if blk.get("reach_check"):
            trials = _field(blk, "trials", (int,), 100)
            if not 1 <= trials <= MAX_TRIALS:
                raise ScenarioError(f"'trials' must be from 1 to {MAX_TRIALS}, not {trials}")
        return {"kind": kind, "lam": lam, "rho": rho, "eps": eps, "trials": trials}
    if kind == "probe":
        return {"kind": kind, "model": _build_model(_field(blk, "model")),
                "alpha": _field(blk, "alpha", (int, float)),
                "eps": _field(blk, "eps", (int, float)),
                "grid": _grid(_field(blk, "grid"))}
    raise ScenarioError(f"unknown holonomy block {kind!r}")


def _holonomy(spec):
    """(NumericConfig, parsed blocks); each block also carries its 'name'."""
    try:
        recs = _field(spec, "blocks", (list,), [])
        cfg_rec = _field(spec, "config", (dict,), {})
        config = NumericConfig(step=_field(cfg_rec, "step", (int, float), 5e-3),
                               tol=_field(cfg_rec, "tol", (int, float), 1e-9),
                               max_length=_field(cfg_rec, "max_length", (int, float), 2000.0))
    except (ScenarioError, BadParameters) as e:
        raise ScenarioError(f"holonomy: {e}") from None
    blocks = []
    probes = 0
    for i, blk in enumerate(recs):
        try:
            name = _field(blk, "name", (str,), f"probe{probes}")
            if name in ("", ".", "..") or os.path.basename(name) != name:
                raise ScenarioError(f"a block name must be a plain file name, not {name!r}")
            blocks.append({**_block(blk), "name": name})
        except FoliationLabError as e:
            raise ScenarioError(f"holonomy.blocks[{i}]: {e}") from e
        probes += blocks[-1]["kind"] == "probe"
    return config, blocks
