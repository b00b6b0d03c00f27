"""Frozen copies of the lifts, drift, reach check and saturation probe of
foliationlab.holonomy as they stood before the probe and the reach check
took the shared closed form without building paths, and before the drift
loop was tightened.  The differential tests hold the library to these
results bit for bit, exceptions included.

Two edits only: the nodal first integral is the function below, as the
model method computed it then, and saturation_probe takes the lift it
confirms candidates with, lift_path by default.
"""
from __future__ import annotations

import cmath
import math
import random
import sys
from collections import deque

from foliationlab.errors import BadParameters, LeftDomain, PathTooLong, StepTooLarge, ZeroLambda
from foliationlab.holonomy import (DEFAULT_CONFIG, MAX_TURNS, LinearModel, lemma4_constant,
                                   spiral_path)


def first_integral_log(model, point):
    """log of  prod_{i<k} |x_i|^{r_i} / prod_{i>=k} |x_i|^{r_i}."""
    if not model.is_nodal:
        raise BadParameters("first integral is defined for nodal models")
    if any(v == 0 for v in point):
        raise LeftDomain("the first integral is undefined on the divisor")
    out = 0.0
    for i, r in enumerate(model.weights):
        s = 1.0 if i < model.split else -1.0
        out += s * r * math.log(abs(point[i]))
    return out


# RK4 steps one lift may take; a lift that needs more raises StepTooLarge
# before integrating, so a tiny configured step cannot hang a scenario.
MAX_RK4_STEPS = 10 ** 6


def _step_count(paths, start, config):
    """The RK4 step count n of a lift, after the checks every lift makes
    before it moves: LeftDomain for a start on the divisor, PathTooLong and
    StepTooLarge."""
    if start == 0:
        raise LeftDomain("start value lies on the divisor")
    length = sum(getattr(p, "length", 1.0) for p in paths.values())
    if length > config.max_length:
        raise PathTooLong(f"path length {length:.3g} exceeds the configured bound")
    if max(length, 1.0) / config.step > MAX_RK4_STEPS:
        raise StepTooLarge(f"the lift needs more than {MAX_RK4_STEPS} RK4 steps")
    return max(16, int(math.ceil(max(length, 1.0) / config.step)))


def _check_inside(u, xs, bound):
    """The polydisc guard at one node: raise LeftDomain unless e^u and every
    moving coordinate in xs are <= bound in modulus.  Anything else is
    outside: NaN, and a u whose e^u is no finite float."""
    try:
        inside = cmath.isfinite(u) and math.exp(u.real) <= bound
    except OverflowError:  # so far out that e^u is no float
        inside = False
    if not (inside and all(abs(v) <= bound for v in xs)):
        raise LeftDomain("lifted path exited the polydisc or is no finite number")


def _unperturbed(model, paths, fiber):
    return all(model.perturbations[i] is None for i in [*paths, fiber])


def _lift_steps(model, paths, fiber, start, config):
    """The one RK4 kernel: yield (node values, u) at the start of a lift and
    after every step.

    The fiber coordinate is integrated in logarithmic form, u = log x_f; the
    node values are the moving coordinates at that node, in the order of
    `paths`.  Each base path is evaluated once per node: at the midpoint
    (s + 1/2) h, shared by k2 and k3, and at the end (s + 1) h, which is the
    next step's start.  When no moving or fiber coefficient is perturbed the
    slope -sum_i lam_i (x_i'/x_i) / lam_f does not depend on u, so k2 = k3
    and the end slope is the next step's k1.  The polydisc guard runs after
    every step.
    """
    n = _step_count(paths, start, config)
    h = 1.0 / n
    h6 = h / 6
    index = list(paths)
    terms = [(model.lam[i], p) for i, p in paths.items()]
    lam_f = model.lam[fiber]
    bound = model.delta * (1 + 1e-9)

    def node(t):
        """Moving coordinates at t and their log-derivatives x_i'/x_i."""
        xs, ws = [], []
        for _, p in terms:
            v, dv = p(t)
            xs.append(v)
            ws.append(dv / v)
        return xs, ws

    def slope(xs, ws, u):
        """u' at node values xs, log-derivatives ws and x_f = e^u."""
        pt = [0.0] * model.tau
        for i, v in zip(index, xs):
            pt[i] = v
        pt[fiber] = cmath.exp(u)
        num = 0.0
        for i, w in zip(index, ws):
            num += model.coefficient(i, pt) * w
        den = model.coefficient(fiber, pt)
        if den == 0:
            raise ZeroLambda("fiber coefficient vanished along the path")
        return -num / den

    unperturbed = _unperturbed(model, paths, fiber)
    u = cmath.log(start)
    xs, ws = node(0.0)
    k1 = slope(xs, ws, u)
    yield xs, u
    for s in range(n):
        tm, te = (s + 0.5) * h, (s + 1) * h
        if unperturbed:
            # written out rather than through node() and slope(): the slope
            # depends on t alone, so one evaluation per node suffices
            num_m = num_e = 0.0
            xs = []
            for lam, p in terms:
                v, dv = p(tm)
                num_m += lam * (dv / v)
                v, dv = p(te)
                num_e += lam * (dv / v)
                xs.append(v)
            k2, k4 = -num_m / lam_f, -num_e / lam_f
            u += h6 * (k1 + 4 * k2 + k4)
            k1 = k4
        else:
            k1 = slope(xs, ws, u)
            xm, wm = node(tm)
            xs, ws = node(te)
            k2 = slope(xm, wm, u + h * k1 / 2)
            k3 = slope(xm, wm, u + h * k2 / 2)
            k4 = slope(xs, ws, u + h * k3)
            u += h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        _check_inside(u, xs, bound)
        yield xs, u


def rk4_lift_path(model, paths, fiber, start, config=DEFAULT_CONFIG):
    """The end value of the fiber coordinate, integrated by the RK4 kernel
    whatever the model and paths.  The CLI lift block calls it, so that the
    block's closed_form_error keeps checking the kernel.  Raises as
    lift_path."""
    _, u = deque(_lift_steps(model, paths, fiber, start, config), maxlen=1)[0]
    return cmath.exp(u)


def lift_path(model, paths, fiber, start, config=DEFAULT_CONFIG):
    """Lift a base path through omega(gamma') = 0; the end value of the fiber.

    paths maps each moving coordinate index to a base path; the fiber
    coordinate is followed in logarithmic form
        u' = - sum_i (lam_i + b_i) (x_i'/x_i) / (lam_f + b_f),  x_f = e^u.
    When every path is log-affine, x_i(t) = exp(a_i + d_i t) (each carries
    log_affine, as circle, spiral and constant paths do), and no moving or
    fiber coefficient is perturbed, u' = -sum_i lam_i d_i / lam_f is
    constant, and the end value is the closed form exp(u(0) + u').  Re u
    and log|x_i| are then affine in t, so the polydisc guard at the first
    and the last RK4 node, h and n h, covers every node in between.  Any
    other lift is integrated by rk4_lift_path.

    Either route raises LeftDomain for a start on the divisor or a lift that
    leaves the polydisc, PathTooLong when the path is longer than
    config.max_length and StepTooLarge when RK4 would need more than
    MAX_RK4_STEPS steps, with the same step count n.
    """
    if not (_unperturbed(model, paths, fiber)
            and all(hasattr(p, "log_affine") for p in paths.values())):
        return rk4_lift_path(model, paths, fiber, start, config)
    n = _step_count(paths, start, config)
    rate = -sum(model.lam[i] * p.log_affine[1] for i, p in paths.items()) / model.lam[fiber]
    u0 = cmath.log(start)
    bound = model.delta * (1 + 1e-9)
    for t in (1.0 / n, n * (1.0 / n)):
        u = u0 + rate * t
        _check_inside(u, [p(t)[0] for p in paths.values()], bound)
    return cmath.exp(u)


def nodal_first_integral_drift(model, paths, fiber, start, config=DEFAULT_CONFIG):
    """Max |log-drift| of the nodal first integral over every step of one lift."""
    if not model.is_nodal:
        raise BadParameters("drift check requires a nodal model")
    if sorted([*paths, fiber]) != list(range(model.tau)):
        raise BadParameters("drift check needs every coordinate moving or the fiber")
    base, drift = None, 0.0
    for xs, u in _lift_steps(model, paths, fiber, start, config):
        pt = [0.0] * model.tau
        for i, v in zip(paths, xs):
            pt[i] = v
        pt[fiber] = cmath.exp(u)
        value = first_integral_log(model, pt)
        if base is None:
            base = value
        drift = max(drift, abs(value - base))
    return drift


# ---------------------------------------------------------------------------
# contraction constants
# ---------------------------------------------------------------------------

def lemma4_reach_check(lam, rho, eps, trials=100, config=DEFAULT_CONFIG):
    """Empirical companion to lemma4_constant on the model lam dx/x + dy/y.

    Random starts (alpha', beta') with |beta'| < c are driven to the
    transversal {x = alpha, |y| < eps}, alpha = 1/2, by an angular then a
    radial path; returns the fraction that arrive without exiting the unit
    polydisc.  The starts come from a generator seeded with 7.  Both legs
    are spirals on an unperturbed model, so lift_path follows them by its
    closed form and checks the polydisc guard at two nodes; nothing is
    integrated.
    """
    c = lemma4_constant(lam, rho, eps)
    alpha = 0.5
    model = LinearModel([lam, 1.0])
    rng = random.Random(7)
    reached = 0
    for _ in range(trials):
        ra = alpha * (0.2 + 0.8 * rng.random())
        aa = 2 * math.pi * rng.random()
        x0 = ra * cmath.exp(1j * aa)
        y0 = c * rng.random() * cmath.exp(2j * math.pi * rng.random())
        if y0 == 0:
            y0 = c / 2
        try:
            # angular leg back to the positive real axis, then radial leg
            y1 = lift_path(model, {0: spiral_path(x0, ra)}, 1, y0, config)
            y2 = lift_path(model, {0: spiral_path(ra, alpha)}, 1, y1, config)
        except LeftDomain:
            continue
        if abs(y2) < eps:
            reached += 1
    return {"constant": c, "reached": reached, "trials": trials,
            "fraction": reached / trials}


# ---------------------------------------------------------------------------
# saturation probe
# ---------------------------------------------------------------------------

def saturation_probe(model, alpha, eps, grid, config=DEFAULT_CONFIG, lift=lift_path):
    """Reachability of grid points from the transversal {x = alpha, |y| <= eps}.

    For each grid point (x_g, y_g) the probe solves for a start value on the
    transversal along a spiral path with k extra turns, then confirms the
    candidate with lift_path; it tries k lazily, best contraction first, and
    stops at the first candidate confirmed.  For an unperturbed model that
    confirmation is the closed form of the lift plus the polydisc guard at
    the first and last RK4 node, not an integration.  Nodal models leave
    exactly the points with first-integral value beyond the transversal
    range unreached.  A candidate whose lift leaves the polydisc or whose
    spiral is too long is skipped; a lift refused by the RK4 step cap
    raises StepTooLarge.
    """
    if model.tau != 2:
        raise BadParameters("the probe drives two-variable models")
    if not (alpha > 0 and eps >= sys.float_info.min):
        raise BadParameters("the probe needs a positive alpha and an eps of at least "
                            f"{sys.float_info.min!r}, the smallest normal float")
    ratio = model.lam[0] / model.lam[1]
    if not cmath.isfinite(ratio):
        raise BadParameters(f"the residue ratio lam[0] / lam[1] = {ratio!r} is no "
                            "finite float")
    records = []
    reached = 0
    for (xg, yg) in grid:
        if xg == 0 or yg == 0:
            raise LeftDomain("grid points must avoid the divisor")
        ok = False
        base = cmath.log(xg) - math.log(alpha)
        for k in _turn_candidates(ratio, alpha, xg, yg, eps):
            shift = base + 2j * math.pi * k
            try:
                y_start = yg * cmath.exp(ratio * shift)
            except (OverflowError, ValueError):  # beyond eps, or an infinite phase
                continue
            if abs(y_start) > eps or abs(y_start) == 0:
                continue
            path = {0: spiral_path(alpha, xg, turns=k)}
            try:
                y_end = lift(model, path, 1, y_start, config)
            except (LeftDomain, PathTooLong):
                continue
            if abs(y_end - yg) <= max(config.tol * 1e3, 1e-6) * max(1.0, abs(yg)):
                ok = True
                break
        fi = first_integral_log(model, (xg, yg)) if model.is_nodal else None
        records.append({"x": xg, "y": yg, "reached": ok, "first_integral_log": fi})
        reached += ok
    return {"fraction": reached / len(records) if records else 1.0,
            "unreached": [(r["x"], r["y"]) for r in records if not r["reached"]],
            "records": records}



def _turn_candidates(ratio, alpha, xg, yg, eps):
    """Winding numbers worth trying, best contraction first: k0, then
    k0 + 1, k0 - 1, ..., k0 + MAX_TURNS - 1, k0 - MAX_TURNS + 1, keeping
    those with |k| <= MAX_TURNS, or 0 alone when none is kept.  A generator,
    so the probe computes no candidate past the first it accepts."""
    if abs(ratio.imag) < 1e-12:
        yield 0
        return
    # |y_start| = |yg| * exp(Re(ratio * shift)); extra turns scale it by
    # exp(-2 pi Im(ratio) k), so aim k at the value that lands inside eps
    base = (cmath.log(xg) - math.log(alpha))
    target = math.log(eps / 2) - math.log(abs(yg)) - (ratio * base).real
    k = target / (-2 * math.pi * ratio.imag)
    if not math.isfinite(k):  # no winding number aims at an infinite target
        yield 0
        return
    k0 = int(round(k))
    if abs(k0) >= 2 * MAX_TURNS:  # k0 +- (MAX_TURNS - 1) all lie past MAX_TURNS
        yield 0
        return
    if abs(k0) <= MAX_TURNS:
        yield k0
    for dk in range(1, MAX_TURNS):
        for s in (k0 + dk, k0 - dk):
            if abs(s) <= MAX_TURNS:
                yield s
