"""Floating-point holonomy experiments for linear and nodal models.

This is the only floating-point module: closed-form loop multipliers, lifts
of paths through the foliation (exact along log-affine paths of unperturbed
models, fourth-order Runge-Kutta otherwise), first-integral conservation
along leaves of nodal models, and the contraction constants with their
empirical reach checks.  Everything else in the package is exact.
"""
from __future__ import annotations

import cmath
import functools
import math
import random
import struct
import sys
from collections import deque

from .errors import (BadParameters, LeftDomain, NonFiniteIntegral, PathTooLong, StepTooLarge,
                     ZeroLambda)


class LinearModel:
    """sum_i (lam_i + b_i(x)) dx_i / x_i on a polydisc of radius delta.

    A nodal model is given by positive weights r_1..r_tau and a split index
    k with lam_i = r_i for i < k and lam_i = -r_i for i >= k.
    """

    def __init__(self, lam, delta=1.0, perturbations=None, weights=None, split=None):
        self.lam = tuple(complex(l) for l in lam)
        if any(l == 0 for l in self.lam):
            raise ZeroLambda("model residues must be nonzero")
        self.tau = len(self.lam)
        self.delta = float(delta)
        if not self.delta > 0:
            raise BadParameters("the polydisc radius must be positive")
        self.bound = self.delta * (1 + 1e-9)  # the radius the polydisc guard admits
        self.perturbations = perturbations or (None,) * self.tau
        self.weights = tuple(float(r) for r in weights) if weights else None
        self.split = split
        if self.weights is not None:
            if not (self.split is not None and 1 <= self.split < self.tau):
                raise BadParameters("nodal split must satisfy 1 <= k < tau")
            if any(r <= 0 for r in self.weights):
                raise BadParameters("nodal weights must be positive")
            # r_i for i < k and -r_i for i >= k, the weights of the first integral
            self.signed_weights = tuple(r if i < self.split else -r
                                        for i, r in enumerate(self.weights))

    @classmethod
    def nodal(cls, weights, split, delta=1.0):
        lam = [r if i < split else -r for i, r in enumerate(weights)]
        return cls(lam, delta=delta, weights=weights, split=split)

    @property
    def is_nodal(self):
        return self.weights is not None

    def coefficient(self, i, point):
        b = self.perturbations[i]
        return self.lam[i] + (b(point) if b is not None else 0.0)

    def first_integral_log(self, point):
        """log of  prod_{i<k} |x_i|^{r_i} / prod_{i>=k} |x_i|^{r_i}."""
        if not self.is_nodal:
            raise BadParameters("first integral is defined for nodal models")
        if 0 in point:
            raise LeftDomain("the first integral is undefined on the divisor")
        out = 0.0
        for w, v in zip(self.signed_weights, point):
            out += w * math.log(abs(v))
        return out


class NumericConfig:
    def __init__(self, step=1e-3, tol=1e-9, max_length=200.0):
        if not (step > 0 and tol > 0 and max_length > 0):
            raise BadParameters("numeric configuration values must be positive")
        self.step = step
        self.tol = tol
        self.max_length = max_length


DEFAULT_CONFIG = NumericConfig()


# ---------------------------------------------------------------------------
# base paths: t in [0, 1] -> (value, derivative) per moving coordinate
#
# Each constructor below makes a log-affine path, x(t) = exp(a + d t), and
# records (a, d, value) as its log_affine attribute, where value(a, d, t) is
# x(t) as the path computes it; the closed form of a lift reads all three.
# ---------------------------------------------------------------------------

def _exp_affine(a, d, t):
    """exp(a + d t), the value of a spiral at t."""
    return cmath.exp(a + d * t)


def circle_path(alpha, turns=1):
    """x(t) = alpha * exp(2 pi i * turns * t)."""
    if alpha == 0:
        raise BadParameters("circle radius must be nonzero")
    w = 2j * math.pi * turns

    def f(t):
        v = alpha * cmath.exp(w * t)
        return v, w * v
    f.length = abs(alpha) * 2 * math.pi * abs(turns)
    f.log_affine = (cmath.log(alpha), w, lambda a, d, t: alpha * cmath.exp(d * t))
    return f


def _spiral(start, end, turns):
    """(a, d, length) of the spiral from start to end with `turns` extra turns."""
    a = cmath.log(start)
    d = cmath.log(end) + 2j * math.pi * turns - a
    return a, d, abs(d) * max(abs(start), abs(end))


def spiral_path(start, end, turns=0):
    """Logarithmic spiral from start to end winding `turns` extra times."""
    if start == 0 or end == 0:
        raise BadParameters("spiral endpoints must avoid the divisor")
    a, d, length = _spiral(start, end, turns)

    def f(t):
        v = cmath.exp(a + d * t)
        return v, d * v
    f.length = length
    f.log_affine = (a, d, _exp_affine)
    return f


def constant_path(value):
    if value == 0:
        raise BadParameters("a constant path must avoid the divisor")

    def f(t):
        return value, 0.0
    f.length = 0.0
    f.log_affine = (cmath.log(value), 0.0, lambda a, d, t: value)
    return f


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

# RK4 steps one lift may take; a lift that needs more raises StepTooLarge
# before integrating, so a tiny configured step cannot hang a scenario.
MAX_RK4_STEPS = 10 ** 6


def _length(paths):
    return sum(getattr(p, "length", 1.0) for p in paths.values())


def _check_start(start):
    """LeftDomain for a lift that starts on the divisor, the first check every
    lift makes."""
    if start == 0:
        raise LeftDomain("start value lies on the divisor")


def _step_count(length, config):
    """The RK4 step count n of a lift along paths of total length `length`,
    after the checks every lift makes before it moves, past its start:
    PathTooLong and StepTooLarge."""
    if length > config.max_length:
        raise PathTooLong(f"path length {length:.3g} exceeds the configured bound")
    span = max(length, 1.0) / config.step
    if span > MAX_RK4_STEPS:
        raise StepTooLarge(f"the lift needs more than {MAX_RK4_STEPS} RK4 steps")
    return max(16, int(math.ceil(span)))


_OUTSIDE = "lifted path exited the polydisc or is no finite number"


def _fits(u, bound):
    """Whether e^u is <= bound in modulus: no NaN, and no u whose e^u is no
    finite float."""
    try:
        return cmath.isfinite(u) and math.exp(u.real) <= bound
    except OverflowError:  # so far out that e^u is no float
        return False


def _check_inside(u, xs, bound):
    """The polydisc guard at one node: raise LeftDomain unless e^u and every
    moving coordinate in xs are <= bound in modulus.  Anything else is
    outside: NaN, and a u whose e^u is no finite float."""
    if _fits(u, bound):
        for v in xs:
            if not abs(v) <= bound:
                break
        else:
            return
    raise LeftDomain(_OUTSIDE)


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
    and the end slope is the next step's k1; the node values then come in
    one list that each step overwrites.  The polydisc guard runs after every
    step.
    """
    _check_start(start)
    n = _step_count(_length(paths), config)
    h = 1.0 / n
    h6 = h / 6
    index = list(paths)
    terms = [(model.lam[i], p) for i, p in paths.items()]
    lam_f = model.lam[fiber]
    bound = model.bound

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

    u = cmath.log(start)
    xs, ws = node(0.0)
    k1 = slope(xs, ws, u)
    yield xs, u
    if _unperturbed(model, paths, fiber):
        # written out rather than through node() and slope(): the slope
        # depends on t alone, so one evaluation per node suffices
        xs = [0.0] * len(terms)
        for s in range(n):
            tm, te = (s + 0.5) * h, (s + 1) * h
            num_m = num_e = 0.0
            for j, (lam, p) in enumerate(terms):
                v, dv = p(tm)
                num_m += lam * (dv / v)
                v, dv = p(te)
                num_e += lam * (dv / v)
                xs[j] = v
            k2, k4 = -num_m / lam_f, -num_e / lam_f
            u += h6 * (k1 + 4 * k2 + k4)
            k1 = k4
            _check_inside(u, xs, bound)
            yield xs, u
        return
    for s in range(n):
        tm, te = (s + 0.5) * h, (s + 1) * h
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


def _leg(terms, lam_f, length, bound, config):
    """The part of a closed-form lift that does not depend on its start.

    The lift runs along log-affine base paths of an unperturbed model, with
    fiber residue lam_f and polydisc guard radius bound.  terms holds
    (lam_i, a_i, d_i, value_i) per moving coordinate, whose path
    x_i(t) = exp(a_i + d_i t) is value_i(a_i, d_i, t), and length is the
    paths' total length.  The fiber's logarithm then moves at the constant
    rate u' = -sum_i lam_i d_i / lam_f.  Re u and log|x_i| are affine in t,
    so the polydisc guard at the first and the last RK4 node, h and n h,
    covers every node in between.

    Returns (nodes, error).  Each node is (u' t, inside), where inside says
    whether every x_i at t passes the guard, or holds the error that taking
    some |x_i| raised.  The nodes stop at the first one not inside.  error
    is an error that evaluating the paths at the last node raised, or None;
    at the first node such an error is raised here.  Raises PathTooLong and
    StepTooLarge as the RK4 kernel would, with the same step count n.
    """
    n = _step_count(length, config)
    num = 0
    for lam, _, d, _ in terms:
        num += lam * d
    rate = -num / lam_f
    nodes = []
    for t in (1.0 / n, n * (1.0 / n)):
        try:
            xs = [value(a, d, t) for _, a, d, value in terms]
        except (OverflowError, ValueError) as e:  # a path value that is no float
            if not nodes:
                raise
            return nodes, e
        inside = _inside(xs, bound)
        nodes.append((rate * t, inside))
        if inside is not True:
            break
    return nodes, None


def _inside(xs, bound):
    """Whether every value in xs is <= bound in modulus, read in order up to
    the first that is not, or the OverflowError of a modulus past any float."""
    try:
        for v in xs:
            if not abs(v) <= bound:
                return False
    except OverflowError as e:
        return e
    return True


def _fiber_end(leg, start, bound):
    """The end value exp(log start + u' n h) of a closed-form lift along the
    (nodes, error) of _leg.  At each node the guard reads e^u first, then
    the base paths, as _check_inside does; LeftDomain when either is
    outside, and an error that _leg kept is raised where the RK4 kernel
    would have met it."""
    nodes, error = leg
    u0 = cmath.log(start)
    for rate_t, inside in nodes:
        u = u0 + rate_t
        if not _fits(u, bound) or inside is False:
            raise LeftDomain(_OUTSIDE)
        if inside is not True:  # taking some |x_i| overflowed
            raise inside
    if error is not None:
        raise error
    return cmath.exp(u)


def lift_path(model, paths, fiber, start, config=DEFAULT_CONFIG):
    """Lift a base path through omega(gamma') = 0; the end value of the fiber.

    paths maps each moving coordinate index to a base path; the fiber
    coordinate is followed in logarithmic form
        u' = - sum_i (lam_i + b_i) (x_i'/x_i) / (lam_f + b_f),  x_f = e^u.
    When every path is log-affine (each carries log_affine, as circle,
    spiral and constant paths do) and no moving or fiber coefficient is
    perturbed, u' is constant and the lift is the closed form of _leg and
    _fiber_end.  Any other lift is integrated by rk4_lift_path.

    Either route raises LeftDomain for a start on the divisor or a lift that
    leaves the polydisc, PathTooLong when the path is longer than
    config.max_length and StepTooLarge when RK4 would need more than
    MAX_RK4_STEPS steps, with the same step count n.
    """
    if not (_unperturbed(model, paths, fiber)
            and all(hasattr(p, "log_affine") for p in paths.values())):
        return rk4_lift_path(model, paths, fiber, start, config)
    _check_start(start)
    terms = [(model.lam[i], *p.log_affine) for i, p in paths.items()]
    leg = _leg(terms, model.lam[fiber], _length(paths), model.bound, config)
    return _fiber_end(leg, start, model.bound)


def loop_multiplier(lam, turns=1):
    """Holonomy multiplier exp(-2 pi i turns / lam) of the model loop."""
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("loop multiplier requires a nonzero residue")
    try:
        return cmath.exp(-2j * math.pi * turns / lam)
    except (OverflowError, ValueError):  # an exponent part too large for a float
        raise BadParameters(f"the multiplier of {turns} turns overflows a float") from None


def nodal_first_integral_drift(model, paths, fiber, start, config=DEFAULT_CONFIG):
    """Max |log-drift| of the nodal first integral over every step of one lift.

    Raises NonFiniteIntegral when the first integral or its drift at some
    node is no finite float."""
    if not model.is_nodal:
        raise BadParameters("drift check requires a nodal model")
    if sorted([*paths, fiber]) != list(range(model.tau)):
        raise BadParameters("drift check needs every coordinate moving or the fiber")
    # (signed weight, position among the node values or None for the fiber)
    # per coordinate, in index order, as first_integral_log sums them
    position = {i: j for j, i in enumerate(paths)}
    terms = [(w, position.get(i)) for i, w in enumerate(model.signed_weights)]
    base, drift = None, 0.0
    for xs, u in _lift_steps(model, paths, fiber, start, config):
        xf = cmath.exp(u)
        value = 0.0
        for w, j in terms:
            v = xf if j is None else xs[j]
            if v == 0:
                raise LeftDomain("the first integral is undefined on the divisor")
            value += w * math.log(abs(v))
        if base is None:
            base = value
        gap = abs(value - base)
        if not gap <= drift:  # a larger gap, or NaN
            if not gap < math.inf:
                raise NonFiniteIntegral("the nodal first integral along the lift is no "
                                        "finite float")
            drift = gap
    return drift


# ---------------------------------------------------------------------------
# contraction constants
# ---------------------------------------------------------------------------

def lemma4_constant(lam, rho, eps):
    """c = eps * exp(-2((pi + 1) rho + lam) / rho^2).

    rho is used as a positive lower bound for |lam + f|; the decay estimates
    only close with this orientation of the bound.
    """
    if lam <= 0 or rho <= 0 or eps <= 0:
        raise BadParameters("lemma4_constant needs positive lam, rho, eps")
    if not 0 < rho * rho < math.inf:
        raise BadParameters("lemma4_constant needs a rho whose square is a finite "
                            f"nonzero float, not {rho!r}")
    c = eps * math.exp(-2 * ((math.pi + 1) * rho + lam) / (rho * rho))
    if c < 1e-323:  # then c / 2, the reach check's fallback start, is 0.0
        raise BadParameters(f"lemma4_constant underflows below 1e-323 at lam={lam!r}, "
                            f"rho={rho!r}, eps={eps!r}")
    return c


def lemma4_reach_check(lam, rho, eps, trials=100, config=DEFAULT_CONFIG):
    """Empirical companion to lemma4_constant on the model lam dx/x + dy/y.

    Random starts (alpha', beta') with |beta'| < c are driven to the
    transversal {x = alpha, |y| < eps}, alpha = 1/2, by an angular then a
    radial path; returns the fraction that arrive without exiting the unit
    polydisc.  The starts come from a generator seeded with 7.  Both legs
    are spirals on an unperturbed model, so each lift is the closed form of
    lift_path with the polydisc guard at two nodes; nothing is integrated.

    The check cannot fail.  y x^lam is constant along a leaf, so |y| keeps
    its modulus on the angular leg and shrinks by (ra / alpha)^lam <= 1 on
    the radial one: every start with 0 < |beta'| < c <= 1 arrives in
    |y| < c <= eps inside the unit polydisc.  The fraction is 1.0 whenever
    1e-323 <= c <= 1; below that a start can round to 0.0, on the divisor,
    and lemma4_constant refuses such a c.  So the check guards the closed
    form and the polydisc guard, and it estimates nothing.
    """
    c = lemma4_constant(lam, rho, eps)
    alpha = 0.5
    model = LinearModel([lam, 1.0])
    lam_x, lam_y = model.lam
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
            y = y0
            for start, end in ((x0, ra), (ra, alpha)):
                a, d, length = _spiral(start, end, 0)
                _check_start(y)
                leg = _leg(((lam_x, a, d, _exp_affine),), lam_y, length, model.bound, config)
                y = _fiber_end(leg, y, model.bound)
        except LeftDomain:
            continue
        if abs(y) < eps:
            reached += 1
    return {"constant": c, "reached": reached, "trials": trials,
            "fraction": reached / trials}


# ---------------------------------------------------------------------------
# saturation probe
# ---------------------------------------------------------------------------

def saturation_probe(model, alpha, eps, grid, config=DEFAULT_CONFIG):
    """Reachability of grid points from the transversal {x = alpha, |y| <= eps}.

    For each grid point (x_g, y_g) the probe solves for a start value on the
    transversal along the spiral from alpha to x_g with k extra turns, then
    confirms the candidate by lifting that spiral; it tries k lazily, best
    contraction first, and stops at the first candidate confirmed.  For an
    unperturbed model the lift is the closed form of lift_path, built from
    the spiral's log-affine data without making the path; a perturbed model
    is integrated by rk4_lift_path.  Nodal models leave exactly the points
    with first-integral value beyond the transversal range unreached.  A
    candidate whose lift leaves the polydisc or whose spiral is too long is
    skipped; a lift refused by the RK4 step cap raises StepTooLarge.

    What does not depend on y_g is computed once per grid column, the points
    that share the bits of x_g: log x_g, the base log x_g - log alpha and the
    reach max(alpha, |x_g|); and, per winding number k tried there, the
    contraction factor exp(ratio (base + 2 pi i k)) and, for an unperturbed
    model, the closed form's leg (_leg).  A point then pays for its start
    value, the fiber part of the closed form (_fiber_end) and the tolerance
    test.  The leg is made when a point first needs it, so its errors come
    at the same candidate as they would without the column.
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
    # per-model constants; every spiral starts at alpha, so a = log alpha
    lam_x, lam_y = model.lam
    unperturbed = _unperturbed(model, (0,), 1)
    a = cmath.log(alpha)
    log_alpha = math.log(alpha)
    abs_alpha = abs(alpha)
    log_half_eps = math.log(eps / 2)
    bound = model.bound
    tol = max(config.tol * 1e3, 1e-6)
    first_integral = model.first_integral_log if model.is_nodal else None
    columns = {}  # bits of x_g -> (log x_g, base, reach, Re(ratio base), {k: [factor, leg]})
    records = []
    reached = 0
    for (xg, yg) in grid:
        if xg == 0 or yg == 0:
            raise LeftDomain("grid points must avoid the divisor")
        x = complex(xg)
        key = _bits(x.real, x.imag)
        column = columns.get(key)
        if column is None:
            log_x = cmath.log(xg)
            base = log_x - log_alpha
            column = columns[key] = (log_x, base, max(abs_alpha, abs(xg)),
                                     (ratio * base).real, {})
        log_x, base, reach, shift, legs = column
        ok = False
        size_y = abs(yg)
        near = tol * max(1.0, size_y)
        for k in _turn_candidates(ratio, log_half_eps - math.log(size_y) - shift):
            entry = legs.get(k)
            if entry is None:
                try:
                    factor = cmath.exp(ratio * (base + 2j * math.pi * k))
                except (OverflowError, ValueError):  # beyond eps, or an infinite phase
                    factor = None
                entry = legs[k] = [factor, None]
            factor, leg = entry
            if factor is None:
                continue
            y_start = yg * factor
            size = abs(y_start)
            if size > eps or size == 0:
                continue
            try:
                if unperturbed:
                    if leg is None:  # the spiral _spiral(alpha, xg, k), without the path
                        d = log_x + 2j * math.pi * k - a
                        try:
                            leg = _leg(((lam_x, a, d, _exp_affine),), lam_y, abs(d) * reach,
                                       bound, config)
                        except PathTooLong as e:
                            leg = e
                        entry[1] = leg
                    if isinstance(leg, PathTooLong):
                        continue
                    y_end = _fiber_end(leg, y_start, bound)
                else:
                    y_end = rk4_lift_path(model, {0: spiral_path(alpha, xg, turns=k)}, 1,
                                          y_start, config)
            except (LeftDomain, PathTooLong):
                continue
            if abs(y_end - yg) <= near:
                ok = True
                break
        fi = first_integral((xg, yg)) if first_integral else None
        records.append({"x": xg, "y": yg, "reached": ok, "first_integral_log": fi})
        reached += ok
    return {"fraction": reached / len(records) if records else 1.0,
            "unreached": [(r["x"], r["y"]) for r in records if not r["reached"]],
            "records": records}


# the bits of (Re x_g, Im x_g): log(-1/2 + 0i) and log(-1/2 - 0i) differ by
# 2 pi i, though the two values compare equal
_bits = struct.Struct("<dd").pack


MAX_TURNS = 40  # the probe tries spirals of at most this many turns


def _turn_candidates(ratio, target):
    """Winding numbers worth trying at the grid point (x_g, y_g), where
    target = log(eps / 2) - log |y_g| - Re(ratio (log x_g - log alpha)),
    best contraction first: k0, then k0 + 1, k0 - 1, ..., k0 + MAX_TURNS - 1,
    k0 - MAX_TURNS + 1, keeping those with |k| <= MAX_TURNS, or 0 alone when
    none is kept.  The probe stops at the first candidate it accepts."""
    if abs(ratio.imag) < 1e-12:
        return (0,)
    # |y_start| = |yg| * exp(Re(ratio * shift)); extra turns scale it by
    # exp(-2 pi Im(ratio) k), so aim k at the value that lands inside eps
    k = target / (-2 * math.pi * ratio.imag)
    if not math.isfinite(k):  # no winding number aims at an infinite target
        return (0,)
    k0 = int(round(k))
    if abs(k0) >= 2 * MAX_TURNS:  # k0 +- (MAX_TURNS - 1) all lie past MAX_TURNS
        return (0,)
    return _turns_around(k0)


@functools.lru_cache(maxsize=4 * MAX_TURNS)  # one entry per |k0| < 2 MAX_TURNS
def _turns_around(k0):
    """The candidates of _turn_candidates around the aim k0."""
    ks = [k0] if abs(k0) <= MAX_TURNS else []
    for dk in range(1, MAX_TURNS):
        for s in (k0 + dk, k0 - dk):
            if abs(s) <= MAX_TURNS:
                ks.append(s)
    return tuple(ks)


def sweep_csv(records):
    """CSV rows for a saturation sweep."""
    lines = ["re_x,im_x,re_y,im_y,reached,first_integral_log"]
    for r in records:
        fi = "" if r["first_integral_log"] is None else f"{r['first_integral_log']:.12g}"
        lines.append(f"{r['x'].real:.12g},{r['x'].imag:.12g},"
                     f"{r['y'].real:.12g},{r['y'].imag:.12g},"
                     f"{int(r['reached'])},{fi}")
    return "\n".join(lines) + "\n"
