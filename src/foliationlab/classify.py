"""Local classification of adapted foliation germs.

Covers the saddle/nodal trichotomy of residue vectors, pre-simple and simple
corner/trace points, flow-box elimination of transverse variables, the
monomial saddle-node probe, Camacho-Sad indices and the degree identity for
homogeneous plane foliations.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DimensionError, LineNotInvariant, ZeroEntry, ZeroForm
from .field import FieldElement, RatioClass, classify_ratio, nonresonant
from .forms import OneForm, invariant_axis, log_coefficient, saturate, singular_at_origin
from .poly import Polynomial, VARNAMES
from .solve import univariate_roots


class SaddleNodal(Enum):
    COMPLEX_SADDLE = "ComplexSaddle"
    REAL_SADDLE = "RealSaddle"
    NODAL = "Nodal"


def classify_saddle_nodal(residues) -> SaddleNodal:
    """Trichotomy of a nonzero residue vector by pairwise ratio classes."""
    residues = tuple(residues)
    if any(l.is_zero() for l in residues):
        raise ZeroEntry("saddle/nodal classification needs nonzero residues")
    saw_negative = False
    for i in range(len(residues)):
        for j in range(i + 1, len(residues)):
            rc = classify_ratio(residues[i], residues[j])
            if rc is RatioClass.NOT_REAL:
                return SaddleNodal.COMPLEX_SADDLE
            if rc in (RatioClass.NEGATIVE_RATIONAL, RatioClass.NEGATIVE_IRRATIONAL):
                saw_negative = True
    return SaddleNodal.NODAL if saw_negative else SaddleNodal.REAL_SADDLE


class PointKind(Enum):
    NON_SINGULAR_NC = "NonSingularNormalCrossings"
    SIMPLE_CH_CORNER = "SimpleCHCorner"
    SIMPLE_CH_TRACE = "SimpleCHTrace"
    PRE_SIMPLE_CH_CORNER = "PreSimpleCHCorner"
    PRE_SIMPLE_CH_TRACE = "PreSimpleCHTrace"
    SEIDENBERG_SIMPLE_RESONANT = "SeidenbergSimpleResonant"
    SADDLE_NODE = "SaddleNode"
    NOT_PRE_SIMPLE = "NotPreSimple"


@dataclass
class PointClassification:
    kind: PointKind
    residues: tuple | None = None            # (variable index, residue) pairs
    saddle_nodal: SaddleNodal | None = None
    dimensional_type: int | None = None
    resonance_witness: tuple | None = None
    eliminated: tuple = ()
    invariant_axes: tuple = ()
    notes: tuple = ()


def classify_point(form: OneForm, divisor_vars=(), dicritical_vars=()):
    """Adapted classification of a germ at the origin.

    divisor_vars: local variables cutting invariant divisor components.
    dicritical_vars: divisor variables of non-invariant (dicritical)
    components; they are treated as transverse and eliminable, and the
    assumption is recorded in the notes.
    """
    sat, _ = saturate(form)
    names = list(range(form.nvars))  # original indices of surviving variables
    divisor = set(divisor_vars)
    dicritical = set(dicritical_vars)
    eliminated = []
    notes = []

    while True:
        nv, d = sat.nvars, sat.d
        plain = sat.plain_coefficients()
        inv = [v for v in range(nv) if invariant_axis(sat, v)]
        has_unit = [not log_coefficient(sat, v, inv).constant_term().is_zero()
                    for v in range(nv)]
        candidate = None
        for v in range(nv):
            if v in inv:
                continue
            if any(has_unit[j] for j in range(nv) if j != v):
                candidate = v
                break
        if candidate is None or nv == 1:
            break
        if names[candidate] in dicritical:
            notes.append(f"dicritical variable {VARNAMES[names[candidate]]} "
                         "treated as transverse and eliminated")
        zero = FieldElement(d, 0)
        restricted = [plain[j].set_var(candidate, zero).drop_var(candidate)
                      for j in range(nv) if j != candidate]
        out = OneForm(restricted)
        if out.is_zero():
            break
        eliminated.append(names[candidate])
        names.pop(candidate)
        sat, _ = saturate(out)

    nv = sat.nvars
    inv = [v for v in range(nv) if invariant_axis(sat, v)]

    if not singular_at_origin(sat):
        return PointClassification(
            kind=PointKind.NON_SINGULAR_NC, dimensional_type=nv,
            eliminated=tuple(eliminated),
            invariant_axes=tuple(names[v] for v in inv), notes=tuple(notes))

    residues = [(names[v], log_coefficient(sat, v, inv).constant_term()) for v in inv]
    pre_simple = (len(inv) == nv and nv >= 1
                  and all(not r.is_zero() for _, r in residues))
    if pre_simple:
        vals = tuple(r for _, r in residues)
        verdict, witness = nonresonant(vals)
        on_divisor = sum(1 for v, _ in residues if v in divisor)
        corner = on_divisor == nv
        sn = classify_saddle_nodal(vals) if nv >= 2 else None
        if verdict == "nonresonant":
            kind = PointKind.SIMPLE_CH_CORNER if corner else PointKind.SIMPLE_CH_TRACE
        elif nv == 2:
            kind = PointKind.SEIDENBERG_SIMPLE_RESONANT
        else:
            kind = (PointKind.PRE_SIMPLE_CH_CORNER if corner
                    else PointKind.PRE_SIMPLE_CH_TRACE)
        return PointClassification(
            kind=kind, residues=tuple(residues), saddle_nodal=sn,
            dimensional_type=nv, resonance_witness=witness,
            eliminated=tuple(eliminated),
            invariant_axes=tuple(names[v] for v in inv), notes=tuple(notes))

    if nv == 2:
        m = linear_part_matrix(sat)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        tr = m[0][0] + m[1][1]
        if det.is_zero() and not tr.is_zero():
            return PointClassification(
                kind=PointKind.SADDLE_NODE, dimensional_type=2,
                eliminated=tuple(eliminated),
                invariant_axes=tuple(names[v] for v in inv), notes=tuple(notes))
    return PointClassification(
        kind=PointKind.NOT_PRE_SIMPLE, dimensional_type=nv,
        residues=tuple(residues) if residues else None,
        eliminated=tuple(eliminated),
        invariant_axes=tuple(names[v] for v in inv), notes=tuple(notes))


def linear_part_matrix(form: OneForm):
    """Linear part of the dual vector field (-c_y, c_x) of a plane form."""
    if form.nvars != 2:
        raise DimensionError("dual vector field matrix is a plane construction")
    cx, cy = form.plain_coefficients()
    zero = FieldElement(form.d, 0)

    def lin(p, i):
        q = p.homogeneous_part(1)
        e = [0, 0]
        e[i] = 1
        return q.terms.get(tuple(e), zero)

    return [[-lin(cy, 0), -lin(cy, 1)],
            [lin(cx, 0), lin(cx, 1)]]


def multiplicity(form: OneForm) -> int:
    """Algebraic multiplicity at the origin of the saturated germ."""
    sat, _ = saturate(form)
    return min(c.order() for c in sat.plain_coefficients() if not c.is_zero())


def monomial_probe(lams, a_weights, b_weights):
    """Saddle-node probe along x_i = U z1^{a_i} z2^{b_i}.

    The pulled-back residues are alpha = -sum a_i lam_i on the z1 axis and
    beta = sum b_i lam_i on the z2 axis; a saddle-node witness appears when
    exactly one of them vanishes with a nonzero weight vector on the
    vanishing side.
    """
    tau = len(lams)
    if len(a_weights) != tau or len(b_weights) != tau:
        raise DimensionError("weight vectors must match the residue vector")
    if any(w < 0 for w in a_weights) or any(w < 0 for w in b_weights):
        raise DimensionError("weights must be non-negative integers")
    d = lams[0].d
    alpha = FieldElement(d, 0)
    beta = FieldElement(d, 0)
    for l, a, b in zip(lams, a_weights, b_weights):
        alpha = alpha - l * a
        beta = beta + l * b
    witness = ((alpha.is_zero() and not beta.is_zero() and any(a_weights))
               or (beta.is_zero() and not alpha.is_zero() and any(b_weights)))
    return {"alpha": alpha, "beta": beta, "witness": witness}


def camacho_sad_index(residues, branch):
    """Index of the invariant branch {x_branch = 0} from a residue pair.

    residues is a pair ordered by variable; the index of {v = 0} is
    -alpha_u / alpha_v with u the other variable.
    """
    if len(residues) != 2:
        raise DimensionError("indices are computed at plane points")
    u = 1 - branch
    if residues[branch].is_zero():
        raise ZeroEntry("branch residue vanishes; index undefined")
    return -residues[u] / residues[branch]


# ---------------------------------------------------------------------------
# Homogeneous plane foliations and the degree identity
# ---------------------------------------------------------------------------

class PlaneFoliation:
    """Projective plane foliation W = A dX + B dY + C dZ, homogeneous.

    A, B, C share a degree r, have no common factor and satisfy the Euler
    contraction XA + YB + ZC = 0; the projective degree is d = r - 1.
    """

    def __init__(self, coeffs):
        a, b, c = coeffs
        self.coeffs = (a, b, c)
        self.d = a.d
        degs = {p.degree() for p in coeffs if not p.is_zero()}
        if len(degs) != 1:
            raise DimensionError("coefficients must be homogeneous of one degree")
        self.r = degs.pop()
        for p in coeffs:
            if not p.is_zero() and any(sum(e) != self.r for e in p.terms):
                raise DimensionError("coefficients must be homogeneous")
        euler = Polynomial.zero(3, self.d)
        for i, p in enumerate(coeffs):
            euler = euler + p * Polynomial.var(i, 3, self.d)
        if not euler.is_zero():
            raise DimensionError("Euler contraction XA + YB + ZC must vanish")

    @property
    def degree(self):
        return self.r - 1

    def line_is_invariant(self, i) -> bool:
        """Is the coordinate line {X_i = 0} invariant?"""
        others = [j for j in range(3) if j != i]
        zero = FieldElement(self.d, 0)
        for j in others:
            if not self.coeffs[j].set_var(i, zero).is_zero():
                return False
        return True


def restrict_to_exceptional(form: OneForm):
    """Initial forms of a dicritical three-variable germ as a plane foliation.

    Common factors are removed; the result has projective degree r - 1 where
    r is the multiplicity of the germ.
    """
    from .blowup import CenterSpec, contraction_test, initial_forms
    center = CenterSpec.origin(form.nvars, form.d)
    if form.nvars != 3:
        raise DimensionError("exceptional restriction needs three variables")
    if not contraction_test(form, center):
        from .errors import NotDicritical
        raise NotDicritical("the origin blow-up is not dicritical")
    inis = initial_forms(form, center)
    from .poly import gcd_many
    nz = [p for p in inis if not p.is_zero()]
    g = gcd_many(nz)
    if not g.is_constant():
        inis = [p.exact_div(g) if not p.is_zero() else p for p in inis]
    return PlaneFoliation(inis)


def degree_identity_check(w: PlaneFoliation, line):
    """Check sum of restricted multiplicities along an invariant line = d + 1.

    line is a coordinate index (the line {X_line = 0}).  Returns a report with
    the per-point multiplicities; raises LineNotInvariant otherwise.
    """
    i = line
    if not w.line_is_invariant(i):
        raise LineNotInvariant(f"line {{{VARNAMES[i]} = 0}} is not invariant")
    a = w.coeffs[i]
    zero = FieldElement(w.d, 0)
    restricted = a.set_var(i, zero)
    if restricted.is_zero():
        raise ZeroForm("restricted foliation vanishes along the line")
    others = [j for j in range(3) if j != i]
    u, v = others
    points = []
    total = 0
    # affine chart X_u = 1: parameterize the line by X_v
    one = FieldElement(w.d, 1)
    au = restricted.set_var(u, one)
    coeffs = au.univariate_coefficients(v)
    deg_drop = w.r - (len(coeffs) - 1)  # vanishing order at X_v = infinity
    roots, leftover = univariate_roots(coeffs) if any(not c.is_zero() for c in coeffs) else ([], [])
    for root, m in roots:
        points.append({"point": {VARNAMES[i]: "0", VARNAMES[u]: "1", VARNAMES[v]: str(root)},
                       "multiplicity": m})
        total += m
    if leftover:
        k = len(leftover) - 1
        points.append({"point": "conjugate cluster outside the field",
                       "multiplicity": k})
        total += k
    if deg_drop:
        points.append({"point": {VARNAMES[i]: "0", VARNAMES[u]: "0", VARNAMES[v]: "1"},
                       "multiplicity": deg_drop})
        total += deg_drop
    return {"line": VARNAMES[i], "degree": w.degree, "points": points,
            "total": total, "identity_holds": total == w.degree + 1}
