"""Typed exceptions shared by all modules."""


class FoliationLabError(Exception):
    """Base class for all workbench errors."""


class FieldParseError(FoliationLabError):
    pass


class DivisionByZero(FoliationLabError):
    pass


class ZeroEntry(FoliationLabError):
    pass


class ZeroForm(FoliationLabError):
    pass


class NotDivisible(FoliationLabError):
    def __init__(self, variable):
        self.variable = variable
        super().__init__(f"coefficient not divisible by variable {variable!r}")


class DimensionError(FoliationLabError):
    pass


class NotDicritical(FoliationLabError):
    pass


class CenterNotInvariant(FoliationLabError):
    pass


class CenterNotSingularAdapted(FoliationLabError):
    pass


class DicriticalRoutesDisagree(FoliationLabError):
    """The two dicriticality routes disagree on an adapted center: a bug."""


class ScriptChartMissing(FoliationLabError):
    pass


class ChartAlreadyBlownUp(FoliationLabError):
    pass


class NonRationalSingularPoint(FoliationLabError):
    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"singular direction outside the field: {factor}")


class NonRationalEigenvalues(FoliationLabError):
    pass


class DepthExceeded(FoliationLabError):
    pass


class IncompleteTree(FoliationLabError):
    pass


class SaddleNodeUnsupported(FoliationLabError):
    pass


class LineNotInvariant(FoliationLabError):
    pass


class InvalidGraph(FoliationLabError):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("graph violates structural invariants: " + "; ".join(violations))


class MissingFiberData(FoliationLabError):
    pass


class NotRegular(FoliationLabError):
    pass


class ZeroLambda(FoliationLabError):
    pass


class LeftDomain(FoliationLabError):
    pass


class StepTooLarge(FoliationLabError):
    """A lift refused before integrating: it needs more RK4 steps than
    holonomy.MAX_RK4_STEPS, so the configured step is too fine."""


class PathTooLong(StepTooLarge):
    """A lift refused because its path is longer than config.max_length.

    The saturation probe skips such lifts; a plain StepTooLarge propagates.
    """


class NonFiniteIntegral(FoliationLabError):
    """A nodal first integral, or its drift along a lift, that is no finite
    float: the weights are so large that the sum of their logarithm terms
    overflows."""


class BadParameters(FoliationLabError):
    pass


class ScenarioError(FoliationLabError):
    pass


class NumberTooLong(FoliationLabError):
    """An exact value too long to write in decimal: a component has more
    digits than the interpreter converts from int to str."""


class RootIsolationFailed(FoliationLabError):
    """The certified root isolation of solve found no disjoint inclusion
    discs within its precision cap, so no root set is returned."""
