"""Exception types shared across the planning toolkit."""

from contextlib import contextmanager


class EvPlanError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(EvPlanError):
    """An input value is outside its documented domain."""


class TopologyError(EvPlanError):
    """The grid graph is malformed (disconnected, dangling line, ...)."""


class SingularLineError(EvPlanError):
    """A line has zero series impedance."""


class LoadFlowDivergenceError(EvPlanError):
    """Newton-Raphson failed to converge."""

    def __init__(self, message, mismatch=None, iterations=None):
        super().__init__(message)
        self.mismatch = mismatch
        self.iterations = iterations


class SensitivityError(EvPlanError):
    """Sensitivity coefficients cannot be formed at an operating point
    (singular load-flow Jacobian or non-finite coefficients)."""


class InfeasibleBasePointError(EvPlanError):
    """The linearization point already violates an operating limit."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class ScheduleError(EvPlanError):
    """A fleet schedule violates its structural invariants."""


class BuildError(EvPlanError):
    """MILP assembly failed (missing family, inconsistent inputs)."""


class OracleSizeError(EvPlanError):
    """Instance too large for exhaustive enumeration."""


class SolutionImportError(EvPlanError):
    """An external solution file could not be mapped onto the model."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


@contextmanager
def malformed_input(path):
    """Re-raise what a malformed input file makes a reader trip over (bad
    JSON, a missing field, a value of the wrong type, shape or domain) as a
    ParameterError that names ``path``."""
    try:
        yield
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise ParameterError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: {exc}") from exc
