"""Exception types shared across the toolkit.

``InputError`` and its subclasses are what the user must fix: a bad or
infeasible input.  Any other exception, typed (``InternalError``,
``ConvergenceError``, ``ModelError``) or not, is a fault of the toolkit.
"""


class InputError(ValueError):
    """A bad or infeasible input: the user must change it, not the code."""


class SpecError(InputError):
    """A mission specification failed to parse or validate.

    Carries the list of violation records that caused the failure.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class NoPlanExists(InputError):
    """The planning problem has no solution (goal unreachable)."""


class PlanTimeout(InputError):
    """Planner exceeded its configured wall-clock budget."""


class ExpansionLimit(PlanTimeout):
    """Planner exceeded its configured expansion cap (deterministic, unlike
    the wall clock)."""


class ModelError(ValueError):
    """A probabilistic model is malformed (non-stochastic rows, bad labels...)."""


class InfiniteRewardError(ArithmeticError):
    """Expected reward query on a target that is not reached almost surely."""


class StateBudgetExceeded(InputError):
    """Explicit-state model construction hit the state budget.

    The count reached is itself a result (it documents blow-up), so it is
    carried on the exception.
    """

    def __init__(self, message, states_reached=0):
        super().__init__(message)
        self.states_reached = states_reached


class LimitExceeded(InputError):
    """An enumeration (genotype space, policy space) exceeded its limit."""


class ScenarioError(InputError):
    """A runtime scenario file violates its contract (ordering, rates)."""


class UnrecoverableMission(InputError):
    """Adaptation escalated to a full replan and no plan exists."""


class InternalError(RuntimeError):
    """A self-check of the toolkit failed: a bug, not a bad input (an invalid
    plan from the planner, a non-deterministic benchmark rerun)."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its sweep cap before meeting its tolerance."""
