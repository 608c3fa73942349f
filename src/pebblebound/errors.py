"""Exception types shared across the package, the default search budget and
the algorithm family names."""

# The generator and analytic-bound families, by name.  Every CLI command
# loads this module, so its parser reads the names here without importing
# the generators.
ALGORITHMS = ("outer_product", "matmul", "composite", "cg", "gmres", "jacobi", "chain")

# Default cap on an exact search's work: oracle expansions, or umax search
# nodes.  Both searches and the CLI take their default from here.
DEFAULT_BUDGET = 5_000_000


class PebbleboundError(Exception):
    """Base class for all package errors."""


class CdagError(PebbleboundError):
    """Structurally invalid CDAG or bad graph argument."""


class FormatError(PebbleboundError):
    """A text-format file could not be parsed."""


class GameError(PebbleboundError):
    """A trace violates the rules of the pebble game being validated."""

    def __init__(self, message, step=None, rule=None, vertex=None):
        parts = []
        if step is not None:
            parts.append(f"step {step}")
        if rule is not None:
            parts.append(str(rule))
        if vertex is not None:
            parts.append(f"vertex {vertex}")
        prefix = " ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.message = message
        self.step = step
        self.rule = rule
        self.vertex = vertex


class InfeasibleGameError(PebbleboundError):
    """No complete game exists for the given CDAG and capacity."""


class BudgetExhaustedError(PebbleboundError):
    """A search budget ran out before an exact answer was established.

    ``best_known`` carries an upper bound found along the way, when one
    exists; it is a hint only, never a certified optimum.  ``lower``, when
    the search sets it, is a certified lower bound on the value searched for
    (the oracle's optimum, or umax), so ``lower <= optimum <= best_known``
    brackets the answer.
    """

    def __init__(self, message, best_known=None, lower=None):
        if best_known is not None:
            message = f"{message} (best known upper bound: {best_known})"
        super().__init__(message)
        self.best_known = best_known
        self.lower = lower


class BoundError(PebbleboundError):
    """Invalid argument or precondition failure in a bound engine."""
