"""Exception types shared across the package, the algorithm names, and the
default size limits past which the rankp, enum and eliminator solvers
refuse: all that the command line's parser needs, so ``--version`` and
``--help`` load no solver."""

ALGORITHMS = (
    "auto",
    "oracle",
    "enum",
    "rank1",
    "rankp",
    "additive",
    "mincut",
    "eliminator",
)

DEFAULT_P_LIMIT = 6
DEFAULT_ENUM_LIMIT = 25
DEFAULT_ELIMINATOR_LIMIT = 25


class SolverRefusal(Exception):
    """A solver declined to run because a configured size limit was exceeded.

    Carries enough context to tell the caller which knob to turn:
    ``limit`` is the setting and ``measured`` the size that exceeded it.
    For a rank, ``measured`` is the least rank the stopped elimination
    proved (limit + 1), not the rank itself.
    """

    def __init__(self, message, *, limit=None, measured=None, report=None):
        super().__init__(message)
        self.limit = limit
        self.measured = measured
        self.report = report


class CrossValidationError(Exception):
    """Two solvers disagreed on the exact optimum of the same instance."""


class ParseError(ValueError):
    """Malformed instance text; ``line`` is the 1-based source line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
