"""Matrix-free randomized iterative linear solvers.

Randomized Kaczmarz (row actions), randomized coordinate descent
(column actions), their ridge extensions, and a Kaczmarz-style kernel
ridge solver that never forms the gram matrix, together with a
closed-form oracle used to verify every convergence claim at desk
scale.
"""

import enum

__version__ = "0.1.0"


class Regime(enum.Enum):
    """The kind of system a problem is; oracle and solvers share it from here."""

    CONSISTENT_UNIQUE = "consistent"
    INCONSISTENT = "inconsistent"
    UNDERDETERMINED = "underdetermined"
    UNKNOWN = "unknown"
