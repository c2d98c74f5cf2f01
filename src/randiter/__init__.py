"""Matrix-free randomized iterative linear solvers.

Randomized Kaczmarz (row actions), randomized coordinate descent
(column actions), their ridge extensions, and a Kaczmarz-style kernel
ridge solver that never forms the gram matrix, together with a
closed-form oracle used to verify every convergence claim at desk
scale.
"""

__version__ = "0.1.0"
