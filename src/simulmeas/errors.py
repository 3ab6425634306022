"""Exception types shared across the package.

The CLI maps each class to its exit code through one table, `cli.EXIT_CODES`;
an infeasible calibration's diagnostic travels in its message.
"""


class SimulmeasError(Exception):
    """Base class for all package-specific errors."""


class UsageError(SimulmeasError, ValueError):
    """Invalid argument: out-of-range parameter, dimension mismatch, bad distribution."""


class RescalingSingularError(SimulmeasError):
    """Outcome rescaling is singular: the probe overlap is 0 or 1.

    At overlap 0 the object-side observable carries no signal after rescaling
    by 1/overlap; at overlap 1 the probe carries no information at all.
    """


class CalibrationInfeasibleError(SimulmeasError):
    """No rotation angle satisfies the optimal-product condition for this plate stack.

    ``margin`` is k^2 - k_min^2, the stack parameter k = (1 - t_s^2)/(1 + t_s^2)
    squared minus its feasibility threshold 0.7230468: negative for a stack
    too leaky to reach the minimum product at any rotation.
    ``threshold_index`` is n*(N), the glass index above which a stack with
    the same plate count calibrates.
    """

    def __init__(self, message, margin: float, threshold_index: float):
        super().__init__(message)
        self.margin = margin
        self.threshold_index = threshold_index
