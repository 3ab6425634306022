"""Simultaneous unsharp measurement of two complementary qubit observables.

Layers: `protocol` (the entangled-probe measurement scheme as closed forms
in the Bloch components x, y and the probe overlap c), `experiment`
(partial-polarizer digital twin with seeded coincidence sampling) and
`cli` (command-line front end). `simulmeas.qmath` holds the
amplitude-level reference the tests check the closed forms against; no
runtime module, this one included, imports it.
"""

from . import cli, experiment, protocol
from .errors import (
    CalibrationInfeasibleError,
    RescalingSingularError,
    SimulmeasError,
    UsageError,
)
from .experiment import (
    CoincidenceCounts,
    UncertaintyReport,
    calibrate_alpha,
    estimate_report,
    plate_transmittance,
    prepare,
    run_setting,
    sample_coincidences,
    stack_transmittance,
)
from .protocol import (
    VonNeumannCounterexample,
    b_probabilities,
    joint_distribution,
    max_product,
    min_product,
    numeric_c_scan,
    sharp_deltas,
    von_neumann_counterexample,
)

__version__ = "0.1.0"
