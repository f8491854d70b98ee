"""Predator-prey-scavenger dynamics: simulation, equilibria, estimation."""

from .data import Dataset, SpeciesMap, denormalize, ingest, normalize, synthesize
from .equilibria import (
    Equilibrium,
    ExistenceCheck,
    all_equilibria,
    interior_equilibrium_direct,
    interior_poly_coeffs,
    interior_poly_crosscheck,
    positive_real_roots,
    predprey_equilibria,
    predscav_equilibria,
    scavprey_equilibria,
)
from .errors import (
    ConstantColumn,
    ExistenceViolated,
    IntegrationFailed,
    LineSearchFailed,
    MaskViolation,
    MissingColumn,
    NonFiniteLoss,
    NonNumericCell,
    NumericalOverflow,
    PpsdynError,
    StepUnderflow,
    TooFewSamples,
    UnmappedSpecies,
)
from .model import (
    PARAM_ORDER,
    Derivative,
    ModelParams,
    State,
    Subsystem,
    holling3,
    make_rhs,
    rhs,
    rhs_subsystem,
)
from .optimize import AdamState, adam_run, adam_step, bfgs_run, write_loss_csv
from .pinn import (
    EstimationReport,
    Mlp,
    TraceRow,
    backward,
    data_derivative,
    estimate,
    forward,
    grid_derivative,
    init_mlp,
    init_params,
    total_loss,
    train_pinn,
)
from .solver import Diagnostics, SolverConfig, Trajectory, detect_settling, integrate
from .stability import StabilityVerdict, classify, jacobian, routh_hurwitz_cubic

__version__ = "0.1.0"
