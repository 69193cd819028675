"""Model predictive control by Gaussian-process inference for linear
time-invariant ODE systems.

The prior is a multi-output GP whose realizations satisfy dx/dt = A x + B u
exactly (built via Smith normal form of the system's operator matrix);
control synthesis is plain GP conditioning on the current state, soft box
constraints, past observations, and optional virtual reference points.
"""

from .config import ConfigError, ExperimentConfig, load_config
from .controller import (
    ControllerConfig,
    PlantDivergenceError,
    build_step_dataset,
    initial_dataset,
    mpc_step,
    run_closed_loop,
)
from .gpcore import (
    Dataset,
    DatasetError,
    FactorizationError,
    FitReport,
    PosteriorGp,
    assemble_gram,
    log_marginal_likelihood,
    optimize_hyperparams,
)
from .kernelops import (
    Hyperparams,
    OperatorKernel,
    build_operator_kernel,
)
from .lodegp import (
    InfeasibleReferenceError,
    LinearSystem,
    LodeGpPrior,
    NonControllableSystemError,
    build_h,
    build_prior,
    steady_state_input,
)
from .metrics import constraint_violation, control_error
from .plant import ControlSignal, Plant, Trajectory
from .polyalg import (
    Poly,
    PolyMatrix,
    right_nullspace_columns,
    smith_normal_form,
)

__version__ = "0.1.0"
