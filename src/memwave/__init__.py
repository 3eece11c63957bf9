"""Dynamic inverse problem for the 1-d wave equation with memory.

The forward model is u_tt = u_xx - q(x) u - int_0^t K(t-s) u(x, s) ds on the
half line, driven from the boundary and observed there.  This package
simulates the forward system, synthesizes the boundary response, assembles
the connecting operator from that data alone, solves the resulting integral
equations and recovers q.  ``verify`` checks the data against independent
routes (the leapfrog solve, the factor product for the connecting kernel);
the test suite holds the remaining second routes as oracles.
"""

from .catalog import PROBLEMS, ProblemSpec, get_problem
from .connecting import (
    ConnectingKernel,
    connecting_form_from_interior,
    connecting_form_from_kernel,
    connecting_kernel_from_response,
    connecting_kernel_from_w,
)
from .errors import (
    AssemblyError,
    IllConditionedError,
    NumericalFailure,
    NumericalInstabilityError,
    UsageError,
)
from .forward import (
    apply_response,
    fd_boundary_trace,
    fd_forward,
)
from .gelfand_levitan import (
    GLSolution,
    gl_residual,
    operator_identity_residual,
    reconstruction_errors,
    recover_potential,
    solve_gl,
)
from .goursat import (
    GoursatSolution,
    diagonal_residual,
    response_kernel,
    solve_goursat,
)
from .model import (
    CoefficientField,
    ControlSignal,
    GridSpec,
    MemoryKernel,
    ResponseData,
    coefficient_from_family,
    control_from_family,
    kernel_from_family,
)
from .pipeline import (
    PipelineConfig,
    load_config,
    run_convergence,
    run_reconstruct,
    run_synth,
    run_verify,
)

__version__ = "0.1.0"
