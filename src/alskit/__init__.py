"""Block-coordinate least squares on multilinear tensor formats.

Solve min_v 1/2 <Av,v> - <b,v> over tensors v = U(p) in CP, tensor-train,
or custom multilinear parameterizations by exact one-block updates, with
convergence diagnostics (objective/decrement identities, tangent-angle
rates, boundedness monitors) and a gallery of instances with known
behavior.
"""

from .diagnostics import (
    MicroStepRecord,
    MonitorReport,
    RateEstimate,
    RecursionContext,
    RunTrace,
    assumption_monitors,
    full_gradient,
    gradient_block,
    materialize_M,
    objective,
    rate_estimate,
    recursion_check,
    recursion_contexts,
    stable_tangent,
    tangent_recursion,
)
from .engine import LowdinBasis, StopRule, lowdin_basis, micro_step, run
from .formats import (
    CpFormat,
    MultilinearFormat,
    ParamSystem,
    TensorFormat,
    TtFormat,
    evaluate,
    materialize_W,
    params_from_json,
    params_to_json,
)
from .gallery import (
    ProblemInstance,
    blambda_example,
    counterexample_bilinear,
    desilva_lim,
    get_instance,
    mohlenkamp_example,
    totally_orthogonal,
    tucker_target,
)
from .oracle import brute_least_squares, finite_diff_grad, q_lambda_formula
from .tensors import (
    DenseOperator,
    DenseTensor,
    IdentityOperator,
    ModeWiseOperator,
    Shape,
    SpdOperator,
    a_norm,
    inner,
    rank_one_sum,
)

__version__ = "0.1.0"
