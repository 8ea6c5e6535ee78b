"""ntklab: an executable comparison of permutation-invariant and flat
architectures on interference-channel power control, through the lens of
their neural tangent kernels.

Submodules:

* netsim    — batched channel instances, the SINR / weighted-sum-rate
  objective, synthetic labels
* wmmse     — the weighted-MMSE baseline power-control solver
* kernels   — analytic / Monte Carlo / empirical tangent kernels
* spectral  — eigenanalysis, kernel gradient-flow dynamics, theorem bounds
* nets      — finite-width trainable networks with exact gradients
* training  — seeded training loops, traces, evaluation, checkpoints
* artifacts — the atomic file writer and CSV text every output goes through
* experiments, config, cli — reproducible artifact generation
"""

from .errors import (DegenerateInputError, DivergenceError,
                     NumericFailureError, RangeViolationError,
                     UnsupportedConstantError)
from .netsim import (Dataset, gaussian_node_dataset, generate_instances,
                     sum_rate_batch, synthetic_labels)
from .wmmse import wmmse_batch
from .kernels import (KernelMatrix, analytic_ntk_gnn, analytic_ntk_mlp,
                      empirical_ntk, load_kernel_csv, mc_ntk, save_kernel_csv)
from .spectral import (SpectralReport, activation_constant,
                       condition_landscape, eig_sym, generalization_bound,
                       kernel_dynamics, thm3_bounds)
from .nets import (PowerMlp, TwoLayerNet, WcgcnNet, gradients, init_net,
                   loss_value, n_params)
from .training import (epochs_to_level, evaluate, progress_level,
                       save_checkpoint, train, write_trace_csv)

__version__ = "0.1.0"
