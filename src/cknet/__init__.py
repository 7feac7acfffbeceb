"""Deep networks as finite-difference approximations of higher-order
dynamical systems: direct multi-lag recurrences, their closed-form
first-order state-space realizations, training, and the desk-scale
experiments that probe them."""

from .architectures import (
    Network,
    NetworkConfig,
    c1_step,
    parameter_count,
    unroll,
    weight_matrix_ratio,
)
from .data import Dataset, generate_toy_1d, load_mnist_idx, split, synthetic_digits
from .dynamics import (
    BlockMatrix,
    alternating_binomial_sum,
    backward_diff_power,
    binomial,
    binomial_invert,
    build_ck_matrices,
    build_dense_matrices,
)
from .tensor import GraphError, Parameter, ShapeError, Tensor
from .training import Adam, TrainConfig, TrainingError, softmax_cross_entropy, train

__version__ = "0.1.0"
