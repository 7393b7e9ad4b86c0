"""A from-scratch NumPy deep-learning framework.

The paper trains its CNN in TensorFlow; no deep-learning framework is
available in this environment, so this subpackage implements the needed
subset from first principles:

- layers: :class:`Conv2D`, :class:`MaxPool2D`, :class:`Dense`,
  :class:`ReLU`, :class:`Dropout`, :class:`Flatten` — all with exact
  analytic backward passes (validated against finite differences in the
  test suite);
- loss: :class:`SoftmaxCrossEntropy` with *soft targets*, which is what
  makes the paper's biased learning (ground truth ``[1-ε, ε]``) a one-line
  change;
- optimizers: :class:`SGD` (optionally with momentum), :class:`Adam`, and
  the paper's step learning-rate decay schedule :class:`StepDecay`;
- :class:`Sequential` network container and :class:`Trainer` implementing
  Algorithm 1 (mini-batch gradient descent with validation-based stopping).

Array convention is NCHW throughout (batch, channels, height, width).
"""

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.dropout import Dropout
from repro.nn.flatten import Flatten
from repro.nn.init import glorot_uniform, he_normal, zeros_init
from repro.nn.kernels import (
    Workspace,
    WorkspaceStats,
    current_workspace,
    use_workspace,
)
from repro.nn.layer import Layer, Parameter
from repro.nn.loss import SoftmaxCrossEntropy, one_hot, softmax
from repro.nn.network import Sequential
from repro.nn.optim import SGD, Adam, ConstantRate, StepDecay
from repro.nn.pool import MaxPool2D
from repro.nn.quant import (
    CalibrationResult,
    InferencePlan,
    MaxObserver,
    PercentileObserver,
    QuantizedTensor,
    attach_quant_state,
    calibrate_network,
    quantize_network,
    quantize_per_channel,
)
from repro.nn.serialize import load_network_params, save_network_params
from repro.nn.trainer import (
    Trainer,
    TrainerConfig,
    TrainingHistory,
    ValidationUpdate,
)

__all__ = [
    "Layer",
    "Parameter",
    "Conv2D",
    "MaxPool2D",
    "Dense",
    "ReLU",
    "Dropout",
    "Flatten",
    "Sequential",
    "SoftmaxCrossEntropy",
    "softmax",
    "one_hot",
    "SGD",
    "Adam",
    "ConstantRate",
    "StepDecay",
    "Trainer",
    "TrainerConfig",
    "TrainingHistory",
    "ValidationUpdate",
    "Workspace",
    "WorkspaceStats",
    "use_workspace",
    "current_workspace",
    "he_normal",
    "glorot_uniform",
    "zeros_init",
    "save_network_params",
    "load_network_params",
    "QuantizedTensor",
    "quantize_per_channel",
    "quantize_network",
    "attach_quant_state",
    "calibrate_network",
    "CalibrationResult",
    "MaxObserver",
    "PercentileObserver",
    "InferencePlan",
]
