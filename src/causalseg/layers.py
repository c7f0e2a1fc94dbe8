"""Conv/linear layer wrappers over the tensor substrate.

Initialization is uniform in +/- sqrt(1/fan_in) with zero biases, drawn
from an explicit Generator so models are reproducible bit-for-bit.
"""

import numpy as np

from . import tensor as T


def _uniform(rng, shape, fan_in, dtype):
    limit = np.sqrt(1.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Conv2d:
    """Shape-preserving conv (k in {1,3}) with bias, params held in a registry."""

    def __init__(self, reg: T.ParameterRegistry, name, c_in, c_out, k, rng, dtype=np.float32):
        self.weight = reg.add(f"{name}.weight", _uniform(rng, (c_out, c_in, k, k), c_in * k * k, dtype))
        self.bias = reg.add(f"{name}.bias", np.zeros(c_out, dtype=dtype))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.conv2d(x, self.weight.tensor, self.bias.tensor)


class Linear:
    def __init__(self, reg: T.ParameterRegistry, name, n_in, n_out, rng, dtype=np.float32):
        self.weight = reg.add(f"{name}.weight", _uniform(rng, (n_out, n_in), n_in, dtype))
        self.bias = reg.add(f"{name}.bias", np.zeros(n_out, dtype=dtype))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.weight.tensor, self.bias.tensor)
