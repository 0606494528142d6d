"""Fully-connected tanh policy over a flat parameter vector, and the
affine map of its raw outputs in [-1, 1] onto a control box.

The canonical flat ordering is layer by layer: the weight matrix in
row-major order, then the bias vector.  No autograd; parameters are only
ever sampled, perturbed (``trainer.candidate_theta``) and evaluated.  The
box itself is the environment's (``envs.control_intervals``).
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import scalar_array

_ONE = scalar_array(1.0)
_HALF = scalar_array(0.5)


@dataclass(frozen=True)
class MlpSpec:
    layer_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(n <= 0 for n in sizes):
            raise ValueError("layer sizes must be positive")

    @property
    def input_dim(self):
        return self.layer_sizes[0]

    @property
    def output_dim(self):
        return self.layer_sizes[-1]


def param_count(spec: MlpSpec) -> int:
    sizes = spec.layer_sizes
    return sum(n_in * n_out + n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))


INIT_STD = 0.001  # standard deviation of every restart's initial parameters


def init_params(spec: MlpSpec, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, INIT_STD, size=param_count(spec))


def unflatten(theta: np.ndarray, spec: MlpSpec):
    """Views of the flat vector as (W, b) pairs.

    Accepts a (D,) vector or an (n, D) batch; weight views are then
    (n_out, n_in) or (n, n_out, n_in) respectively.
    """
    if theta.shape[-1] != param_count(spec):
        raise ValueError(f"parameter vector has length {theta.shape[-1]}, "
                         f"spec {spec.layer_sizes} needs {param_count(spec)}")
    lead = theta.shape[:-1]
    layers = []
    offset = 0
    sizes = spec.layer_sizes
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        w = theta[..., offset:offset + n_in * n_out].reshape(lead + (n_out, n_in))
        offset += n_in * n_out
        b = theta[..., offset:offset + n_out]
        offset += n_out
        layers.append((w, b))
    return layers


def forward_layers(layers, s):
    """Tanh MLP evaluation from unflattened layers.

    ``s`` is (k,) with (W, b) pairs, or (n, k) with batched pairs.
    """
    x = s
    for w, b in layers:
        x = np.matmul(w, x[..., None])[..., 0]
        np.add(x, b, out=x)
        np.tanh(x, out=x)
    return x


def affine_scale(raw, lo, hi, out=None):
    """Map raw in [-1, 1] onto [lo, hi]; endpoints map exactly."""
    u = (raw + _ONE) * _HALF
    return np.add(lo * (_ONE - u), hi * u, out=out)
