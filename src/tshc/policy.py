"""Fully-connected tanh policy over a flat parameter vector.

The canonical flat ordering is layer by layer: the weight matrix in
row-major order, then the bias vector.  No autograd; parameters are only
ever sampled, perturbed (``trainer.candidate_theta``) and evaluated.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import ActuatorLimits, intersect_interval, rate_limited_interval


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
        x = np.tanh(np.matmul(w, x[..., None])[..., 0] + b)
    return x


def control_bounds(lim: ActuatorLimits, Ts):
    """(2, 1) columns of the v and delta channels: absolute minimum and
    maximum, then the largest step down and up in one sample (rate * Ts)."""
    return (np.array([[lim.v_min], [lim.delta_min]]),
            np.array([[lim.v_max], [lim.delta_max]]),
            np.array([[lim.vdot_min * Ts], [lim.deltadot_min * Ts]]),
            np.array([[lim.vdot_max * Ts], [lim.deltadot_max * Ts]]))


def control_intervals(prev, bounds, vvc_box=None):
    """Admissible [lo, hi] of the v (row 0) and delta (row 1) channels.

    ``prev`` holds the previous commands as a (2, lanes) array and
    ``bounds`` comes from ``control_bounds``; the optional VVC box
    narrows the v row only.
    """
    lo, hi = rate_limited_interval(prev, *bounds)
    if vvc_box is not None:
        lo[0], hi[0] = intersect_interval(lo[0], hi[0], *vvc_box)
    return lo, hi


def affine_scale(raw, lo, hi, out=None):
    """Map raw in [-1, 1] onto [lo, hi]; endpoints map exactly."""
    u = (raw + 1.0) * 0.5
    return np.add(lo * (1.0 - u), hi * u, out=out)
