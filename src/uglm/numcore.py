"""Dense float64 matrix primitives, parameter sets, the Adam optimizer,
and a stacked finite-difference gradient oracle. Each trainable group
(Stage I's encoder plus adapter, Stage II's projector) is one flat float64
vector that a ``ParamSet`` names views into; checkpoints store the named
tensors. The row functions also take (P, n, d) stacks of matrices.

Everything here is pure: functions never mutate their inputs and identical
inputs produce bit-identical outputs. All compute is 64-bit so the
finite-difference checks elsewhere in the package are meaningful.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    InvalidParameterError,
    NumericError,
)

# Row norms at or below this are treated as degenerate input, not clamped.
NORM_FLOOR = 1e-12

Matrix = np.ndarray


def _as2d(x, label: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise DimensionError(f"{label} must be 2-D or a stack of 2-D, got shape {arr.shape}")
    return arr


def _ensure_finite(arr: np.ndarray, label: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{label} contains non-finite entries")
    return arr


def row_norms(x: Matrix, label: str = "matrix") -> np.ndarray:
    """L2 norm of every row; rows at or below NORM_FLOOR are an error."""
    norms = np.linalg.norm(_as2d(x, label), axis=-1)
    bad = np.flatnonzero(norms <= NORM_FLOOR)
    if bad.size:
        raise DegenerateInputError(f"{label} row {int(bad[0]) % norms.shape[-1]} has norm <= {NORM_FLOOR}")
    return norms


def row_cosine_similarity(x: Matrix, t: Matrix) -> Matrix:
    """Cosine of every x row against every t row.

    Entry (i, j) is cos(x[i], t[j]); values lie in [-1, 1] up to rounding.
    Zero-norm rows raise rather than clamp: they indicate upstream bugs.
    Either side may be a (P, n, d) stack; the result is then (P, n_x, n_t).
    """
    x2, t2 = _as2d(x, "x"), _as2d(t, "t")
    if x2.shape[-1] != t2.shape[-1]:
        raise DimensionError(f"column counts differ: x is {x2.shape}, t is {t2.shape}")
    xn = x2 / row_norms(x2, "x")[..., None]
    tn = t2 / row_norms(t2, "t")[..., None]
    return _ensure_finite(xn @ tn.swapaxes(-1, -2), "cosine matrix")


def softmax_with_temperature(v, tau: float) -> np.ndarray:
    """Overflow-safe softmax of v / tau."""
    if tau <= 0 or not np.isfinite(tau):
        raise InvalidParameterError(f"softmax temperature must be positive, got {tau}")
    arr = np.asarray(v, dtype=np.float64).ravel()
    if arr.size == 0:
        raise InvalidParameterError("softmax input must be nonempty")
    _ensure_finite(arr, "softmax input")
    scaled = arr / tau
    scaled = scaled - scaled.max()
    e = np.exp(scaled)
    return e / e.sum()


class ParamSet:
    """Named float64 arrays held as views into one flat vector.

    The layout (names and shapes, in insertion order) fixes where each array
    lives in ``flat``. Building one copies the arrays once into a read-only
    vector. A view is writable exactly when its vector is, so ``zeros_like``
    gives a gradient buffer that callers fill through the named views. Over
    a (P, N) stack of flat vectors (``with_flat``) each view is (P, *shape).
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        owned = {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}
        self.layout = tuple((name, arr.shape) for name, arr in owned.items())
        flat = np.concatenate([np.zeros(0)] + [arr.ravel() for arr in owned.values()])
        flat.flags.writeable = False
        self._bind(flat)

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self._views: dict[str, np.ndarray] = {}
        start = 0
        for name, shape in self.layout:
            stop = start + math.prod(shape)
            self._views[name] = flat[..., start:stop].reshape(flat.shape[:-1] + shape)
            start = stop

    def with_flat(self, flat: np.ndarray) -> "ParamSet":
        """The same names and shapes over the float64 ``flat`` (not copied)."""
        if flat.ndim > 2 or flat.shape[-1:] != self.flat.shape[-1:]:
            raise DimensionError(f"flat vector {flat.shape} does not fit layout {self.flat.shape}")
        out = copy.copy(self)
        out._bind(flat)
        return out

    def zeros_like(self) -> "ParamSet":
        return self.with_flat(np.zeros(self.flat.size))

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._views.items())

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def name_at(self, index: int) -> str:
        """Name of the parameter that holds entry ``index`` of ``flat``."""
        for name, view in self._views.items():
            index -= view.size
            if index < 0:
                return name
        raise IndexError(f"entry is outside a layout of {self.flat.size} entries")


# Entries (2x as many rows) per stacked-oracle call; peak memory grows with it.
FD_STACK_ENTRIES = 32

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class OptimizerState:
    """Adam state; the moments are flat vectors once the first step is taken."""

    learning_rate: float
    step: int = 0
    first_moment: np.ndarray | float = 0.0
    second_moment: np.ndarray | float = 0.0

    def __post_init__(self) -> None:
        # zero is allowed as an explicit null update
        if self.learning_rate < 0 or not np.isfinite(self.learning_rate):
            raise InvalidParameterError(
                f"learning rate must be finite and >= 0, got {self.learning_rate}"
            )
        if self.step < 0:
            raise InvalidParameterError("step must be nonnegative")


def optimizer_step(
    opt: OptimizerState, params: ParamSet, grads: ParamSet
) -> tuple[ParamSet, OptimizerState]:
    """One Adam update; returns the new parameters and the advanced state."""
    if params.layout != grads.layout:
        raise DimensionError(f"gradient layout {grads.layout} is not {params.layout}")
    lr = opt.learning_rate
    t = opt.step + 1
    g = grads.flat
    m = ADAM_BETA1 * opt.first_moment + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * opt.second_moment + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    updated = params.flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    finite = np.isfinite(updated)
    if not finite.all():
        name = params.name_at(int(np.argmin(finite)))
        raise NumericError(f"updated parameter {name!r} contains non-finite entries")
    updated.flags.writeable = False
    return params.with_flat(updated), OptimizerState(
        learning_rate=lr, step=t, first_moment=m, second_moment=v
    )


def stacked_finite_difference_gradient(
    f: Callable[[ParamSet], np.ndarray], params: ParamSet, eps: float = 1e-5
) -> ParamSet:
    """Central-difference gradient of a scalar function, evaluated in stacks:
    the oracle every analytic backward pass in the package is checked against.

    ``f`` maps a ``ParamSet`` over a (P, N) stack to P values. A call stacks
    FD_STACK_ENTRIES entries at most; row 2i is ``flat + eps e_i`` and row
    2i + 1 is ``flat - eps e_i``, so each entry has its own two evaluations.
    """
    if eps <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    grad = np.empty(params.flat.size)
    for start in range(0, grad.size, FD_STACK_ENTRIES):
        idx = np.arange(start, min(start + FD_STACK_ENTRIES, grad.size))
        stack = np.repeat(params.flat[None], 2 * idx.size, axis=0)
        stack.reshape(idx.size, 2, -1)[np.arange(idx.size), :, idx] += (eps, -eps)
        values = np.asarray(f(params.with_flat(stack)), dtype=np.float64).reshape(idx.size, 2)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            name = params.name_at(int(idx[np.argmin(finite)]))
            raise NumericError(f"function evaluated to a non-finite value while perturbing {name!r}")
        grad[idx] = (values[:, 0] - values[:, 1]) / (2.0 * eps)
    return params.with_flat(grad)
