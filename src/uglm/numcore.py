"""Dense float64 matrix primitives, named parameter sets, the Adam
optimizer, and a finite-difference gradient oracle.

Everything here is pure: functions never mutate their inputs and identical
inputs produce bit-identical outputs. All compute is 64-bit so the
finite-difference checks elsewhere in the package are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

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
    if arr.ndim != 2:
        raise DimensionError(f"{label} must be 2-D, got shape {arr.shape}")
    return arr


def _ensure_finite(arr: np.ndarray, label: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{label} contains non-finite entries")
    return arr


def row_norms(x: Matrix, label: str = "matrix") -> np.ndarray:
    """L2 norm of every row; rows at or below NORM_FLOOR are an error."""
    x2 = _as2d(x, label)
    norms = np.linalg.norm(x2, axis=1)
    bad = np.nonzero(norms <= NORM_FLOOR)[0]
    if bad.size:
        raise DegenerateInputError(f"{label} row {int(bad[0])} has norm <= {NORM_FLOOR}")
    return norms


def row_cosine_similarity(x: Matrix, t: Matrix) -> Matrix:
    """Cosine of every x row against every t row.

    Entry (i, j) is cos(x[i], t[j]); values lie in [-1, 1] up to rounding.
    Zero-norm rows raise rather than clamp: they indicate upstream bugs.
    """
    x2 = _as2d(x, "x")
    t2 = _as2d(t, "t")
    if x2.shape[1] != t2.shape[1]:
        raise DimensionError(
            f"column counts differ: x is {x2.shape}, t is {t2.shape}"
        )
    xn = x2 / row_norms(x2, "x")[:, None]
    tn = t2 / row_norms(t2, "t")[:, None]
    return _ensure_finite(xn @ tn.T, "cosine matrix")


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


@dataclass
class ParamSet:
    """Named float64 matrices with a stable iteration order.

    The insertion order of ``arrays`` is the iteration order; construction
    copies every array so a ParamSet owns its storage. Arrays returned by
    indexing are the internal ones and must be treated as read-only.
    """

    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        owned: dict[str, np.ndarray] = {}
        for name, arr in self.arrays.items():
            owned[name] = np.array(arr, dtype=np.float64, copy=True)
        self.arrays = owned

    def names(self) -> list[str]:
        return list(self.arrays)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self.arrays.items())

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def copy(self) -> "ParamSet":
        return ParamSet(self.arrays)

    def zeros_like(self) -> "ParamSet":
        return ParamSet({k: np.zeros_like(v) for k, v in self.arrays.items()})

    def __add__(self, other: "ParamSet") -> "ParamSet":
        assert_same_shapes(self, other)
        return ParamSet({k: v + other.arrays[k] for k, v in self.arrays.items()})

    def __mul__(self, scale: float) -> "ParamSet":
        return ParamSet({k: v * scale for k, v in self.arrays.items()})

    __rmul__ = __mul__

    def norm(self) -> float:
        """L2 norm over all entries of all arrays."""
        total = 0.0
        for v in self.arrays.values():
            total += float(np.sum(v * v))
        return float(np.sqrt(total))

    @staticmethod
    def merged(parts: Iterable["ParamSet"]) -> "ParamSet":
        """Concatenate several ParamSets; duplicate names are an error."""
        out: dict[str, np.ndarray] = {}
        for part in parts:
            for name, arr in part.items():
                if name in out:
                    raise InvalidParameterError(f"duplicate parameter name {name!r}")
                out[name] = arr
        return ParamSet(out)


def assert_same_shapes(params: ParamSet, grads: ParamSet) -> None:
    if params.names() != grads.names():
        raise DimensionError(
            f"parameter names {params.names()} do not match gradient names {grads.names()}"
        )
    for name, arr in params.items():
        if arr.shape != grads[name].shape:
            raise DimensionError(
                f"shape mismatch for {name!r}: {arr.shape} vs {grads[name].shape}"
            )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class OptimizerState:
    """Adam state; moments mirror parameter shapes lazily."""

    learning_rate: float
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

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
    assert_same_shapes(params, grads)
    lr = opt.learning_rate
    t = opt.step + 1
    m_new: dict[str, np.ndarray] = {}
    v_new: dict[str, np.ndarray] = {}
    updated: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        m_prev = opt.first_moment.get(name, np.zeros_like(p))
        v_prev = opt.second_moment.get(name, np.zeros_like(p))
        m = ADAM_BETA1 * m_prev + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v_prev + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        updated[name] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        m_new[name] = m
        v_new[name] = v
    new = ParamSet(updated)
    for name, arr in new.items():
        _ensure_finite(arr, f"updated parameter {name!r}")
    return new, OptimizerState(
        learning_rate=lr, step=t, first_moment=m_new, second_moment=v_new
    )


def finite_difference_gradient(
    f: Callable[[ParamSet], float], params: ParamSet, eps: float = 1e-5
) -> ParamSet:
    """Central-difference gradient of a scalar function, one entry at a time.

    This is the independent oracle every analytic backward pass in the
    package is checked against; it deliberately shares no code with them.
    """
    if eps <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    work = params.copy()
    grads: dict[str, np.ndarray] = {}
    for name, arr in work.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = float(f(work))
            flat[idx] = orig - eps
            lo = float(f(work))
            flat[idx] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError(
                    f"function evaluated to a non-finite value while perturbing {name!r}"
                )
            gflat[idx] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return ParamSet(grads)
