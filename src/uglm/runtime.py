"""Process-wide execution knobs.

``UGLM_THREADS`` caps the worker pool of ``ordered_map``, which no module
of the package calls any more. Results come back in submission order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import InvalidParameterError

T = TypeVar("T")
R = TypeVar("R")

# Below this many items the pool overhead dominates; stay serial.
_PARALLEL_THRESHOLD = 32


def thread_cap() -> int:
    """Worker-pool size: ``UGLM_THREADS`` if set, else the core count."""
    raw = os.environ.get("UGLM_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"UGLM_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InvalidParameterError(f"UGLM_THREADS must be >= 1, got {cap}")
    return cap


def ordered_map(fn: Callable[[T], R], items: Sequence[T] | Iterable[T]) -> list[R]:
    """Apply ``fn`` to every item, preserving order in the result list."""
    items = list(items)
    cap = thread_cap()
    if cap <= 1 or len(items) < _PARALLEL_THRESHOLD:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=cap) as pool:
        return list(pool.map(fn, items))
