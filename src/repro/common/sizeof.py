"""Logical size estimation for records.

The engines account memory, disk and network usage in *logical bytes*: the
number of bytes a record would occupy in a compact serialized form (roughly
what Hadoop's writables or a binary wire format would use), not Python's
in-memory object size. Using a logical measure keeps the cost model
independent of CPython's boxing overheads and makes scaled runs meaningful.

Sizing sits on every engine hot path (the dataplane's batch accounting is
one amortized ``logical_sizeof`` pass per batch), so dispatch goes through
a per-exact-type table populated lazily from the type rules below instead
of an ``isinstance`` chain per call. The table is a pure cache: a type's
handler is chosen by the same rule order once, then reused.

Containers take a uniform-type fast path. One C-level pass,
``set(map(type, items))`` (over the keys and the values separately for a
dict), finds whether every item has the same *exact* type. If it is a
fixed-width scalar (``int``, ``float``, ``bool``, ``None``) the items sum to
``width * len``; if it is ``str``, ``bytes`` or ``bytearray`` they sum to
``sum(map(len, items))``. Both equal the per-item sum the recursive path
computes, so the result is exact, not an estimate. Everything else recurses
per item as before: mixed types (``[True, 1]`` is mixed, since types
match exactly), subclasses, numpy scalars, nested containers, and
containers shorter than ``_UNIFORM_MIN_ITEMS``, where the type pass costs
more than it saves. The fast path keeps no state between calls.

``pair_sizes`` applies the same rule to a batch of pairs: when the keys are
all of one such exact type, and the values are too, every pair's size is
computed in C from a constant width or ``len`` plus the pair framing.
Any other batch is sized by ``pair_size`` pair by pair, so the result
always equals the per-pair list.
"""

from __future__ import annotations

from operator import add
from typing import Any, Callable, Iterator, Optional, Sequence, Union

import numpy as np

# Fixed-width encodings used for the logical measure.
_INT_SIZE = 8
_FLOAT_SIZE = 8
_BOOL_SIZE = 1
_NONE_SIZE = 1
# Per-container element overhead (length prefixes / tags in a wire format).
_CONTAINER_OVERHEAD = 4
# Containers with fewer items than this always size item by item.
_UNIFORM_MIN_ITEMS = 8
# Exact item types whose per-item size is a constant, or the item's len().
_FIXED_WIDTHS: dict[type, int] = {
    int: _INT_SIZE,
    float: _FLOAT_SIZE,
    bool: _BOOL_SIZE,
    type(None): _NONE_SIZE,
}
_LENGTH_SIZED = frozenset({str, bytes, bytearray})


def logical_sizeof(obj: Any) -> int:
    """Estimated serialized size of ``obj`` in bytes.

    Deterministic, recursive over tuples/lists/dicts, exact for strings,
    bytes and numpy arrays.

    >>> logical_sizeof("word")
    4
    >>> logical_sizeof(("word", 1))
    16
    """
    sizer = _SIZERS.get(obj.__class__)
    if sizer is None:
        sizer = _resolve_sizer(obj.__class__)
    return sizer(obj)


def pair_size(key: Any, value: Any) -> int:
    """Logical size of one key-value pair (key + value + pair framing).

    Identical to ``logical_sizeof((key, value))`` — a pair is framed like
    any other two-element container.
    """
    sizers = _SIZERS
    ks = sizers.get(key.__class__) or _resolve_sizer(key.__class__)
    vs = sizers.get(value.__class__) or _resolve_sizer(value.__class__)
    return ks(key) + vs(value) + _CONTAINER_OVERHEAD


def pair_sizes(keys: Sequence[Any], values: Sequence[Any]) -> list[int]:
    """``[pair_size(k, v) for k, v in zip(keys, values)]``, in C where exact.

    ``keys`` and ``values`` have equal length. Batches of at least
    ``_UNIFORM_MIN_ITEMS`` pairs whose keys share one exact fixed-width or
    length-sized type, and whose values do too, never call ``pair_size``.
    """
    if len(keys) < _UNIFORM_MIN_ITEMS:
        return list(map(pair_size, keys, values))
    fixed = _CONTAINER_OVERHEAD
    varying = []
    for items in (keys, values):
        sizes = _uniform_sizes(items)
        if sizes is None:
            return list(map(pair_size, keys, values))
        if isinstance(sizes, int):
            fixed += sizes
        else:
            varying.append(sizes)
    if not varying:
        return [fixed] * len(keys)
    lengths = varying[0] if len(varying) == 1 else map(add, *varying)
    return list(map(fixed.__add__, lengths))


def _uniform_sizes(items: Sequence[Any]) -> Optional[Union[int, Iterator[int]]]:
    """Per-item sizes of a single-exact-type sequence: a constant width, or
    an iterator of ``len``; None when the items need ``logical_sizeof``."""
    types = set(map(type, items))
    if len(types) == 1:
        cls = types.pop()
        width = _FIXED_WIDTHS.get(cls)
        if width is not None:
            return width
        if cls in _LENGTH_SIZED:
            return map(len, items)
    return None


# -- per-type handlers ----------------------------------------------------------


def _size_fixed(size: int) -> Callable[[Any], int]:
    return lambda obj: size


def _size_len(obj: Any) -> int:
    return len(obj)


def _size_numpy(obj: Any) -> int:
    return int(obj.nbytes)


def _size_items(items: Any) -> int:
    """Summed logical size of a sized collection's items (no framing)."""
    sizes = _uniform_sizes(items) if len(items) >= _UNIFORM_MIN_ITEMS else None
    if sizes is None:
        return sum(map(logical_sizeof, items))
    return sizes * len(items) if isinstance(sizes, int) else sum(sizes)


def _size_container(obj: Any) -> int:
    if len(obj) < _UNIFORM_MIN_ITEMS:  # records and pairs: skip the extra call
        return _CONTAINER_OVERHEAD + sum(map(logical_sizeof, obj))
    return _CONTAINER_OVERHEAD + _size_items(obj)


def _size_dict(obj: Any) -> int:
    return _CONTAINER_OVERHEAD + _size_items(obj.keys()) + _size_items(obj.values())


def _size_declared(obj: Any) -> int:
    # Objects may advertise their own logical size (e.g. location references).
    size = getattr(obj, "logical_size", None)
    if size is not None:
        return int(size() if callable(size) else size)
    raise TypeError(f"logical_sizeof: unsupported type {type(obj).__name__}")


_SIZERS: dict[type, Callable[[Any], int]] = {
    type(None): _size_fixed(_NONE_SIZE),
    bool: _size_fixed(_BOOL_SIZE),
    int: _size_fixed(_INT_SIZE),
    float: _size_fixed(_FLOAT_SIZE),
    str: _size_len,
    bytes: _size_len,
    bytearray: _size_len,
    memoryview: _size_len,
    np.ndarray: _size_numpy,
    tuple: _size_container,
    list: _size_container,
    set: _size_container,
    frozenset: _size_container,
    dict: _size_dict,
}

#: the original rule order, applied once per previously unseen type
_RULES: tuple[tuple[type | tuple[type, ...], Callable[[Any], int]], ...] = (
    (bool, _size_fixed(_BOOL_SIZE)),  # before int: bool subclasses int
    (int, _size_fixed(_INT_SIZE)),
    (float, _size_fixed(_FLOAT_SIZE)),
    (str, _size_len),
    ((bytes, bytearray, memoryview), _size_len),
    (np.ndarray, _size_numpy),
    (np.generic, _size_numpy),
    ((tuple, list, set, frozenset), _size_container),
    (dict, _size_dict),
)


def _resolve_sizer(cls: type) -> Callable[[Any], int]:
    """Pick (and cache) the handler for a type by the documented rules."""
    for rule_type, handler in _RULES:
        if issubclass(cls, rule_type):
            break
    else:
        # Unknown types fall through to the declared-size protocol; the
        # handler re-checks per instance, so a type whose instances only
        # sometimes declare ``logical_size`` still raises correctly.
        handler = _size_declared
    _SIZERS[cls] = handler
    return handler
