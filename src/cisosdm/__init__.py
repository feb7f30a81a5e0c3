"""cisosdm: multi-species distribution modeling conditioned on incomplete
species observations, with baselines, data plumbing, and a synthetic oracle."""

import json
import os
import sys
from numbers import Integral, Real
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

__version__ = "0.1.0"


def ciso_threads() -> int | None:
    """The positive integer in ``CISO_THREADS``, or None when it is unset or
    empty. Any other value raises ValueError."""
    raw = os.environ.get("CISO_THREADS", "")
    if not raw:
        return None
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"CISO_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


# Plain kinds of config values: the test a value must pass, and how an error names the kind.
# Tuples and numpy numbers come only from Python callers; a JSON value is never one of them.
KINDS = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, Integral) and not isinstance(v, bool) or type(v) is float and v.is_integer(),
          "an integer"),
    float: (lambda v: isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
            "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, (list, tuple)), "a JSON array"),
    tuple: (lambda v: isinstance(v, (list, tuple)), "a JSON array"),
    dict: (lambda v: isinstance(v, dict), "a JSON object"),
}


def check_value(where: str, value, kind):
    """`value` of `where` checked against the annotation `kind`; numbers come
    back as int or float, arrays as the annotation's list or tuple."""
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, UnionType):  # T | None
        return None if value is None else check_value(where, value, args[0])
    if origin is Literal:
        if value not in args:
            raise ValueError(f"{where} must be one of {list(args)}, got {value!r}")
        return value
    accepts, wanted = KINDS[origin or kind]
    fixed = origin is tuple and ... not in args  # tuple[T, ...] is variadic
    if not accepts(value) or (fixed and len(value) != len(args)):
        raise ValueError(f"{where} must be {wanted}{f' of {len(args)} items' if fixed else ''}, got {value!r}")
    if origin in (list, tuple):
        return origin(check_value(where, v, k) for v, k in zip(value, args if fixed else args[:1] * len(value)))
    return kind(value) if kind in (int, float) else value


def check_fields(obj) -> None:
    """Check each field of the dataclass instance `obj` against its annotation
    and store the checked value."""
    for name, kind in get_type_hints(type(obj)).items():
        setattr(obj, name, check_value(f"{type(obj).__name__} '{name}'", getattr(obj, name), kind))


def unique_keys(pairs: list) -> dict:
    """A JSON object as a dict (a `json` ``object_pairs_hook``); a repeated key raises ValueError."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"a JSON object repeats keys {sorted({k for k in keys if keys.count(k) > 1})}")
    return dict(pairs)


def read_json(path: str, blob: bytes | None = None):
    """The JSON value in the file at `path`, or in `blob`, the checkpoint header read from it.
    Text that is not UTF-8, a syntax error or a repeated key raises ValueError naming `path`."""
    try:
        if blob is None:
            with open(path, "rb") as fh:
                blob = fh.read()
        return json.loads(blob.decode("utf-8"), object_pairs_hook=unique_keys)
    except ValueError as exc:  # covers UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None


def write_json(path: str | None, obj, indent: Literal[2] | None = 2) -> str:
    """`obj` as JSON text with sorted keys, arrays (anything with ``.tolist()``) as lists,
    written to `path` unless it is None (a checkpoint header). Every file the toolkit
    saves is laid out by `indent` 2, except `norm_stats.json` and `splits.json`."""
    text = json.dumps(obj, indent=indent, sort_keys=True, default=lambda array: array.tolist())
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _apply_thread_cap() -> None:
    """Copy ``CISO_THREADS`` into the BLAS/OpenMP thread variables it does not
    override. BLAS reads them once, when numpy loads, so this runs on package
    import, before any submodule imports numpy. A bad value is left for the
    CLI and `Model.predict` to reject, so that importing never fails."""
    try:
        cap = ciso_threads()
    except ValueError:
        return
    if cap is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(cap))


_apply_thread_cap()
