"""cisosdm: multi-species distribution modeling conditioned on incomplete
species observations, with baselines, data plumbing, and a synthetic oracle."""

import os

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
