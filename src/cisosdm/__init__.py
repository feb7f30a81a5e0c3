"""cisosdm: multi-species distribution modeling conditioned on incomplete
species observations, with baselines, data plumbing, and a synthetic oracle."""

import os

__version__ = "0.1.0"


def _apply_thread_cap() -> None:
    """Copy ``CISO_THREADS`` into the BLAS/OpenMP thread variables it does not
    override. BLAS reads them once, when numpy loads, so this runs on package
    import, before any submodule imports numpy."""
    cap = os.environ.get("CISO_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()
