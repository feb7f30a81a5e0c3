"""Species embeddings, state embeddings, and the encounter-rate encodings.

A species' state is one of: unknown, absent, or positive. Positive states are
either a discrete bin (``ceil(r * n_b)`` of the encounter rate r) or, in the
continuous modes, the raw rate fed through a learned linear or periodic
projection. The unknown and absent vectors are always dedicated learned
embeddings shared across species; per-species variation comes only from the
species embedding, and a token is their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor

STATE_UNKNOWN = 0
STATE_ABSENT = 1
# Positive states occupy codes 2 .. n_b + 1 (bin b -> code 1 + b).

MODES = ("discrete", "linear", "periodic")


@dataclass(frozen=True)
class StateAssignment:
    """Conditioning state for a single species."""

    code: int

    @property
    def is_absent(self) -> bool:
        return self.code == STATE_ABSENT

    @property
    def bin(self) -> int | None:
        return self.code - 1 if self.code >= 2 else None


def bin_rate(r: float, n_b: int) -> StateAssignment:
    """Discretize an encounter rate: 0 is absent, r > 0 lands in bin ceil(r*n_b).

    Binary presence/absence is the n_b = 1 special case.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"encounter rate must be in [0, 1], got {r}")
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if r == 0.0:
        return StateAssignment(STATE_ABSENT)
    return StateAssignment(1 + math.ceil(r * n_b))


def assign_states(
    targets: np.ndarray,
    available: np.ndarray,
    known: np.ndarray,
    n_b: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized state assignment for a (B, C) batch.

    Known, available species take their true state (absent for 0, otherwise a
    positive bin); everything else is unknown. Returns (codes, rates) arrays.
    The positive rate values feed the continuous modes; r = 0 always maps to
    the absent embedding there too.
    """
    reveal = np.asarray(known, bool) & np.asarray(available, bool)
    codes = np.full(reveal.shape, STATE_UNKNOWN, dtype=np.int64)
    rates = np.zeros(reveal.shape)
    t = np.asarray(targets)
    codes[reveal & (t == 0.0)] = STATE_ABSENT
    positive = reveal & (t > 0.0)
    codes[positive] = 1 + np.ceil(t[positive] * n_b).astype(np.int64)
    rates[positive] = t[positive]
    return codes, rates


class StateEmbeddingTable:
    """Learned state vectors for one encoding mode.

    discrete: one row per state (unknown, absent, bins 1..n_b).
    linear:   unknown/absent rows plus s(r) = w * r + b0.
    periodic: unknown/absent rows plus a learned frequency bank and d x d map.
    """

    def __init__(self, mode: str, n_b: int, dim: int, rng: np.random.Generator):
        if mode not in MODES:
            raise ValueError(f"unknown encoding mode {mode!r}")
        if mode == "periodic" and dim % 2:
            raise ValueError("periodic encoding needs an even embedding dim")
        self.mode = mode
        self.n_b = n_b
        self.dim = dim
        scale = 1.0 / np.sqrt(dim)
        self.params: dict[str, Tensor] = {}
        if mode == "discrete":
            self.params["state_rows"] = Tensor(
                rng.normal(0.0, scale, size=(n_b + 2, dim)), requires_grad=True, name="state_rows"
            )
        else:
            self.params["state_rows"] = Tensor(
                rng.normal(0.0, scale, size=(2, dim)), requires_grad=True, name="state_rows"
            )
            if mode == "linear":
                self.params["state_w"] = Tensor(
                    rng.normal(0.0, scale, size=(dim,)), requires_grad=True, name="state_w"
                )
                self.params["state_b0"] = Tensor(
                    rng.normal(0.0, scale, size=(dim,)), requires_grad=True, name="state_b0"
                )
            else:
                freqs = np.exp(rng.uniform(np.log(1.0), np.log(4.0 * n_b), size=dim // 2))
                self.params["state_freqs"] = Tensor(freqs, requires_grad=True, name="state_freqs")
                self.params["state_proj"] = Tensor(
                    rng.normal(0.0, scale, size=(dim, dim)), requires_grad=True, name="state_proj"
                )

    def encode(self, codes: np.ndarray, rates: np.ndarray) -> Tensor:
        """State vectors for a (..., C) code array; output shape (..., C, dim)."""
        rows = self.params["state_rows"]
        if self.mode == "discrete":
            return nm.gather_rows(rows, codes)

        lookup = nm.gather_rows(rows, np.minimum(codes, STATE_ABSENT))
        positive = (codes >= 2).astype(float)[..., None]
        r = nm.Tensor(rates[..., None])
        if self.mode == "linear":
            value = nm.add(nm.mul(self.params["state_w"], r), self.params["state_b0"])
        else:
            angle = nm.mul(nm.mul(r, 2.0 * np.pi), self.params["state_freqs"])
            phase = nm.concat([nm.sin(angle), nm.cos(angle)], axis=-1)
            value = nm.matmul(phase, self.params["state_proj"])
        return nm.add(nm.mul(lookup, 1.0 - positive), nm.mul(value, positive))


class EmbeddingTables:
    """Species embedding matrix plus the shared state table."""

    def __init__(self, n_species: int, dim: int, mode: str, n_b: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(dim)
        self.species = Tensor(
            rng.normal(0.0, scale, size=(n_species, dim)), requires_grad=True, name="species_embed"
        )
        self.state = StateEmbeddingTable(mode, n_b, dim, rng)

    def params(self) -> dict[str, Tensor]:
        out = {"species_embed": self.species}
        out.update(self.state.params)
        return out


def species_tokens(tables: EmbeddingTables, codes: np.ndarray, rates: np.ndarray) -> Tensor:
    """Token matrix T = E + S(states); shape (..., C, dim)."""
    s = tables.state.encode(codes, rates)
    return nm.add(tables.species, s)
