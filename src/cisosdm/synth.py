"""Synthetic community generator with planted directed interactions and an
exact Bayes oracle.

Each location draws environmental covariates uniformly on [-1, 1]; species
are sampled in topological order of a signed interaction DAG, with
P(present) = sigmoid(theta_c . env + sum_p W[c, p] 1[p present] + b_c), where
W is the summed edge weight matrix. The per-species intercepts b_c play the
role of generator noise and are drawn once from the spec seed, so the oracle
can enumerate the joint distribution exactly: it scores all 2^n
configurations in log space, for all rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import check_fields
from .dataio import Dataset


@dataclass
class SynthSpec:
    """Generator configuration; everything is derived from `seed`."""

    n_species: int
    n_env: int
    n_locations: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)  # (parent, child, weight)
    env_scale: float = 1.0
    noise: float = 0.5           # std of per-species intercepts
    rate_mode: bool = False      # presence -> Beta(2, 2) encounter rate
    missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        for name in ("n_species", "n_env", "n_locations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError(f"missing_rate must lie in [0, 1), got {self.missing_rate!r}")
        for p, c, _ in self.edges:
            if not (0 <= p < self.n_species and 0 <= c < self.n_species):
                raise ValueError(f"edge ({p}, {c}) references unknown species")
        topo_order(self.n_species, self.edges)  # raises on cycles


def topo_order(n: int, edges: list[tuple[int, int, float]]) -> list[int]:
    """Kahn topological order of the interaction DAG; error on cycles."""
    indeg = [0] * n
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    for p, c, _ in edges:
        indeg[c] += 1
        children[p].append(c)
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for c in children[i]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        ready.sort()
    if len(order) != n:
        raise ValueError("interaction graph contains a cycle")
    return order


class SynthModel:
    """Realized generator parameters; shared by sampling and the oracle.

    `weights[c, p]` is the summed weight of the edges p -> c."""

    def __init__(self, spec: SynthSpec):
        self.spec = spec
        rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(11,)))
        self.theta = rng.normal(0.0, spec.env_scale, size=(spec.n_species, spec.n_env))
        self.bias = rng.normal(0.0, spec.noise, size=spec.n_species)
        self.order = topo_order(spec.n_species, spec.edges)
        self.weights = np.zeros((spec.n_species, spec.n_species))
        for p, c, w in spec.edges:
            self.weights[c, p] += w


def generate(spec: SynthSpec) -> Dataset:
    """Sample a dataset; emits the standard tabular container so the whole
    pipeline runs unmodified on synthetic data."""
    # Imported here: scipy.special at module level would add ~0.2 s to every command's start-up.
    from scipy.special import expit

    model = SynthModel(spec)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(12,)))
    n, c = spec.n_locations, spec.n_species
    lats = rng.uniform(40.0, 50.0, n)
    lons = rng.uniform(-100.0, -90.0, n)
    env = rng.uniform(-1.0, 1.0, size=(n, spec.n_env))

    present = np.zeros((n, c))
    base = env @ model.theta.T + model.bias
    for sp in model.order:
        present[:, sp] = rng.random(n) < expit(base[:, sp] + present @ model.weights[sp])

    if spec.rate_mode:
        rates = rng.beta(2.0, 2.0, size=(n, c))
        targets = np.where(present > 0, rates, 0.0)
    else:
        targets = present

    if spec.missing_rate > 0:
        available = rng.random((n, c)) >= spec.missing_rate
    else:
        available = np.ones((n, c), dtype=bool)

    half = c // 2
    masks = {
        "drivers": np.arange(c) < half,
        "responders": np.arange(c) >= half,
    }
    return Dataset(
        species=[f"species_{i:02d}" for i in range(c)],
        ids=[f"loc{i:05d}" for i in range(n)],
        lats=lats,
        lons=lons,
        env=env,
        targets=targets,
        available=available,
        group_masks=masks,
    )


def bayes_conditional(
    model: SynthModel, env: np.ndarray, present: np.ndarray | None = None, reveal_mask: np.ndarray | None = None
) -> np.ndarray:
    """Exact P(species present | env, revealed states) for every row of `env`
    by joint enumeration in log space; a 1-D `env` gives one row.

    With `reveal_mask`, each row is conditioned on the masked species'
    states in its row of `present`, where a positive value means present.
    Limited to small communities (2^n configurations)."""
    # Imported here: scipy.special at module level would add ~0.2 s to every command's start-up.
    from scipy.special import log_expit

    n = model.spec.n_species
    if n > 12:
        raise ValueError(f"oracle enumeration is limited to 12 species, got {n}")
    env = np.asarray(env, dtype=float)
    rows = np.atleast_2d(env)
    cfg = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)  # (2^n, n)
    sign = 2.0 * cfg - 1.0  # +1 where a configuration has the species, -1 where not
    base = rows @ model.theta.T + model.bias  # (N, n)
    signed_shift = sign * (cfg @ model.weights.T)  # (2^n, n): the present parents' pull
    loglik = np.zeros((rows.shape[0], cfg.shape[0]))
    for c in range(n):
        z = np.multiply.outer(base[:, c], sign[:, c])
        z += signed_shift[:, c]
        loglik += log_expit(z, out=z)
    if reveal_mask is not None:
        reveal = np.asarray(reveal_mask, dtype=bool)
        known = 2.0 * (np.atleast_2d(present)[:, reveal] > 0) - 1.0
        # A configuration agrees with a row on all r revealed species iff their signs' dot product is r.
        loglik[known @ sign[:, reveal].T < reveal.sum()] = -np.inf
    loglik -= loglik.max(axis=1, keepdims=True)
    lik = np.exp(loglik, out=loglik)
    out = (lik @ cfg) / lik.sum(axis=1, keepdims=True)
    return out[0] if env.ndim == 1 else out


def oracle_report(model: SynthModel, ds: Dataset, reveal_mask: np.ndarray, score_mask: np.ndarray, indices=None) -> dict:
    """Marginal vs conditional oracle MAE on the scored species.

    Establishes the conditioning headroom that trained models should partly
    capture; with no interactions the two coincide up to sampling noise.
    """
    idx = np.arange(ds.n_records) if indices is None else np.asarray(indices)
    env = ds.env[idx]
    truth = ds.targets[idx]
    marginal = bayes_conditional(model, env)
    conditional = bayes_conditional(model, env, truth, reveal_mask)
    score = np.asarray(score_mask, dtype=bool)
    mae_marginal = float(np.abs(marginal[:, score] - truth[:, score]).mean())
    mae_conditional = float(np.abs(conditional[:, score] - truth[:, score]).mean())
    return {
        "marginal_mae": mae_marginal,
        "conditional_mae": mae_conditional,
        "headroom": mae_marginal - mae_conditional,
        "n_locations": int(idx.size),
    }


def interaction_benchmark_spec(n_locations: int = 5000, seed: int = 0, rate_mode: bool = False) -> SynthSpec:
    """A 10-species, 5-env community where the second half of the roster
    responds strongly to the first half."""
    interaction = 4.0
    edges = [
        (0, 5, interaction),
        (1, 6, -interaction),
        (2, 7, interaction),
        (3, 8, -interaction),
        (0, 9, interaction * 0.75),
        (4, 9, interaction * 0.75),
    ]
    return SynthSpec(
        n_species=10,
        n_env=5,
        n_locations=n_locations,
        edges=edges,
        env_scale=1.0,
        noise=0.5,
        rate_mode=rate_mode,
        seed=seed,
    )


def null_benchmark_spec(n_locations: int = 5000, seed: int = 0, rate_mode: bool = False) -> SynthSpec:
    """Interaction-free twin of the benchmark community (W = 0)."""
    return replace(interaction_benchmark_spec(n_locations, seed, rate_mode), edges=[])
