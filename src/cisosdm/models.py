"""The five model families: linear, maxent, mlp, mlp++ and ciso.

The ciso family is an environmental encoder (the MLP trunk minus its output
layer) whose representation is prepended as a single token to the species
token sequence; three full self-attention blocks (pre-layer-norm, GELU
feed-forward) mix the sequence, and a per-species linear readout turns each
species token into a suitability score. No positional encodings are used, so
the architecture is species-permutation equivariant by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Literal

import numpy as np

from . import check_fields, check_value, numerics as nm, read_json, write_json
from .dataio import NormStats
from .encoding import MODES, EmbeddingTables, species_tokens
from .features import MaxentConfig, expand
from .numerics import Tensor

FAMILIES = ("linear", "maxent", "mlp", "mlp++", "ciso")

# A CISO piece (a predict batch or a training micro-batch) takes as many rows
# as keep its largest per-op array, the (heads, L, L) scores or the (L, 4d)
# feed-forward activations, within a per-core L2 cache, so that the dozen
# elementwise passes per block stream from cache, not DRAM. On 2 vCPUs (d =
# 64, 4 heads, 3 blocks, 2 threads) predict ran 361 rows/s at 6 rows per batch
# and C = 100 against 264 at the 25 rows of a 128 MiB batch budget, and 3107
# against 3004 at 93 and 349 rows and C = 10. A constant, not read from the
# machine: it sets the micro-batch count, so the checkpoint bytes.
CACHE_BYTES = 2 * 2**20
# Activation bytes the ciso predict batches in flight may hold together, one
# row estimated by row_bytes(spec): at C = 3951, d = 256 one row exceeds it,
# so one batch of one row runs at a time.
PREDICT_BUDGET_BYTES = 128 * 2**20
MAX_PREDICT_ROWS = 1024

CHECKPOINT_MAGIC = b"CISOCKPT"
CHECKPOINT_VERSION = 1
HEADER_KEYS = ("format_version", "spec", "roster", "norm", "maxent", "arrays")


@dataclass
class ModelSpec:
    """Architecture and hyperparameters for any family."""

    family: Literal[FAMILIES]
    n_species: int
    n_env: int
    hidden_dim: int = 256
    mlp_hidden: tuple[int, ...] | None = None  # default: (hidden_dim, hidden_dim)
    transformer_layers: int = 3
    heads: int = 4
    n_b: int = 4
    encoding: Literal[MODES] = "discrete"
    dropout: float = 0.1

    def __post_init__(self):
        check_fields(self)
        for name in ("n_species", "n_env", "hidden_dim", "transformer_layers", "heads", "n_b"):
            low = 0 if name in ("n_env", "transformer_layers") else 1
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {getattr(self, name)!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be a number in [0, 1), got {self.dropout!r}")
        if self.hidden_dim % self.heads != 0:
            raise ValueError(f"hidden_dim {self.hidden_dim} not divisible by heads {self.heads}")
        if self.mlp_hidden is not None and min(self.mlp_hidden, default=1) < 1:
            raise ValueError(f"mlp_hidden must be a list of integers >= 1, got {self.mlp_hidden!r}")

    @property
    def trunk_widths(self) -> tuple[int, ...]:
        return self.mlp_hidden if self.mlp_hidden is not None else (self.hidden_dim, self.hidden_dim)

    @property
    def uses_states(self) -> bool:
        return self.family in ("mlp++", "ciso")


def row_bytes(spec: ModelSpec) -> int:
    """Bytes one row of a float64 CISO inference forward holds at once (half
    in float32, as in `train`'s validation): the arrays alive in one block,
    namely the score/softmax temporaries, q/k/v and the merged heads, and the
    feed-forward's GELU temporaries. It bounds the tracemalloc peak of a
    forward pass per row from above (C = 10..300, d = 64..256) with room to
    spare: head splits are views and softmax, layer norm and GELU work in
    place, so the measured peak is 0.55-0.96 of it."""
    length, d, heads = spec.n_species + 1, spec.hidden_dim, spec.heads
    return 8 * (3 * heads * length**2 + 4 * length * heads * d + 4 * length * 4 * d)


def piece_rows(spec: ModelSpec) -> int:
    """Rows of a CISO piece, a predict batch or a training micro-batch: as
    many as keep its largest per-op array, counted at 8 bytes an entry,
    within CACHE_BYTES, within [1, MAX_PREDICT_ROWS]. Inside `train`, steps
    and validation predicts run in float32 and fill half the cache, but are
    sized alike, which keeps the checkpoint bytes of the float64 sizing."""
    length = spec.n_species + 1
    largest = 8 * max(spec.heads * length**2, 4 * spec.hidden_dim * length)
    return max(1, min(MAX_PREDICT_ROWS, CACHE_BYTES // largest))


def mlp_widths_for_depth(depth: int, hidden_dim: int = 256) -> tuple[int, ...]:
    """Hidden widths for a depth-ablation MLP; widths double past 3 layers."""
    if depth < 2:
        raise ValueError("an MLP needs at least 2 layers")
    width = hidden_dim * (2 if depth > 3 else 1)
    return (width,) * (depth - 1)


def _linear_params(rng, fan_in: int, fan_out: int, name: str, gain: float = 1.0) -> tuple[Tensor, Tensor]:
    w = Tensor(rng.normal(0.0, gain / np.sqrt(fan_in), size=(fan_in, fan_out)), requires_grad=True, name=f"{name}.w")
    b = Tensor(np.zeros(fan_out), requires_grad=True, name=f"{name}.b")
    return w, b


def _ln_params(rng, dim: int, name: str) -> tuple[Tensor, Tensor]:
    g = Tensor(np.ones(dim), requires_grad=True, name=f"{name}.gain")
    b = Tensor(np.zeros(dim), requires_grad=True, name=f"{name}.bias")
    return g, b


class Model:
    """A family instance: a named parameter dict plus a forward pass."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.params: dict[str, Tensor] = {}

    def _add(self, *tensors: Tensor) -> None:
        for t in tensors:
            self.params[t.name] = t

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def forward(self, env: np.ndarray, codes=None, rates=None, training=False, rng=None) -> Tensor:
        raise NotImplementedError

    def predict(self, env: np.ndarray, codes=None, rates=None, batch_size: int = MAX_PREDICT_ROWS) -> np.ndarray:
        """Batched inference that records nothing on any tape: an (N, n_env)
        `env` gives an (N, C) numpy matrix, (0, C) for no rows.

        The batches run through `numerics.run_split` on at most W threads
        (`numerics.workers`), and a batch holds at most `batch_size`
        rows. A ciso batch holds at most :func:`piece_rows`, and batches and
        threads shrink so that the rows in flight stay within
        PREDICT_BUDGET_BYTES by :func:`row_bytes`. The other families split
        MAX_PREDICT_ROWS rows in flight across the W threads."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
        if env.ndim != 2 or env.shape[1] != self.spec.n_env:
            raise ValueError(f"env must have shape (N, {self.spec.n_env}), got {env.shape}")
        n = env.shape[0]
        out = np.empty((n, self.spec.n_species))
        workers = nm.workers()
        if self.spec.family == "ciso":
            flight = max(1, PREDICT_BUDGET_BYTES // row_bytes(self.spec))
            rows = min(batch_size, piece_rows(self.spec), flight)
            workers = min(workers, flight // rows)
        else:
            rows = min(batch_size, max(1, MAX_PREDICT_ROWS // workers))

        def run(batch: int) -> None:
            sl = slice(batch * rows, (batch + 1) * rows)
            c = codes[sl] if codes is not None else None
            r = rates[sl] if rates is not None else None
            out[sl] = self.forward(env[sl], c, r).values

        nm.run_split(-(-n // rows), workers, run)
        return out


class LinearModel(Model):
    """sigmoid(W x + b) over the normalized environmental vector."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        super().__init__(spec)
        w, b = _linear_params(rng, spec.n_env, spec.n_species, "out")
        self._add(w, b)

    def forward(self, env, codes=None, rates=None, training=False, rng=None) -> Tensor:
        x = Tensor(np.atleast_2d(env))
        return nm.sigmoid(nm.matmul(x, self.params["out.w"], self.params["out.b"]))


class MaxentModel(Model):
    """Linear model over the Maxent feature expansion."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator, maxent_config: MaxentConfig):
        super().__init__(spec)
        self.maxent_config = maxent_config
        w, b = _linear_params(rng, maxent_config.n_features, spec.n_species, "out")
        self._add(w, b)

    def forward(self, env, codes=None, rates=None, training=False, rng=None) -> Tensor:
        x = Tensor(expand(np.atleast_2d(env), self.maxent_config))
        return nm.sigmoid(nm.matmul(x, self.params["out.w"], self.params["out.b"]))


def _trunk(rng, widths: tuple[int, ...], n_in: int, prefix: str) -> list[tuple[Tensor, Tensor]]:
    layers = []
    fan_in = n_in
    for i, width in enumerate(widths):
        w, b = _linear_params(rng, fan_in, width, f"{prefix}{i}", gain=np.sqrt(2.0))
        # small positive bias keeps ReLU units off the kink at init
        b.values[:] = 0.01
        layers.append((w, b))
        fan_in = width
    return layers


def _run_trunk(layers, x: Tensor) -> Tensor:
    for w, b in layers:
        x = nm.relu(nm.matmul(x, w, b))
    return x


class MLPModel(Model):
    """ReLU trunk plus a final linear layer and sigmoid."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator, n_in: int | None = None):
        super().__init__(spec)
        widths = spec.trunk_widths
        self.trunk = _trunk(rng, widths, n_in if n_in is not None else spec.n_env, "trunk")
        for w, b in self.trunk:
            self._add(w, b)
        w, b = _linear_params(rng, widths[-1], spec.n_species, "out")
        self._add(w, b)

    def _input(self, env, codes, rates) -> np.ndarray:
        return np.atleast_2d(env)

    def forward(self, env, codes=None, rates=None, training=False, rng=None) -> Tensor:
        x = Tensor(self._input(env, codes, rates))
        h = _run_trunk(self.trunk, x)
        return nm.sigmoid(nm.matmul(h, self.params["out.w"], self.params["out.b"]))


class MLPPlusModel(MLPModel):
    """The MLP with per-species one-hot state inputs appended to the env vector.

    Each species contributes n_b + 2 input entries (unknown, absent, bins).
    """

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.state_width = spec.n_b + 2
        n_in = spec.n_env + spec.n_species * self.state_width
        super().__init__(spec, rng, n_in=n_in)

    def _input(self, env, codes, rates) -> np.ndarray:
        env = np.atleast_2d(env)
        if codes is None:
            codes = np.zeros((env.shape[0], self.spec.n_species), dtype=np.int64)
        onehot = np.eye(self.state_width)[codes]  # (B, C, n_b + 2)
        return np.concatenate([env, onehot.reshape(env.shape[0], -1)], axis=1)


class TransformerBlock:
    """Pre-LN residual block: full self-attention then a GELU feed-forward.

    Each of the `heads` attention heads runs at the full model width; their
    concatenation is projected back to the model width.
    """

    def __init__(self, rng, dim: int, heads: int, dropout: float, name: str):
        self.dim = dim
        self.heads = heads
        self.dropout = dropout
        inner = heads * dim
        self.ln1 = _ln_params(rng, dim, f"{name}.ln1")
        self.wq, self.bq = _linear_params(rng, dim, inner, f"{name}.q")
        self.wk, self.bk = _linear_params(rng, dim, inner, f"{name}.k")
        self.wv, self.bv = _linear_params(rng, dim, inner, f"{name}.v")
        self.wo, self.bo = _linear_params(rng, inner, dim, f"{name}.o")
        self.ln2 = _ln_params(rng, dim, f"{name}.ln2")
        self.wf1, self.bf1 = _linear_params(rng, dim, 4 * dim, f"{name}.ff1")
        self.wf2, self.bf2 = _linear_params(rng, 4 * dim, dim, f"{name}.ff2")

    def tensors(self) -> list[Tensor]:
        out = list(self.ln1)
        out += [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo]
        out += list(self.ln2)
        out += [self.wf1, self.bf1, self.wf2, self.bf2]
        return out

    def _heads(self, x: Tensor, batch: int, length: int, axes=(0, 2, 1, 3)) -> Tensor:
        """(B, L, heads*d) split into heads, (B, L, heads, d), then permuted by `axes`."""
        x = nm.reshape(x, (batch, length, self.heads, self.dim))
        return nm.transpose(x, axes)

    def attention_weights(self, a: Tensor) -> Tensor:
        """Row-stochastic attention matrix (B, heads, L, L) over the
        layer-normed tokens `a`; `forward` mixes the values with it."""
        batch, length, _ = a.shape
        # The 1/sqrt(d) score scale is folded into the (d, heads*d) query
        # projection, so no op runs over the (B, heads, L, L) scores before
        # the softmax.
        scale = 1.0 / np.sqrt(self.dim)
        q = self._heads(nm.matmul(a, nm.mul(self.wq, scale), nm.mul(self.bq, scale)), batch, length)
        k_t = self._heads(nm.matmul(a, self.wk, self.bk), batch, length, (0, 2, 3, 1))  # (B, heads, d, L)
        return nm.softmax_rows(nm.matmul(q, k_t))

    def forward(self, x: Tensor, training: bool, rng) -> Tensor:
        batch, length, _ = x.shape
        a = nm.layer_norm(x, *self.ln1)
        attn = self.attention_weights(a)
        if training and self.dropout > 0:
            attn = nm.dropout(attn, self.dropout, rng)
        v = self._heads(nm.matmul(a, self.wv, self.bv), batch, length)
        mix = nm.matmul(attn, v)
        mix = nm.reshape(nm.transpose(mix, (0, 2, 1, 3)), (batch, length, self.heads * self.dim))
        out = nm.matmul(mix, self.wo, self.bo)
        if training and self.dropout > 0:
            out = nm.dropout(out, self.dropout, rng)
        x = nm.add(x, out)

        f = nm.layer_norm(x, *self.ln2)
        f = nm.gelu(nm.matmul(f, self.wf1, self.bf1))
        f = nm.matmul(f, self.wf2, self.bf2)
        if training and self.dropout > 0:
            f = nm.dropout(f, self.dropout, rng)
        return nm.add(x, f)


class CISOModel(Model):
    """Environmental token + species tokens through the biotic-abiotic
    transformer; suitability scores come from each species token."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        super().__init__(spec)
        d = spec.hidden_dim
        widths = (spec.trunk_widths[:-1] + (d,)) if spec.mlp_hidden else (d, d)
        self.trunk = _trunk(rng, widths, spec.n_env, "encoder")
        for w, b in self.trunk:
            self._add(w, b)
        self.tables = EmbeddingTables(spec.n_species, d, spec.encoding, spec.n_b, rng)
        for t in self.tables.params().values():
            self._add(t)
        self.blocks = [
            TransformerBlock(rng, d, spec.heads, spec.dropout, f"block{i}")
            for i in range(spec.transformer_layers)
        ]
        for blk in self.blocks:
            self._add(*blk.tensors())
        self.ln_final = _ln_params(rng, d, "ln_final")
        self._add(*self.ln_final)
        self.readout_w = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(d), size=(spec.n_species, d)), requires_grad=True, name="readout.w"
        )
        self.readout_b = Tensor(np.zeros(spec.n_species), requires_grad=True, name="readout.b")
        self._add(self.readout_w, self.readout_b)

    def forward(self, env, codes=None, rates=None, training=False, rng=None) -> Tensor:
        dtype = self.tables.species.values.dtype
        env = np.atleast_2d(env).astype(dtype, copy=False)
        batch = env.shape[0]
        c = self.spec.n_species
        if codes is None:
            codes = np.zeros((batch, c), dtype=np.int64)
        rates = np.zeros((batch, c), dtype) if rates is None else np.asarray(rates, dtype)
        z = _run_trunk(self.trunk, Tensor(env))
        z = nm.reshape(z, (batch, 1, self.spec.hidden_dim))
        tokens = species_tokens(self.tables, codes, rates)
        x = nm.concat([z, tokens], axis=1)
        for blk in self.blocks:
            x = blk.forward(x, training, rng)
        x = nm.layer_norm(x, *self.ln_final)
        h = nm.slice_axis(x, 1, 1, c + 1)
        logits = nm.add(nm.sum_axis(nm.mul(h, self.readout_w), -1), self.readout_b)
        return nm.sigmoid(logits)


def build_model(spec: ModelSpec, seed: int, maxent_config: MaxentConfig | None = None) -> Model:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    if spec.family == "linear":
        return LinearModel(spec, rng)
    if spec.family == "maxent":
        if maxent_config is None:
            raise ValueError("maxent family requires a fitted MaxentConfig")
        return MaxentModel(spec, rng, maxent_config)
    if spec.family == "mlp":
        return MLPModel(spec, rng)
    if spec.family == "mlp++":
        return MLPPlusModel(spec, rng)
    return CISOModel(spec, rng)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class TrainedModel:
    """Model plus everything needed to reproduce its inputs."""

    model: Model
    roster: list[str]
    norm: NormStats
    maxent_config: MaxentConfig | None = None
    meta: dict = field(default_factory=dict)


def save_checkpoint(tm: TrainedModel, path: str) -> None:
    """Versioned binary container: JSON header + raw little-endian float64
    parameter blocks in a fixed order. Byte-identical for identical runs."""
    from . import __version__

    arrays = [(name, p.values) for name, p in tm.model.params.items()]
    header = {
        "format_version": CHECKPOINT_VERSION,
        "toolkit_version": __version__,
        "spec": asdict(tm.model.spec),
        "roster": tm.roster,
        "norm": asdict(tm.norm),
        "maxent": asdict(tm.maxent_config) if tm.maxent_config else None,
        "meta": tm.meta,
        "arrays": [{"name": n, "shape": list(v.shape)} for n, v in arrays],
    }
    blob = write_json(None, header, None).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, v in arrays:
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> TrainedModel:
    """Read a :func:`save_checkpoint` file. A file that does not hold exactly
    the arrays its spec builds, in their shapes and with no bytes left over,
    raises ValueError naming the path and the array at fault."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = len(CHECKPOINT_MAGIC)
    if data[:pos] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    hlen = int.from_bytes(data[pos : pos + 8], "little")
    pos += 8
    if pos + hlen > len(data):
        raise ValueError(f"{path}: truncated header")
    header = read_json(path, data[pos : pos + hlen])
    pos += hlen
    if not isinstance(header, dict) or not set(HEADER_KEYS) <= set(header):
        raise ValueError(f"{path}: the header must be a JSON object with keys {list(HEADER_KEYS)}")
    if header["format_version"] != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {header['format_version']}")
    parts = {}
    for part, cls in (("spec", ModelSpec), ("norm", NormStats), ("maxent", MaxentConfig)):
        try:  # not an object, an unknown or missing key, a bad value
            parts[part] = None if part == "maxent" and header[part] is None else cls(**header[part])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: header '{part}': {exc}") from None
    spec, norm, maxent = parts.values()
    if norm.n_kept != spec.n_env:
        raise ValueError(f"{path}: header 'norm' keeps {norm.n_kept} env variables, but 'spec' has n_env {spec.n_env}")
    model = build_model(spec, seed=0, maxent_config=maxent)
    loaded: list[str] = []
    for entry in check_value(f"{path}: header 'arrays'", header["arrays"], list):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str) and "shape" in entry):
            raise ValueError(f"{path}: header 'arrays': an entry must be an object with a string 'name' and a "
                             f"'shape', got {entry!r}")
        name = entry["name"]
        shape = tuple(check_value(f"{path}: header 'arrays' entry '{name}': 'shape'", entry["shape"], list[int]))
        param = model.params.get(name)
        if param is None:
            raise ValueError(f"{path}: array '{name}' is not a parameter of this {spec.family} model")
        if name in loaded:
            raise ValueError(f"{path}: array '{name}' appears twice")
        if shape != param.shape:
            raise ValueError(f"{path}: array '{name}' has shape {shape}, but the model builds {param.shape}")
        nbytes = 8 * param.size
        if pos + nbytes > len(data):
            raise ValueError(f"{path}: array '{name}' is truncated ({len(data) - pos} of {nbytes} bytes)")
        param.values = np.frombuffer(data, dtype="<f8", count=param.size, offset=pos).reshape(shape).copy()
        pos += nbytes
        loaded.append(name)
    missing = [name for name in model.params if name not in loaded]
    if missing:
        raise ValueError(f"{path}: arrays {missing} are missing")
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes after the last array '{loaded[-1]}'")
    return TrainedModel(
        model=model,
        roster=check_value(f"{path}: header 'roster'", header["roster"], list[str]),
        norm=norm,
        maxent_config=maxent,
        meta=header.get("meta", {}),
    )

