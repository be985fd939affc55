"""Full Transformer inference model built on the scheme-agnostic protected layers.

The protection scheme is selected by registry name (``"none"``, ``"efta"``,
``"efta_unified"``, ``"decoupled"``) either on the
:class:`~repro.transformer.configs.TransformerConfig` or per model instance,
so the same model runs end-to-end under every registered scheme -- the code
path behind the paper's cross-scheme comparisons and the
``transformer_inference`` fault campaigns.

The forward carries a leading *trial* axis through every layer
(:meth:`TransformerModel.forward_batched`): a fault campaign stacks a chunk
of trials, each with its own injector behind one
:class:`~repro.fault.injector.FaultRouter`, and a single forward is the
one-trial case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import FaultToleranceReport
from repro.core.schemes import get_scheme
from repro.fault.injector import FaultInjector, FaultRouter
from repro.transformer.configs import TransformerConfig
from repro.transformer.ffn import FeedForward
from repro.transformer.layers import Embedding, LayerNorm, ProtectedLinear, gelu, relu
from repro.transformer.mha import MultiHeadAttention


@dataclass
class TransformerOutput:
    """Result of one protected forward pass."""

    hidden_states: np.ndarray
    logits: np.ndarray | None
    report: FaultToleranceReport


class TransformerBlock:
    """One pre-norm Transformer block: MHA + FFN with residual connections."""

    def __init__(
        self,
        config: TransformerConfig,
        rng: np.random.Generator,
        attention_block_size: int,
        scheme: str | None = None,
    ):
        self.ln_attn = LayerNorm(config.hidden_dim)
        self.ln_ffn = LayerNorm(config.hidden_dim)
        self.attention = MultiHeadAttention(
            hidden_dim=config.hidden_dim,
            num_heads=config.num_heads,
            seq_len=config.max_seq_len,
            rng=rng,
            attention_block_size=attention_block_size,
            scheme=config.scheme if scheme is None else scheme,
        )
        activation = relu if config.name.startswith("T5") else gelu
        self.ffn = FeedForward(config.hidden_dim, config.ffn_dim, rng, activation=activation)

    @property
    def scheme_name(self) -> str:
        """The protection scheme this block runs under."""
        return self.attention.scheme_name

    def __call__(
        self,
        x: np.ndarray,
        router: FaultRouter,
        reports: list[FaultToleranceReport],
    ) -> np.ndarray:
        """Apply the block to ``x`` of shape ``(trials, batch, seq_len, hidden_dim)``."""
        protected = self.attention.protects_linear
        x = x + self.attention(self.ln_attn(x), router, reports)
        x = x + self.ffn(self.ln_ffn(x), router, reports, protected)
        return x


class TransformerModel:
    """Randomly initialised Transformer with scheme-selected fault tolerant inference.

    Parameters
    ----------
    config:
        Architecture description (use the presets in
        :mod:`repro.transformer.configs` or a scaled-down copy for tests).
    seed:
        Seed of the weight initialisation.
    attention_block_size:
        Block size of the fused attention kernel; keep it at or below the
        sequence lengths you intend to run.
    scheme:
        Name of a registered protection scheme; defaults to
        ``config.scheme``.  ``"none"`` runs the whole stack unprotected.
    with_lm_head:
        Attach a vocabulary projection producing logits.
    """

    def __init__(
        self,
        config: TransformerConfig,
        seed: int = 0,
        attention_block_size: int = 128,
        scheme: str | None = None,
        with_lm_head: bool = True,
    ):
        self.config = config
        self.scheme_name = config.scheme if scheme is None else scheme
        self.scheme_cls = get_scheme(self.scheme_name)  # fail fast on typos
        rng = np.random.default_rng(seed)
        self.embedding = Embedding(config.vocab_size, config.hidden_dim, config.max_seq_len, rng)
        self.blocks = [
            TransformerBlock(config, rng, attention_block_size, self.scheme_name)
            for _ in range(config.num_layers)
        ]
        self.final_norm = LayerNorm(config.hidden_dim)
        self.lm_head = (
            ProtectedLinear(config.hidden_dim, config.vocab_size, rng, bias=False)
            if with_lm_head
            else None
        )

    # ------------------------------------------------------------------ #
    @property
    def protects_linear(self) -> bool:
        """Whether the configured scheme verifies the model's linear GEMMs."""
        return self.scheme_cls.protects_linear

    def forward_batched(
        self,
        token_ids: np.ndarray,
        router: FaultRouter,
    ) -> tuple[np.ndarray, np.ndarray | None, list[FaultToleranceReport]]:
        """Forward ``token_ids`` of shape ``(trials, batch, seq_len)``.

        Returns ``(hidden_states, logits, reports)`` with one report per
        trial.  Each trial's slice is independent of the other trials in the
        stack: matmuls stay batched on the last two dimensions, reductions
        run over the last axis, and every trial's injector sees the
        ``corrupt`` offers a one-trial stack would make.  The LM head is
        verified but -- being no part of a block -- not recorded.
        """
        token_ids = np.asarray(token_ids)
        reports = [FaultToleranceReport() for _ in range(token_ids.shape[0])]
        x = self.embedding(token_ids)
        for block in self.blocks:
            x = block(x, router, reports)
        x = self.final_norm(x)
        logits = None
        if self.lm_head is not None:
            logits, _ = self.lm_head(x, router, self.protects_linear)
        return x, logits, reports

    def forward(
        self,
        token_ids: np.ndarray,
        injector: FaultInjector | None = None,
    ) -> TransformerOutput:
        """Run a full forward pass over ``token_ids`` of shape (batch, seq_len).

        The one-trial call of :meth:`forward_batched`; the report's
        ``injected`` list holds the records ``injector`` applied during it.
        """
        already_applied = injector.applied_count if injector is not None else 0
        x, logits, reports = self.forward_batched(
            np.asarray(token_ids)[None], FaultRouter.for_trial(injector)
        )
        report = reports[0]
        if injector is not None:
            report.injected.extend(injector.records[already_applied:])
        return TransformerOutput(
            hidden_states=x[0], logits=None if logits is None else logits[0], report=report
        )

    __call__ = forward

    # ------------------------------------------------------------------ #
    def generate_token(
        self,
        token_ids: np.ndarray,
        injector: FaultInjector | None = None,
    ) -> tuple[np.ndarray, TransformerOutput]:
        """One greedy decoding step: returns the argmax next token per batch row."""
        if self.lm_head is None:
            raise RuntimeError("generate_token requires the model to have an LM head")
        output = self.forward(token_ids, injector=injector)
        next_token = np.argmax(output.logits[:, -1, :], axis=-1)
        return next_token, output

    def num_parameters(self) -> int:
        """Total number of weight parameters (embeddings + blocks + head)."""
        cfg = self.config
        per_block = 4 * cfg.hidden_dim * cfg.hidden_dim + 2 * cfg.hidden_dim * cfg.ffn_dim
        total = cfg.vocab_size * cfg.hidden_dim + cfg.max_seq_len * cfg.hidden_dim
        total += cfg.num_layers * per_block
        if self.lm_head is not None:
            total += cfg.hidden_dim * cfg.vocab_size
        return total
