"""Core contribution: end-to-end fault tolerant attention and its protection schemes.

Modules
-------
* :mod:`repro.core.config` -- attention configuration and fault-tolerance report.
* :mod:`repro.core.traditional_abft` -- operation-level (Huang & Abraham) ABFT
  GEMM used by the decoupled baseline.
* :mod:`repro.core.strided_abft` -- block-level strided tensor-checksum ABFT
  tailored to the Tensor-Core layout (Section 3.3).
* :mod:`repro.core.dmr` -- dual modular redundancy for the softmax (baseline).
* :mod:`repro.core.snvr` -- selective neuron value restriction (Section 3.4).
* :mod:`repro.core.decoupled` -- the three-kernel operation-level protected
  attention baseline (Section 3.1).
* :mod:`repro.core.efta` -- end-to-end fault tolerant attention, Algorithm 1.
* :mod:`repro.core.efta_optimized` -- the unified-verification variant
  (EFTA-opt in Tables 1 and 2).
* :mod:`repro.core.schemes` -- the pluggable protection-scheme registry
  (``"none"``, ``"efta"``, ``"efta_unified"``, ``"decoupled"``) giving every
  variant one ``forward_batched``/``cost_breakdown`` interface selected by
  name; ``forward`` is the one-trial call of ``forward_batched``.
"""

from repro.core.config import AttentionConfig, FaultToleranceReport
from repro.core.traditional_abft import protected_matmul
from repro.core.strided_abft import BlockChecksums, StridedABFT
from repro.core.dmr import dmr_row_softmax
from repro.core.snvr import (
    exp_checksum_propagate,
    restrict_rowsum,
    traditional_restriction,
    verify_exp_products,
)
from repro.core.decoupled import DecoupledFTAttention
from repro.core.efta import EFTAttention
from repro.core.efta_optimized import EFTAttentionOptimized
from repro.core.schemes import (
    ProtectionScheme,
    available_schemes,
    build_scheme,
    get_scheme,
    register_scheme,
)

__all__ = [
    "AttentionConfig",
    "FaultToleranceReport",
    "protected_matmul",
    "BlockChecksums",
    "StridedABFT",
    "dmr_row_softmax",
    "exp_checksum_propagate",
    "restrict_rowsum",
    "traditional_restriction",
    "verify_exp_products",
    "DecoupledFTAttention",
    "EFTAttention",
    "EFTAttentionOptimized",
    "ProtectionScheme",
    "available_schemes",
    "build_scheme",
    "get_scheme",
    "register_scheme",
]
