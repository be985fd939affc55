"""Per-trial seed derivation: the one rule every campaign and faultload uses."""

from __future__ import annotations

import numpy as np


def trial_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Trial ``index``'s seed under root ``seed``.

    This is ``SeedSequence(seed, spawn_key=(index,))``, which numpy builds
    exactly as ``SeedSequence(seed).spawn(n)[index]`` for any ``n > index``
    (same entropy, spawn key and pool size), so trial ``index``'s stream does
    not depend on the trial count, the backend or the batching -- and costs
    O(1) instead of deriving every seed before it.
    """
    return np.random.SeedSequence(seed, spawn_key=(index,))
