"""Constant hierarchy and the two tolerance functions a run reads.

    g(a) = a^(1/300)                   q(a, w) = a^((1/300)^(w+3))

where ``w`` counts embedding rounds.  ``g`` gives the per-round
tolerances ``xi_t = g^t(2*eps)``; they approach 1 within a couple of
iterations at any usable eps, so all consumers clamp them at the
constant ``ParamSet.xi_max`` = 0.25.  The clamp preserves monotonicity
and keeps the degree/codegree checks meaningful at the instance sizes
this package targets.  ``q`` gives the pipeline's certificate tolerance
``eps_t`` in ``run_main_packing``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .errors import BadParams


def g(a: float) -> float:
    return a ** (1 / 300)


def q(a: float, w: int) -> float:
    return a ** ((1 / 300) ** (w + 3))


@dataclass
class ParamSet:
    """Knobs for one pipeline run.

    ``K`` and ``w`` are derived, not free: ``K = (k+1)^2 * Delta_R`` and
    ``w = K^2 * Delta_R^2 * (Delta_R + 1)``.  The class-level constants
    below are calibrated for desk-scale classes and are not settable; the
    degree-window floor they work with is ``regularity.SD_FLOOR``.
    """

    # tolerance of the probe-set check in the packer, as a fraction of |Q||W|/n
    gamma: ClassVar[float] = 0.05
    xi_max: ClassVar[float] = 0.25
    retry_cap: ClassVar[int] = 32

    eps: float = 0.05
    alpha: float = 0.25
    beta: float = 0.1
    delta: float = 0.1
    k: int = 1
    Delta_R: int = 1
    C: int = 2
    embed_retry_cap: int = 8
    K: int = field(init=False)
    w: int = field(init=False)

    def __post_init__(self):
        if not (0 < self.eps < 1):
            raise BadParams("eps must lie in (0,1)")
        if self.k < 1 or self.Delta_R < 1:
            raise BadParams("k and Delta_R must be positive")
        self.K = (self.k + 1) ** 2 * self.Delta_R
        self.w = self.K ** 2 * self.Delta_R ** 2 * (self.Delta_R + 1)

    def xi(self, t: int) -> float:
        """Round-t tolerance ``g^t(2*eps)``, clamped at ``xi_max``."""
        if t < 0:
            raise BadParams("round index must be >= 0")
        cache = self.__dict__.setdefault("_xi_cache", [2 * self.eps])
        while len(cache) <= t:
            cache.append(g(cache[-1]))
        return min(cache[t], self.xi_max)
