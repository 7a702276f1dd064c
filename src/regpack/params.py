"""Constant hierarchy and the tolerance function a run reads.

    g(a) = a^(1/300)

``g`` gives the per-round tolerances ``xi_t = g^t(2*eps)``; they approach
1 within a couple of iterations at any usable eps, so ``xi`` clamps them
at the constant ``ParamSet.xi_max`` = 0.25.  The clamp preserves
monotonicity and keeps the degree/codegree checks meaningful at the
instance sizes this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .errors import BadParams


def g(a: float) -> float:
    return a ** (1 / 300)


@dataclass
class ParamSet:
    """Knobs for one pipeline run.

    The refinement constant K is read off each template by
    ``uniform.square_slices``.  The class-level constants below are
    calibrated for desk-scale classes and are not settable; the
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

    def __post_init__(self):
        if not (0 < self.eps < 1):
            raise BadParams("eps must lie in (0,1)")
        if self.k < 1 or self.Delta_R < 1:
            raise BadParams("k and Delta_R must be positive")
        if self.embed_retry_cap < 1:
            raise BadParams(f"embed_retry_cap must be at least 1, got {self.embed_retry_cap}")


def xi(eps: float, t: int) -> float:
    """Round-t tolerance ``g^t(2*eps)``, clamped at ``ParamSet.xi_max``.

    g(g(a)) = a^(1/90000) >= 0.99 for every positive double a, so every
    iterate past the second is clamped as well and two steps are exact."""
    a = 2 * eps
    for _ in range(min(t, 2)):
        a = g(a)
    return min(a, ParamSet.xi_max)
