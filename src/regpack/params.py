"""``ParamSet``, the parameters of one pipeline run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .errors import BadParams


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
        for name in ("alpha", "delta"):
            value = getattr(self, name)
            if not (0 <= value < 1):
                raise BadParams(f"{name} must lie in [0, 1), got {value}")
        if self.k < 1 or self.Delta_R < 1:
            raise BadParams("k and Delta_R must be positive")
        if self.embed_retry_cap < 1:
            raise BadParams(f"embed_retry_cap must be at least 1, got {self.embed_retry_cap}")
