"""One tolerance policy for every rank, definiteness and residual decision in
the package.

All thresholds are relative.  Rank decisions compare singular values against
``rank_rtol * max(shape) * sigma_max``; the dimension factor makes the policy
stable across block sizes so that composed checks (stacked kernels, assembled
matrices) cannot disagree with their ingredients.  A positive definite tag
reads the same cut: it needs every eigenvalue of the block past it.
"""

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances, each in the open interval (0, 1).

    rank_rtol      singular values below rank_rtol * max(shape) * sigma_max
                   count as zero (eigenvalues of a symmetric block likewise)
    residual_rtol  acceptance threshold for identity and witness residuals
    """

    rank_rtol: float = 1e-10
    residual_rtol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "residual_rtol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")

    def replace(self, **changes) -> "ToleranceConfig":
        return dataclasses.replace(self, **changes)


DEFAULT_TOL = ToleranceConfig()


def resolve(tol: ToleranceConfig | None) -> ToleranceConfig:
    """Fall back to the package default when no config is given."""
    return DEFAULT_TOL if tol is None else tol
