"""dsaddle: invertibility analysis and explicit inverses for symmetric
double saddle-point matrices

    K = [[A,  B^T, 0  ],
         [B, -D,   C^T],
         [0,  C,   E  ]].

The package decides invertibility through a ladder of necessary and
sufficient conditions with explicit singularity witnesses, constructs
closed-form structured inverses when the leading block is maximally rank
deficient, verifies nullity bounds on the middle block of the inverse, and
generates seeded random instances with prescribed rank structure for
property-based testing.  Everything is dense and tolerance-governed;
see :class:`dsaddle.ToleranceConfig` for the single rank policy.
"""

from . import core, generators, invertibility, inverses, mmio, subspaces
from .core import *
from .generators import *
from .invertibility import *
from .inverses import *
from .mmio import *
from .subspaces import *

__version__ = "0.1.0"

# each module declares its public names once, in its own __all__
__all__ = [*core.__all__, *generators.__all__, *invertibility.__all__, *inverses.__all__,
           *mmio.__all__, *subspaces.__all__]
