"""Center of mass for massed particles on surfaces of curvature -1/R^2.

The geometry module holds the two models (hyperboloid sheet and
conformal disk) and the projection between them; barycenter computes
centers of mass by averaging in the coordinate 2 atanh(w/R) and by
the closed-form two-body lever point; karcher provides the independent
Riemannian barycenter, found by recentered Newton steps, used to
cross-check; equilibria certifies the balanced two-body pair, builds
the mirror pair and the three-body triples as (system, center) and
measures how the center behaves under rigid rotation.  The cli module
wraps everything behind ``hypercom`` / ``python -m hypercom``.
"""

from . import barycenter, equilibria, errors, geometry, karcher
from .barycenter import *
from .equilibria import *
from .errors import *
from .geometry import *
from .karcher import *

__version__ = "0.1.0"

# Each module's __all__ is its public surface; the package re-exports them.
__all__ = []
__all__ += barycenter.__all__
__all__ += equilibria.__all__
__all__ += errors.__all__
__all__ += geometry.__all__
__all__ += karcher.__all__
