"""Discrete-stable and casual-stable distribution families.

Probability generating functions that solve P(z) = P(Q_p(z))^n for a
semigroup of thinning maps Q_p, Laplace transforms that solve the
continuous analogue L(s) = L(-log g_n(s))^n, exact samplers for both,
a citation-network model built from Sibuya and geometric layers, and a
harness that measures convergence of normalized sums toward a Gamma
limit.  All identity checks run in complement form (tracking 1 - z
rather than z) so residuals sit at rounding level.

Each public name is declared once, in its own module's ``__all__``; the
package re-exports those lists.  The command-line front end, ``cli``,
is not part of the package namespace: import it as
``casualstable.cli``.
"""

from . import citations, convergence, errors, extraction, families, samplers, stability
from .citations import *
from .convergence import *
from .errors import *
from .extraction import *
from .families import *
from .samplers import *
from .stability import *

__version__ = "0.1.0"

__all__ = [
    *citations.__all__,
    *convergence.__all__,
    *errors.__all__,
    *extraction.__all__,
    *families.__all__,
    *samplers.__all__,
    *stability.__all__,
    "__version__",
]
