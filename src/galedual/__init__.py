"""Gale duality for sparse polynomial systems.

Exact dualization between sparse Laurent systems on the torus and
master-function systems on hyperplane arrangement complements, lattice
counting bounds, and numeric verification that the two sides cut out the
same points. The modules hold the rest of the API.
"""

from .duality import check_gale_pair, dualize_master_to_poly, dualize_poly_to_master
from .errors import GaleDualError
from .polytopes import kouchnirenko_bound
from .serialize import load_system
from .solver import solve_master, solve_sparse, verify_isomorphism

__version__ = "0.1.0"

__all__ = [
    # the README quick start
    "check_gale_pair",
    "dualize_poly_to_master",
    "kouchnirenko_bound",
    "load_system",
    "solve_sparse",
    "verify_isomorphism",
    # their master-side twins
    "dualize_master_to_poly",
    "solve_master",
    # the base class of the package's own errors
    "GaleDualError",
]
