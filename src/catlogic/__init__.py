"""catlogic: a desk-scale categorical logic workbench.

Parses propositional and equational theories, builds their Lindenbaum
algebras and syntactic categories, enumerates finite realizations, verifies
finite Stone duality and the Lang/Syn hom-set bijection exhaustively, and
simulates networks of neuron-algebras with state propagation along Stone
duals.
"""

__version__ = "0.1.0"

from ._core import BACKEND
from .boolalg import (
    BoolHom,
    FiniteBooleanAlgebra,
    LindenbaumAlgebra,
    entails,
    enumerate_homs,
    free_boolean_algebra,
    lindenbaum_algebra,
    satisfying_assignments,
)
from .kernel import Fragment, Theory, check_well_formed, free_vars, substitute

__all__ = [
    "BACKEND",
    "BoolHom",
    "FiniteBooleanAlgebra",
    "Fragment",
    "LindenbaumAlgebra",
    "Theory",
    "__version__",
    "check_well_formed",
    "entails",
    "enumerate_homs",
    "free_boolean_algebra",
    "free_vars",
    "lindenbaum_algebra",
    "satisfying_assignments",
    "substitute",
]
