"""Exact arithmetic for signed ribbon graphs: generalized partial duality,
the signed topological transition polynomial with its Tutte and duality
specializations, and state ribbon graphs of virtual link diagrams.

The package root re-exports the ``__all__`` of each module; the README's
"Public names" table lists them."""

from . import br, duality, errors, links, polynomial, ribbon
from .br import *
from .duality import *
from .errors import *
from .links import *
from .polynomial import *
from .ribbon import *

__all__ = [
    *ribbon.__all__,
    *duality.__all__,
    *polynomial.__all__,
    *br.__all__,
    *links.__all__,
    *errors.__all__,
]

__version__ = "0.1.0"
