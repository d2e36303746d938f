"""Toolkit for closure ordinals of least-fixpoint cover-modality systems.

Equation systems over the single cover modality are evaluated on finite
Kripke frames through their ordinal-stage approximations; conservative
well-annotations, relevant parts, repetition pairs and pumping expose
the combinatorics behind per-frame closure ordinals, and a verified
translation brings systems into conjunctive shape.
"""

from types import ModuleType as _ModuleType

from .ordinal import *
from .syntax import *
from .frame import *
from .semantics import *
from .annotation import *
# binds nablamu.pump to the function, over the submodule of the same name
from .pump import *
from .normalform import *

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
