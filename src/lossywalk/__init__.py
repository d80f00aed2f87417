"""Topological physics of lossy discrete-time quantum walks.

The package namespace is the ``__all__`` of each module below.
"""

from ._version import __version__
from .errors import *
from .linalg import *
from .walks import *
from .invariants import *
from .symmetries import *
from .lattice import *
from .sweeps import *
from .tables import *
