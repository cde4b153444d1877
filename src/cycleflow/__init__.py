"""Fuzzy module detection in directed weighted networks via cycle flows.

The public names are those each layer lists in its `__all__`.
"""

from .graph import *  # noqa: F401,F403
from .cycles import *  # noqa: F401,F403
from .lifted import *  # noqa: F401,F403
from .commgraph import *  # noqa: F401,F403
from .clustering import *  # noqa: F401,F403
from .modularity import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403

__version__ = "0.1.0"
