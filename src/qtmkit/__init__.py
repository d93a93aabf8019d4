"""qtmkit: quantum thermal machine analysis toolkit.

Classifies per-cycle energy exchanges of a two-reservoir thermal machine
into operational regions, evaluates the efficiencies and Carnot limits of
the eight machine designs, simulates two-level working media (including a
spinless electron on a one-dimensional quantum ring) in the Otto cycle, and
sweeps compression ratios to produce plot-ready tables.
"""

from . import designs, errors, media, otto, regions, sweep
from .designs import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .media import *  # noqa: F401,F403
from .otto import *  # noqa: F401,F403
from .regions import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += regions.__all__
__all__ += designs.__all__
__all__ += otto.__all__
__all__ += media.__all__
__all__ += sweep.__all__
__all__ += errors.__all__
