"""fiberphase: phase noise in long fiber interferometers.

Simulate calibrated stochastic phase processes, forward-model Sagnac and
Mach-Zehnder interferometers, recover phase statistics from intensity
records, and propagate the noise into quantum-repeater fidelity budgets.

The package re-exports each module's ``__all__``, which alone lists its
public names; `cli` and `decimals` are not re-exported.  The library logs
through the ``fiberphase`` logger, which has only a NullHandler: nothing is
printed unless the application configures logging.
"""

import logging

from .analysis import *  # noqa: F403
from .errors import *  # noqa: F403
from .fileio import *  # noqa: F403
from .fileio import TOOL_VERSION as __version__
from .interferometer import *  # noqa: F403
from .noise import *  # noqa: F403
from .presets import *  # noqa: F403
from .repeater import *  # noqa: F403

logging.getLogger(__name__).addHandler(logging.NullHandler())
