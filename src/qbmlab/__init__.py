"""qbmlab: exact relaxation dynamics of an oscillator in a finite bath.

The package solves the one-quantum sector of a subsystem oscillator linearly
coupled (quanta-conserving) to a finite oscillator bath: exact normal modes
from the secular equation, closed-form evolution of mean observables,
time-dependent damping coefficients, recurrence-time analysis, and the
dense-bath analytics of the decay law.

Each module's ``__all__`` alone decides what the package exports.
"""

from .model import *  # noqa: F401,F403
from .eigensolve import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .langevin import *  # noqa: F401,F403
from .recurrence import *  # noqa: F401,F403
from .continuum import *  # noqa: F401,F403

__version__ = "0.1.0"
