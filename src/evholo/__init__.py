"""Event-stream holographic encoding and global spectral gating.

Turns asynchronous event-camera streams (x, y, t, polarity) into compact
dense tensors — per-polarity density maps plus a holographic channel that
folds the width axis in through a sinusoidal embedding — and provides a
reference implementation of the global spectral gating operator (FFT-domain
modulation with learnable complex weights, gated reconstruction, residual
fusion) together with analytic gradient verification.
"""

from .encode import *
from .errors import *
from .events import *
from .gsg import *
from .spectral import *
from .tensorio import *

__version__ = "0.1.0"

__all__ = []
__all__ += encode.__all__
__all__ += errors.__all__
__all__ += events.__all__
__all__ += gsg.__all__
__all__ += spectral.__all__
__all__ += tensorio.__all__
