"""Spectral stabilization toolkit for the linearized water-tank system.

Subpackages cover the full pipeline at desk scale: physical model and
coordinate changes (`model`), eigenstructure of the transport operators by
shooting (`spectral`), moment-method controllability diagnostics and
open-loop steering (`control`), stabilizing feedback construction
(`feedback`), the truncated Fredholm transform and its residual checks
(`backstepping`), time integration and Lyapunov certificates (`simulate`),
a finite-dimensional pole-placement oracle (`finite_dim`), and a batch CLI
(`cli`).
"""

from watertank.model import Params

__all__ = ["Params"]
__version__ = "0.1.0"
