"""The quadrature policy: the tolerance config every numeric integral runs
under, and ``adaptive_quad``, the one code that maps it onto QUADPACK."""

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

#: fixed default seed of the Monte Carlo guard, for reproducible runs
DEFAULT_MC_SEED = 1729

#: QUADPACK takes the subdivision limit as a C int; it also allocates work
#: arrays of that many entries, so depths near the ceiling may fail on memory
_MAX_DEPTH_CEILING = 2 ** 31 - 1


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision limit governing every integral in the package."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_depth: int = 200

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("quadrature tolerances must be positive and finite")
        if not (isinstance(self.max_depth, int)
                and 1 <= self.max_depth <= _MAX_DEPTH_CEILING):
            raise DomainError(
                f"max_depth must be an integer in [1, {_MAX_DEPTH_CEILING}]")


DEFAULT_CONFIG = QuadratureConfig()


def adaptive_quad(f, a, b, cfg, name):
    """Adaptive Gauss-Kronrod integral of ``f`` over ``[a, b]`` under ``cfg``.

    Raises ConvergenceError, naming the integral, when the result is not
    finite or QUADPACK flags a failure whose error estimate sits far above
    the requested tolerance.  Roundoff warnings within tolerance pass.
    ``scipy.integrate`` is imported here, on first use, so that the gap
    solve, which runs no quadrature, never loads it.
    """
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
               limit=cfg.max_depth, full_output=1)
    value, abserr = out[0], out[1]
    flagged = len(out) > 3  # QUADPACK appended a failure message
    allowed = 1e3 * max(cfg.abs_tol, cfg.rel_tol * abs(value))
    if not math.isfinite(value) or (flagged and abserr > allowed):
        raise ConvergenceError(
            f"{name}: quadrature did not converge "
            f"(value {value:.6e}, error estimate {abserr:.2e})")
    return value
