"""Mean-field antiferromagnetic gap of the half-filled square-lattice
Hubbard model: density of states, gap-equation solver, exact constants,
and the moment regularization tying them together.
"""

from .dos import (dos_asymptotic, dos_moment, dos_moment_exact, dos_value,
                  dos_value_elliptic)
from .errors import ConvergenceError, DomainError, FitDegeneracyError
from .gap import (AsymptoticComparison, GapParams, GapSolution,
                  asymptotic_comparison, delta_asymptotic, gap_rhs,
                  gap_solve, i1_closed, i1_small_delta, i2_numeric)
from .oracles import (cosine_power_quadrature, dos_pushforward_oracle,
                      dos_value_quadrature, gap_rhs_sinh, i1_quadrature,
                      i2_quadrature, j2_quadrature, sech_log2_integral_direct)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .renorm import (BCS_RATIO, ConstantsReport, EULER_GAMMA, LaurentFit,
                     RegularizedLimit, a0_exact, a0_numeric, a1_constant,
                     a1_exact, a1_minus_b1, b1_constant, constants_report,
                     fit_laurent, gap_ratio_expansion, j2_closed,
                     mellin_difference, neel_asymptotic, ratio_from_asymptotics,
                     regularized_limit, richardson_extrapolate,
                     sech_log2_integral)
from .specfun import (cosine_power_integral, dilog, dilog_inversion_residual,
                      gamma_ratio)

__version__ = "0.1.0"
