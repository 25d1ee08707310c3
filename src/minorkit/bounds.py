"""Reference table for the known extremal average-degree thresholds.

The exact thresholds forcing a complete minor (order t*sqrt(log t)) or a
complete subdivision (order t^2) are not computable from first principles
here; this module stores the published coefficient forms and turns them into
default density targets for the pipelines.  Users override via CLI flags.
"""

from __future__ import annotations

import math

# leading coefficient of the t*sqrt(log t) form for the minor threshold
MINOR_COEFFICIENT = 0.64
# upper end of the coefficient window [9/64, 10/23] of the t^2 form for the
# subdivision threshold
SUBDIVISION_COEFF_UPPER = 10.0 / 23.0
# degree-floor constant c in c*t*sqrt(log t) + 3t for the sparse unit builder
DEFAULT_DEGREE_FLOOR_COEFF = 1.0 / 128.0


def minor_density_target(t: int) -> float:
    """Default declared density above which a K_t-minor hunt is attempted.

    The asymptotic form underestimates badly at small t, so the exact small-t
    floor 2(t-2) is taken when larger.
    """
    if t < 2:
        return 1.0
    asymptotic = MINOR_COEFFICIENT * t * math.sqrt(max(math.log(t), 1e-9))
    return max(2.0 * (t - 2), asymptotic, 1.0)


def subdivision_density_target(t: int) -> float:
    if t < 2:
        return 1.0
    return max(SUBDIVISION_COEFF_UPPER * t * t, 2.0)


def degree_floor(t: int, coefficient: float = DEFAULT_DEGREE_FLOOR_COEFF) -> float:
    """Minimum-degree requirement for corner growth in the sparse unit builder."""
    return coefficient * t * math.sqrt(max(math.log(t), 1e-9)) + 3.0 * t
