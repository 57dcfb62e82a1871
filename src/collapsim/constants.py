"""Physical constants used by the kinematic formulas and the collapse criterion.

Values are the 2018 CODATA recommendations: the Planck constant is exact in
the revised SI, hbar is derived from it, and the fine-structure constant is
the CODATA measured value.
"""

from __future__ import annotations

import math

PLANCK_H = 6.62607015e-34          # J s, exact (SI definition)
HBAR = PLANCK_H / (2.0 * math.pi)  # J s
FINE_STRUCTURE = 7.2973525693e-3   # dimensionless

SECONDS_PER_YEAR = 31_557_600.0    # Julian year

# Largest admissible phase-constant mismatch, alpha_s / 2.
PHASE_GAP_LIMIT = 0.5 * FINE_STRUCTURE

# Chance that two independent uniform phase constants pass the gap test.  The
# circular distance of two independent uniform angles is uniform on [0, pi],
# so P(distance <= alpha_s/2) = alpha_s / (2*pi).
PHASE_ACCEPTANCE_PROBABILITY = FINE_STRUCTURE / (2.0 * math.pi)
