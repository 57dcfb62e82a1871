"""The seed blocks of the statistical tests, and each gate's false-alarm rate.

A statistical gate passes or fails on sampled values, so a correct program
fails it with a small probability: the gate's false-alarm rate.  A test's
seeds were fixed before it first ran and are never moved, so that the rate
stays a rate, and each test holds its own block, so that one stream cannot
fail two tests together.  ``RngState`` seeds (a config's ``seed``) and numpy
``default_rng`` seeds are separate namespaces.

Rates are nominal.  A p-value gate fails with its threshold (at most that
on counts, where the test is conservative).  A band of k standard errors
about the expected value fails with the two-sided normal tail,
erfc(k / sqrt 2): 6.3e-5 at k = 4.  Gates whose margins no sample comes near
are listed at rate 0.

All gates together should fail a correct program at most ``BUDGET`` of the
time.  They do not yet: nine uniformity tests of ``TestKeyedWords`` at
p > 1e-3, three exponential ones and a chi-squared one add 1.3e-2, and the
sum is 1.6e-2.
"""

import math
from typing import NamedTuple

BUDGET = 1e-3


def band(k: float) -> float:
    """The false-alarm rate of a two-sided band of ``k`` standard errors."""
    return math.erfc(k / math.sqrt(2.0))


class Block(NamedTuple):
    test: str
    namespace: str  # "engine" for RngState seeds, "numpy" for default_rng seeds
    seeds: tuple
    rates: tuple  # one per gate


BLOCKS = (
    # Per config: the z of the mean collapse count, the KS tests of the
    # counts and of the final widths, and the localized fractions.
    Block("test_thinning.py::test_engine_matches_thinned_reference", "engine",
          tuple(range(5000, 5256)), (band(4.0), 1e-4, 1e-4, band(4.0)) * 4),
    Block("test_thinning.py::test_engine_matches_thinned_reference (reference)", "numpy",
          tuple((5000, k) for k in range(4)), ()),
    # Per keyed word: uniformity (KS) and its correlation with the gap word;
    # per axis: the offset variance.
    Block("test_environment.py::TestKeyedWords", "engine", (9017,),
          (1e-3,) * 9 + (band(4.0),) * 9 + (band(4.0),) * 3),
    # The mean of 1e6 unit exponentials within 5e-3: five standard errors.
    Block("test_environment.py::TestNextCollision::test_mean_interarrival", "engine", (21,),
          (band(5.0),)),
    Block("test_environment.py::TestNextCollision::test_interarrival_ks_against_exponential",
          "engine", (101, 202, 303), (1e-3,) * 3),
    # 1e6 uniform phases: the mean within 0.01 of pi, the variance within 1%.
    Block("test_environment.py::TestDrawPhase::test_uniform_moments", "engine", (11,),
          (band(0.01 / (math.pi / math.sqrt(3.0) / 1e3)), band(0.01 / math.sqrt(0.8 / 1e6)))),
    Block("test_environment.py::TestDrawPhase::test_chi_squared_uniformity", "engine", (13,),
          (1e-3,)),
    # ``np.allclose``'s default atol of 1e-8 widens each axis's band to
    # 0 to 2.1e-8, 63 standard errors below 1e-8 and 70 above.
    Block("test_environment.py::TestNextCollision::test_impact_spread_offsets_center", "engine",
          (8,), (0.0,) * 3),
    Block("test_engine.py::TestEnsemble::test_firing_fraction_matches_phase_acceptance",
          "engine", tuple(range(100, 104)), (band(4.0),)),
    # The self test's clock read to its printed digits: no statistical gate.
    Block("test_environment.py::TestNextCollision::test_selftest_clock_is_the_collision_loops",
          "engine", (987, 4242), ()),
    # ``collapsim selftest --fast``: the mean of 1e5 unit exponentials within
    # 1.5e-2, and the phase acceptance of 2e6 pairs within 4 standard errors.
    Block("test_cli.py::TestSelftestCommand::test_fast_selftest_passes", "engine", (987,),
          (band(1.5e-2 * math.sqrt(1e5)),)),
    Block("test_cli.py::TestSelftestCommand::test_fast_selftest_passes (phases)", "numpy",
          (654,), (band(4.0),)),
    Block("test_acceptance.py::test_criterion_6_phase_acceptance_statistics", "numpy", (654,),
          (band(4.0),)),
    Block("test_criterion.py::TestBatchEvaluator::test_statistical_acceptance_smoke", "numpy",
          (42,), (band(4.0),)),
    # The recovery ratios have margins no sample nears, and a grain replica
    # with no firing in 0.05 s has probability exp(-60).  But a ``tpp``
    # replica fires about 1,150 times a second and re-spreads past its
    # internal radius 40 ns after a firing: one of 16 ends localized with
    # probability about 16 * 1150 * 4e-8.
    Block("test_acceptance.py::test_criterion_8_micro_macro_dichotomy", "engine",
          tuple(range(2026, 2042)), (0.0, 0.0, 0.0, 16 * 1150 * 4e-8)),
)

# Seeds that two blocks share.  They predate the registry and stay where
# they are; a new test takes seeds of its own.
SHARED = {
    ("test_environment.py::TestNextCollision::test_interarrival_ks_against_exponential",
     "test_engine.py::TestEnsemble::test_firing_fraction_matches_phase_acceptance"),
    ("test_environment.py::TestNextCollision::test_selftest_clock_is_the_collision_loops",
     "test_cli.py::TestSelftestCommand::test_fast_selftest_passes"),
    ("test_cli.py::TestSelftestCommand::test_fast_selftest_passes (phases)",
     "test_acceptance.py::test_criterion_6_phase_acceptance_statistics"),
}
