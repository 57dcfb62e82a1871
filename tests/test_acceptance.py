"""Acceptance suite: one test per release criterion, each at its pinned
tolerance.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion PASS lines."""

import math
from dataclasses import replace

import numpy as np
import pytest

from collapsim import (
    de_broglie_wavelength,
    norm_quadrature,
    overlap_integral_quadrature,
    preset,
    run_ensemble,
    spreading_velocity,
    spreading_velocity_via_lambda,
)
from collapsim.cli import main
from collapsim.constants import HBAR, PHASE_ACCEPTANCE_PROBABILITY, SECONDS_PER_YEAR
from collapsim.contraction import product_width
from collapsim.criterion import overlap_from_widths, phase_clause_batch
from collapsim.packets import spread_widths
from collapsim.selftest import random_packet_pair
import reference

TWO_PI = 2.0 * math.pi


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_1_micro_spreading_velocity():
    v = spreading_velocity(1e-10, 1.7e-23)
    assert abs(v - 6e-2) / 6e-2 <= 0.10
    report("criterion 1 (micro spreading velocity)", f"{v:.4e} m/s vs 6e-2 m/s within 10%")


def test_criterion_2_macro_spreading_velocity():
    v = spreading_velocity(1e-10, 1e-7)
    assert 1 / 1.2 <= v / 1e-17 <= 1.2
    per_year = v * SECONDS_PER_YEAR
    assert 1 / 3 <= per_year / 3e-10 <= 3
    report(
        "criterion 2 (macro spreading velocity)",
        f"{v:.4e} m/s vs 1e-17 within x1.2; {per_year:.3e} m/year vs 3e-10 within x3",
    )


def test_criterion_3_de_broglie_examples():
    lam_micro = de_broglie_wavelength(1.7e-23, 10.0)
    lam_macro = de_broglie_wavelength(1e-7, 10.0)
    assert abs(lam_micro - 4e-12) / 4e-12 <= 0.05
    assert abs(lam_macro - 7e-28) / 7e-28 <= 0.10
    report(
        "criterion 3 (matter wavelengths)",
        f"{lam_micro:.4e} m vs 4e-12 within 5%; {lam_macro:.4e} m vs 7e-28 within 10%",
    )


def test_criterion_4_wavelength_route_identity():
    gen = np.random.default_rng(2024)
    m = 10.0 ** gen.uniform(-30, 0, 10_000)
    v0 = 10.0 ** gen.uniform(-3, 4, 10_000)
    d = 10.0 ** gen.uniform(-12, -2, 10_000)
    worst = 0.0
    for mi, vi, di in zip(m, v0, d):
        direct = spreading_velocity(di, mi)
        via = spreading_velocity_via_lambda(de_broglie_wavelength(mi, vi), vi, di)
        worst = max(worst, abs(via - direct) / direct)
    assert worst <= 1e-12
    report(
        "criterion 4 (wavelength-route identity)",
        f"max relative deviation {worst:.3e} over 1e4 random triples (limit 1e-12)",
    )


def test_criterion_5_overlap_vs_quadrature():
    gen = np.random.default_rng(321)
    worst = 0.0
    for _ in range(100):
        pair = random_packet_pair(gen)
        delta = abs(overlap_from_widths(*pair) - overlap_integral_quadrature(*pair))
        worst = max(worst, delta)
    assert worst <= 1e-8
    report(
        "criterion 5 (overlap vs quadrature oracle)",
        f"max |analytic - quadrature| = {worst:.3e} over 100 pairs (limit 1e-8)",
    )


def test_criterion_6_phase_acceptance_statistics():
    n = 10_000_000
    gen = np.random.default_rng(654)
    fired = 0
    for _ in range(10):
        a1 = TWO_PI * gen.random(n // 10)
        a2 = TWO_PI * gen.random(n // 10)
        fired += int(np.count_nonzero(phase_clause_batch(a1, a2)))
    p = PHASE_ACCEPTANCE_PROBABILITY
    empirical = fired / n
    band = 4.0 * math.sqrt(p * (1.0 - p) / n)
    assert abs(empirical - p) <= band
    report(
        "criterion 6 (phase-acceptance statistics)",
        f"empirical {empirical:.6e} vs {p:.6e}, |diff| {abs(empirical - p):.2e} "
        f"<= 4-sigma band {band:.2e} over 1e7 pairs",
    )


def test_criterion_7_monotone_contraction():
    gen = np.random.default_rng(777)
    violations = 0
    for _ in range(10_000):
        sigma1 = tuple(10.0 ** gen.uniform(-12, -2, 3))
        sigma2 = tuple(10.0 ** gen.uniform(-12, -2, 3))
        gen.normal(0, 1e-6, 6)  # the two centers once drawn: keeps the same 1e4 width pairs
        sigma_p = product_width(sigma1, sigma2)
        if any(sp > min(s1, s2) for sp, s1, s2 in zip(sigma_p, sigma1, sigma2)):
            violations += 1
    assert violations == 0
    report(
        "criterion 7 (monotone contraction)",
        "0 violations of contracted width <= min(input widths) over 1e4 random pairs",
    )


def test_criterion_8_micro_macro_dichotomy():
    micro = run_ensemble(replace(preset("tpp"), seed=2026), 16)
    macro = run_ensemble(replace(preset("sugar_grain"), seed=2026), 16)
    assert not micro.failures and not macro.failures

    assert micro.mean_recovery_ratio is not None
    assert micro.mean_recovery_ratio > 10.0
    assert macro.mean_recovery_ratio is not None
    assert macro.mean_recovery_ratio < 1.0 + 1e-9

    r_micro = preset("tpp").object.internal_radius
    r_macro = preset("sugar_grain").object.internal_radius
    for s in macro.replicas:
        assert s.final_min_sigma <= r_macro  # grain ends localized
    for s in micro.replicas:
        assert s.final_min_sigma > r_micro  # molecule ends delocalized

    report(
        "criterion 8 (micro/macro dichotomy)",
        f"recovery ratio micro {micro.mean_recovery_ratio:.3e} > 10, "
        f"macro {macro.mean_recovery_ratio - 1.0:.3e} above 1 (< 1e-9); "
        f"macro localized in 16/16 replicas, micro delocalized in 16/16",
    )


def test_criterion_9_cli_determinism(tmp_path):
    args = ["run", "--scenario", "tpp", "--seed", "7"]
    out1, out2 = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert len(b1) > 0
    report(
        "criterion 9 (CLI determinism)",
        f"two identical runs produced byte-identical CSV ({len(b1)} bytes)",
    )


def test_criterion_10_semigroup_and_normalization():
    gen = np.random.default_rng(55)
    worst_rel = 0.0
    for _ in range(1000):
        # The center, velocity and phase draws are kept so that the stream
        # of the draws the width law reads stays the same.
        gen.normal(0, 1e-3, 3)
        sigma = tuple(10.0 ** gen.uniform(-12, -2, 3))
        gen.normal(0, 1.0, 3)
        mass = 10.0 ** gen.uniform(-25, 0)
        gen.uniform(0, TWO_PI)
        t1, t2 = 10.0 ** gen.uniform(-9, 6, 2)
        # One hop of the engine's law against two hops of the complex width.
        one_hop = spread_widths(sigma, mass, t1 + t2)
        for s0, b in zip(sigma, one_hop):
            a = reference.complex_width(reference.complex_width(s0 * s0, mass, t1), mass, t2)
            worst_rel = max(worst_rel, abs(reference.width_of(a) - b) / b)
    assert worst_rel <= 1e-12

    worst_norm = 0.0
    for _ in range(1000):
        sigma = tuple(10.0 ** gen.uniform(-12, -4, 3))
        # The center, velocity and phase draws are kept, as above.
        gen.normal(0, 1e-3, 3)
        gen.normal(0, 1.0, 3)
        mass = 10.0 ** gen.uniform(-25, 0)
        gen.uniform(0, TWO_PI)
        # spread far enough to matter while keeping widths inside the
        # quadrature oracle's conditioning domain
        spread_time = 2.0 * mass * min(sigma) ** 2 / HBAR
        t = gen.uniform(0.0, 300.0) * spread_time
        worst_norm = max(worst_norm, abs(norm_quadrature(spread_widths(sigma, mass, t)) - 1.0))
    assert worst_norm <= 1e-8
    report(
        "criterion 10 (free-evolution invariants)",
        f"semigroup max rel dev {worst_rel:.3e} (limit 1e-12); "
        f"normalization max |dev| {worst_norm:.3e} (limit 1e-8) over 1e3 packets each",
    )
