"""Test reference: the model's closed-form laws, written from the paper.

Each function states one law in plain Python, for the tests to check the
engine's functions against.  ``reference_write`` is the record writer in its
plainest form: one formatted line per CSV row, and ``json.dump`` of the rows
as objects.  The module imports nothing from ``collapsim``
but its physical constants, so a fault in an engine formula cannot reach
the reference (``tests/test_reference.py`` checks the imports).

Where a test asserts bit equality with the engine, a law is evaluated in the
engine's order of operations: squares as ``q * q``, the product width as
``s1 * s2 / sqrt(s1*s1 + s2*s2)``, and the same clamps of one-ulp rounding
excursions.
"""

import json
import math

from collapsim.constants import FINE_STRUCTURE, HBAR

TWO_PI = 2.0 * math.pi


def axis_overlap(s1, s2, d):
    """Integral over one axis of |psi_1| |psi_2| for Gaussians of widths s1,
    s2 (standard deviations of |psi|^2) whose centers are d apart:
    sqrt(2 s1 s2 / (s1^2 + s2^2)) * exp(-d^2 / (4 (s1^2 + s2^2)))."""
    ss = s1 * s1 + s2 * s2
    return math.sqrt(2.0 * s1 * s2 / ss) * math.exp(-(d * d) / (4.0 * ss))


def overlap(sigma1, sigma2, separation):
    """Integral over space of |psi_1| |psi_2| for separable packets: the
    product of the per-axis integrals, which Cauchy-Schwarz bounds by 1."""
    out = 1.0
    for s1, s2, d in zip(sigma1, sigma2, separation):
        out *= axis_overlap(s1, s2, d)
    return min(out, 1.0)


def phase_distance(alpha1, alpha2):
    """Distance of two phase constants on the circle of circumference 2 pi."""
    d = abs(alpha1 - alpha2)
    return min(d, TWO_PI - d)


def phase_clause(alpha1, alpha2):
    """The phase gap is at most alpha_s / 2, inclusive."""
    return phase_distance(alpha1, alpha2) <= FINE_STRUCTURE / 2.0


def amplitude_clause(overlap_value, alpha1, alpha2):
    """The squared overlap is at least min(alpha_1, alpha_2) / 2 pi, inclusive."""
    return overlap_value * overlap_value >= min(alpha1, alpha2) / TWO_PI


def fires(alpha1, alpha2, sigma1, sigma2, separation):
    """A collision contracts the packets when both clauses hold."""
    return phase_clause(alpha1, alpha2) and amplitude_clause(
        overlap(sigma1, sigma2, separation), alpha1, alpha2
    )


def product(sigma1, sigma2):
    """Per-axis width of the Gaussian-shaped product |psi_1| |psi_2|:
    sigma_p^2 = s1^2 s2^2 / (s1^2 + s2^2), at most the smaller input width."""
    return tuple(
        min(s1 * s2 / math.sqrt(s1 * s1 + s2 * s2), min(s1, s2)) for s1, s2 in zip(sigma1, sigma2)
    )


def damped(sigma_old, sigma_p, eta):
    """Cluster-regime damping: sigma_new = sigma_old * (sigma_p / sigma_old)^eta."""
    return tuple(so * (sp / so) ** eta for so, sp in zip(sigma_old, sigma_p))


def spread(sigma0, mass, dt):
    """Free spreading from a waist of widths sigma0 after a time dt:
    sigma = sigma0 * sqrt(1 + q^2) with q = hbar dt / (2 m sigma0^2)."""
    out = []
    for s0 in sigma0:
        q = HBAR * dt / (2.0 * mass) / (s0 * s0)
        out.append(s0 * math.sqrt(1.0 + q * q))
    return tuple(out)


def complex_width(a, mass, dt):
    """Free evolution of one axis's complex width A = sigma0^2 + i hbar t / (2 m)
    by a further time dt: A + i hbar dt / (2 m).  A real A is a waist of
    width sqrt(A); composing two hops is adding their imaginary parts."""
    return a + 1j * (HBAR * dt / (2.0 * mass))


def width_of(a):
    """The width |A| / sqrt(Re A) of a complex width A."""
    return abs(a) / math.sqrt(a.real)


CSV_HEADER = "t_s,sigma_x_m,sigma_y_m,sigma_z_m,n_collisions,n_collapses,regime,last_event"


def reference_write(records, fmt, sink):
    """Write time-series rows as CSV, floats to 17 significant digits, or as
    ``json.dump`` of a list of objects keyed by the CSV column names."""
    if fmt == "csv":
        sink.write(CSV_HEADER + "\n")
        for r in records:
            floats = ",".join(format(x, ".16e") for x in (r.t, *r.sigma))
            sink.write(
                f"{floats},{r.n_collisions},{r.n_collapses},{r.regime.value},{r.last_event.value}\n"
            )
    elif fmt == "json":
        names = CSV_HEADER.split(",")
        values = (
            (r.t, *r.sigma, r.n_collisions, r.n_collapses, r.regime.value, r.last_event.value)
            for r in records
        )
        json.dump([dict(zip(names, v)) for v in values], sink, indent=1)
        sink.write("\n")
    else:
        raise ValueError(f"unknown record format {fmt!r}")
