"""The engine's formula functions equal the test reference bit for bit.

``tests/reference.py`` writes the model's laws from the paper without the
engine's code; these properties pin each engine function to it on widths
across ten decades and separations of a few widths.
"""

import ast
import math
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from collapsim.contraction import damped_sigma, product_width
from collapsim.criterion import (
    criterion_fires,
    overlap_from_widths,
    phase_clause_batch,
    phase_distance,
)
from collapsim.packets import spread_into, spread_widths
import reference

TWO_PI = 2.0 * math.pi

widths = st.floats(-12.0, -2.0).map(lambda e: 10.0**e)
vec3_widths = st.tuples(widths, widths, widths)
phases = st.floats(0.0, TWO_PI, exclude_max=True)
masses = st.floats(-27.0, 0.0).map(lambda e: 10.0**e)
times = st.floats(0.0, 1e3)


@st.composite
def encounters(draw):
    """Two width triples and a separation of up to four of the larger widths
    per axis."""
    sigma1 = draw(vec3_widths)
    sigma2 = draw(vec3_widths)
    separation = tuple(
        draw(st.floats(-4.0, 4.0)) * max(s1, s2) for s1, s2 in zip(sigma1, sigma2)
    )
    return sigma1, sigma2, separation


@st.composite
def phase_pairs(draw):
    """Two phase constants, the second often within a few gap limits of the
    first so that the phase clause goes either way."""
    alpha1 = draw(phases)
    alpha2 = draw(st.one_of(phases, st.floats(-0.02, 0.02).map(lambda d: (alpha1 + d) % TWO_PI)))
    # Reduction modulo 2 pi can round up to 2 pi itself.
    return alpha1, (alpha2 if alpha2 < TWO_PI else 0.0)


def test_reference_imports_only_constants():
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)
    from_package = {name for name in imported if name.split(".")[0] == "collapsim"}
    assert from_package == {"collapsim.constants"}


@given(encounters())
def test_overlap(encounter):
    assert overlap_from_widths(*encounter) == reference.overlap(*encounter)


@given(phase_pairs())
def test_phase_distance(pair):
    assert phase_distance(*pair) == reference.phase_distance(*pair)


@given(phase_pairs(), encounters())
def test_criterion_fires(pair, encounter):
    assert criterion_fires(*pair, *encounter) == reference.fires(*pair, *encounter)


@given(st.lists(phase_pairs(), min_size=1, max_size=20))
def test_phase_clause_batch(pairs):
    a1, a2 = (np.array(column) for column in zip(*pairs))
    expected = [reference.phase_clause(x, y) for x, y in pairs]
    assert phase_clause_batch(a1, a2).tolist() == expected
    # A scalar first argument broadcasts, as the block scan passes it.
    expected = [reference.phase_clause(pairs[0][0], y) for y in a2.tolist()]
    assert phase_clause_batch(pairs[0][0], a2).tolist() == expected


@given(vec3_widths, vec3_widths)
def test_product_width(sigma1, sigma2):
    assert product_width(sigma1, sigma2) == reference.product(sigma1, sigma2)


@given(vec3_widths, st.tuples(*[st.floats(1e-6, 1.0)] * 3), st.floats(1e-9, 1.0))
def test_damped_sigma(sigma_old, fractions, eta):
    sigma_p = tuple(f * s for f, s in zip(fractions, sigma_old))
    assert damped_sigma(sigma_old, sigma_p, eta) == reference.damped(sigma_old, sigma_p, eta)


@given(vec3_widths, masses, times)
def test_spread_widths_float(sigma0, mass, dt):
    assert spread_widths(sigma0, mass, dt) == reference.spread(sigma0, mass, dt)


@given(vec3_widths, masses, st.lists(times, min_size=1, max_size=20))
def test_spread_widths_array(sigma0, mass, dts):
    with np.errstate(over="ignore"):
        columns = spread_into(sigma0, mass, np.array(dts), np.empty((3, len(dts))))
    assert list(zip(*(c.tolist() for c in columns))) == [
        reference.spread(sigma0, mass, dt) for dt in dts
    ]
