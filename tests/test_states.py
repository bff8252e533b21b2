import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qruler.errors import GridTooNarrow, InvalidGrid, NonPositiveSigma, XiOutOfDisc
from qruler.grids import MAX_LATTICE_POINTS, GeneratorGrid, grid_for_gaussian
from qruler.states import (
    SG_MIN_NMAX,
    GaussianProbeSpec,
    SGProbeSpec,
    make_gaussian_probe,
    make_sg_probe,
    sg_n_max,
)


class TestGaussianProbe:
    def test_centered_unit_gaussian(self):
        grid = GeneratorGrid(-12.0, 12.0, 1024)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid)
        peak = grid.points[np.argmax(np.abs(probe.amplitudes))]
        assert abs(peak) < grid.spacing
        assert abs(probe.norm - 1.0) < 1e-10

    def test_displaced_variance(self):
        grid = grid_for_gaussian(2.0, 0.5, 512)
        probe = make_gaussian_probe(GaussianProbeSpec(2.0, 0.5, conjugate_center=3.0), grid)
        assert probe.variance() == pytest.approx(0.25, abs=1e-8)
        assert probe.moment(1) == pytest.approx(2.0, abs=1e-8)

    def test_qfi_by_independent_quadrature(self, unit_probe):
        # trapezoid moments of the sampled state, independent of qfi_pure
        g = unit_probe.grid.points
        dens = np.abs(unit_probe.amplitudes) ** 2
        m1 = np.trapezoid(g * dens, g)
        m2 = np.trapezoid(g * g * dens, g)
        var = m2 - m1 * m1
        assert var == pytest.approx(1.0, abs=1e-8)
        assert 4.0 * var == pytest.approx(4.0, abs=1e-7)

    def test_grid_too_narrow(self):
        grid = GeneratorGrid(-4.0, 4.0, 128)
        with pytest.raises(GridTooNarrow):
            make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid)

    def test_non_positive_sigma(self):
        with pytest.raises(NonPositiveSigma):
            GaussianProbeSpec(0.0, -1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        center=st.floats(-3.0, 3.0),
        sigma=st.floats(0.3, 2.5),
        k0=st.floats(-4.0, 4.0),
    )
    def test_norm_property(self, center, sigma, k0):
        grid = grid_for_gaussian(center, sigma, 256)
        probe = make_gaussian_probe(GaussianProbeSpec(center, sigma, k0), grid)
        assert abs(probe.norm - 1.0) < 1e-10


class TestSGProbe:
    def test_vacuum(self):
        probe = make_sg_probe(SGProbeSpec(xi=0.0))
        assert probe.amplitudes[0] == 1.0
        assert np.all(probe.amplitudes[1:] == 0.0)

    def test_norm_and_mean(self):
        probe = make_sg_probe(SGProbeSpec(xi=0.9, n_max=400))
        assert abs(probe.norm - 1.0) < 1e-12
        # geometric distribution of n with ratio |xi|^2
        assert probe.moment(1) == pytest.approx(0.81 / 0.19, abs=1e-9)

    def test_geometric_variance(self):
        probe = make_sg_probe(SGProbeSpec(xi=0.9, n_max=400))
        assert probe.variance() == pytest.approx(0.81 / 0.19**2, abs=1e-9)

    def test_tail_rule(self):
        # brute-force the smallest n with |xi|^(2n) <= 1e-12
        brute = 1
        while 0.99 ** (2 * brute) > 1e-12:
            brute += 1
        assert sg_n_max(0.99) == brute == 1375

    def test_explicit_nmax_below_the_floor_is_refused(self):
        with pytest.raises(InvalidGrid):
            make_sg_probe(SGProbeSpec(xi=0.5, n_max=SG_MIN_NMAX - 1))
        assert make_sg_probe(SGProbeSpec(xi=0.5, n_max=SG_MIN_NMAX)).grid.n_points == 65
        # the automatic truncation (20 at xi=0.5) keeps its floor
        assert make_sg_probe(SGProbeSpec(xi=0.5)).grid.n_points == 65

    @pytest.mark.parametrize("spec", (SGProbeSpec(xi=0.99999999), SGProbeSpec(xi=0.5, n_max=10**9)),
                             ids=("derived", "explicit"))
    def test_lattice_above_the_ceiling_is_refused_before_allocating(self, spec, monkeypatch):
        # sg_n_max(0.99999999) is 1.38e9 number states, about 22 GB of amplitudes
        monkeypatch.setattr(np, "arange", lambda *args, **kw: pytest.fail("the lattice was allocated"))
        with pytest.raises(GridTooNarrow, match="MAX_LATTICE_POINTS"):
            make_sg_probe(spec)

    def test_the_largest_lattice_is_allowed(self):
        assert make_sg_probe(SGProbeSpec(xi=0.5, n_max=MAX_LATTICE_POINTS - 1)).grid.n_points == MAX_LATTICE_POINTS
        with pytest.raises(GridTooNarrow):
            make_sg_probe(SGProbeSpec(xi=0.5, n_max=MAX_LATTICE_POINTS))

    def test_xi_out_of_disc(self):
        with pytest.raises(XiOutOfDisc):
            SGProbeSpec(xi=1.0)
        with pytest.raises(XiOutOfDisc):
            make_sg_probe(SGProbeSpec(xi=0.9, n_max=70))  # tail too heavy

    @settings(max_examples=25, deadline=None)
    @given(xi=st.floats(0.0, 0.95), phase=st.floats(0.0, 2 * math.pi))
    def test_moments_property(self, xi, phase):
        z = xi * complex(math.cos(phase), math.sin(phase))
        # the default 1e-12 tail rule leaves ~1e-8 variance error near |xi| = 1;
        # moment checks at 1e-9 need a deeper truncation, |xi|^(2n) <= 1e-18
        deep = math.ceil(math.log(1e-18) / (2.0 * math.log(abs(z)))) if abs(z) > 0 else 1
        probe = make_sg_probe(SGProbeSpec(xi=z, n_max=max(deep, SG_MIN_NMAX)))
        x = abs(z) ** 2
        assert abs(probe.norm - 1.0) < 1e-10
        assert probe.moment(1) == pytest.approx(x / (1 - x), abs=1e-9)
        assert probe.variance() == pytest.approx(x / (1 - x) ** 2, abs=1e-9)
