import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qruler.coherence import OutcomeDistribution
from qruler.errors import DegenerateDistribution, GridMismatch, NonPositiveSigma, QuantumBoundExceeded, StepTooLarge
from qruler.fisher import (
    FISHER_FLOOR,
    QFI_SLACK,
    FisherReport,
    closed_form_fn,
    closed_form_fp2,
    closed_form_linear,
    closed_form_phase,
    fisher_from_derivative,
    fisher_from_family,
    qfi_pure,
)
from qruler.grids import GeneratorGrid, grid_for_gaussian
from qruler.states import GaussianProbeSpec, make_gaussian_probe


def gaussian_location_family(sigma, mu):
    def family(lam):
        dens = np.exp(-((mu.points - lam) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
        return OutcomeDistribution(mu, dens)

    return family


class TestFisherFromDerivative:
    def test_gaussian_location_family(self):
        # dp/dlambda = (mu - lambda)/sigma^2 * p, so F = 1/sigma^2 with no step
        sigma, lam = 0.8, 0.3
        mu = GeneratorGrid(-10.0, 10.0, 4001)
        dist = gaussian_location_family(sigma, mu)(lam)
        rep = fisher_from_derivative(dist, (mu.points - lam) / sigma**2 * dist.density, qfi=2.0)
        # the cells below DENSITY_FLOOR hold 6.0e-12 of F
        assert rep.fisher == pytest.approx(1.0 / sigma**2, rel=1e-10)
        assert rep.qfi == 2.0

    def test_above_the_quantum_bound_is_domain_error(self):
        sigma = 0.8
        mu = GeneratorGrid(-10.0, 10.0, 4001)
        dist = gaussian_location_family(sigma, mu)(0.0)
        dp = mu.points / sigma**2 * dist.density
        with pytest.raises(QuantumBoundExceeded, match="exceeds quantum bound"):
            fisher_from_derivative(dist, dp, qfi=1.0)
        with pytest.raises(QuantumBoundExceeded):
            fisher_from_derivative(dist, dp * np.nan, qfi=1.0)


class TestFisherFromFamily:
    def test_gaussian_location_family(self):
        # analytic family, fully independent of the transform machinery
        sigma = 0.8
        mu = GeneratorGrid(-10.0, 10.0, 4001)
        family = gaussian_location_family(sigma, mu)
        rep = fisher_from_family(family, 0.0, 1e-3 * sigma)
        assert rep.fisher == pytest.approx(1.0 / sigma**2, rel=1e-6)
        assert rep.crb == pytest.approx(sigma**2, rel=1e-6)

    def test_independent_of_evaluation_point(self):
        sigma = 0.8
        mu = GeneratorGrid(-10.0, 10.0, 4001)
        family = gaussian_location_family(sigma, mu)
        values = [
            fisher_from_family(family, lam0, 1e-3 * sigma).fisher
            for lam0 in (0.0, 0.3, -1.1)
        ]
        assert max(values) - min(values) < 1e-8 * values[0]

    def test_step_too_large(self):
        sigma = 0.5
        mu = GeneratorGrid(-10.0, 10.0, 4001)
        family = gaussian_location_family(sigma, mu)
        with pytest.raises(StepTooLarge):
            fisher_from_family(family, 0.0, 0.45)

    def test_joint_family_integration(self):
        # separable 2-D gaussian shifting along m: F = 1/sigma_m^2
        m = GeneratorGrid(-10.0, 10.0, 501)
        k = GeneratorGrid(-14.0, 14.0, 501)
        sm, sk = 0.9, 1.7

        def family(lam):
            dm = np.exp(-((m.points - lam) ** 2) / (2 * sm**2)) / (sm * math.sqrt(2 * math.pi))
            dk = np.exp(-(k.points**2) / (2 * sk**2)) / (sk * math.sqrt(2 * math.pi))
            return OutcomeDistribution(m, np.outer(dm, dk), k_grid=k)

        rep = fisher_from_family(family, 0.0, 1e-3 * sm)
        assert rep.fisher == pytest.approx(1.0 / sm**2, rel=1e-6)

    def test_joint_members_on_different_k_axes(self):
        # the k axis moves by 10*lambda: members live on different outcome grids
        m = GeneratorGrid(-10.0, 10.0, 201)
        sm, sk = 0.9, 1.7

        def family(lam):
            k = GeneratorGrid(-14.0 + 10.0 * lam, 14.0 + 10.0 * lam, 201)
            dm = np.exp(-((m.points - lam) ** 2) / (2 * sm**2)) / (sm * math.sqrt(2 * math.pi))
            dk = np.exp(-(k.points**2) / (2 * sk**2)) / (sk * math.sqrt(2 * math.pi))
            return OutcomeDistribution(m, np.outer(dm, dk), k_grid=k)

        with pytest.raises(GridMismatch):
            fisher_from_family(family, 0.0, 1e-3 * sm)


class TestQfiPure:
    def test_unit_momentum_width(self):
        grid = grid_for_gaussian(0.0, 1.0, 512)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid)
        assert qfi_pure(probe, "G") == pytest.approx(4.0, rel=1e-10)
        with pytest.raises(ValueError):
            qfi_pure(probe, "P")

    def test_position_width_half(self):
        # position width 1/2 means momentum width 1, and the quantum bound
        # for shift detection is 4*Var(P) = 4
        sigma_p = 1.0 / (2.0 * 0.5)
        grid = grid_for_gaussian(0.0, sigma_p, 512)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, sigma_p), grid)
        assert qfi_pure(probe, "G") == pytest.approx(4.0 * sigma_p**2, rel=1e-10)

    def test_quadratic_generator(self):
        # 4*Var(P^2) = 8 sigma_p^4 at zero mean; with sigma_p = 1/(2 dx)
        # this is 1/(2 dx^4)
        dx = 0.6
        sigma_p = 1.0 / (2.0 * dx)
        grid = grid_for_gaussian(0.0, sigma_p, 512)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, sigma_p), grid)
        got = qfi_pure(probe, "G2")
        # independent fourth-moment quadrature
        g = grid.points
        dens = np.abs(probe.amplitudes) ** 2
        m2 = np.trapezoid(g**2 * dens, g)
        m4 = np.trapezoid(g**4 * dens, g)
        assert got == pytest.approx(4.0 * (m4 - m2**2), rel=1e-9)
        assert got == pytest.approx(1.0 / (2.0 * dx**4), rel=1e-8)


class TestClosedFormLinear:
    def test_balanced(self):
        rep = closed_form_linear(0.5, 0.5)
        assert rep.crb == pytest.approx(0.5)
        assert rep.fisher == pytest.approx(2.0)

    def test_ideal(self):
        rep = closed_form_linear(0.5, 0.0)
        assert rep.crb == pytest.approx(0.25)
        assert rep.fisher == pytest.approx(4.0)
        assert rep.fisher == pytest.approx(rep.qfi)  # saturates the bound

    def test_balanced_split_doubles_ideal(self):
        c = 8.0
        dx = math.sqrt(2.0 / c)
        rep = closed_form_linear(dx, dx)
        assert rep.crb == pytest.approx(2.0 * dx**2)

    def test_errors(self):
        with pytest.raises(NonPositiveSigma):
            closed_form_linear(0.0, 0.5)
        with pytest.raises(NonPositiveSigma):
            closed_form_linear(0.5, -0.1)

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.05, 3.0), b=st.floats(0.05, 3.0))
    def test_swap_symmetry(self, a, b):
        assert closed_form_linear(a, b).crb == pytest.approx(closed_form_linear(b, a).crb)


class TestClosedFormPhase:
    def test_ideal(self):
        rep = closed_form_phase(1.0 / (2.0 * 5.0), 0.0)
        assert rep.crb == pytest.approx(0.01)
        assert rep.crb == pytest.approx(1.0 / rep.qfi)

    def test_blurred(self):
        rep = closed_form_phase(0.1, 0.1)
        assert rep.crb == pytest.approx(0.02)

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.02, 1.0), b=st.floats(0.02, 1.0))
    def test_swap_symmetry(self, a, b):
        assert closed_form_phase(a, b).crb == pytest.approx(closed_form_phase(b, a).crb)


class TestClosedFormFN:
    def test_symmetric_undisplaced(self):
        assert closed_form_fn(0.25, 0.25, 0.25, 0.25, 0.0, 0.0).fisher == 0.0

    def test_displaced(self):
        assert closed_form_fn(0.25, 0.25, 0.25, 0.25, 1.0, 0.0).fisher == pytest.approx(2.0)

    def test_squeezed(self):
        rep = closed_form_fn(0.1, 0.625, 0.25, 0.25, 0.0, 0.0)
        assert rep.fisher == pytest.approx(0.9, abs=1e-12)

    def test_scale_invariance_of_first_term(self):
        # doubling all variances and scaling displacements by sqrt(2)
        # leaves every term unchanged
        a = closed_form_fn(0.1, 0.625, 0.25, 0.25, 1.0, 0.5).fisher
        b = closed_form_fn(0.2, 1.25, 0.5, 0.5, math.sqrt(2.0), 0.5 * math.sqrt(2.0)).fisher
        assert a == pytest.approx(b, rel=1e-12)


class TestClosedFormFP2:
    def test_balanced(self):
        rep = closed_form_fp2(0.25, 0.25, 0.0)
        assert rep.fisher == pytest.approx(4.0)
        assert rep.qfi == pytest.approx(8.0)
        assert rep.ratio_to_qfi == pytest.approx(0.5)

    def test_ideal_limit(self):
        # vanishing measurement variance with momentum variance 1 on the
        # probe: the displaced term saturates at 16 p0^2
        rep = closed_form_fp2(0.25, 1e-9, 1.0)
        assert rep.fisher == pytest.approx(16.0, rel=1e-6)

    def test_optimal_split_ratio(self):
        c = 4.0
        rep = closed_form_fp2(1.0 / (0.75 * c), 1.0 / (0.25 * c), 0.0)
        assert rep.ratio_to_qfi == pytest.approx(3.0 / 8.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.05, 2.0), b=st.floats(0.05, 2.0))
    def test_ratio_swap_invariance(self, a, b):
        # F itself is not symmetric under exchanging probe and measurement,
        # but the ratio to the probe's quantum bound is
        assert closed_form_fp2(a, b, 0.0).ratio_to_qfi == pytest.approx(
            closed_form_fp2(b, a, 0.0).ratio_to_qfi, rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.05, 2.0), b=st.floats(0.05, 2.0), p0=st.floats(0.0, 2.0))
    def test_bounded_by_qfi(self, a, b, p0):
        rep = closed_form_fp2(a, b, p0)
        assert rep.fisher <= rep.qfi * (1 + 1e-9)


class TestFisherReport:
    def test_zero_fisher_allows_infinite_crb(self):
        rep = FisherReport(fisher=0.0)
        assert math.isinf(rep.crb)

    def test_quantum_bound_enforced(self):
        with pytest.raises(QuantumBoundExceeded, match="exceeds quantum bound 4.0"):
            FisherReport(fisher=5.0, qfi=4.0)

    def test_bound_headroom_is_relative_plus_the_floor(self):
        FisherReport(4.0 * (1.0 + QFI_SLACK), qfi=4.0)
        FisherReport(FISHER_FLOOR, qfi=0.0)  # roundoff F at a zero bound
        cases = ((4.0 * (1.0 + 2.0 * QFI_SLACK), 4.0), (2.0 * FISHER_FLOOR, 0.0), (math.nan, 1.0), (1.0, math.nan))
        for fisher, qfi in cases:
            with pytest.raises(QuantumBoundExceeded):
                FisherReport(fisher, qfi)

    @pytest.mark.parametrize("fisher", (-1e-30, -1.0, math.nan))
    def test_negative_or_nan_fisher_is_domain_error(self, fisher):
        with pytest.raises(DegenerateDistribution):
            FisherReport(fisher)

    def test_richardson_above_the_bound_is_the_same_error(self):
        mu = GeneratorGrid(-10.0, 10.0, 4001)
        with pytest.raises(QuantumBoundExceeded, match="exceeds quantum bound"):
            fisher_from_family(gaussian_location_family(0.8, mu), 0.0, 1e-3, qfi=1.0)
