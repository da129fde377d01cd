"""Interaction kernels: symmetry, transforms, stability indicators."""

import numpy as np
import pytest

from gcflow.errors import ConfigError
from gcflow.kernels import make_positive_type, make_smoothed_indicator, stats_json
from gcflow.spectral import Grid, RealField


@pytest.fixture
def grid():
    return Grid.make(1, 1.0, 128)


def both_families(grid):
    """Each kernel family on `grid` and on a 2-D grid."""
    for g in (grid, Grid.make(2, 1.0, 64)):
        yield make_smoothed_indicator(g, 1.0, 0.1, 0.02)
        yield make_positive_type(g, 0.5, 0.07)


def full_spectrum(k):
    """Oracle: W_hat over the full spectrum, and |k| of each mode."""
    g = k.grid
    k1 = 2 * np.pi * np.fft.fftfreq(g.M, g.dx)
    kvec = np.meshgrid(*([k1] * g.d), indexing="ij")
    return np.fft.fftn(k.values.values) * g.cell_volume, np.sqrt(sum(c * c for c in kvec))


def test_smoothed_indicator_nonnegative(grid):
    k = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    assert np.min(k.values.values) >= 0.0
    assert k.stats.pointwise_nonneg


def test_smoothed_indicator_even(grid):
    k = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    v = k.values.values
    # W(-x) = W(x): on the grid, index i maps to M - i
    assert np.max(np.abs(v[1:] - v[1:][::-1])) < 1e-14


def test_smoothed_indicator_mass(grid):
    # mollification preserves the indicator's discrete mass: w = A * 2a
    # up to grid quantization of the support (dx-sized edge effect)
    k = make_smoothed_indicator(grid, 2.0, 0.1, 0.02)
    assert abs(k.w - 2.0 * 0.2) < 2.0 * 2 * grid.dx
    # the invariant that is exact: w equals the discrete integral
    assert abs(k.w - k.values.integral()) < 1e-12


def test_smoothed_indicator_narrow_mollifier_limit(grid):
    # as the mollifier width shrinks below dx, the kernel approaches the
    # sampled indicator and its transform the discrete sinc profile
    eps = 1e-6
    k = make_smoothed_indicator(grid, 1.0, 0.1, eps)
    x = grid.periodic_radius()
    indicator = np.where(x <= 0.1 + 1e-12, 1.0, 0.0)
    assert np.max(np.abs(k.values.values - indicator)) < 1e-12


def test_theta_sharp_quadrature_oracle(grid):
    # independent oracle: W_hat(k) by direct quadrature over samples
    k = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    x = np.arange(grid.M) * grid.dx
    wh = []
    for n in range(grid.M):
        kk = 2 * np.pi * (n if n <= grid.M // 2 else n - grid.M) / grid.L
        wh.append(np.sum(k.values.values * np.cos(kk * x)) * grid.dx)
    wh = np.array(wh)
    worst_neg = np.min(wh)
    assert worst_neg < 0  # indicator-type kernels are not positive type
    assert abs(k.stats.theta_sharp - 1.0 / abs(worst_neg)) < 1e-6


def test_positive_type_gaussian(grid):
    k = make_positive_type(grid, 1.0, 0.05)
    assert k.stats.positive_type
    assert np.isinf(k.stats.theta_sharp)
    # total mass of the periodized Gaussian: A * sqrt(2 pi) s in d = 1
    assert abs(k.w - np.sqrt(2 * np.pi) * 0.05) < 1e-10


def test_positive_type_2d_mass():
    grid = Grid.make(2, 1.0, 32)
    k = make_positive_type(grid, 1.0, 0.05)
    assert abs(k.w - 2 * np.pi * 0.05**2) < 1e-8
    assert k.stats.positive_type


def test_w_equals_zero_mode(grid):
    for k in both_families(grid):
        zero_mode = float(full_spectrum(k)[0][(0,) * k.grid.d].real)
        assert abs(k.w - zero_mode) < 1e-12


def test_vm_replay(grid):
    # v_m = sup_k |k|^m |W_hat(k)| and theta_sharp recomputed over the full spectrum
    for k in both_families(grid):
        what, kmod = full_spectrum(k)
        for m in range(5):
            expect = float(np.max(kmod**m * np.abs(what)))
            assert abs(k.stats.v[m] - expect) < 1e-9 * max(1.0, expect)
        neg = what.real[what.real < -1e-12]
        if neg.size:
            expect = 1.0 / float(np.max(np.abs(neg)))
            assert abs(k.stats.theta_sharp - expect) < 1e-9 * max(1.0, expect)
        else:
            assert k.stats.theta_sharp == np.inf


def test_d2norm_replay(grid):
    for k in both_families(grid):
        what, kmod = full_spectrum(k)
        expect = float(np.sum(kmod**2 * np.abs(what))) / k.grid.volume
        assert abs(k.stats.d2norm - expect) < 1e-9 * max(1.0, expect)


def test_range_too_large(grid):
    with pytest.raises(ConfigError, match="kernel.radius"):
        make_smoothed_indicator(grid, 1.0, 0.3, 0.02)


def test_width_too_large(grid):
    with pytest.raises(ConfigError, match="kernel.width"):
        make_positive_type(grid, 1.0, 0.5)


@pytest.mark.parametrize("build", [lambda g, a: make_smoothed_indicator(g, a, 0.1, 0.02),
                                   lambda g, a: make_positive_type(g, a, 0.05)],
                         ids=["smoothed", "positive-type"])
@pytest.mark.parametrize("amplitude", [-1.0, 1.7976931348623157e308])
def test_builders_refuse_amplitude(grid, build, amplitude):
    # a negative amplitude, or one whose transform overflows, is refused on
    # its own key, without a numpy warning
    with pytest.raises(ConfigError, match="kernel.amplitude") as info:
        build(grid, amplitude)
    assert info.value.field == "kernel.amplitude"


def test_stats_json_shape(grid):
    payload = stats_json(make_smoothed_indicator(grid, 1.0, 0.1, 0.02))
    for key in ("w", "v0", "v4", "d2norm", "theta_sharp", "positive_type"):
        assert key in payload
    payload2 = stats_json(make_positive_type(grid, 1.0, 0.05))
    assert payload2["theta_sharp"] is None  # infinity serialized as null
