"""Spectral layer: transforms, derivatives, norms."""

import numpy as np
import pytest

from gcflow.errors import NonHermitianInput
from gcflow.spectral import (
    Grid,
    RealField,
    Spectrum,
    convolve,
    div_n_grad,
    divergence,
    dnorm,
    forward,
    gradient,
    helmholtz_inverse,
    inner_l2,
    inverse,
    l2_norm,
    laplacian,
)


@pytest.fixture
def grid():
    return Grid.make(1, 1.0, 64)


@pytest.fixture
def grid2d():
    return Grid.make(2, 2.0, 32)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return RealField(grid, rng.standard_normal(grid.shape))


def test_grid_derived_quantities(grid):
    assert grid.dx == 1.0 / 64
    assert grid.volume == 1.0
    assert grid.cell_volume == grid.dx
    assert grid.shape == (64,)


def test_grid_2d(grid2d):
    assert grid2d.volume == 4.0
    assert grid2d.cell_volume == (2.0 / 32) ** 2
    assert grid2d.shape == (32, 32)


def test_roundtrip_1d(grid):
    f = random_field(grid)
    g = inverse(forward(f))
    assert np.max(np.abs(g.values - f.values)) < 1e-12


def test_roundtrip_2d(grid2d):
    f = random_field(grid2d, seed=3)
    g = inverse(forward(f))
    assert np.max(np.abs(g.values - f.values)) < 1e-12


def test_cosine_coefficients(grid):
    # f = cos(2 pi n x / L) has fhat(+-k_n) = L/2, all other modes zero
    x = grid.points()[0]
    f = RealField(grid, np.cos(2 * np.pi * 5 * x))
    c = forward(f).coeffs
    assert abs(c[5] - 0.5) < 1e-12
    assert abs(c[-5] - 0.5) < 1e-12
    mask = np.ones(64, dtype=bool)
    mask[[5, -5 % 64]] = False
    assert np.max(np.abs(c[mask])) < 1e-12


def test_constant_zero_mode(grid):
    f = RealField(grid, np.full(grid.shape, 3.25))
    c = forward(f).coeffs
    # fhat(0) = integral of f = 3.25 * L
    assert abs(c[0] - 3.25) < 1e-12


def test_parseval(grid):
    f = random_field(grid, seed=1)
    lhs = np.sum(np.abs(forward(f).coeffs) ** 2) / grid.volume
    rhs = RealField(grid, f.values**2).integral()
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_parseval_2d(grid2d):
    f = random_field(grid2d, seed=2)
    lhs = np.sum(np.abs(forward(f).coeffs) ** 2) / grid2d.volume
    rhs = RealField(grid2d, f.values**2).integral()
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_gradient_analytic(grid):
    x = grid.points()[0]
    k = 2 * np.pi * 3
    f = RealField(grid, np.sin(k * x))
    (g,) = gradient(f)
    assert np.max(np.abs(g.values - k * np.cos(k * x))) < 1e-10


def test_gradient_matches_finite_differences():
    # spectral derivative of a smooth band-limited field vs centered FD
    grid = Grid.make(1, 1.0, 256)
    x = grid.points()[0]
    f_vals = np.exp(np.cos(2 * np.pi * x))
    f = RealField(grid, f_vals)
    (g,) = gradient(f)
    fd = (np.roll(f_vals, -1) - np.roll(f_vals, 1)) / (2 * grid.dx)
    # FD is 2nd order: error O(dx^2) ~ 6e-4 at this resolution
    assert np.max(np.abs(g.values - fd)) < 5e-3


def test_laplacian_analytic(grid):
    x = grid.points()[0]
    k = 2 * np.pi * 4
    f = RealField(grid, np.cos(k * x))
    lap = laplacian(f)
    assert np.max(np.abs(lap.values + k**2 * np.cos(k * x))) < 1e-8


def test_divergence_of_gradient_is_laplacian(grid2d):
    f = random_field(grid2d, seed=5)
    a = divergence(gradient(f))
    b = laplacian(f)
    assert np.max(np.abs(a.values - b.values)) < 1e-8 * max(1.0, np.max(np.abs(b.values)))


def test_operators_commute_with_shift(grid):
    # translation invariance: grad(shift f) = shift(grad f)
    f = random_field(grid, seed=6)
    shifted = RealField(grid, np.roll(f.values, 7))
    a = gradient(shifted)[0].values
    b = np.roll(gradient(f)[0].values, 7)
    assert np.max(np.abs(a - b)) < 1e-9


def test_convolution_vs_quadrature():
    # discrete circular convolution oracle at M = 32
    grid = Grid.make(1, 1.0, 32)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(32)
    f_vals = rng.standard_normal(32)
    w_spec = forward(RealField(grid, w))
    f = RealField(grid, f_vals)
    conv = convolve(w_spec, f)
    direct = np.array(
        [np.sum(w[(i - np.arange(32)) % 32] * f_vals) * grid.dx for i in range(32)]
    )
    assert np.max(np.abs(conv.values - direct)) < 1e-8


def test_helmholtz_inverse_forward_oracle(grid):
    # (1 - h lap) applied to helmholtz_inverse(f, h) recovers f
    f = random_field(grid, seed=8)
    h = 0.37
    u = helmholtz_inverse(f, h)
    back = RealField(grid, u.values - h * laplacian(u).values)
    assert np.max(np.abs(back.values - f.values)) < 1e-9


def test_helmholtz_uniform(grid):
    f = RealField(grid, np.full(grid.shape, 2.0))
    u = helmholtz_inverse(f, 0.1)
    assert np.max(np.abs(u.values - 2.0)) < 1e-13


def test_dnorm_analytic(grid):
    # f = a + b cos(k x): D0 = |a| + |b|, Dm = |b| k^m for m >= 1
    x = grid.points()[0]
    a, b, n = 1.5, 0.25, 3
    k = 2 * np.pi * n
    f = RealField(grid, a + b * np.cos(k * x))
    assert abs(dnorm(f, 0) - (a + b)) < 1e-12
    for m in range(1, 5):
        assert abs(dnorm(f, m) - b * k**m) < 1e-8 * k**m


def test_dnorm_product_inequality(grid):
    # D0 is an algebra norm: D0(fg) <= D0(f) D0(g)
    f = random_field(grid, seed=9)
    g = random_field(grid, seed=10)
    fg = RealField(grid, f.values * g.values)
    assert dnorm(fg, 0) <= dnorm(f, 0) * dnorm(g, 0) * (1 + 1e-12)


def test_dnorm_derivative_inequality(grid):
    # D_m(grad f) <= D_{m+1}(f) for d = 1
    f = random_field(grid, seed=11)
    (g,) = gradient(f)
    for m in range(0, 4):
        assert dnorm(g, m) <= dnorm(f, m + 1) * (1 + 1e-12)


def test_dnorm_interpolation_inequality(grid):
    # D_1^2 <= D_0 D_2 (Cauchy-Schwarz on the coefficient measure)
    f = random_field(grid, seed=12)
    assert dnorm(f, 1) ** 2 <= dnorm(f, 0) * dnorm(f, 2) * (1 + 1e-12)


def test_sup_bound_by_d0(grid):
    # ||f||_inf <= D0(f)
    f = random_field(grid, seed=13)
    assert np.max(np.abs(f.values)) <= dnorm(f, 0) * (1 + 1e-12)


def test_l2_and_inner(grid):
    f = random_field(grid, seed=14)
    g = random_field(grid, seed=15)
    assert abs(l2_norm(f) ** 2 - inner_l2(f, f)) < 1e-10
    quad = np.sum(f.values * g.values) * grid.cell_volume
    assert abs(inner_l2(f, g) - quad) < 1e-10


def test_inverse_rejects_non_hermitian(grid):
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = 1.0  # no conjugate partner at -3
    with pytest.raises(NonHermitianInput):
        inverse(Spectrum(grid, coeffs))


def test_nyquist_zeroed_by_derivatives(grid):
    # the M/2 mode is real-unpaired; derivatives must drop it
    x = grid.points()[0]
    f = RealField(grid, np.cos(2 * np.pi * 32 * x))
    (g,) = gradient(f)
    assert np.max(np.abs(g.values)) < 1e-10


def test_nyquist_zeroed_by_derivatives_2d(grid2d):
    # a mode with index M/2 on either axis is dropped whole, whatever the
    # other axis index
    x, y = grid2d.points()
    kn = 2 * np.pi * (grid2d.M // 2) / grid2d.L
    k3 = 2 * np.pi * 3 / grid2d.L
    for vals in (np.cos(kn * x + k3 * y), np.cos(k3 * x + kn * y), np.cos(kn * x + kn * y)):
        f = RealField(grid2d, vals)
        assert all(np.max(np.abs(g.values)) < 1e-10 for g in gradient(f))
        assert np.max(np.abs(laplacian(f).values)) < 1e-8


def test_dnorm_2d_matches_full_spectrum(grid2d):
    f = random_field(grid2d, seed=16)
    mod = np.abs(np.fft.fftn(f.values)) * grid2d.cell_volume
    for m in range(5):
        full = float(np.sum(mod * grid2d.kmod**m)) / grid2d.volume
        assert abs(dnorm(f, m) - full) < 1e-12 * full


def test_div_n_grad_matches_divergence_of_flux(grid, grid2d):
    for gr in (grid, grid2d):
        n = RealField(gr, 1.0 + 0.5 * np.tanh(random_field(gr, seed=17).values))
        f = random_field(gr, seed=18)
        flux = tuple(RealField(gr, n.values * gf.values) for gf in gradient(f))
        expect = divergence(flux).values
        got = np.fft.irfftn(div_n_grad(gr, n.values, np.fft.rfftn(f.values)), s=gr.shape,
                            axes=tuple(range(gr.d)))
        assert np.max(np.abs(got - expect)) < 1e-9 * max(1.0, np.max(np.abs(expect)))


def test_integral(grid):
    x = grid.points()[0]
    f = RealField(grid, 2.0 + np.cos(2 * np.pi * x))
    assert abs(f.integral() - 2.0) < 1e-12
