import dataclasses

import numpy as np
import pytest

import haarrect.holo as holo
from haarrect.errors import GridError
from haarrect.groups import QuadratureRule, haar_integrate
from haarrect.holo import (
    average_callable,
    build_complexified_model,
    core_average_function,
    core_pairs_never_excluded,
    cr_convergence_order,
    cr_residual,
    multipliable,
    real_restriction_check,
    real_slice_consistency,
    rotate,
    sample_function,
    sample_on_box,
)


@pytest.fixture(scope="module")
def model():
    return build_complexified_model(space_radius=1.0, eta_max=0.2, n_theta=32,
                                    n_space=9, n_eta=5, n_shells=3)


@pytest.fixture(scope="module")
def small_model():
    return build_complexified_model(space_radius=1.0, eta_max=0.2, n_theta=12,
                                    n_space=5, n_eta=3, n_shells=2)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def test_real_slice_consistency_64_nodes():
    m = build_complexified_model(space_radius=1.0, eta_max=0.2, n_theta=64,
                                 n_space=5, n_eta=3, n_shells=3)
    assert real_slice_consistency(m)


def test_real_slice_consistency_detects_a_wrong_product(small_model,
                                                       monkeypatch):
    build = holo.real_slice_groupoid

    def corrupted(model):
        g = build(model)
        products = g.products.copy()
        products[5, 2] = (products[5, 2] + 1) % g.n_arrows
        return dataclasses.replace(g, products=products)

    assert real_slice_consistency(small_model)
    monkeypatch.setattr(holo, "real_slice_groupoid", corrupted)
    assert not real_slice_consistency(small_model)


def test_rotation_action_diagonalizes(model):
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.05j
    zeta = 0.7 + 0.1j
    w1, w2 = rotate(zeta, z1, z2)
    assert abs((w1 + 1j * w2) - np.exp(1j * zeta) * (z1 + 1j * z2)) < 1e-14
    assert abs((w1 - 1j * w2) - np.exp(-1j * zeta) * (z1 - 1j * z2)) < 1e-14


def test_mask_excludes_escaping_imaginary_angle(model):
    # product of tube coordinates 0.15 and 0.12 exceeds eta_max = 0.2
    assert not multipliable(model, 0.15j, 0.12j, (0.3 + 0j, 0.1 + 0j))
    assert multipliable(model, 0.5, 0.12j, (0.3 + 0j, 0.1 + 0j))


def test_mask_excludes_escaping_radius(model):
    # a complex angle stretches the norm by up to cosh(eta): near the
    # boundary the product target leaves the ball
    z = (0.98 + 0j, 0.0 + 0j)
    assert not multipliable(model, 0.19j, 0.0, z)
    assert multipliable(model, 0.19, 0.0, z)


def test_core_pairs_never_excluded_exhaustive(small_model):
    assert core_pairs_never_excluded(small_model)


def test_grid_contains_real_slice(model):
    x1, y1, x2, y2 = model.grid_axes
    assert 0.0 in y1 and 0.0 in y2


def test_real_restriction_check_matches_pointwise_loop(model):
    # one point at a time, as the check is defined; a coarser real rule
    # makes the two routes differ.  Array and scalar evaluation of f may
    # round differently in the last bit, so the match is to 1e-15.
    rng = np.random.default_rng(3)
    co = rng.normal(size=3) + 1j * rng.normal(size=3)

    def f(z1, z2):
        wp, wm = z1 + 1j * z2, z1 - 1j * z2
        return co[0] + co[1] * wp ** 5 + co[2] * wp * wm ** 2

    rule = QuadratureRule(n_theta=5)
    averaged = average_callable(f, model)
    worst = 0.0
    for x, y in model.lattice_points.reshape(-1, 2):
        via_complex = averaged(complex(x), complex(y))
        via_real = haar_integrate(
            lambda mat: f(complex(mat[0, 0].real * x + mat[0, 1].real * y),
                          complex(mat[1, 0].real * x + mat[1, 1].real * y)),
            "SO2", rule)
        worst = max(worst, abs(complex(via_complex) - complex(via_real)))
    assert worst > 0.1
    assert abs(real_restriction_check(f, model, rule) - worst) <= 1e-15 * worst


def test_invalid_model_parameters():
    with pytest.raises(ValueError):
        build_complexified_model(space_radius=-1.0)
    with pytest.raises(ValueError):
        build_complexified_model(box_frac=0.9)


# ---------------------------------------------------------------------------
# core averaging
# ---------------------------------------------------------------------------

def test_invariant_function_reproduced(model):
    f = lambda z1, z2: z1 * z1 + z2 * z2
    avg = core_average_function(f, model)
    direct = sample_function(f, model)
    assert np.abs(avg.values - direct.values).max() <= 1e-13


def test_weight_one_mode_vanishes(model):
    f = lambda z1, z2: z1 + 1j * z2
    assert np.abs(core_average_function(f, model).values).max() <= 1e-13


def test_weight_one_combination_vanishes_mode_oracle(model):
    # (z1 + i z2)^2 (z1 - i z2) = w+^2 w-: net angular weight 2 - 1 = 1,
    # so the node sum is sum_j exp(i theta_j) times a fixed function: 0
    f = lambda z1, z2: (z1 + 1j * z2) ** 2 * (z1 - 1j * z2)
    assert np.abs(core_average_function(f, model).values).max() <= 1e-13
    # mode-decomposition oracle at one point
    z = (0.31 + 0.02j, -0.17 + 0.04j)
    wp, wm = z[0] + 1j * z[1], z[0] - 1j * z[1]
    node_sum = np.mean(np.exp(1j * model.theta_nodes))
    assert abs(average_callable(f, model)(*z) - wp * wp * wm * node_sum) < 1e-15


def test_averaging_is_projection(model):
    f = lambda z1, z2: np.exp(z1) * np.cos(z2) + (z1 + 1j * z2) ** 3
    once = average_callable(f, model)
    twice = average_callable(once, model)
    z = (0.2 + 0.05j, 0.1 - 0.03j)
    assert abs(twice(*z) - once(*z)) < 1e-13


def test_average_invariant_at_node_rotations(model):
    f = lambda z1, z2: np.exp(z1 + 2 * z2)
    avg = average_callable(f, model)
    z = (0.25 + 0.04j, -0.12 + 0.02j)
    base = avg(*z)
    for th in model.theta_nodes[:8]:
        assert abs(avg(*rotate(th, *z)) - base) < 1e-13


# ---------------------------------------------------------------------------
# Cauchy-Riemann residuals
# ---------------------------------------------------------------------------

def test_cr_constant_is_zero(model):
    f = lambda z1, z2: np.full(np.broadcast(z1, z2).shape, 1.7 - 0.3j)
    assert cr_residual(sample_function(f, model)) == 0.0


def test_cr_z1_squared_below_truncation(model):
    # centered differences are exact on quadratics: the residual sits at the
    # rounding floor for every h, well under any O(h^2) envelope
    f = lambda z1, z2: z1 * z1
    for h in (1e-2, 5e-3, 2.5e-3):
        F = sample_on_box(f, (0.2, 0.0, 0.1, 0.0), h)
        assert cr_residual(F, h=h) <= 1e-12


def test_cr_antiholomorphic_is_order_one(model):
    f = lambda z1, z2: np.conj(z1)
    for h in (1e-2, 5e-3):
        F = sample_on_box(f, (0.2, 0.0, 0.1, 0.0), h)
        assert abs(cr_residual(F, h=h) - 1.0) < 1e-12


def test_cr_convergence_order_on_averaged_holomorphic(model):
    f = lambda z1, z2: np.exp(z1 + 2 * z2)
    avg = average_callable(f, model)
    slope, residuals = cr_convergence_order(avg, center=(0.3, 0.05, 0.2, -0.05))
    assert slope >= 1.9
    assert residuals[0] > residuals[-1]


def test_cr_grid_too_small():
    f = lambda z1, z2: z1
    with pytest.raises(GridError):
        sample_on_box(f, (0.0, 0.0, 0.0, 0.0), 1e-2, n=2)


# ---------------------------------------------------------------------------
# real restriction
# ---------------------------------------------------------------------------

def test_restriction_invariant_function(model):
    f = lambda z1, z2: z1 * z1 + z2 * z2
    assert real_restriction_check(f, model) <= 1e-13


def test_restriction_weight_one_both_zero(model):
    # Re(z1 + i z2): a pure weight-one mode on the real slice, so both
    # averaging routes return zero at every lattice point
    f = lambda z1, z2: (z1 + 1j * z2).real
    assert real_restriction_check(f, model) <= 1e-13
    averaged = average_callable(f, model)
    pt = model.lattice_points[1, 3]
    assert abs(averaged(complex(pt[0]), complex(pt[1]))) <= 1e-14


def test_restriction_random_trig_polynomial(model):
    rng = np.random.default_rng(31)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)

    def f(z1, z2):
        wp, wm = z1 + 1j * z2, z1 - 1j * z2
        return (coeffs[0] + coeffs[1] * wp + coeffs[2] * wm
                + coeffs[3] * wp * wm + coeffs[4] * wp ** 2 * wm
                + coeffs[5] * wm ** 3)

    assert real_restriction_check(f, model) <= 1e-13
