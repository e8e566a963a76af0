"""Complexified rotation action and averaging of holomorphic functions.

The model complexifies the SO(2) action on the plane: the group is
parametrized by a complex angle zeta = theta + i eta with |eta| < eta_max
and acts on (z1, z2) in C^2 by the rotation matrix evaluated at zeta.  In
the diagonalizing coordinates w+ = z1 + i z2, w- = z1 - i z2 the action is
w+- -> exp(+-i zeta) w+-; real rotations preserve both |z| and the complex
quadric z1^2 + z2^2.

The compact core is the real rotation circle over the ball of radius r.
Averaging a function over the core against the real Haar measure (the
n_theta-point trapezoid rule, spectrally exact for angular modes below
n_theta) produces rotation-invariant functions; for holomorphic inputs the
output stays holomorphic, which is verified numerically through centered
finite-difference Cauchy-Riemann residuals on a rectangular grid.

Two discretizations coexist on purpose: a rotation-closed polar lattice
carries the finite-groupoid structure (real-slice consistency, no-escape
checks, all index-exact), while the rectangular grid in the four real
coordinates carries the sampled functions for the difference stencils.
Input functions are callables evaluated on demand; grid-bound inputs would
force interpolation and destroy the spectral exactness contracts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .groupoids import FiniteGroup, build_action_groupoid
from .groups import QuadratureRule, haar_integrate
from .sums import NeumaierSum


@dataclass(frozen=True)
class ComplexModel:
    """Grids and masks of the complexified rotation-action groupoid."""

    space_radius: float
    eta_max: float
    n_theta: int
    theta_nodes: np.ndarray     # real angles, quadrature and lattice order
    eta_nodes: np.ndarray       # imaginary-part samples, 0 included
    grid_axes: tuple            # (x1, y1, x2, y2) axes of the rectangular grid
    grid_spacing: float
    lattice_radii: np.ndarray   # polar lattice shells (strictly < space_radius)

    @property
    def lattice_points(self):
        """Polar lattice (shell, angle) -> point of C^2 real slice, z2 = 0
        plane excluded: points are (x, y) in R^2 seen as real (z1, z2)."""
        r = self.lattice_radii[:, None]
        th = self.theta_nodes[None, :]
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


@dataclass(frozen=True)
class SampledFunction:
    """Complex values on the rectangular (x1, y1, x2, y2) grid."""

    values: np.ndarray
    grid_axes: tuple
    grid_spacing: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sampled values must be finite")
        if self.grid_spacing <= 0:
            raise ValueError("grid spacing must be positive")


def rotate(zeta, z1, z2):
    """Action of the complexified rotation with complex angle zeta."""
    c, s = np.cos(zeta), np.sin(zeta)
    return c * z1 - s * z2, s * z1 + c * z2


def build_complexified_model(space_radius=1.0, eta_max=0.2, n_theta=64,
                             n_space=9, n_eta=5, n_shells=3, box_frac=0.45):
    """Construct grids and verify the real slice against the action groupoid.

    The rectangular grid spans [-a, a] in each of the four real coordinates
    with a = box_frac * space_radius (box_frac <= 0.5 keeps the grid inside
    the ball); n_space is made odd so 0 is a node and the real slice
    (y1 = y2 = 0) lies on the grid.
    """
    if space_radius <= 0 or eta_max <= 0:
        raise ValueError("space_radius and eta_max must be positive")
    if box_frac > 0.5:
        raise ValueError("box_frac > 0.5 puts grid corners outside the ball")
    n_space = n_space if n_space % 2 == 1 else n_space + 1
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    eta = np.linspace(-0.8 * eta_max, 0.8 * eta_max, n_eta)
    a = box_frac * space_radius
    axis = np.linspace(-a, a, n_space)
    spacing = float(axis[1] - axis[0])
    radii = space_radius * (0.25 + 0.6 * np.arange(n_shells) / max(1, n_shells - 1))

    model = ComplexModel(
        space_radius=space_radius,
        eta_max=eta_max,
        n_theta=n_theta,
        theta_nodes=theta,
        eta_nodes=eta,
        grid_axes=(axis, axis, axis, axis),
        grid_spacing=spacing,
        lattice_radii=radii,
    )
    report = real_slice_consistency(model)
    if not report:
        raise ValueError("real slice does not match the action groupoid")
    return model


def real_slice_groupoid(model):
    """Finite groupoid of the real slice: rotation nodes acting on the lattice.

    Points are indexed (shell, angle) and node rotations shift the angle
    index, so the construction is exact integer arithmetic.
    """
    n, shells = model.n_theta, len(model.lattice_radii)
    group = FiniteGroup.cyclic(n)
    space = tuple((m, j) for m in range(shells) for j in range(n))
    index = {pt: i for i, pt in enumerate(space)}

    def action(g, x):
        m, j = space[x]
        return index[(m, (j + g) % n)]

    return build_action_groupoid(group, space, action)


def real_slice_consistency(model):
    """Check the model's real slice matches build_action_groupoid arrow-for-arrow.

    The model parametrizes real-slice arrows as (angle node, lattice point)
    with source the point and target its rotation; the groupoid constructor
    must produce exactly the same sources, targets and composition.
    """
    g = real_slice_groupoid(model)
    n, n_x = model.n_theta, len(model.lattice_radii) * model.n_theta
    if g.n_arrows != n * n_x or len(g.products) != n * n * n_x:
        return False
    gi, x = np.divmod(np.arange(g.n_arrows), n_x)
    m, j = np.divmod(x, n)
    if not (np.array_equal(g.source, x)
            and np.array_equal(g.target, m * n + (j + gi) % n)):
        return False
    # the composition law on the full table: (h, g.x) . (g, x) = (hg, x)
    q, p, r = g.products.T
    gp, xp = np.divmod(p, n_x)
    return bool(np.array_equal(r, ((q // n_x + gp) % n) * n_x + xp))


def multipliable(model, zeta_q, zeta_p, z_p):
    """Domain mask: may arrow (zeta_q, .) multiply arrow (zeta_p, z_p)?

    The product is (zeta_q + zeta_p, z_p); it is excluded when the combined
    imaginary angle leaves the tube or when source or target of the product
    leaves the ball.
    """
    zeta = zeta_q + zeta_p
    if abs(np.imag(zeta)) >= model.eta_max:
        return False
    z1, z2 = z_p
    if np.sqrt(abs(z1) ** 2 + abs(z2) ** 2) >= model.space_radius:
        return False
    w1, w2 = rotate(zeta, z1, z2)
    return bool(np.sqrt(abs(w1) ** 2 + abs(w2) ** 2) < model.space_radius)


def core_pairs_never_excluded(model):
    """No-escape, exhaustively: core arrows never fall out of the mask.

    Core arrows are (real angle node, target of the partner); partners run
    over all angle x eta nodes based at every lattice point that stays in
    the ball.
    """
    for m in range(len(model.lattice_radii)):
        for j in range(model.n_theta):
            z = model.lattice_points[m, j]
            z = (complex(z[0]), complex(z[1]))
            for th in model.theta_nodes:
                for eta in model.eta_nodes:
                    zeta_p = th + 1j * eta
                    w = rotate(zeta_p, *z)
                    if np.sqrt(abs(w[0]) ** 2 + abs(w[1]) ** 2) >= model.space_radius:
                        continue  # partner itself not an arrow of the model
                    for th_k in model.theta_nodes:
                        if not multipliable(model, th_k, zeta_p, z):
                            return False
    return True


def grid_points(model):
    """Broadcast complex coordinates (Z1, Z2) of the rectangular grid."""
    x1, y1, x2, y2 = model.grid_axes
    Z1 = (x1[:, None, None, None] + 1j * y1[None, :, None, None])
    Z2 = (x2[None, None, :, None] + 1j * y2[None, None, None, :])
    return Z1, Z2


def average_callable(f, model):
    """Core average as a callable: F(z) = mean over nodes of f(R_theta z)."""
    theta = model.theta_nodes

    def averaged(z1, z2):
        acc = NeumaierSum(shape=np.broadcast(z1, z2).shape, dtype=complex)
        for th in theta:
            w1, w2 = rotate(th, z1, z2)
            acc.add(np.asarray(f(w1, w2), dtype=complex))
        return acc.value / len(theta)

    return averaged


def sample_function(f, model):
    """Sample a callable on the model's rectangular grid."""
    Z1, Z2 = grid_points(model)
    values = np.asarray(f(Z1 + 0 * Z2, Z2 + 0 * Z1), dtype=complex)
    return SampledFunction(values=values, grid_axes=model.grid_axes,
                           grid_spacing=model.grid_spacing)


def core_average_function(f, model):
    """Average a callable over the core and sample it on the grid.

    Exact (to rounding) for angular Fourier modes of degree below n_theta:
    invariant inputs are reproduced and pure non-zero modes vanish.
    """
    return sample_function(average_callable(f, model), model)


def cr_residual(F, model=None, h=None):
    """Max Cauchy-Riemann residual over interior grid nodes.

    Estimates d/d(conj z) in each complex coordinate by centered differences
    of step h: 0.5 * (d/dx + i d/dy).  Exactly zero (to rounding over
    truncation) for holomorphic samples; order h^2 truncation otherwise.
    """
    h = h if h is not None else F.grid_spacing
    v = F.values
    if any(s < 3 for s in v.shape):
        raise GridError("need at least 3 nodes per axis for centered differences")
    inner = (slice(1, -1),) * 4

    def diff(axis):
        up = [slice(1, -1)] * 4
        dn = [slice(1, -1)] * 4
        up[axis] = slice(2, None)
        dn[axis] = slice(None, -2)
        return (v[tuple(up)] - v[tuple(dn)]) / (2.0 * h)

    res1 = 0.5 * (diff(0) + 1j * diff(1))
    res2 = 0.5 * (diff(2) + 1j * diff(3))
    return float(max(np.abs(res1).max(), np.abs(res2).max()))


def sample_on_box(f, center, h, n=5):
    """Sample a callable on a small rectangular probe box (for slope fits)."""
    if n < 3:
        raise GridError("probe box needs at least 3 nodes per axis")
    c = np.asarray(center, dtype=float)
    axes = tuple(c[i] + h * (np.arange(n) - (n - 1) / 2.0) for i in range(4))
    x1, y1, x2, y2 = axes
    Z1 = (x1[:, None, None, None] + 1j * y1[None, :, None, None])
    Z2 = (x2[None, None, :, None] + 1j * y2[None, None, None, :])
    values = np.asarray(f(Z1 + 0 * Z2, Z2 + 0 * Z1), dtype=complex)
    return SampledFunction(values=values, grid_axes=axes, grid_spacing=float(h))


def cr_convergence_order(f, center, hs=(1e-2, 5e-3, 2.5e-3), n=5):
    """Least-squares log-log slope of the CR residual against h."""
    residuals = [cr_residual(sample_on_box(f, center, h, n=n), h=h) for h in hs]
    logs_h = np.log(np.asarray(hs))
    logs_r = np.log(np.asarray(residuals))
    slope = np.polyfit(logs_h, logs_r, 1)[0]
    return float(slope), residuals


def real_restriction_check(f, model, real_rule=None):
    """Consistency of complex core-averaging with real Haar averaging.

    Route (i) averages over the core with the model's trapezoid nodes and
    restricts to the real lattice; route (ii) restricts first and averages
    with the independent group quadrature.  Both routes run on all lattice
    points at once, each point reduced in the same node order as alone.
    Returns the max difference over real lattice points.
    """
    rule = real_rule or QuadratureRule(n_theta=model.n_theta)
    x, y = model.lattice_points.reshape(-1, 2).T
    via_complex = average_callable(f, model)(x.astype(complex), y.astype(complex))

    def on_rotation(mat):
        xr = mat[0, 0].real * x + mat[0, 1].real * y
        yr = mat[1, 0].real * x + mat[1, 1].real * y
        return f(xr.astype(complex), yr.astype(complex))

    via_real = haar_integrate(on_rotation, "SO2", rule)
    return float(np.max(np.abs(via_complex - via_real)))
