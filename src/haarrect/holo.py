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

sample_function evaluates its callable on slabs of grid rows spread over the
available CPUs.  Callables given to it or to core_average_function must
therefore be pointwise and thread-safe; every grid point is still evaluated
alone, in the same node order, so the values do not depend on the CPU count.
The worker threads start on first use and serve every later call.
"""

import os
import threading
from dataclasses import dataclass
from queue import SimpleQueue

import numpy as np

from .errors import GridError
from .groupoids import FiniteGroup, build_action_groupoid
from .groups import QuadratureRule, haar_integrate
from .sums import NeumaierSum

# Grid points per slab of sample_function: 3 rows of 17^3 at n_space = 17.
# Slabs this small keep each thread's temporaries in cache and its malloc
# arena small, so peak memory does not grow with the thread count.
SLAB_POINTS = 2 ** 14


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
            raise GridError("sampled values must be finite")
        if self.grid_spacing <= 0:
            raise GridError("grid spacing must be positive")


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
    if g.n_arrows != n * n_x or g.table.shape != (n * n_x, n):
        return False
    gi, x = np.divmod(np.arange(g.n_arrows), n_x)
    m, j = np.divmod(x, n)
    if not (np.array_equal(g.source, x)
            and np.array_equal(g.target, m * n + (j + gi) % n)):
        return False
    # the composition law on the full table: the k-th arrow into the point
    # y = (m, j) is (k, (m, j - k)), and (h, y) . (k, (m, j - k)) =
    # (h + k, (m, j - k)); one block of rows (one h) at a time keeps the
    # temporaries small
    y, k = np.arange(n_x)[:, None], np.arange(n)
    source_k = (y // n) * n + (y - k) % n
    for h in range(n):
        if not np.array_equal(g.table[h * n_x:(h + 1) * n_x],
                              ((h + k) % n) * n_x + source_k):
            return False
    return True


def multipliable(model, zeta_q, zeta_p, z_p):
    """Domain mask: may arrow (zeta_q, .) multiply arrow (zeta_p, z_p)?

    The product is (zeta_q + zeta_p, z_p); it is excluded when the combined
    imaginary angle leaves the tube or when source or target of the product
    leaves the ball.  Arguments broadcast; the result is a boolean array.
    """
    zeta = np.add(zeta_q, zeta_p)
    z1, z2 = z_p
    w1, w2 = rotate(zeta, z1, z2)
    return ((np.abs(np.imag(zeta)) < model.eta_max)
            & (_norm(z1, z2) < model.space_radius)
            & (_norm(w1, w2) < model.space_radius))


def _norm(z1, z2):
    return np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)


def core_pairs_never_excluded(model):
    """No-escape, exhaustively: core arrows never fall out of the mask.

    Core arrows are (real angle node, target of the partner); partners run
    over all angle x eta nodes based at every lattice point that stays in
    the ball.  Axes: (shell, angle, partner angle, partner eta, core angle).
    """
    points = model.lattice_points.astype(complex)
    z1, z2 = (points[:, :, i, None, None, None] for i in (0, 1))
    theta = model.theta_nodes
    zeta_p = (theta[:, None] + 1j * model.eta_nodes)[..., None]
    partner = _norm(*rotate(zeta_p, z1, z2)) < model.space_radius
    return bool(np.all(~partner | multipliable(model, theta, zeta_p, (z1, z2))))


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
    """Sample a callable on the model's rectangular grid.

    ``f`` runs on slabs of whole rows along the first grid axis, spread over
    the available CPUs, so it must be pointwise and thread-safe; each grid
    point is evaluated alone, so the values do not depend on the CPU count.
    """
    Z1, Z2 = grid_points(model)
    rows = max(1, SLAB_POINTS // (Z1.shape[1] * Z2.size))
    values = _sample_slabs(f, Z1, Z2, rows, _available_cpus())
    return SampledFunction(values=values, grid_axes=model.grid_axes,
                           grid_spacing=model.grid_spacing)


def _available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _sample_slabs(f, Z1, Z2, rows, n_workers):
    """f on the grid of Z1 (first two axes) and Z2 (last two), ``rows``
    first-axis rows per slab, slabs dealt round-robin to ``n_workers``
    threads of which the calling thread is the first."""
    n = Z1.shape[0]
    slabs = [slice(a, a + rows) for a in range(0, n, rows)]
    values = np.empty((n,) + Z1.shape[1:2] + Z2.shape[2:], dtype=complex)

    def work(share):
        # an overflow is reported once, as the GridError it leads to
        with np.errstate(over="ignore", invalid="ignore"):
            for slab in share:
                z1 = Z1[slab]
                values[slab] = f(z1 + 0 * Z2, Z2 + 0 * z1)

    n_workers = max(1, min(n_workers, len(slabs)))
    if threading.current_thread() in _WORKERS:
        n_workers = 1       # a worker must not wait on the workers
    errors = [None] * n_workers
    done = threading.Semaphore(0)

    def worker(slot):
        try:
            work(slabs[slot::n_workers])
        except BaseException as exc:    # re-raised in the calling thread
            errors[slot] = exc
        finally:
            done.release()

    while len(_WORKERS) < n_workers - 1:
        _WORKERS.append(threading.Thread(target=_serve, daemon=True))
        _WORKERS[-1].start()
    for slot in range(1, n_workers):
        _JOBS.put(lambda slot=slot: worker(slot))
    try:
        work(slabs[0::n_workers])
    finally:
        for _ in range(1, n_workers):
            done.acquire()
    for exc in errors:
        if exc is not None:
            raise exc
    return values


# The worker threads of _sample_slabs and their jobs, kept for the life of
# the process so that each worker holds one malloc arena for good.  With a
# thread started per call, the previous call's thread, still exiting, could
# hold its arena, and the new thread opened another: peak RSS then rose by
# an arena (~2.5 MB at n_space = 17) in some runs and not in others.
_WORKERS = []
_JOBS = SimpleQueue()


def _serve():
    while True:
        _JOBS.get()()


if hasattr(os, "register_at_fork"):     # a forked child has only one thread
    os.register_at_fork(after_in_child=_WORKERS.clear)


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
    logs_h = np.log(np.asarray(hs, dtype=float))
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
