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
of real points is where real_restriction_check compares complex and real
averaging, while the rectangular grid in the four real coordinates carries
the sampled functions for the difference stencils.
Input functions are callables evaluated on demand; grid-bound inputs would
force interpolation and destroy the spectral exactness contracts.

Callables are evaluated on slabs of the grid, every grid point alone and
in the same node order, so the values do not depend on the CPU count.
core_average_function spreads its slabs over the available CPUs in forked
child processes that write into one shared map, so its callable must be
pointwise, and what it does besides returning values, in a child, never
reaches the caller.  sample_function, a process with one CPU, no os.fork
or other threads, and a mean inside a child run in the calling process.
Averaging hands its callable the same two arrays at every node, so a
callable may neither keep nor change its arguments.  core_average_function
makes one pass over the grid: each slab rotates once per node from the
unbroadcast grid axes, and a callable may return a tuple of values, each
averaged alone, with the bits of its own call.  With a reducer, each
slab's means become a few floats, and no grid is made.
"""

import mmap
import os
import signal
import threading

import numpy as np

from .errors import GridError, Value
from .groups import haar_integrate
from .sums import NeumaierSum, spread_empty

# Grid points per slab: one row of 17^3 at n_space = 17, whose temporaries
# stay in cache.  bench-holo's two-valued mean at n_theta = 64 took 35.7 ms
# in slabs of one row and 41.6 ms in slabs of three, on two CPUs (x86-64).
# A row of more points is cut into runs of columns along the second axis.
SLAB_POINTS = 2 ** 13

BOX_FRAC = 0.45         # grid box half-width over space_radius


class ComplexModel(Value):
    """Grids and nodes of the complexified rotation-action groupoid."""

    space_radius: float
    eta_max: float
    n_theta: int
    theta_nodes: np.ndarray     # real angles, quadrature and lattice order
    eta_nodes: np.ndarray       # imaginary parts, with 0 only for odd n_eta
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


def rotate(zeta, z1, z2):
    """Action of the complexified rotation with complex angle zeta."""
    c, s = np.cos(zeta), np.sin(zeta)
    return c * z1 - s * z2, s * z1 + c * z2


def build_complexified_model(space_radius=1.0, eta_max=0.2, n_theta=64,
                             n_space=9, n_eta=5, n_shells=3):
    """Construct the model's nodes, its rectangular grid and its polar lattice.

    The rectangular grid spans [-a, a] in each of the four real coordinates
    with a = BOX_FRAC * space_radius (BOX_FRAC <= 0.5 keeps the grid inside
    the ball); n_space is made odd so 0 is a node and the real slice
    (y1 = y2 = 0) lies on the grid.  The polar lattice is n_shells circles
    of n_theta points each.  A ValueError names a parameter out of range.
    """
    if space_radius <= 0 or eta_max <= 0:
        raise ValueError("space_radius and eta_max must be positive")
    for name, count in (("n_theta", n_theta), ("n_eta", n_eta),
                        ("n_shells", n_shells)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, not {count}")
    n_space = n_space if n_space % 2 == 1 else n_space + 1
    if n_space < 3:
        raise ValueError(f"n_space must give at least 3 nodes per axis, "
                         f"not {n_space}")
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    eta = np.linspace(-0.8 * eta_max, 0.8 * eta_max, n_eta)
    a = BOX_FRAC * space_radius
    axis = np.linspace(-a, a, n_space)
    spacing = float(axis[1] - axis[0])
    radii = space_radius * (0.25 + 0.6 * np.arange(n_shells) / max(1, n_shells - 1))

    return ComplexModel(
        space_radius=space_radius,
        eta_max=eta_max,
        n_theta=n_theta,
        theta_nodes=theta,
        eta_nodes=eta,
        grid_axes=(axis, axis, axis, axis),
        grid_spacing=spacing,
        lattice_radii=radii,
    )


def grid_points(x1, y1, x2, y2):
    """Broadcast complex coordinates (Z1, Z2) of the rectangular grid on
    the four real axes."""
    Z1 = (x1[:, None, None, None] + 1j * y1[None, :, None, None])
    Z2 = (x2[None, None, :, None] + 1j * y2[None, None, None, :])
    return Z1, Z2


def average_callable(f, model):
    """Core average as a callable: F(z) = mean over nodes of f(R_theta z).

    Every node's rotated point goes into the same two arrays, so ``f`` may
    neither keep nor change its arguments.
    """
    return lambda z1, z2: _node_mean(f, model.theta_nodes, z1, z2)


def _node_mean(f, theta, z1, z2, out=None, space=None):
    """Mean of f(R_theta z) over the nodes ``theta``; a tuple of values of
    f gives a tuple of means, each value reduced alone in node order.

    z1 and z2 may be unbroadcast axes: each coordinate of a node's rotation
    is one broadcasting ufunc into an array reused at every node, and its
    scalar products run on the axes as given.  The means go into the
    arrays of ``out``, one per value, if it is given; ``space`` then holds
    the 2 * len(out) + 5 flat arrays the pass works in, w1, w2 and those of
    NeumaierSum.several, each with at least the broadcast shape's size.
    """
    shape = np.broadcast_shapes(np.shape(z1), np.shape(z2))
    if space is None:
        w1, w2 = spread_empty(2, shape, np.result_type(theta, z1, z2))
        sums = None
    else:
        size = int(np.prod(shape))
        w1, w2, *arrays = (a[:size].reshape(shape) for a in space)
        sums = NeumaierSum.several(len(out), arrays=arrays)
    for th in theta:
        # rotate(th, z1, z2), operation for operation
        c, s = np.cos(th), np.sin(th)
        np.subtract(c * z1, s * z2, out=w1)
        np.add(s * z1, c * z2, out=w2)
        values = f(w1, w2)
        single = not isinstance(values, tuple)
        parts = (values,) if single else values
        if sums is None:
            sums = NeumaierSum.several(len(parts), w1.shape, complex)
        for acc, x in zip(sums, parts):
            acc.add(x)
        values = parts = x = None   # freed before f makes the next node's
    means = tuple(acc.mean(len(theta), dst)
                  for acc, dst in zip(sums, out or [None] * len(sums)))
    return means[0] if single else means


def _checked_samples(values, spacing):
    """Grid samples, once they are finite and their spacing is positive."""
    for part in values if isinstance(values, tuple) else (values,):
        if not np.all(np.isfinite(part)):
            raise GridError("sampled values must be finite")
    if spacing <= 0:
        raise GridError("grid spacing must be positive")
    return values


def sample_function(f, model):
    """Sample a callable on the model's rectangular grid.

    Returns the complex array of its values, indexed (x1, y1, x2, y2).
    ``f`` runs on slabs of whole rows along the first grid axis, or of runs
    of columns of one row, in the calling process, so it must be
    pointwise; each grid point is evaluated
    alone, so the values do not depend on the slab size.
    """
    return _sample_grid(f, model)


def _sample_grid(f, model, theta=None, reduce=None):
    Z1, Z2 = grid_points(*model.grid_axes)
    # whole first-axis rows while one holds at most SLAB_POINTS points;
    # past that, runs of columns along the second axis
    cols = min(Z1.shape[1], max(1, SLAB_POINTS // Z2.size))
    rows = max(1, SLAB_POINTS // (cols * Z2.size))
    return _checked_samples(
        _sample_slabs(f, Z1, Z2, rows, _available_cpus(), theta, cols,
                      reduce),
        model.grid_spacing)


def _available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _sample_slabs(f, Z1, Z2, rows, n_workers, theta=None, cols=None,
                  reduce=None):
    """f on the grid of Z1 (first two axes) and Z2 (last two), or with
    ``theta`` the mean of f over those rotation nodes; a slab is ``rows``
    first-axis rows of ``cols`` second-axis columns (all by default), and
    slabs are dealt round-robin to ``n_workers`` processes of which the
    calling process is the first.

    f gets each slab's points as full arrays; a mean rotates them from the
    slab's part of Z1 and from Z2 as they are, and a tuple of values of f
    gives a tuple of grids.  A mean with ``reduce`` makes no grid: each
    slab hands its means to ``reduce(z1, Z2, *means)``, z1 its part of Z1,
    and the floats it returns, as many for every slab, are that slab's row
    of the returned (slabs, floats) array.
    """
    global _FORKED
    n, m = Z1.shape[:2]
    cols = cols or m
    slabs = [(slice(a, a + rows), slice(b, b + cols))
             for a in range(0, n, rows) for b in range(0, m, cols)]
    single, count = True, 1
    if theta is not None:
        # f at one point gives the number of means to make before a fork,
        # and reduce of its values the length of a row
        z1, z2 = Z1[:1, :1], Z2[..., :1, :1]
        with np.errstate(over="ignore", invalid="ignore"):
            probe = f(z1 + 0 * z2, z2 + 0 * z1)
            single = not isinstance(probe, tuple)
            probe = (probe,) if single else probe
            count = len(probe)
            if reduce is not None:
                width = len(reduce(z1, z2, *probe))
    # A fork and its wait take about 1.7 ms, so only a mean forks.  A
    # child's own means stay in the child, and a process with other threads
    # does not fork: the child would get their locks in whatever state.
    if (theta is None or _FORKED or not hasattr(os, "fork")
            or threading.active_count() > 1):
        n_workers = 1
    n_workers = max(1, min(n_workers, len(slabs)))
    # the grids of the values, or with reduce one row of floats per slab
    shapes, dtype = [(n, m) + Z2.shape[2:]] * count, np.dtype(complex)
    if reduce is not None:
        shapes, dtype = [(len(slabs), width)], np.dtype(float)
    nbytes = int(np.prod(shapes[0])) * dtype.itemsize
    # for children, one shared anonymous map, where what they write reaches
    # the caller; alone, heap memory, whose pages need no fresh faults
    block = mmap.mmap(-1, len(shapes) * nbytes) if n_workers > 1 else None
    outputs = [np.ndarray(shape, dtype, block, k * nbytes)
               for k, shape in enumerate(shapes)]
    largest = Z1[slabs[0]].size * Z2.size       # points of the first slab

    def work(share):
        if theta is not None:
            # the arrays of the pass, made once per process and call and
            # cut to each slab: made per slab, they fragmented the malloc
            # arenas, and peak RSS grew over repeated calls.  A reduced
            # mean writes its means into the last ones
            space = spread_empty(2 * count + 5 + count * (reduce is not None),
                                 (largest,), complex)
            space, means = space[:2 * count + 5], space[2 * count + 5:]
        # an overflow is reported once, as the GridError it leads to
        with np.errstate(over="ignore", invalid="ignore"):
            for i in share:
                slab = slabs[i]
                z1 = Z1[slab]
                if theta is None:
                    outputs[0][slab] = f(z1 + 0 * Z2, Z2 + 0 * z1)
                elif reduce is None:
                    _node_mean(f, theta, z1, Z2,
                               [grid[slab] for grid in outputs], space)
                else:
                    out = [a[:z1.size * Z2.size].reshape(
                        z1.shape[:2] + Z2.shape[2:]) for a in means]
                    _node_mean(f, theta, z1, Z2, out, space)
                    outputs[0][i] = reduce(z1, Z2, *out)

    children = {}
    try:
        for slot in range(1, n_workers):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _FORKED = True
                    work(range(slot, len(slabs), n_workers))
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = slot
        work(range(0, len(slabs), n_workers))
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failed = [slot for pid, slot in children.items()
                  if os.waitpid(pid, 0)[1] != 0]
    for slot in failed:
        # done again here, so that the child's exception reaches the caller
        work(range(slot, len(slabs), n_workers))
    return outputs[0] if single or reduce is not None else tuple(outputs)


# True in a child of _sample_slabs, which averages in its own process
_FORKED = False


def core_average_function(f, model, reduce=None):
    """Average a callable over the core and sample it on the grid, on
    slabs as ``sample_function`` does, but spread over the available CPUs
    in forked child processes: side effects of ``f`` there never reach
    the caller.

    Exact (to rounding) for angular Fourier modes of degree below n_theta:
    invariant inputs are reproduced and pure non-zero modes vanish.  ``f``
    may return a tuple of values: one pass then averages each of them
    alone, to the bits of its own call, and returns the tuple of grids.
    ``f`` also runs once at one grid point, to count its values.

    With ``reduce`` no grid is made: each slab's means, with the bits of
    their grids, go to ``reduce(z1, z2, *means)``, where ``z1 + 0 * z2`` and
    ``z2 + 0 * z1`` are the slab's points as ``sample_function`` makes them.
    It returns as many floats for every slab, and first for the probe
    point, and may keep no argument.  The result is the (slabs, floats)
    array of its rows; a non-finite float in it raises GridError.
    """
    return _sample_grid(f, model, model.theta_nodes, reduce)


def cr_residual(values, h):
    """Max Cauchy-Riemann residual over interior grid nodes.

    ``values`` are samples on a rectangular (x1, y1, x2, y2) grid of
    spacing h.  Estimates d/d(conj z) in each complex coordinate by
    centered differences of step h: 0.5 * (d/dx + i d/dy).  Exactly zero
    (to rounding over truncation) for holomorphic samples; order h^2
    truncation otherwise.
    """
    if any(s < 3 for s in values.shape):
        raise GridError("need at least 3 nodes per axis for centered differences")

    def diff(axis):
        up = [slice(1, -1)] * 4
        dn = [slice(1, -1)] * 4
        up[axis] = slice(2, None)
        dn[axis] = slice(None, -2)
        return (values[tuple(up)] - values[tuple(dn)]) / (2.0 * h)

    res1 = 0.5 * (diff(0) + 1j * diff(1))
    res2 = 0.5 * (diff(2) + 1j * diff(3))
    return float(max(np.abs(res1).max(), np.abs(res2).max()))


def sample_on_box(f, center, h):
    """Sample a callable on a 5-node rectangular probe box of spacing h, as
    ``sample_function`` does (for slope fits)."""
    c = np.asarray(center, dtype=float)
    axes = tuple(c[i] + h * (np.arange(5) - 2.0) for i in range(4))
    Z1, Z2 = grid_points(*axes)
    return _checked_samples(
        np.asarray(f(Z1 + 0 * Z2, Z2 + 0 * Z1), dtype=complex), h)


def cr_convergence_order(f, center, hs=(1e-2, 5e-3, 2.5e-3)):
    """Least-squares log-log slope of the CR residual against h."""
    residuals = [cr_residual(sample_on_box(f, center, h), h=h) for h in hs]
    logs_h = np.log(np.asarray(hs, dtype=float))
    logs_r = np.log(np.asarray(residuals))
    slope = np.polyfit(logs_h, logs_r, 1)[0]
    return float(slope), residuals


def real_restriction_check(f, model):
    """Consistency of complex core-averaging with real Haar averaging.

    Route (i) averages over the core with the model's trapezoid nodes and
    restricts to the real lattice; route (ii) restricts first and averages
    with the group quadrature on n_theta + 1 nodes.  The two node sets
    share only theta = 0, so a mode that one rule aliases shows as a
    difference instead of being aliased by both alike.  Both routes run on
    all lattice points at once, each point reduced in the same node order
    as alone.  Returns the max difference over real lattice points.
    """
    x, y = model.lattice_points.reshape(-1, 2).T
    via_complex = average_callable(f, model)(x.astype(complex), y.astype(complex))

    def on_rotation(mat):
        xr = mat[0, 0] * x + mat[0, 1] * y
        yr = mat[1, 0] * x + mat[1, 1] * y
        return f(xr.astype(complex), yr.astype(complex))

    via_real = haar_integrate(on_rotation, "SO2", n_theta=model.n_theta + 1)
    return float(np.max(np.abs(via_complex - via_real)))
