import ast
import mmap
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest

import haarrect.holo as holo
from conftest import assert_same_groupoid, tabulated_action, with_products
from haarrect.errors import GridError
from haarrect.groupoids import FiniteGroup, build_action_groupoid
from haarrect.groups import haar_integrate
from haarrect.holo import (
    average_callable,
    build_complexified_model,
    core_average_function,
    cr_convergence_order,
    cr_residual,
    real_restriction_check,
    rotate,
    sample_function,
    sample_on_box,
)
from haarrect.sums import NeumaierSum


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

def real_slice_groupoid(model):
    """Finite groupoid of the real slice: rotation nodes acting on the lattice.

    Points are indexed m * n_theta + j for shell m and angle j, and node g
    rotates j to (j + g) mod n_theta, so the construction is exact integer
    arithmetic.
    """
    n, n_x = model.n_theta, len(model.lattice_radii) * model.n_theta
    x = np.arange(n_x)
    act = x - x % n + (x % n + np.arange(n)[:, None]) % n
    return build_action_groupoid(FiniteGroup.cyclic(n), act)


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


def test_real_slice_consistency_64_nodes():
    m = build_complexified_model(space_radius=1.0, eta_max=0.2, n_theta=64,
                                 n_space=5, n_eta=3, n_shells=3)
    assert real_slice_consistency(m)


def test_real_slice_consistency_detects_a_wrong_product(small_model,
                                                       monkeypatch):
    build = real_slice_groupoid

    def corrupted(model):
        g = build(model)
        products = g.products.copy()
        products[5, 2] = (products[5, 2] + 1) % g.n_arrows
        return with_products(g, products)

    assert real_slice_consistency(small_model)
    monkeypatch.setitem(globals(), "real_slice_groupoid", corrupted)
    assert not real_slice_consistency(small_model)


def callback_real_slice(model):
    """The real slice through a label tuple, an index dict and a callback."""
    n, shells = model.n_theta, len(model.lattice_radii)
    space = tuple((m, j) for m in range(shells) for j in range(n))
    index = {pt: i for i, pt in enumerate(space)}

    def action(g, x):
        m, j = space[x]
        return index[(m, (j + g) % n)]

    return build_action_groupoid(FiniteGroup.cyclic(n),
                                 tabulated_action(n, space, action))


@pytest.mark.parametrize("n_theta", [1, 4, 64])
@pytest.mark.parametrize("n_shells", [1, 3])
def test_real_slice_table_matches_the_callback_form(n_theta, n_shells):
    model = build_complexified_model(n_theta=n_theta, n_space=3, n_eta=3,
                                     n_shells=n_shells)
    assert_same_groupoid(real_slice_groupoid(model),
                         callback_real_slice(model))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_real_slice_consistency_checks_every_block(small_model, monkeypatch,
                                                   where):
    # the check runs one block of product rows (one rotation h) at a time;
    # a wrong product in the first, a middle or the last block is caught
    build = real_slice_groupoid
    n = small_model.n_theta
    block = len(build(small_model).products) // n
    row = {"first": 0, "middle": (n // 2) * block + 7, "last": n * block - 1}

    def corrupted(model):
        g = build(model)
        products = g.products.copy()
        products[row[where], 2] = (products[row[where], 2] + 1) % g.n_arrows
        return with_products(g, products)

    monkeypatch.setitem(globals(), "real_slice_groupoid", corrupted)
    assert not real_slice_consistency(small_model)


def test_real_slice_check_memory_stays_below_12_mb():
    # the fiber-indexed table of the 64-node slice is 12 288 x 64 entries
    # (6.3 MB); a sorted (q, p, qp) row table with its keys peaked at 31 MB
    model = build_complexified_model(n_theta=64, n_space=17)
    tracemalloc.start()
    try:
        assert real_slice_consistency(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_model_build_memory_stays_below_100_kb():
    # the model is its node and axis vectors, O(n_theta + n_space) floats;
    # no table over the real slice is built
    tracemalloc.start()
    try:
        build_complexified_model(n_theta=64, n_space=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e5


def test_holo_imports_nothing_from_groupoids():
    # the bench-holo run path is numerics only
    with open(holo.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any(name.split(".")[-1] == "groupoids"
                                for name in imported)


def test_rotation_action_diagonalizes(model):
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.05j
    zeta = 0.7 + 0.1j
    w1, w2 = rotate(zeta, z1, z2)
    assert abs((w1 + 1j * w2) - np.exp(1j * zeta) * (z1 + 1j * z2)) < 1e-14
    assert abs((w1 - 1j * w2) - np.exp(-1j * zeta) * (z1 - 1j * z2)) < 1e-14


def test_mask_excludes_escaping_imaginary_angle(model):
    # product of tube coordinates 0.15 and 0.12 exceeds eta_max = 0.2
    assert not loop_multipliable(model, 0.15j, 0.12j, (0.3 + 0j, 0.1 + 0j))
    assert loop_multipliable(model, 0.5, 0.12j, (0.3 + 0j, 0.1 + 0j))


def test_mask_excludes_escaping_radius(model):
    # a complex angle stretches the norm by up to cosh(eta): near the
    # boundary the product target leaves the ball
    z = (0.98 + 0j, 0.0 + 0j)
    assert not loop_multipliable(model, 0.19j, 0.0, z)
    assert loop_multipliable(model, 0.19, 0.0, z)


def test_core_pairs_never_excluded_exhaustive(small_model):
    assert loop_core_pairs_never_excluded(small_model)


def loop_multipliable(model, zeta_q, zeta_p, z_p):
    """The domain mask of one pair, with scalar early exits."""
    zeta = zeta_q + zeta_p
    if abs(np.imag(zeta)) >= model.eta_max:
        return False
    z1, z2 = z_p
    if np.sqrt(abs(z1) ** 2 + abs(z2) ** 2) >= model.space_radius:
        return False
    w1, w2 = rotate(zeta, z1, z2)
    return bool(np.sqrt(abs(w1) ** 2 + abs(w2) ** 2) < model.space_radius)


def loop_core_pairs_never_excluded(model):
    """No-escape, exhaustively: core arrows never fall out of the domain
    mask, as five nested loops over (shell, angle, partner angle, partner
    eta, core angle)."""
    for m in range(len(model.lattice_radii)):
        for j in range(model.n_theta):
            z = tuple(complex(c) for c in model.lattice_points[m, j])
            for th in model.theta_nodes:
                for eta in model.eta_nodes:
                    zeta_p = th + 1j * eta
                    w = rotate(zeta_p, *z)
                    if np.sqrt(abs(w[0]) ** 2 + abs(w[1]) ** 2) \
                            >= model.space_radius:
                        continue
                    for th_k in model.theta_nodes:
                        if not loop_multipliable(model, th_k, zeta_p, z):
                            return False
    return True


def test_grid_contains_real_slice(model):
    x1, y1, x2, y2 = model.grid_axes
    assert 0.0 in y1 and 0.0 in y2


def test_real_restriction_check_matches_pointwise_loop():
    # one point at a time, as the check is defined; w+^5 survives the real
    # rule on n_theta + 1 = 5 nodes and not the model's 4, so the two
    # routes differ.  Array and scalar evaluation of f may round
    # differently in the last bit, so the match is to 1e-15.
    model = build_complexified_model(n_theta=4, n_space=5, n_eta=3,
                                     n_shells=3)
    rng = np.random.default_rng(3)
    co = rng.normal(size=3) + 1j * rng.normal(size=3)

    def f(z1, z2):
        wp, wm = z1 + 1j * z2, z1 - 1j * z2
        return co[0] + co[1] * wp ** 5 + co[2] * wp * wm ** 2

    averaged = average_callable(f, model)
    worst = 0.0
    for x, y in model.lattice_points.reshape(-1, 2):
        via_complex = averaged(complex(x), complex(y))
        via_real = haar_integrate(
            lambda mat: f(complex(mat[0, 0].real * x + mat[0, 1].real * y),
                          complex(mat[1, 0].real * x + mat[1, 1].real * y)),
            "SO2", n_theta=5)
        worst = max(worst, abs(complex(via_complex) - complex(via_real)))
    assert worst > 0.1
    assert abs(real_restriction_check(f, model) - worst) <= 1e-15 * worst


def test_invalid_model_parameters():
    # n_theta 0 and n_space 1 ended in an IndexError, n_shells 0 in a model
    # whose real_restriction_check failed on an empty max
    for name, value in [("space_radius", -1.0), ("n_theta", 0),
                        ("n_shells", 0), ("n_eta", 0), ("n_eta", -2),
                        ("n_space", 1), ("n_space", 0), ("n_space", -4)]:
        with pytest.raises(ValueError, match=name):
            build_complexified_model(**{name: value})


def test_two_nodes_per_axis_are_made_three():
    model = build_complexified_model(n_space=2, n_theta=4, n_eta=1,
                                     n_shells=1)
    assert [len(a) for a in model.grid_axes] == [3, 3, 3, 3]


# ---------------------------------------------------------------------------
# core averaging
# ---------------------------------------------------------------------------

def test_invariant_function_reproduced(model):
    f = lambda z1, z2: z1 * z1 + z2 * z2
    avg = core_average_function(f, model)
    direct = sample_function(f, model)
    assert np.abs(avg - direct).max() <= 1e-13


def test_weight_one_mode_vanishes(model):
    f = lambda z1, z2: z1 + 1j * z2
    assert np.abs(core_average_function(f, model)).max() <= 1e-13


def test_weight_one_combination_vanishes_mode_oracle(model):
    # (z1 + i z2)^2 (z1 - i z2) = w+^2 w-: net angular weight 2 - 1 = 1,
    # so the node sum is sum_j exp(i theta_j) times a fixed function: 0
    f = lambda z1, z2: (z1 + 1j * z2) ** 2 * (z1 - 1j * z2)
    assert np.abs(core_average_function(f, model)).max() <= 1e-13
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


def rotate_loop_means(model):
    """The bytes of both rotated coordinates averaged on the grid, from one
    rotate call per node and one sum per coordinate."""
    Z1, Z2 = holo.grid_points(*model.grid_axes)
    Z1, Z2 = Z1 + 0 * Z2, Z2 + 0 * Z1
    sums = [NeumaierSum(shape=Z1.shape, dtype=complex) for _ in range(2)]
    for th in model.theta_nodes:
        for acc, w in zip(sums, rotate(th, Z1, Z2)):
            acc.add(w)
    return [(acc.value / model.n_theta).tobytes() for acc in sums]


@pytest.mark.parametrize("part", [0, 1])
def test_callable_returning_its_argument_gives_the_rotate_loop(model, part):
    # the rotated points of every node share two arrays: the average of a
    # callable that returns one of them still reads each node once
    f = lambda z1, z2: (z1, z2)[part]
    assert (core_average_function(f, model).tobytes()
            == rotate_loop_means(model)[part])


def test_callable_returning_both_arguments_gives_the_rotate_loop(model):
    # both values are the shared arrays themselves, each added to its sum
    # before the next node overwrites it
    both = core_average_function(lambda z1, z2: (z1, z2), model)
    assert [v.tobytes() for v in both] == rotate_loop_means(model)


@pytest.fixture(scope="module", params=[9, 17])
def slab_model(request):
    return build_complexified_model(space_radius=1.0, eta_max=0.2, n_theta=12,
                                    n_space=request.param, n_eta=3, n_shells=2)


def test_sampling_does_not_depend_on_worker_count(slab_model, monkeypatch):
    f = lambda z1, z2: np.exp(z1) * np.cos(z2) + (z1 + 1j * z2) ** 3
    Z1, Z2 = holo.grid_points(*slab_model.grid_axes)
    whole = np.asarray(f(Z1 + 0 * Z2, Z2 + 0 * Z1), dtype=complex).tobytes()
    averaged = core_average_function(f, slab_model).tobytes()
    for workers in (1, 2, 3):
        monkeypatch.setattr(holo, "_available_cpus", lambda: workers)
        assert sample_function(f, slab_model).tobytes() == whole
        assert core_average_function(f, slab_model).tobytes() == averaged


INPUTS = (
    lambda z1, z2: np.sin(z1 * z2) + z1 ** 2 * z2,
    lambda z1, z2: (z1 + 1j * z2) ** 3,
)


def all_inputs(z1, z2):
    return tuple(g(z1, z2) for g in INPUTS)


def test_uneven_slabs_give_the_same_values(slab_model, monkeypatch):
    # the averaged callable on the whole grid at once, against slabs of it
    # and against one mean pass on slabs, which rotates each node once
    # from the axes and averages all inputs, each to its own bytes
    Z1, Z2 = holo.grid_points(*slab_model.grid_axes)
    whole = [np.asarray(average_callable(g, slab_model)(Z1 + 0 * Z2,
                                                        Z2 + 0 * Z1),
                        dtype=complex).tobytes() for g in INPUTS]
    f = average_callable(INPUTS[0], slab_model)
    for rows in (2, 5):     # 9 and 17 rows both leave a short last slab
        for workers in (1, 2, 3):
            values = holo._sample_slabs(f, Z1, Z2, rows, workers)
            assert values.tobytes() == whole[0]
            means = holo._sample_slabs(all_inputs, Z1, Z2, rows, workers,
                                       slab_model.theta_nodes)
            assert [v.tobytes() for v in means] == whole
    # a row of more than SLAB_POINTS points is cut into runs of columns:
    # here eight columns of one row, the last run one column long
    n = Z1.shape[0]
    monkeypatch.setattr(holo, "SLAB_POINTS", 8 * n * n + n)
    for workers in (1, 2, 3):
        monkeypatch.setattr(holo, "_available_cpus", lambda: workers)
        assert sample_function(f, slab_model).tobytes() == whole[0]
        means = core_average_function(all_inputs, slab_model)
        assert [v.tobytes() for v in means] == whole
        rows = core_average_function(all_inputs, slab_model, reduce=extremes)
        assert rows.tobytes() == slab_extremes(slab_model, 8).tobytes()


def extremes(z1, z2, *means):
    """The slab's largest and smallest real and imaginary parts of its
    unrotated points and of each mean."""
    values = (z1 + 0 * z2, z2 + 0 * z1) + means
    return [op(part(v)) for v in values for part in (np.real, np.imag)
            for op in (np.max, np.min)]


def slab_extremes(model, cols):
    """extremes of each slab of one row and ``cols`` columns, the last run
    of a row shorter, read from whole grids."""
    Z1, Z2 = holo.grid_points(*model.grid_axes)
    grids = [Z1 + 0 * Z2, Z2 + 0 * Z1] + [
        np.asarray(average_callable(g, model)(Z1 + 0 * Z2, Z2 + 0 * Z1))
        for g in INPUTS]
    n = Z1.shape[0]
    cut = lambda v, a, b: v[a:a + 1, b:b + cols]
    return np.array([extremes(*(cut(v, a, b) for v in grids))
                     for a in range(n) for b in range(0, n, cols)])


def test_slabs_stay_near_slab_points_at_any_grid():
    # whole first-axis rows up to n_space 19; past that, runs of columns of
    # at most SLAB_POINTS points, as many per row as fit
    width = lambda model: core_average_function(
        lambda z1, z2: z1, model,
        reduce=lambda z1, z2, mean: [z1.shape[0], z1.shape[1]])
    for n_space, rows, cols in ((13, 3, 13), (17, 1, 17), (19, 1, 19),
                                (21, 1, 18), (33, 1, 7), (55, 1, 2)):
        model = build_complexified_model(n_theta=1, n_space=n_space)
        shapes = width(model)
        assert shapes.max(axis=0).tolist() == [rows, cols]
        assert shapes.prod(axis=1).sum() == n_space ** 2


def test_a_non_finite_reduced_row_is_a_grid_error(small_model):
    nan_at = lambda z1, z2, mean: [np.where(z1.real.max() > 0.4, np.nan, 0)]
    with pytest.raises(GridError, match="sampled values must be finite"):
        core_average_function(lambda z1, z2: z1, small_model, reduce=nan_at)


def test_means_of_a_tuple_are_the_means_of_each_value(slab_model,
                                                     monkeypatch):
    alone = [core_average_function(g, slab_model).tobytes() for g in INPUTS]
    for workers in (1, 2, 3):
        monkeypatch.setattr(holo, "_available_cpus", lambda: workers)
        means = core_average_function(all_inputs, slab_model)
        assert isinstance(means, tuple)
        assert [v.tobytes() for v in means] == alone


def test_two_valued_mean_memory_stays_below_5_3_mib(monkeypatch):
    # bench-holo's pass on perfbench's grid, one worker, slabs of three
    # rows: the two value grids; w1 and w2, an (s, c) pair per value and
    # one shared t, z and e, all slab-sized; and f's temporaries.  5.29 MiB
    # here, as for two single-valued calls; separate sums per value, or f's
    # values kept while it makes the next node's, peak near 6 MiB
    model = build_complexified_model(n_theta=64, n_space=17)
    monkeypatch.setattr(holo, "_available_cpus", lambda: 1)
    monkeypatch.setattr(holo, "SLAB_POINTS", 2 ** 14)
    f = lambda z1, z2: (z1 * z1 + z2 * z2, z1 + 1j * z2)
    tracemalloc.start()
    try:
        core_average_function(f, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.3 * 2 ** 20


class SlabFailure(Exception):
    pass


def assert_no_child_left():
    # every child of a call is reaped before it returns or raises
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing_slab", [0, 1, 2, 3])
def test_worker_exception_reaches_the_caller(small_model, failing_slab):
    check_worker_exception(small_model, failing_slab, mean=False)


@pytest.mark.parametrize("failing_slab", [0, 1, 2, 3])
def test_worker_exception_in_a_mean_reaches_the_caller(small_model,
                                                       failing_slab):
    check_worker_exception(small_model, failing_slab, mean=True)


def check_worker_exception(model, failing_slab, mean):
    # a mean with 3 workers and 1-row slabs runs slab j in process j mod 3:
    # the caller for j = 0 and 3, a child otherwise, whose share the caller
    # then does again.  A mean of two values meets the slab's own rows at
    # its first node, theta = 0; for j = 0 its one-point probe, before any
    # fork, meets them first.  A plain sample runs in the caller
    Z1, Z2 = holo.grid_points(*model.grid_axes)
    bad_row = Z1[failing_slab, 0, 0, 0]
    theta = model.theta_nodes if mean else None

    def product(z1, z2):
        return (z1 * z2, z1) if mean else z1 * z2

    def f(z1, z2):
        if np.any(z1[:, :1, :1, :1] == bad_row):
            raise SlabFailure(failing_slab)
        return product(z1, z2)

    def sample(g, workers):
        values = holo._sample_slabs(g, Z1, Z2, 1, workers, theta)
        return np.stack(values).tobytes()

    expected = sample(product, 1)
    assert sample(product, 3) == expected
    assert_no_child_left()
    with pytest.raises(SlabFailure) as failure:
        sample(f, 3)
    assert failure.value.args == (failing_slab,)
    assert_no_child_left()


def check_mean_in_one_process(model, keep_from_forking):
    # the mean of two values for 1, 2 and 3 workers, once keep_from_forking
    # has run, has the bytes of the mean in three processes
    Z1, Z2 = holo.grid_points(*model.grid_axes)
    means = lambda workers: np.stack(holo._sample_slabs(
        all_inputs, Z1, Z2, 1, workers, model.theta_nodes)).tobytes()
    expected = means(3)
    keep_from_forking()
    for workers in (1, 2, 3):
        assert means(workers) == expected


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


@needs_fork
def test_mean_without_os_fork_runs_in_process(small_model, monkeypatch):
    check_mean_in_one_process(small_model,
                              lambda: monkeypatch.delattr(os, "fork"))


@needs_fork
def test_mean_beside_a_live_thread_runs_in_process(small_model, monkeypatch):
    release = threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)

    def start_thread():
        # a fork would copy the thread's locks in whatever state they are
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        thread.start()

    try:
        check_mean_in_one_process(small_model, start_thread)
    finally:
        release.set()
    thread.join(timeout=30)
    assert not thread.is_alive()


@needs_fork
def test_mean_inside_a_child_runs_there(small_model, monkeypatch):
    # f runs a mean of its own in the one child of a two-worker mean: that
    # mean must not fork again, and must give its bytes for 1, 2 and 3
    # workers.  The child's counts reach the caller through a shared map
    Z1, Z2 = holo.grid_points(*small_model.grid_axes)
    theta = small_model.theta_nodes
    product = lambda z1, z2: z1 * z2
    expected = holo._sample_slabs(product, Z1, Z2, 1, 1, theta).tobytes()
    caller, fork = os.getpid(), os.fork
    started, same = np.ndarray((2, 1), np.int64, mmap.mmap(-1, 16))

    def fork_in_the_caller():
        if os.getpid() != caller:
            raise AssertionError("a child forked")
        return fork()

    def f(z1, z2):
        if os.getpid() != caller:
            # the alarm ends a child that hangs, whose count stays short
            signal.alarm(30)
            for workers in (1, 2, 3):
                started[...] += 1
                nested = holo._sample_slabs(product, Z1, Z2, 1, workers,
                                            theta)
                same[...] += nested.tobytes() == expected
        return product(z1, z2)

    monkeypatch.setattr(os, "fork", fork_in_the_caller)
    holo._sample_slabs(f, Z1, Z2, 1, 2, theta)
    assert_no_child_left()
    assert started[0] > 0
    assert same[0] == started[0]


# ---------------------------------------------------------------------------
# Cauchy-Riemann residuals
# ---------------------------------------------------------------------------

def test_cr_constant_is_zero(model):
    f = lambda z1, z2: np.full(np.broadcast(z1, z2).shape, 1.7 - 0.3j)
    assert cr_residual(sample_function(f, model), model.grid_spacing) == 0.0


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
    with pytest.raises(GridError):
        cr_residual(np.zeros((2,) * 4, dtype=complex), 1e-2)


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


def test_restriction_shows_a_mode_the_model_rule_aliases(model):
    # the model's n_theta nodes alias w+^n_theta to a constant, and a real
    # rule on the same nodes would alias it alike and read 0; n_theta + 1
    # nodes average it to 0, so the difference is |w+|^n_theta on the
    # outermost shell
    n = model.n_theta
    f = lambda z1, z2: (z1 + 1j * z2) ** n
    expected = model.lattice_radii.max() ** n
    assert expected > 1e-3
    assert abs(real_restriction_check(f, model) - expected) <= 1e-12


def test_restriction_random_trig_polynomial(model):
    rng = np.random.default_rng(31)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)

    def f(z1, z2):
        wp, wm = z1 + 1j * z2, z1 - 1j * z2
        return (coeffs[0] + coeffs[1] * wp + coeffs[2] * wm
                + coeffs[3] * wp * wm + coeffs[4] * wp ** 2 * wm
                + coeffs[5] * wm ** 3)

    assert real_restriction_check(f, model) <= 1e-13
