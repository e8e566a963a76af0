"""Bitwise oracles for the batched Lie kernels.

The kernels compute on (dim + 1, n) value columns, one contiguous row per
part.  The bitwise references here are the same closed forms broadcast over
(n, dim) and (n, dim + 1) rows; every kernel must match them in dtype, in
value and in the sign of every zero.  The matrix references (the einsum
product, eigh, Rodrigues and Schur) are checked through the conftest
adapter between value columns and matrices to a few ulp.
"""

import ast
import glob
import itertools
import os

import numpy as np
import pytest

from conftest import (
    MATRIX_DIM,
    REPO_ROOT,
    columns,
    eigh_exp,
    matrices,
    psi_stack,
    rodrigues,
    schur_log,
)
from haarrect.groupoids import build_pair_groupoid
from haarrect.groups import (
    _angle_pass,
    _compose,
    _distances_to_identity,
    _exp,
    _inverse,
    _log_coords,
    _row_norm,
    normalize_algebra_norm,
)

ALGEBRAS = ("u1", "so2", "so3", "su2")
ULP = np.finfo(float).eps      # one ulp at 1


def assert_same_bits(ref, got):
    ref, got = np.asarray(ref), np.asarray(got)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


# ---------------------------------------------------------------------------
# the broadcast forms, on rows
# ---------------------------------------------------------------------------

def ref_norm(alg, coords):
    return alg.factor * np.linalg.norm(coords, axis=-1)


def ref_sample_ball(alg, rng, radius, count):
    x = rng.normal(size=(count, alg.dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / alg.dim)
    return (r / alg.factor)[:, None] * x


def vector_sign(alg):
    """The sign of exp's vector part: su(2)'s basis maps to -i_k / 2."""
    return -1.0 if alg.algebra_id == "su2" else 1.0


def ref_exp(alg, coords):
    """(cos theta, sin theta) and (cos(theta/2), sign sin(theta/2) n) on
    (n, dim) rows, as (n, dim + 1) rows, then the exact identity written
    over the zero vectors."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if alg.dim == 1:
        rows = np.stack([np.cos(coords[:, 0]), np.sin(coords[:, 0])], axis=-1)
    else:
        theta = np.hypot(np.hypot(coords[:, 0], coords[:, 1]), coords[:, 2])
        axis = np.divide(coords, theta[:, None], out=np.zeros_like(coords),
                         where=theta[:, None] > 0.0)
        sine = vector_sign(alg) * np.sin(0.5 * theta)
        rows = np.concatenate([np.cos(0.5 * theta)[:, None],
                               sine[:, None] * axis], axis=-1)
    rows[~np.any(coords != 0.0, axis=-1)] = np.eye(alg.dim + 1)[0]
    return rows


def ref_distances(alg, rows):
    s = np.linalg.norm(rows[..., 1:], axis=-1)
    w = np.abs(rows[..., 0]) if alg.algebra_id == "so3" else rows[..., 0]
    angle = np.arctan2(s, w)
    return alg.factor * (angle if alg.dim == 1 else 2.0 * angle)


def ref_log(alg, rows):
    """The principal log on (n, dim + 1) rows: the signed angle, or the
    angle times the unit vector part (that of SU(2)'s -1 taken as e_3)."""
    if alg.dim == 1:
        return np.arctan2(rows[:, 1:], rows[:, :1])
    s = np.linalg.norm(rows[:, 1:], axis=-1, keepdims=True)
    axis = np.divide(rows[:, 1:], s, out=np.zeros_like(rows[:, 1:]),
                     where=s > 0)
    axis[s[:, 0] == 0, -1] = 1.0
    w = np.abs(rows[:, :1]) if alg.algebra_id == "so3" else rows[:, :1]
    angle = 2.0 * np.arctan2(s, w)
    if alg.algebra_id == "so3":
        angle = np.copysign(angle, rows[:, :1])
    return vector_sign(alg) * angle * axis


def ref_product(a, b):
    """The complex or Hamilton product of (n, dim + 1) rows."""
    if a.shape[-1] == 2:
        return np.stack([a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1],
                         a[:, 0] * b[:, 1] + a[:, 1] * b[:, 0]], axis=-1)
    (w1, x1, y1, z1), (w2, x2, y2, z2) = a.T, b.T
    return np.stack([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2], axis=-1)


def ref_conjugate(rows):
    return rows * np.r_[1.0, -np.ones(rows.shape[-1] - 1)]


def ref_psi(rows, pairs):
    """The products over the gathered conjugates."""
    k, p, kp = np.asarray(pairs, dtype=np.intp).reshape(-1, 3).T
    inv = ref_conjugate(rows)
    return ref_product(ref_product(inv[p], inv[k]), rows[kp])


def assert_within_ulps(ref, got, ulps):
    """|got - ref| within ``ulps`` ulp at 1, entry by entry: unit values
    and log angles are O(1)."""
    ref, got = np.asarray(ref), np.asarray(got)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= ulps * ULP


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def hard_coords(alg, rng):
    """Zero vectors of both signs, 1e-310 and axis-aligned coordinates,
    angles near 0 and near pi (and past it), and a radius-3 ball."""
    vals = (0.0, -0.0, 1e-310, -1e-310, 1e-8, -0.6, np.pi, 4.0)
    grid = np.array(list(itertools.product(vals, repeat=alg.dim)))
    unit = rng.normal(size=(400, alg.dim))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    radii = (1e-300, 1e-8, np.pi - 1e-9, np.pi, np.pi + 1e-9, 7.0)
    ball = ref_sample_ball(alg, rng, 3.0, 2000)
    return np.concatenate([grid] + [r * unit for r in radii] + [ball])


def hard_rows(alg, rng):
    """exp of the hard coordinates and their products (turns through the
    whole angle range, half turns among them) as (n, dim + 1) rows; for
    quaternions also the exact units of both signs and half turns, w = 0,
    with and without a tiny w of either sign."""
    g = ref_exp(alg, hard_coords(alg, rng))
    rows = [g, ref_product(g, g[::-1])]
    if alg.dim == 3:
        rows.append(np.concatenate([np.eye(4), -np.eye(4)]))
        n = rng.normal(size=(2000, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        w = rng.choice([0.0, -0.0, 1e-9, -1e-9, 1e-300], size=(len(n), 1))
        rows.append(np.hstack([w, n * np.sqrt(1.0 - w * w)]))
    return np.concatenate(rows)


@pytest.fixture(scope="module")
def algs():
    return {aid: normalize_algebra_norm(aid) for aid in ALGEBRAS}


# ---------------------------------------------------------------------------
# kernels against their references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (7, 3), (5000, 3),
                                   (500, 1), (3,), (4, 5, 3), (6, 7)])
def test_row_norm_is_linalg_norm(shape):
    # rows of under 8 entries: numpy sums longer ones pairwise
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape) * np.exp(20.0 * rng.normal(size=shape))
    assert_same_bits(np.linalg.norm(x, axis=-1), _row_norm(x))
    assert_same_bits(np.linalg.norm(x, axis=-1),
                     _row_norm(np.asfortranarray(x)))


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_norm_and_ball_are_the_broadcast_forms(algs, aid):
    alg = algs[aid]
    for radius in (1.0, 3.0, alg.injectivity_margin):
        got = alg.sample_ball(np.random.default_rng(5), radius, 3000)
        assert_same_bits(
            ref_sample_ball(alg, np.random.default_rng(5), radius, 3000), got)
    coords = hard_coords(alg, np.random.default_rng(6))
    assert_same_bits(ref_norm(alg, coords), alg.norm(coords))


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_exp_is_the_broadcast_form(algs, aid):
    alg = algs[aid]
    coords = hard_coords(alg, np.random.default_rng(7))
    got = _exp(alg, coords)
    assert got.flags.c_contiguous and got.shape == (alg.dim + 1, len(coords))
    assert_same_bits(ref_exp(alg, coords).T, got)
    assert_same_bits(got, _exp(alg, np.asfortranarray(coords)))
    # the zero vectors of both signs give the exact identity
    zero = ~np.any(coords != 0.0, axis=-1)
    assert zero.sum() == 2 ** alg.dim
    assert_same_bits(np.broadcast_to(np.eye(alg.dim + 1)[0],
                                     (zero.sum(), alg.dim + 1)), got[:, zero].T)
    # the matrix references, through the adapter
    assert_within_ulps(eigh_exp(aid, coords), matrices(alg, got), 24)
    if aid == "so3":
        assert_within_ulps(np.array([rodrigues(c) for c in coords[::7]]),
                           matrices(alg, got[:, ::7]), 8)


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_log_and_distance_are_the_broadcast_forms(algs, aid):
    alg = algs[aid]
    rows = hard_rows(alg, np.random.default_rng(8))
    values = np.ascontiguousarray(rows.T)
    assert_same_bits(ref_log(alg, rows), _log_coords(alg, values))
    assert_same_bits(ref_distances(alg, rows),
                     _distances_to_identity(alg, values))
    n = len(rows) // 2 * 2
    stacked = rows[:n].reshape(2, -1, rows.shape[-1])
    assert_same_bits(ref_distances(alg, stacked), _distances_to_identity(
        alg, values[:, :n].reshape(-1, 2, n // 2)))
    # the Schur log of the matrices, inside the injectivity margin
    inside = alg.norm(ref_log(alg, rows)) < alg.injectivity_margin
    some = values[:, inside][:, ::5]
    assert_within_ulps(
        [schur_log(aid, m) for m in matrices(alg, some)],
        _log_coords(alg, some), 32)


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_psi_stack_is_the_gathered_product(algs, aid):
    alg = algs[aid]
    g = build_pair_groupoid(6)
    rows = ref_exp(alg, ref_sample_ball(alg, np.random.default_rng(9), 3.0,
                                        g.n_arrows))
    rows[::5] = np.eye(alg.dim + 1)[0]
    psi = psi_stack(alg, np.ascontiguousarray(rows.T), g.products)
    assert_same_bits(ref_psi(rows, g.products).T, psi)
    k, p, kp = g.products.T
    mats = matrices(alg, rows.T)
    inv = mats.conj().swapaxes(-1, -2)
    assert_within_ulps(inv[p] @ inv[k] @ mats[kp], matrices(alg, psi), 16)


def product_operand(alg, rng, n):
    """n group values as (n, dim + 1) rows, about one entry in six replaced
    by a signed zero or a signed subnormal."""
    x = ref_exp(alg, ref_sample_ball(alg, rng, 3.0, n))
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310])
    hit = rng.random(x.shape) < 1 / 6
    x[hit] = rng.choice(specials, size=int(hit.sum()))
    return x


@pytest.mark.parametrize("n", [0, 1, 9, 25, 400, 2000])
@pytest.mark.parametrize("aid", ALGEBRAS)
def test_compose_is_the_einsum_product(algs, aid, n):
    # bitwise the broadcast product on every operand, special entries
    # included; to a few ulp the einsum product of the matrices of unit
    # values; every layout of the columns gives the bits of their
    # C-ordered copy, and the operands are left alone
    alg = algs[aid]
    rng = np.random.default_rng(n)
    a, b = product_operand(alg, rng, n), product_operand(alg, rng, n)
    A, B = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    kept = A.copy(), B.copy()
    for x, y in ((a, b), (b, a), (a, a)):
        got = _compose(np.ascontiguousarray(x.T), np.ascontiguousarray(y.T))
        assert got.flags.c_contiguous
        assert_same_bits(ref_product(x, y).T, got)
    for x, y in ((a.T, b.T), (A[:, ::-1], B[:, ::-1]), (A, B[::-1, ::-1])):
        assert_same_bits(_compose(np.ascontiguousarray(x),
                                  np.ascontiguousarray(y)), _compose(x, y))
    assert_same_bits(kept[0], A)
    assert_same_bits(kept[1], B)
    u, v = (_exp(alg, ref_sample_ball(alg, rng, 3.0, n)) for _ in "uv")
    assert_within_ulps(
        np.einsum("nij,njk->nik", matrices(alg, u), matrices(alg, v)),
        matrices(alg, _compose(u, v)), 16)


@pytest.mark.parametrize("n", [0, 1, 500])
@pytest.mark.parametrize("aid", ALGEBRAS)
def test_columns_and_matrices_round_trip_bitwise(algs, aid, n):
    # the conftest adapter that the matrix references go through: from
    # columns to matrices and back it copies or negates parts, signed
    # zeros and subnormals included, except for SO(3), whose matrix
    # entries are quadratic in the quaternion: there it returns q or -q to
    # a few ulp
    alg = algs[aid]
    values = np.ascontiguousarray(
        product_operand(alg, np.random.default_rng(13), n).T)
    mats = matrices(alg, values)
    assert mats.shape == (n,) + (MATRIX_DIM[aid],) * 2
    assert mats.dtype == (complex if aid in ("u1", "su2") else float)
    if aid != "so3":
        assert_same_bits(values, columns(alg, mats))
        return
    units = _exp(alg, ref_sample_ball(alg, np.random.default_rng(13), 3.0, n))
    back = columns(alg, matrices(alg, units))
    assert_within_ulps(units * np.where(back[0] * units[0] < 0, -1.0, 1.0),
                       back, 4)


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_inverse_is_the_conjugate_transpose_bitwise(algs, aid):
    # the conjugate's matrix is the conjugate transpose, entry for entry,
    # for SO(3) too: its entries 2 (x y -+ w z) swap exactly
    alg = algs[aid]
    rows = product_operand(alg, np.random.default_rng(14), 500)
    values = np.ascontiguousarray(rows.T)
    inv = _inverse(values)
    assert inv.flags.c_contiguous
    assert_same_bits(ref_conjugate(rows).T, inv)
    assert_same_bits(matrices(alg, values).conj().swapaxes(-1, -2),
                     matrices(alg, inv))
    assert_same_bits(values, _inverse(inv))
    assert_same_bits(rows.T, values)     # the input is left alone


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_shared_angle_pass_gives_the_defect_and_the_log(algs, aid):
    # iterate measures a psi stack's defect and takes its logs from one
    # angle pass; both equal the standalone kernels and their references
    alg = algs[aid]
    rng = np.random.default_rng(12)
    rows = np.concatenate([
        hard_rows(alg, rng),                            # half turns
        ref_exp(alg, ref_sample_ball(alg, rng, 3.0, 3000)),
        np.broadcast_to(np.eye(alg.dim + 1)[0], (50, alg.dim + 1))])
    values = np.ascontiguousarray(rows.T)
    angles = _angle_pass(alg, values)
    assert np.any(angles[1] == 0.0) and np.any(values[0] < 0.0)
    if aid == "so3":
        near = np.abs(angles[1] - np.pi)
        assert np.any(near == 0.0) and np.any((near > 0.0) & (near < 1e-8))
    assert_same_bits(_distances_to_identity(alg, values),
                     alg.factor * angles[1])
    assert_same_bits(ref_distances(alg, rows), alg.factor * angles[1])
    assert_same_bits(_log_coords(alg, values),
                     _log_coords(alg, values, angles))
    assert_same_bits(ref_log(alg, rows), _log_coords(alg, values, angles))


# ---------------------------------------------------------------------------
# stacked products in src/ go through _compose
# ---------------------------------------------------------------------------

# einsum subscripts that src/ may use, each with its reason
EINSUM_ALLOWED = {}


def is_stacked_product(subscripts):
    """True for a product of matrix stacks such as "nij,njk->nik": two or
    more operands, each and the output with three or more indices."""
    inputs, _, output = subscripts.replace(" ", "").partition("->")
    operands = inputs.split(",")
    return len(operands) > 1 and all(len(s) >= 3 for s in operands + [output])


def einsum_calls(tree):
    """(line, subscripts or None if not a literal) of each einsum call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                == "einsum"):
            first = node.args[0] if node.args else None
            literal = (isinstance(first, ast.Constant)
                       and isinstance(first.value, str))
            yield node.lineno, first.value if literal else None


def test_einsum_check_finds_stacked_products():
    tree = ast.parse('np.einsum("nij,njk->nik", a, b)\n'
                     'einsum("nij,nkj->nik", a, b)\n'
                     'np.einsum("ij,ij->i", n, s)\n'
                     'np.einsum(spec, a, b)\n')
    calls = list(einsum_calls(tree))
    assert [line for line, _ in calls] == [1, 2, 3, 4]
    assert [s is not None and is_stacked_product(s) for _, s in calls] == [
        True, True, False, False]
    assert not any(is_stacked_product(s) for s in EINSUM_ALLOWED)


def test_src_has_no_einsum_stacked_product():
    found = []
    for path in glob.glob(os.path.join(REPO_ROOT, "src", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [(os.path.relpath(path, REPO_ROOT), line, subscripts)
                  for line, subscripts in einsum_calls(tree)
                  if subscripts not in EINSUM_ALLOWED]
    # a stacked product belongs to groups._compose; any other einsum needs
    # a literal subscript and a reason in EINSUM_ALLOWED
    assert not found


# functions of src/ that may multiply matrices by BLAS (`@` or np.matmul),
# each with its reason: there are none, since every product of group values
# is a `_compose` of value columns, so no BLAS kernel decides an artifact bit
MATMUL_ALLOWED = {}


def matmul_sites(tree, module):
    """(line, enclosing function as module.name) of each `@`, `@=` and
    matmul call."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (f"{module}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)
            if (isinstance(child, (ast.BinOp, ast.AugAssign))
                    and isinstance(child.op, ast.MatMult)
                    or isinstance(child, ast.Call) and getattr(
                        child.func, "attr", getattr(child.func, "id", None))
                    == "matmul"):
                yield child.lineno, inner
            yield from visit(child, inner)
    yield from visit(tree, module)


def test_matmul_check_finds_products():
    tree = ast.parse("def f(a, b):\n    return a @ b\n"
                     "def g(a, b):\n    a @= b\n    return np.matmul(a, b)\n"
                     "c = matmul(a, b)\n"
                     "def h(a, b):\n    return a * b\n")
    assert list(matmul_sites(tree, "m")) == [(2, "m.f"), (4, "m.g"),
                                             (5, "m.g"), (6, "m")]


def test_src_multiplies_matrices_by_blas_only_where_allowed():
    found = set()
    for path in glob.glob(os.path.join(REPO_ROOT, "src", "haarrect", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.splitext(os.path.basename(path))[0]
        found |= {where for _, where in matmul_sites(tree, module)}
    assert found == set(MATMUL_ALLOWED)
