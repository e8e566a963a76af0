"""Bitwise oracles for the batched Lie kernels.

The kernels compute entry by entry on length-n columns.  The references
here are the broadcast matrix forms over (n, m, m) and (n, dim) stacks that
the README states, and the einsum forms of the stacked products; every
kernel must match them, through the conftest adapter between value columns
and matrices, in dtype, in value and in the sign of every zero.
"""

import ast
import glob
import itertools
import os

import numpy as np
import pytest

from conftest import (
    REPO_ROOT,
    columns,
    coords_to_matrix,
    matrices,
    psi_stack,
)
from haarrect.groupoids import build_pair_groupoid
from haarrect.groups import (
    _angle_pass,
    _columns,
    _compose,
    _distances_to_identity,
    _exp_matrices,
    _inverse,
    _log_coords,
    _matrices,
    _row_norm,
    normalize_algebra_norm,
)

ALGEBRAS = ("u1", "so2", "so3", "su2")


def assert_same_bits(ref, got):
    ref, got = np.asarray(ref), np.asarray(got)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


# ---------------------------------------------------------------------------
# the broadcast forms
# ---------------------------------------------------------------------------

def ref_norm(alg, coords):
    return alg.factor * np.linalg.norm(coords, axis=-1)


def ref_sample_ball(alg, rng, radius, count):
    x = rng.normal(size=(count, alg.dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / alg.dim)
    return (r / alg.factor)[:, None] * x


def ref_exp(alg, coords):
    """Rodrigues and the unit quaternion on (n, m, m) stacks, then the exact
    identity written over the zero vectors."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    aid = alg.algebra_id
    if aid == "u1":
        G = np.exp(1j * coords)[..., None]
    elif aid == "so2":
        c, s = np.cos(coords[:, 0]), np.sin(coords[:, 0])
        G = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    else:
        theta = np.hypot(np.hypot(coords[:, 0], coords[:, 1]), coords[:, 2])
        axis = np.divide(coords, theta[:, None], out=np.zeros_like(coords),
                         where=theta[:, None] > 0.0)
        K = coords_to_matrix(aid, axis)
        if aid == "so3":
            v = 2.0 * np.sin(0.5 * theta) ** 2
            G = (np.eye(3) + np.sin(theta)[:, None, None] * K
                 + v[:, None, None] * (axis[:, :, None] * axis[:, None, :]
                                       - np.eye(3)))
        else:
            G = (np.cos(0.5 * theta)[:, None, None] * np.eye(2)
                 + (2.0 * np.sin(0.5 * theta))[:, None, None] * K)
    G[~np.any(coords != 0.0, axis=-1)] = np.eye(alg.matrix_dim)
    return G


def ref_sine_cosine(alg, m):
    if alg.algebra_id == "u1":
        return m[..., 0, :1].imag, m[..., 0, 0].real
    if alg.algebra_id == "so2":
        return m[..., 1, :1].real, m[..., 0, 0].real
    if alg.algebra_id == "so3":
        r = m.real
        skew = (r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0],
                r[..., 1, 0] - r[..., 0, 1])
        cosine = 0.5 * (r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0)
        return 0.5 * np.stack(skew, axis=-1), cosine
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    return (0.5 * np.stack([(b + c).imag, (b - c).real, (a - d).imag], axis=-1),
            0.5 * (a + d).real)


def ref_distances(alg, mats):
    sine, cosine = ref_sine_cosine(alg, mats)
    angle = np.arctan2(np.linalg.norm(sine, axis=-1), cosine)
    return alg.factor * (2.0 * angle if alg.algebra_id == "su2" else angle)


def ref_log(alg, mats):
    """The principal log on (n, 3) and (n, 3, 3) stacks, the SO(3) half-turn
    axis taken from the symmetric part."""
    sine, cosine = ref_sine_cosine(alg, mats)
    if alg.dim == 1:
        return np.arctan2(sine, cosine[..., None])
    s = np.linalg.norm(sine, axis=-1, keepdims=True)
    axis = np.divide(sine, s, out=np.zeros_like(sine), where=s > 0)
    axis[s[..., 0] == 0, -1] = 1.0
    far = cosine < 0.0
    if alg.algebra_id == "so3" and np.any(far):
        c = cosine[far, None, None]
        r = mats[far].real
        nn = (0.5 * (r + r.swapaxes(-1, -2)) - c * np.eye(3)) / (1.0 - c)
        diag = np.diagonal(nn, axis1=-2, axis2=-1)
        i = np.argmax(diag, axis=-1)
        n = nn[np.arange(len(i)), i] / np.sqrt(diag.max(axis=-1))[:, None]
        flip = np.einsum("ij,ij->i", n, sine[far]) < 0.0
        axis[far] = np.where(flip[:, None], -n, n)
    angle = np.arctan2(s, cosine[..., None])
    return (2.0 * angle if alg.algebra_id == "su2" else angle) * axis


def ref_product(a, b):
    return np.einsum("nij,njk->nik", a, b)


def ref_adjoint_product(a, b):
    return np.einsum("nij,nkj->nik", a, b.conj())


def ref_psi(phi, pairs):
    """The products over the gathered strided inverses."""
    k, p, kp = np.asarray(pairs, dtype=np.intp).reshape(-1, 3).T
    inv = phi.conj().swapaxes(-1, -2)
    return inv[p] @ inv[k] @ phi[kp]


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


def hard_matrices(alg, rng):
    """exp of the hard coordinates, their products (rotations through the
    whole angle range, half turns among them), exact SO(3) half turns, and
    SO(3) half turns plus a skew part almost orthogonal to their axis, whose
    axis sign the einsum's own rounding decides."""
    g = ref_exp(alg, hard_coords(alg, rng))
    mats = [g, np.einsum("nij,njk->nik", g, g[::-1])]
    if alg.algebra_id == "so3":
        mats.append(np.array([np.diag(d) for d in
                              itertools.product((1.0, -1.0), repeat=3)
                              if np.prod(d) > 0]))
        n = rng.normal(size=(20000, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        m = np.cross(n, rng.normal(size=n.shape))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        m += rng.uniform(-1e-15, 1e-15, size=(len(n), 1)) * n
        mats.append(2.0 * n[:, :, None] * n[:, None, :] - np.eye(3)
                    + 1e-3 * coords_to_matrix("so3", m))
    return np.concatenate(mats)


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
    got = _exp_matrices(alg, coords)
    assert got.flags.c_contiguous
    assert_same_bits(ref_exp(alg, coords), matrices(got))
    assert_same_bits(ref_exp(alg, coords),
                     matrices(_exp_matrices(alg, coords.T.T)))


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_log_and_distance_are_the_broadcast_forms(algs, aid):
    alg = algs[aid]
    mats = hard_matrices(alg, np.random.default_rng(8))
    values = columns(mats)
    assert_same_bits(ref_log(alg, mats), _log_coords(alg, values))
    assert_same_bits(ref_distances(alg, mats),
                     _distances_to_identity(alg, values))
    n = len(mats) // 2 * 2
    stacked = mats[:n].reshape(2, -1, *mats.shape[1:])
    assert_same_bits(ref_distances(alg, stacked), _distances_to_identity(
        alg, values[..., :n].reshape(*values.shape[:3], 2, -1)))


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_psi_stack_is_the_gathered_product(algs, aid):
    alg = algs[aid]
    g = build_pair_groupoid(6)
    values = ref_exp(alg, ref_sample_ball(alg, np.random.default_rng(9), 3.0,
                                          g.n_arrows))
    values[::5] = np.eye(alg.matrix_dim)
    assert_same_bits(ref_psi(values, g.products),
                     matrices(psi_stack(alg, columns(values), g.products)))


def product_operand(alg, rng, n):
    """n group elements, about one entry in six replaced by a signed zero or
    a signed subnormal (in the real and the imaginary part alike)."""
    x = ref_exp(alg, ref_sample_ball(alg, rng, 3.0, n))
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310])
    for part in ((x.real, x.imag) if np.iscomplexobj(x) else (x,)):
        hit = rng.random(x.shape) < 1 / 6
        part[hit] = rng.choice(specials, size=int(hit.sum()))
    return x


@pytest.mark.parametrize("n", [0, 1, 9, 25, 400, 2000])
@pytest.mark.parametrize("aid", ALGEBRAS)
def test_compose_is_the_einsum_product(algs, aid, n):
    # einsum's order of the j sum follows its operands' strides, so it is
    # the oracle on C-ordered stacks and on the strided phi^H; _compose
    # gives every layout of its columns the bits of their C-ordered copy
    alg = algs[aid]
    rng = np.random.default_rng(n)
    a, b = product_operand(alg, rng, n), product_operand(alg, rng, n)
    A, B = columns(a), columns(b)
    kept = A.copy(), B.copy()
    for x, y in ((a, b), (b, a), (a, a)):
        assert_same_bits(ref_product(x, y),
                         matrices(_compose(columns(x), columns(y))))
        assert_same_bits(ref_adjoint_product(x, y), matrices(
            _compose(columns(x), columns(y), adjoint=True)))
    a_h = a.conj().swapaxes(-1, -2)
    assert_same_bits(ref_product(a_h, b), matrices(_compose(columns(a_h), B)))
    for x, y in ((A.swapaxes(1, 2), B), (A[..., ::-1], B[..., ::-1]),
                 (A, B[:, ::-1, ::-1]), (np.asfortranarray(A), B)):
        c_x, c_y = np.ascontiguousarray(x), np.ascontiguousarray(y)
        for adjoint in (False, True):
            got = _compose(x, y, adjoint=adjoint)
            assert got.flags.c_contiguous
            assert_same_bits(_compose(c_x, c_y, adjoint=adjoint), got)
    assert_same_bits(kept[0], A)
    assert_same_bits(kept[1], B)


@pytest.mark.parametrize("n", [0, 1, 500])
@pytest.mark.parametrize("aid", ALGEBRAS)
def test_columns_and_matrices_round_trip_bitwise(algs, aid, n):
    # the converters at the BLAS products, signed zeros and subnormals
    # included, against the adapter and each other
    alg = algs[aid]
    mats = product_operand(alg, np.random.default_rng(13), n)
    parts = 2 if aid in ("u1", "su2") else 1
    values = _columns(mats)
    assert values.shape == (parts, alg.matrix_dim, alg.matrix_dim, n)
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert_same_bits(columns(mats), values)
    back = _matrices(values)
    assert back.flags.c_contiguous
    assert_same_bits(mats, back)
    assert_same_bits(values, _columns(back))
    strided = mats.conj().swapaxes(-1, -2)[::-1]
    assert_same_bits(columns(strided), _columns(strided))
    assert_same_bits(mats, _matrices(values[..., ::-1])[::-1])


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_inverse_is_the_conjugate_transpose_bitwise(algs, aid):
    alg = algs[aid]
    mats = product_operand(alg, np.random.default_rng(14), 500)
    values = columns(mats)
    inv = _inverse(values)
    assert inv.flags.c_contiguous
    assert_same_bits(mats.conj().swapaxes(-1, -2), matrices(inv))
    assert_same_bits(values, _inverse(inv))
    assert_same_bits(values, columns(mats))     # the input is left alone


@pytest.mark.parametrize("aid", ALGEBRAS)
def test_shared_angle_pass_gives_the_defect_and_the_log(algs, aid):
    # iterate measures a psi stack's defect and takes its logs from one
    # angle pass; both equal the standalone kernels and their references
    alg = algs[aid]
    rng = np.random.default_rng(12)
    eye = np.eye(alg.matrix_dim)
    mats = np.concatenate([
        hard_matrices(alg, rng),                       # half turns within 1e-8
        ref_exp(alg, ref_sample_ball(alg, rng, 3.0, 3000)),
        np.broadcast_to(eye, (50,) + eye.shape)]).astype(
            complex if aid in ("u1", "su2") else float)
    values = columns(mats)
    angles = _angle_pass(alg, values)
    assert np.any(angles[3] == 0.0) and np.any(angles[1] < 0.0)
    if aid == "so3":
        near = np.abs(angles[3] - np.pi)
        assert np.any((near > 0.0) & (near < 1e-8))
    assert_same_bits(_distances_to_identity(alg, values),
                     alg.factor * angles[3])
    assert_same_bits(ref_distances(alg, mats), alg.factor * angles[3])
    assert_same_bits(_log_coords(alg, values),
                     _log_coords(alg, values, angles))
    assert_same_bits(ref_log(alg, mats), _log_coords(alg, values, angles))


# ---------------------------------------------------------------------------
# stacked products in src/ go through _compose
# ---------------------------------------------------------------------------

# einsum subscripts that src/ may use, each with its reason
EINSUM_ALLOWED = {
    "ij,ij->i": "the row dot in _log_coords that picks the sign of an SO(3) "
                "half-turn axis: one dot per row, whose rounding decides the "
                "sign next to a half turn, as the log oracle pins it",
}


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
# each with its reason: these are the only places where the BLAS kernel
# decides bits, and each converts between value columns and matrices there
MATMUL_ALLOWED = {
    "rectifier.psi_slabs": "psi(k, p) = phi(p)^-1 phi(k)^-1 phi(kp) as two "
                           "stacked products of gathered matrices, per slab",
    "harness.generate_exact_morphism": "the exact coboundary h_t h_s^-1 and "
                                       "the conjugated homomorphism z v z^H",
}


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
    # every other product of group values is a _compose of value columns
    assert found == set(MATMUL_ALLOWED)
