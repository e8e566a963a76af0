import os

import numpy as np
import pytest
from scipy.linalg import schur

from haarrect.groupoids import FiniteGroupoid
from haarrect.groups import (
    AmbientSets,
    _bch_sample,
    _distances_to_identity,
    normalize_algebra_norm,
)
from haarrect.harness import ConstantsSpec, constants_for
from haarrect.rectifier import _max_distance, _psi_stack

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")


def translations(order, m):
    """Action table of cyclic(order) turning m points: (x + g) mod m."""
    return (np.arange(order)[:, None] + np.arange(m)) % m


def tabulated_action(n_g, space, action):
    """act[g, x] = action(g, x) over a label sequence, one callback call per
    arrow: an oracle for the action tables that holo and harness compute."""
    n_x = len(space)
    return np.array([[action(g, x) for x in range(n_x)] for g in range(n_g)],
                    dtype=np.intp).reshape(n_g, n_x)


def assert_same_groupoid(a, b):
    assert a.n_objects == b.n_objects
    for name in ("source", "target", "unit_arrows", "table", "inverse"):
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert x.shape == y.shape and np.array_equal(x, y), name


def defect(phi, core, alg):
    """Max distance of psi from the identity over the core pairs."""
    return _max_distance(alg, _psi_stack(phi, core.pairs))[0]


def with_products(g, products, inverse=None):
    """``g`` with its product table rebuilt from ``(q, p, qp)`` rows (and
    its inverse replaced, if given)."""
    return FiniteGroupoid.from_products(
        g.n_objects, g.source, g.target, g.unit_arrows, products,
        g.inverse if inverse is None else inverse)


@pytest.fixture(scope="session")
def algebras():
    return {
        "U1": normalize_algebra_norm("u1"),
        "SO2": normalize_algebra_norm("so2"),
        "SO3": normalize_algebra_norm("so3"),
        "SU2": normalize_algebra_norm("su2"),
    }


@pytest.fixture(scope="session")
def default_sets():
    return AmbientSets(1.5, 2.5)


@pytest.fixture(scope="session")
def constants(algebras):
    """Constants per group at the default ambient radii (memoized)."""
    return {
        tag: constants_for(algebras[tag], ConstantsSpec(seed=101))
        for tag in ("U1", "SO3", "SU2")
    }


def revalidate_bch_constants(alg, constants, sample_count=None, seed=1):
    """Check the three BCH inequalities on a fresh sample.

    Returns the worst signed violation per inequality (negative means the
    inequality holds with room to spare).
    """
    n = sample_count or constants.sample_count
    u, v, _, log_uv, conj = _bch_sample(alg, np.random.default_rng(seed), n)
    nu, nv = alg.norm(u), alg.norm(v)

    viol1 = np.max(alg.norm(log_uv - (u + v)) - constants.c * nu * nv)
    viol2 = np.max(alg.norm(log_uv) - constants.c_prime * alg.norm(u + v))
    viol3 = np.max(
        _distances_to_identity(alg, conj) - constants.c_dprime * (nv + nv * nu)
    )
    return float(viol1), float(viol2), float(viol3)


# ---------------------------------------------------------------------------
# independent oracles (deliberately not using package code paths)
# ---------------------------------------------------------------------------

TAU_GROUP = 1e-10   # group membership tolerance


def coords_to_matrix(algebra_id, coords):
    """Algebra matrices X(c) = sum_k c_k basis_k over the last axis."""
    coords = np.asarray(coords, dtype=float)
    return np.tensordot(coords, _BASES[algebra_id], axes=(-1, 0))


def group_membership_residual(matrix, group_id):
    """Max of the unitarity/orthogonality, determinant and realness
    residuals of a matrix or a stack of matrices.

    The determinant condition is det = 1 for the special groups and
    |det| = 1 (already implied by unitarity) for U(1).
    """
    m = np.asarray(matrix)
    n = {"U1": 1, "SO2": 2, "SO3": 3, "SU2": 2}[group_id]
    if m.shape[-2:] != (n, n):
        return np.inf
    res = np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(n)).max()
    det = np.linalg.det(m)
    res = max(res, np.abs(np.abs(det) - 1.0 if group_id == "U1"
                          else det - 1.0).max())
    if group_id in ("SO2", "SO3") and np.iscomplexobj(m):
        res = max(res, np.abs(m.imag).max())
    return float(res)


def quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_exp(v):
    """Unit quaternion of the rotation vector v."""
    th = np.linalg.norm(v)
    if th < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate([[np.cos(th / 2)], np.sin(th / 2) * np.asarray(v) / th])


def quat_log(q):
    """Rotation vector of a unit quaternion (principal: angle in [0, 2pi))."""
    v = q[1:]
    s = np.linalg.norm(v)
    if s < 1e-300:
        return np.zeros(3)
    return 2 * np.arctan2(s, q[0]) * v / s


def quat_to_su2(q):
    w, x, y, z = q
    return np.array([[w + 1j * z, y + 1j * x], [-y + 1j * x, w - 1j * z]])


def quat_to_so3(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rodrigues(w):
    """Closed-form SO(3) exponential."""
    w = np.asarray(w, dtype=float)
    th = np.linalg.norm(w)
    K = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
    if th < 1e-14:
        return np.eye(3) + K + 0.5 * (K @ K)
    return np.eye(3) + np.sin(th) / th * K + (1 - np.cos(th)) / th ** 2 * (K @ K)


# algebra bases, as documented in the README, for the eigh oracle and
# coords_to_matrix
_BASES = {
    "u1": np.array([[[1j]]]),
    "so2": np.array([[[0.0, -1.0], [1.0, 0.0]]]),
    "so3": np.array([[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
                     [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                     [[0, -1, 0], [1, 0, 0], [0, 0, 0]]], dtype=float),
    "su2": 0.5j * np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                            [[1, 0], [0, -1]]]),
}


def eigh_exp(algebra_id, coords):
    """Batched exp by Hermitian eigendecomposition of -iX: (n, dim) coords
    -> (n, m, m) complex matrices, real parts only for so2 and so3."""
    c = np.atleast_2d(np.asarray(coords, dtype=float))
    X = np.tensordot(c, _BASES[algebra_id], axes=(-1, 0))
    lam, V = np.linalg.eigh(-1j * X)
    G = np.einsum("...ij,...j,...kj->...ik", V, np.exp(1j * lam), V.conj())
    return G.real.astype(complex) if algebra_id in ("so2", "so3") else G


def schur_log(algebra_id, matrix):
    """Principal log coordinates by complex Schur decomposition.

    The Schur form of these normal matrices is diagonal; its eigen-angles
    are folded to (-pi, pi] and the log is projected back onto the algebra
    (real skew for so3, traceless skew-hermitian for su2).
    """
    m = np.asarray(matrix, dtype=complex)
    if algebra_id == "u1":
        return np.array([np.angle(m[0, 0])])
    if algebra_id == "so2":
        return np.array([np.arctan2(m[1, 0].real, m[0, 0].real)])
    T, Q = schur(m, output="complex")
    X = (Q * (1j * np.angle(np.diag(T)))) @ Q.conj().T
    if algebra_id == "so3":
        X = 0.5 * (X - X.T).real
        return np.array([X[2, 1], X[0, 2], X[1, 0]])
    X = 0.5 * (X - X.conj().T)
    X = X - 0.5 * np.trace(X) * np.eye(2)
    return np.array([2 * X[0, 1].imag, 2 * X[0, 1].real, 2 * X[0, 0].imag])


@pytest.fixture(scope="session")
def oracles():
    return {
        "quat_mul": quat_mul,
        "quat_exp": quat_exp,
        "quat_log": quat_log,
        "quat_to_su2": quat_to_su2,
        "quat_to_so3": quat_to_so3,
        "rodrigues": rodrigues,
        "eigh_exp": eigh_exp,
        "schur_log": schur_log,
    }
