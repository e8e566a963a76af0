"""Compact matrix group numerics.

Supported groups are U(1), SO(2), SO(3) and SU(2) in their defining
representations, plus uniform averaging over finite element lists.  The
module provides exp/log between a normed Lie algebra and the group, the
left-invariant distance, Haar quadrature, and empirical estimation of the
constants (c, c', c'', d, d', c_l, c_d) that drive the quadratic
contraction certificate of the averaging iteration.

Conventions fixed here and relied on everywhere else:
  * algebra coordinates are real vectors in the bases listed in
    ``algebra_basis``; exp and log are batched closed forms.  exp is
    exp(i theta) (u1), the rotation by theta (so2), Rodrigues on the unit
    axis (so3) and the unit quaternion (su2), valid at any angle; log is
    the atan2 rotation angle on the principal branch (-pi, pi] times the
    unit axis of the skew part;
  * the norm on the algebra is ``scale * raw_norm`` and the group distance
    is ``|log(g^-1 h)|`` in that norm (left translation of the norm);
  * exp of the exact zero vector returns the exact identity matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    GroupMembershipError,
    InvalidAlgebraVector,
    LogDomainError,
    NormalizationFailure,
)
from .sums import weighted_sum

TAU_GROUP = 1e-10   # group membership residual
TAU_ALG = 1e-9      # injectivity verification slack
TAU_ROUND = 1e-12   # exp/log round trip

GROUP_TAGS = ("U1", "SO2", "SO3", "SU2")
ALGEBRA_TAGS = ("u1", "so2", "so3", "su2")
ALGEBRA_OF = {"U1": "u1", "SO2": "so2", "SO3": "so3", "SU2": "su2"}
GROUP_OF = {v: k for k, v in ALGEBRA_OF.items()}
MATRIX_DIM = {"u1": 1, "so2": 2, "so3": 3, "su2": 2}
ALGEBRA_DIM = {"u1": 1, "so2": 1, "so3": 3, "su2": 3}
REAL_GROUPS = {"SO2", "SO3"}

# Principal-branch-safe radius of exp in Euclidean coordinates: eigen-angles
# of exp(X(c)) stay inside (-pi, pi) strictly below these radii.
_BRANCH_RADIUS_EUCLID = {"u1": np.pi, "so2": np.pi, "so3": np.pi, "su2": 2 * np.pi}
# sup |[u,v]| / (|u| |v|) in the Euclidean coordinate norm (structure
# constants of the four supported algebras; abelian ones commute).
_COMMUTATOR_SUP_EUCLID = {"u1": 0.0, "so2": 0.0, "so3": 1.0, "su2": 1.0}
# raw_norm = factor * euclidean coordinate norm
_RAW_FACTOR = {
    ("u1", "euclid"): 1.0,
    ("so2", "euclid"): 1.0,
    ("so3", "euclid"): 1.0,
    ("su2", "euclid"): 1.0,
    ("u1", "frobenius"): 1.0,
    ("so2", "frobenius"): np.sqrt(2.0),
    ("so3", "frobenius"): np.sqrt(2.0),
    ("su2", "frobenius"): 1.0 / np.sqrt(2.0),
}
_INJ_SAFETY = 0.99


def algebra_basis(algebra_id):
    """Ordered basis matrices of the algebra, shape (dim, n, n) complex."""
    if algebra_id == "u1":
        return np.array([[[1j]]])
    if algebra_id == "so2":
        return np.array([[[0.0, -1.0], [1.0, 0.0]]], dtype=complex)
    if algebra_id == "so3":
        lx = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
        ly = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
        lz = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
        return np.array([lx, ly, lz], dtype=complex)
    if algebra_id == "su2":
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]])
        s3 = np.array([[1, 0], [0, -1]], dtype=complex)
        return 0.5j * np.array([s1, s2, s3])
    raise ValueError(f"unknown algebra_id {algebra_id!r}")


def coords_to_matrix(algebra_id, coords):
    coords = np.asarray(coords, dtype=float)
    return np.tensordot(coords, algebra_basis(algebra_id), axes=(-1, 0))


def matrix_to_coords(algebra_id, X):
    """Exact linear extraction of coordinates from an algebra matrix."""
    if algebra_id == "u1":
        return np.asarray(X)[..., 0, 0].imag[..., None]
    if algebra_id == "so2":
        return np.asarray(X)[..., 1, 0].real[..., None]
    if algebra_id == "so3":
        return np.stack(
            [X[..., 2, 1].real, X[..., 0, 2].real, X[..., 1, 0].real], axis=-1
        )
    if algebra_id == "su2":
        return np.stack(
            [2 * X[..., 0, 1].imag, 2 * X[..., 0, 1].real, 2 * X[..., 0, 0].imag],
            axis=-1,
        )
    raise ValueError(f"unknown algebra_id {algebra_id!r}")


def bracket_coords(algebra_id, u, v):
    """Lie bracket in coordinates."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if algebra_id in ("u1", "so2"):
        return np.zeros_like(u)
    if algebra_id == "so3":
        return np.cross(u, v)
    if algebra_id == "su2":
        # [i sigma_j / 2, i sigma_k / 2] = -eps_jkl i sigma_l / 2
        return -np.cross(u, v)
    raise ValueError(f"unknown algebra_id {algebra_id!r}")


def group_membership_residual(matrix, group_id):
    """Max of the unitarity/orthogonality, determinant and realness residuals.

    The determinant condition is det = 1 for the special groups and
    |det| = 1 (already implied by unitarity) for U(1).
    """
    m = np.asarray(matrix)
    n = MATRIX_DIM[ALGEBRA_OF[group_id]]
    if m.shape != (n, n):
        return np.inf
    res = np.abs(m.conj().T @ m - np.eye(n)).max()
    det = np.linalg.det(m)
    res = max(res, abs(abs(det) - 1.0) if group_id == "U1" else abs(det - 1.0))
    if group_id in REAL_GROUPS:
        res = max(res, np.abs(m.imag).max() if np.iscomplexobj(m) else 0.0)
    return float(res)


@dataclass(frozen=True)
class GroupElement:
    """Matrix known to lie in the tagged group to tolerance TAU_GROUP."""

    matrix: np.ndarray
    group_id: str

    def __post_init__(self):
        res = group_membership_residual(self.matrix, self.group_id)
        if not res <= TAU_GROUP:
            raise GroupMembershipError(
                f"matrix is not in {self.group_id} (residual {res:.3e})"
            )


@dataclass(frozen=True)
class AlgebraVector:
    """Real coordinate vector in the fixed ordered basis of its algebra."""

    coords: np.ndarray
    algebra_id: str

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (ALGEBRA_DIM[self.algebra_id],) or not np.all(np.isfinite(c)):
            raise InvalidAlgebraVector(
                f"bad coords for {self.algebra_id}: {self.coords!r}"
            )
        object.__setattr__(self, "coords", c)


@dataclass(frozen=True)
class NormedAlgebra:
    """Algebra with normalized norm |.| = scale * raw_norm.

    ``injectivity_margin`` is the verified radius (in the normalized norm)
    within which log is trusted: exp is injective there and log returns the
    principal preimage.
    """

    algebra_id: str
    raw_norm: str
    scale: float
    injectivity_margin: float

    @property
    def dim(self):
        return ALGEBRA_DIM[self.algebra_id]

    @property
    def group_id(self):
        return GROUP_OF[self.algebra_id]

    @property
    def matrix_dim(self):
        return MATRIX_DIM[self.algebra_id]

    def norm(self, coords):
        """Normalized norm of coordinate vector(s); last axis is coords."""
        c = np.asarray(coords, dtype=float)
        factor = self.scale * _RAW_FACTOR[(self.algebra_id, self.raw_norm)]
        return factor * np.linalg.norm(c, axis=-1)

    def sample_ball(self, rng, radius, count):
        """Uniform sample in the normalized-norm ball of the given radius."""
        dim = self.dim
        factor = self.scale * _RAW_FACTOR[(self.algebra_id, self.raw_norm)]
        x = rng.normal(size=(count, dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        r = radius * rng.random(count) ** (1.0 / dim)
        return (r / factor)[:, None] * x


@dataclass(frozen=True)
class BchConstants:
    """Sampled upper bounds for the contraction-certificate constants.

    c, c', c'' and c_l are safety_factor times the empirical maximum of
    their ratio over the sample.  d and d' are the empirical extremes of the
    radial expansion ratio of exp and are deliberately not inflated: d is a
    lower bound, and inflating the pair would invalidate the d/d' check.
    c_d is K_radius - W_radius exactly (both sets are metric balls).
    """

    c: float
    c_prime: float
    c_dprime: float
    d: float
    d_prime: float
    c_l: float
    c_d: float
    sample_count: int
    safety_factor: float
    excluded_fraction: float = 0.0

    def __post_init__(self):
        if not (self.d <= self.d_prime):
            raise ValueError("d must be <= d_prime")
        for name in ("c", "c_prime", "c_dprime", "d", "d_prime", "c_l", "c_d"):
            if getattr(self, name) < 0:
                raise ValueError(f"constant {name} must be nonnegative")
        if self.safety_factor < 1.0:
            raise ValueError("safety_factor must be >= 1")


@dataclass(frozen=True)
class AmbientSets:
    """Metric balls W (range of the maps) and the compact K around it."""

    W_radius: float = 1.5
    K_radius: float = 2.5

    def __post_init__(self):
        if self.W_radius < 1.0:
            raise ValueError("W must contain the unit ball: W_radius >= 1")
        if not self.K_radius > self.W_radius:
            raise ValueError("K must strictly contain the closure of W")


# ---------------------------------------------------------------------------
# exp / log / distance
# ---------------------------------------------------------------------------

def _exp_matrices(alg, coords):
    """Batched exp: (n_batch, dim) coords -> (n_batch, n, n) group matrices.

    With theta = |coords| and n the unit axis: exp(i theta) (u1), the
    rotation by theta (so2), Rodrigues I + sin(theta) K + 2 sin^2(theta/2) K^2
    with K = X(n) (so3; the half-angle form keeps 1 - cos(theta) from
    cancelling) and cos(theta/2) I + 2 sin(theta/2) X(n) (su2).  Non-finite
    coordinates raise InvalidAlgebraVector.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if not np.all(np.isfinite(coords)):
        raise InvalidAlgebraVector(f"non-finite {alg.algebra_id} coords")
    aid = alg.algebra_id
    if aid == "u1":
        G = np.exp(1j * coords)[..., None]
    elif aid == "so2":
        c, s = np.cos(coords[:, 0]), np.sin(coords[:, 0])
        G = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2).astype(complex)
    else:
        # hypot keeps theta, and so the axis, exact for subnormal coords
        theta = np.hypot(np.hypot(coords[:, 0], coords[:, 1]), coords[:, 2])
        axis = np.divide(coords, theta[:, None], out=np.zeros_like(coords),
                         where=theta[:, None] > 0.0)
        basis = algebra_basis(aid)
        if aid == "so3":
            # K^2 = n n^T - I for a unit axis n
            K = np.tensordot(axis, basis.real, axes=(-1, 0))
            v = 2.0 * np.sin(0.5 * theta) ** 2
            G = (np.eye(3) + np.sin(theta)[:, None, None] * K
                 + v[:, None, None] * (axis[:, :, None] * axis[:, None, :]
                                       - np.eye(3))).astype(complex)
        else:
            K = np.tensordot(axis, basis, axes=(-1, 0))
            G = (np.cos(0.5 * theta)[:, None, None] * np.eye(2)
                 + (2.0 * np.sin(0.5 * theta))[:, None, None] * K)
    # exact-zero fast path: zero vectors must exponentiate to the exact identity
    zero = ~np.any(coords != 0.0, axis=-1)
    if np.any(zero):
        G[zero] = np.eye(alg.matrix_dim)
    return G


def exp_map(u, alg):
    """Matrix exponential of an algebra vector.

    Accepts an AlgebraVector or a raw coordinate array.
    """
    coords = u.coords if isinstance(u, AlgebraVector) else np.asarray(u, dtype=float)
    if coords.shape != (alg.dim,):
        raise InvalidAlgebraVector(f"bad coords {coords!r} for {alg.algebra_id}")
    g = _exp_matrices(alg, coords[None, :])[0]
    return GroupElement(matrix=g, group_id=alg.group_id)


def log_map(g, alg):
    """Principal-branch log of a group element.

    Raises LogDomainError outside the verified injectivity region, where the
    principal preimage can no longer be trusted by callers.
    """
    m = g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=complex)
    coords = _log_coords(alg, m[None])[0]
    if alg.norm(coords) > alg.injectivity_margin:
        raise LogDomainError(
            f"|log g| = {alg.norm(coords):.6g} exceeds injectivity margin "
            f"{alg.injectivity_margin:.6g}"
        )
    return AlgebraVector(coords=coords, algebra_id=alg.algebra_id)


def _sine_cosine(alg, mats):
    """Batched sine vector sin(a) n and cosine of the rotation angle a.

    An element is cos(a) I + sin(a) X(n), n a unit algebra direction; a is
    |log| (u1, so2, so3) or |log| / 2 (su2).
    """
    m = np.asarray(mats)
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


def _angles_from_matrices(alg, mats):
    """Batched |log| in Euclidean coordinates, via stable trace/skew forms.

    atan2 of the (sine, cosine) parts recovers the rotation angle with full
    absolute accuracy at both ends of [0, pi]; this realizes |log(g)| without
    the branch-sensitive axis extraction.
    """
    sine, cosine = _sine_cosine(alg, mats)
    angle = np.arctan2(np.linalg.norm(sine, axis=-1), cosine)
    return 2.0 * angle if alg.algebra_id == "su2" else angle


def _log_coords(alg, mats):
    """Principal log of a stack of group matrices: (n, m, m) -> (n, dim).

    The atan2 angle, signed (u1, so2) or times the unit sine vector (so3,
    and su2 as the quaternion log).  Near an SO(3) half turn the axis is the
    dominant column of the symmetric part cos(a) I + (1 - cos a) n n^T.
    """
    sine, cosine = _sine_cosine(alg, mats)
    if alg.dim == 1:
        return np.arctan2(sine, cosine[..., None])
    s = np.linalg.norm(sine, axis=-1, keepdims=True)
    # zero sine: the identity (any axis) or a half turn (keep its angle)
    axis = np.divide(sine, s, out=np.zeros_like(sine), where=s > 0)
    axis[s[..., 0] == 0, -1] = 1.0
    far = cosine < 0.0
    if alg.algebra_id == "so3" and np.any(far):
        c = cosine[far, None, None]
        r = np.asarray(mats)[far].real
        nn = (0.5 * (r + r.swapaxes(-1, -2)) - c * np.eye(3)) / (1.0 - c)
        diag = np.diagonal(nn, axis1=-2, axis2=-1)
        i = np.argmax(diag, axis=-1)
        n = nn[np.arange(len(i)), i] / np.sqrt(diag.max(axis=-1))[:, None]
        flip = np.einsum("ij,ij->i", n, sine[far]) < 0.0
        axis[far] = np.where(flip[:, None], -n, n)
    angle = np.arctan2(s, cosine[..., None])
    return (2.0 * angle if alg.algebra_id == "su2" else angle) * axis


def _distances_to_identity(alg, mats):
    factor = alg.scale * _RAW_FACTOR[(alg.algebra_id, alg.raw_norm)]
    return factor * _angles_from_matrices(alg, mats)


def left_distance(g, h, alg):
    """Left-invariant distance |log(g^-1 h)| in the normalized norm."""
    gm = g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=complex)
    hm = h.matrix if isinstance(h, GroupElement) else np.asarray(h, dtype=complex)
    return float(_distances_to_identity(alg, gm.conj().T @ hm))


# ---------------------------------------------------------------------------
# norm normalization
# ---------------------------------------------------------------------------

def normalize_algebra_norm(algebra_id, raw_norm="euclid", verify_samples=4000,
                           seed=20260401):
    """Pick the scale making the unit ball BCH-ready, then verify by sampling.

    The scale is the max of the exact commutator-ratio supremum for the
    algebra (the four supported algebras have closed-form structure
    constants) and the injectivity floor that places the *doubled* unit ball
    strictly inside the principal branch of exp: products of two unit-ball
    exponentials must stay wrap-free, otherwise the BCH gap ratios pick up
    spurious branch jumps (the abelian gap must vanish identically).
    Verification draws sample pairs and checks |[u,v]| <= |u||v| plus the
    log(exp(u)) = u round trip on the margin ball; on failure the scale is
    bumped and re-verified, up to a cap.
    """
    if (algebra_id, raw_norm) not in _RAW_FACTOR:
        raise ValueError(f"unsupported (algebra, raw_norm): {algebra_id}, {raw_norm}")
    factor = _RAW_FACTOR[(algebra_id, raw_norm)]
    branch_raw = factor * _BRANCH_RADIUS_EUCLID[algebra_id]
    comm_sup_raw = _COMMUTATOR_SUP_EUCLID[algebra_id] / factor
    scale = max(comm_sup_raw, 2.0 / (_INJ_SAFETY * branch_raw))

    rng = np.random.default_rng(seed)
    cap = scale * 16.0
    while True:
        margin = _INJ_SAFETY * scale * branch_raw
        alg = NormedAlgebra(algebra_id=algebra_id, raw_norm=raw_norm,
                            scale=scale, injectivity_margin=margin)
        if _verify_normalization(alg, rng, verify_samples):
            return alg
        scale *= 1.1
        if scale > cap:
            raise NormalizationFailure(
                f"could not verify normalization for {algebra_id}/{raw_norm} "
                f"below scale cap {cap:.3g}"
            )


def _verify_normalization(alg, rng, count):
    u = alg.sample_ball(rng, 1.0, count)
    v = alg.sample_ball(rng, 1.0, count)
    br = bracket_coords(alg.algebra_id, u, v)
    if np.any(alg.norm(br) > alg.norm(u) * alg.norm(v) + 1e-12):
        return False
    # round-trip injectivity witness over the margin ball
    w = alg.sample_ball(rng, alg.injectivity_margin, count)
    err = alg.norm(_log_coords(alg, _exp_matrices(alg, w)) - w)
    return bool(np.all(err <= TAU_ALG * np.maximum(1.0, alg.norm(w))))


# ---------------------------------------------------------------------------
# constants estimation
# ---------------------------------------------------------------------------

_EPS_FLOOR_CPRIME = 1e-6   # |u+v| floor for the 0/0 c' ratio
_EPS_FLOOR_PROD = 1e-8     # |u||v| and |v| floors for the c and c'' ratios


def _bch_sample(alg, rng, count):
    """u and v drawn in the unit ball, exp(u), log(exp(u) exp(v)) and
    exp(u) exp(v) exp(-u): the sample both BCH routines measure."""
    u = alg.sample_ball(rng, 1.0, count)
    v = alg.sample_ball(rng, 1.0, count)
    eu = _exp_matrices(alg, u)
    euv = np.einsum("nij,njk->nik", eu, _exp_matrices(alg, v))
    conj = np.einsum("nij,nkj->nik", euv, eu.conj())
    return u, v, eu, _log_coords(alg, euv), conj


def estimate_bch_constants(alg, sets, sample_count=2000, safety_factor=1.25,
                           seed=0):
    """Estimate the seven contraction constants from seeded samples.

    The three BCH ratios and the adjoint distortion are reported as
    safety_factor times their empirical maximum over the sample; d and d'
    are the raw empirical extremes of |exp(u)| / |u|; c_d is the closed-form
    gap between the two ambient balls.  Deterministic for a given seed.
    """
    if sample_count < 1000:
        raise ValueError("sample_count must be >= 1000")
    rng = np.random.default_rng(seed)
    u, v, eu, log_uv, conj = _bch_sample(alg, rng, sample_count)
    nu, nv = alg.norm(u), alg.norm(v)

    gap = alg.norm(log_uv - (u + v))
    nsum = alg.norm(u + v)
    nlog = alg.norm(log_uv)
    nconj = _distances_to_identity(alg, conj)
    nexp = _distances_to_identity(alg, eu)

    keep_c = nu * nv >= _EPS_FLOOR_PROD
    c_emp = float(np.max(gap[keep_c] / (nu * nv)[keep_c], initial=0.0))

    keep_cp = nsum >= _EPS_FLOOR_CPRIME
    cp_emp = float(np.max(nlog[keep_cp] / nsum[keep_cp], initial=0.0))
    excluded = 1.0 - keep_cp.sum() / sample_count

    keep_cd = nv >= _EPS_FLOOR_PROD
    cdd_emp = float(np.max(nconj[keep_cd] / (nv * (1.0 + nu))[keep_cd], initial=0.0))

    keep_r = nu >= _EPS_FLOOR_PROD
    ratios = nexp[keep_r] / nu[keep_r]
    d_emp, dp_emp = float(ratios.min()), float(ratios.max())

    c_l_emp = _adjoint_distortion_max(alg, sets, rng, min(sample_count, 512))
    c_d = sets.K_radius - sets.W_radius

    return BchConstants(
        c=safety_factor * c_emp,
        c_prime=safety_factor * cp_emp,
        c_dprime=safety_factor * cdd_emp,
        d=d_emp,
        d_prime=dp_emp,
        c_l=safety_factor * c_l_emp,
        c_d=c_d,
        sample_count=sample_count,
        safety_factor=safety_factor,
        excluded_fraction=float(excluded),
    )


def _adjoint_distortion_max(alg, sets, rng, count):
    """Max operator norm of Ad_h over h sampled in the ambient compact.

    The derivative of g -> h g h^-1 in the left trivialization is Ad_h, so
    its norm bounds the distortion of conjugation uniformly over B_1(e).
    Samples are capped at the branch-safe radius.
    """
    radius = min(sets.K_radius, 0.995 * alg.injectivity_margin)
    w = alg.sample_ball(rng, radius, count)
    hs = _exp_matrices(alg, w)
    basis = algebra_basis(alg.algebra_id)
    # ad[n, :, j] = coords of h_n b_j h_n^-1
    conj = np.einsum("nik,jkl,nml->njim", hs, basis, hs.conj())
    ad = matrix_to_coords(alg.algebra_id, conj).swapaxes(-1, -2)
    # all supported normalized norms are multiples of the Euclidean
    # coordinate norm, so the operator norm is the spectral norm
    return max(1.0, float(np.max(np.linalg.norm(ad.real, 2, axis=(-2, -1)))))


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
# Haar quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Node counts for the Haar quadratures.

    U(1)/SO(2) use the n_theta-point trapezoid rule on equispaced angles
    (exact for trigonometric polynomials of degree < n_theta).  SO(3)/SU(2)
    use a z-y-z Euler product rule: trapezoid in both z-angles and
    Gauss-Legendre in cos(beta).
    """

    n_theta: int = 64
    n_alpha: int = 12
    n_beta: int = 8
    n_gamma: int = 12


def _circle_nodes(group_id, n):
    theta = 2 * np.pi * np.arange(n) / n
    if group_id == "U1":
        return np.exp(1j * theta)[:, None, None]
    c, s = np.cos(theta), np.sin(theta)
    return np.stack(
        [np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2
    ).astype(complex)


def _euler_nodes(group_id, rule):
    """Euler z-y-z product nodes and weights; weights sum to 1 exactly."""
    aid = ALGEBRA_OF[group_id]
    # plain unit-scale algebra, used only for exp
    plain = NormedAlgebra(aid, "euclid", 1.0, _INJ_SAFETY * _BRANCH_RADIUS_EUCLID[aid])
    alpha = 2 * np.pi * np.arange(rule.n_alpha) / rule.n_alpha
    gspan = 4 * np.pi if group_id == "SU2" else 2 * np.pi
    gamma = gspan * np.arange(rule.n_gamma) / rule.n_gamma
    x, wx = np.polynomial.legendre.leggauss(rule.n_beta)
    z_axis, y_axis = [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]
    ra, rb, rg = (_exp_matrices(plain, np.outer(angles, axis)) for angles, axis
                  in ((alpha, z_axis), (np.arccos(x), y_axis), (gamma, z_axis)))
    nodes = ra[:, None, None] @ rb[None, :, None] @ rg[None, None, :]
    weights = np.broadcast_to((wx / (2.0 * rule.n_alpha * rule.n_gamma))[:, None],
                              nodes.shape[:3])
    return nodes.reshape(-1, *ra.shape[1:]), weights.ravel()


def haar_integrate(f, group, rule=None):
    """Normalized Haar average of f over the group.

    ``group`` is a tag from GROUP_TAGS (f receives node matrices) or a finite
    sequence of elements (f receives each element; exact uniform average).
    Reduction is compensated and in fixed node order.
    """
    rule = rule or QuadratureRule()
    if not isinstance(group, str):
        elements = list(group)
        values = [np.asarray(f(g), dtype=complex) for g in elements]
        return weighted_sum(np.full(len(values), 1.0 / len(values)), values)
    if group in ("U1", "SO2"):
        nodes = _circle_nodes(group, rule.n_theta)
        weights = np.full(len(nodes), 1.0 / len(nodes))
    elif group in ("SO3", "SU2"):
        nodes, weights = _euler_nodes(group, rule)
    else:
        raise ValueError(f"unknown group {group!r}")
    values = [np.asarray(f(g), dtype=complex) for g in nodes]
    return weighted_sum(weights, values)
